#include "cluster/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "marking/factory.hpp"

namespace ddpm::cluster {

ClusterNetwork::ClusterNetwork(const ClusterConfig& config)
    : config_(config),
      topo_(topo::make_topology(config.topology)),
      addresses_(topo_->num_nodes()),
      router_(route::make_router(config.router, *topo_)),
      routes_(*topo_),
      scheme_(mark::make_scheme(config.scheme, *topo_, config.ppm_probability,
                                config.seed ^ 0x5eedULL)),
      pattern_(attack::make_pattern(config.pattern, *topo_)),
      registry_(config.telemetry) {
  if (scheme_ != nullptr) scheme_->bind_telemetry(&registry_);
  switch_env_.sim = &sim_;
  switch_env_.topo = topo_.get();
  switch_env_.router = router_.get();
  switch_env_.scheme = scheme_.get();
  switch_env_.failures = &failures_;
  switch_env_.metrics = &metrics_;
  switch_env_.registry = &registry_;
  switch_env_.deliver = [this](pkt::Packet&& p, topo::NodeId at) {
    deliver_local(std::move(p), at);
  };
  switch_env_.arrive = [this](pkt::Packet&& p, topo::NodeId from,
                              topo::NodeId to) {
    switches_[to].handle(std::move(p), routes_.port_to(to, from));
  };
  switch_env_.link_bandwidth = config.link_bandwidth;
  switch_env_.link_latency = config.link_latency;
  switch_env_.queue_capacity = config.queue_capacity;
  port_labels_ = telemetry_port_labels(*topo_);
  switch_env_.port_labels = &port_labels_;

  node_env_.sim = &sim_;
  node_env_.topo = topo_.get();
  node_env_.addresses = &addresses_;
  node_env_.pattern = pattern_.get();
  node_env_.metrics = &metrics_;
  node_env_.inject = [this](pkt::Packet&& p, topo::NodeId at) {
    return inject(std::move(p), at);
  };
  node_env_.delivered = [this](const pkt::Packet& p, topo::NodeId at) {
    if (hook_) hook_(p, at);
  };
  node_env_.infect_peer = [this](topo::NodeId node, netsim::SimTime when) {
    sim_.schedule_at(when, [this, node]() { nodes_[node].infect(); });
  };
  node_env_.benign_rate = config.benign_rate_per_node;
  node_env_.benign_payload = config.benign_payload;
  node_env_.initial_ttl = config.initial_ttl;
  node_env_.record_traces = config.record_traces;
  node_env_.attack = &attack_;

  // Steady state keeps roughly one pending event per busy output port plus
  // a couple of timers per node; size the queue once so the warm-up ramp
  // does not reallocate it.
  const auto nodes = std::size_t(topo_->num_nodes());
  sim_.reserve(nodes * (2 * std::size_t(topo_->num_ports()) + 4));

  // Stream hierarchy: seed -> long_jump per replication -> jump per entity.
  // Every entity draws from its own 2^128-draw block; see ClusterConfig.
  netsim::Rng master(config.seed);
  for (std::uint64_t s = 0; s < config.rng_stream; ++s) master.long_jump();
  switches_.reserve(nodes);
  nodes_.reserve(nodes);
  for (topo::NodeId id = 0; id < topo_->num_nodes(); ++id) {
    switches_.emplace_back(id, &switch_env_, master.jump_stream());
    nodes_.emplace_back(id, &node_env_, master.jump_stream());
  }
}

void ClusterNetwork::set_attack(attack::AttackConfig attack) {
  if (started_) {
    throw std::logic_error("ClusterNetwork::set_attack: already started");
  }
  std::sort(attack.zombies.begin(), attack.zombies.end());
  attack_ = std::move(attack);
}

void ClusterNetwork::start() {
  if (started_) throw std::logic_error("ClusterNetwork::start: called twice");
  started_ = true;
  for (ComputeNode& node : nodes_) node.start();
}

bool ClusterNetwork::inject(pkt::Packet&& packet, topo::NodeId at) {
  if (filter_.blocks_injection(at)) {
    ++metrics_.blocked_at_source;
    return false;
  }
  if (config_.ingress_filtering &&
      packet.header.source() != addresses_.address_of(at)) {
    ++metrics_.dropped_spoofed_ingress;
    return false;
  }
  packet.id = next_packet_id_++;
  switches_[at].inject(std::move(packet));
  return true;
}

void ClusterNetwork::deliver_local(pkt::Packet&& packet, topo::NodeId at) {
  if (filter_.blocks_delivery(packet)) {
    ++metrics_.filtered_at_victim;
    return;
  }
  nodes_[at].receive(std::move(packet));
}

void ClusterNetwork::set_tracer(telemetry::Tracer* tracer) {
  switch_env_.tracer = tracer;
  sim_.attach_tracer(tracer);
}

telemetry::MetricsSnapshot ClusterNetwork::telemetry_snapshot() {
  // One store per count: the kernel keeps its own counters (so its hot loop
  // never touches telemetry slots), Metrics holds the network aggregates,
  // and the registry's own series hold only the per-switch and per-port
  // breakdowns. Publish the aggregates as gauges at snapshot time: gauge
  // values sum across replication merges, exactly like counters.
  registry_.gauge("sim.events_executed").set(double(sim_.events_executed()));
  registry_.gauge("sim.clamped_schedules").set(double(sim_.clamped_events()));
  registry_.gauge("sim.now_ticks").set(double(sim_.now()));
  registry_.gauge("sim.pending_events").set(double(sim_.pending_count()));
  registry_.gauge("net.injected_benign").set(double(metrics_.injected_benign));
  registry_.gauge("net.injected_attack").set(double(metrics_.injected_attack));
  registry_.gauge("net.delivered_benign").set(double(metrics_.delivered_benign));
  registry_.gauge("net.delivered_attack").set(double(metrics_.delivered_attack));
  registry_.gauge("net.blocked_at_source").set(double(metrics_.blocked_at_source));
  registry_.gauge("net.dropped_spoofed_ingress")
      .set(double(metrics_.dropped_spoofed_ingress));
  registry_.gauge("net.filtered_at_victim")
      .set(double(metrics_.filtered_at_victim));
  return registry_.snapshot();
}

std::size_t ClusterNetwork::infected_count() const {
  std::size_t count = 0;
  for (const ComputeNode& node : nodes_) count += node.infected();
  return count;
}

}  // namespace ddpm::cluster
