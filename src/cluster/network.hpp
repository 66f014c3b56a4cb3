// ClusterNetwork: builds a complete simulated cluster — topology, one
// switch plus one compute node per index, a routing policy, a marking
// scheme, benign traffic, and optionally an attack — and runs it on the
// discrete-event kernel.
//
// Mitigation hooks are built in: the BlockingFilter is consulted at
// injection (source-switch rules, which DDPM identifications enable) and
// before local delivery (signature/address rules). Victim-side analysis
// (detectors, identifiers) attaches through the delivery hook.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/traffic.hpp"
#include "cluster/metrics.hpp"
#include "cluster/node.hpp"
#include "cluster/switch.hpp"
#include "detect/filter.hpp"
#include "marking/scheme.hpp"
#include "netsim/simulator.hpp"
#include "packet/address_map.hpp"
#include "routing/route_table.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"

namespace ddpm::cluster {

struct ClusterConfig {
  std::string topology = "mesh:8x8";
  std::string router = "adaptive";
  std::string scheme = "ddpm";  // "none" disables marking
  std::string pattern = "uniform";

  double benign_rate_per_node = 0.0005;  // packets per tick (0 disables)
  std::uint32_t benign_payload = 256;

  // With ticks read as nanoseconds these defaults model a 1 GB/s link with
  // 50 ns per-hop propagation.
  double link_bandwidth = 1.0;        // bytes per tick
  netsim::SimTime link_latency = 50;  // ticks
  std::size_t queue_capacity = 16;    // packets per output queue

  /// RFC 2267 ingress filtering at the source switch: drop any injection
  /// whose source address is not the attached node's own. Inside a cluster
  /// this check is complete and O(1) — the critical baseline the paper's
  /// §2 dismisses for the Internet ("in large networks it is impossible to
  /// have all the IP information") but which trivially holds here.
  bool ingress_filtering = false;

  std::uint8_t initial_ttl = 64;
  std::uint64_t seed = 42;

  /// Replication stream index. Replication k applies k long_jump()s
  /// (2^192 draws apart) to the master generator before dealing per-entity
  /// jump()-spaced streams, so replications of one seed are provably
  /// disjoint instead of relying on re-seeding. 0 = the seed's own block.
  std::uint64_t rng_stream = 0;
  bool record_traces = false;
  double ppm_probability = 0.04;

  /// Runtime telemetry gate: when false the metrics registry hands out
  /// inert handles, so probes cost one predicted-not-taken branch. The
  /// compile-time gate is the DDPM_TELEMETRY CMake option.
  bool telemetry = true;
};

class ClusterNetwork {
 public:
  explicit ClusterNetwork(const ClusterConfig& config);

  // Non-copyable, non-movable: switches/nodes hold pointers into us.
  ClusterNetwork(const ClusterNetwork&) = delete;
  ClusterNetwork& operator=(const ClusterNetwork&) = delete;

  /// Installs the attack. Must precede start().
  void set_attack(attack::AttackConfig attack);

  /// Observes every packet a compute node consumes (post-filter).
  using DeliveryHook = std::function<void(const pkt::Packet&, topo::NodeId)>;
  void set_delivery_hook(DeliveryHook hook) { hook_ = std::move(hook); }

  /// Schedules all node traffic processes. Call once.
  void start();

  /// Runs the event loop up to (and including) time `t`.
  void run_until(netsim::SimTime t) { sim_.run(t); }

  /// Manual injection at a node's switch (tests, replay). Returns false if
  /// the source is blocked.
  bool inject(pkt::Packet&& packet, topo::NodeId at);

  const topo::Topology& topology() const noexcept { return *topo_; }
  const route::Router& router() const noexcept { return *router_; }
  /// Link part only (no per-(node, dest) tables).
  const route::RouteTable& route_table() const noexcept { return routes_; }
  mark::MarkingScheme* scheme() noexcept { return scheme_.get(); }
  const pkt::AddressMap& addresses() const noexcept { return addresses_; }
  netsim::Simulator& sim() noexcept { return sim_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  telemetry::Registry& registry() noexcept { return registry_; }

  /// Routes trace events from the kernel and all switches to `tracer`
  /// (nullptr detaches). The tracer must outlive the network or be
  /// detached before destruction.
  void set_tracer(telemetry::Tracer* tracer);

  /// Publishes kernel/network aggregates into the registry and returns a
  /// sorted snapshot of every series. Safe to call repeatedly.
  telemetry::MetricsSnapshot telemetry_snapshot();
  detect::BlockingFilter& filter() noexcept { return filter_; }
  topo::LinkFailureSet& failures() noexcept { return failures_; }
  const ClusterConfig& config() const noexcept { return config_; }

  std::size_t queue_length(topo::NodeId node, topo::Port port) const {
    return switches_[node].queue_length(port);
  }
  bool node_infected(topo::NodeId node) const { return nodes_[node].infected(); }
  std::size_t infected_count() const;

 private:
  void deliver_local(pkt::Packet&& packet, topo::NodeId at);

  ClusterConfig config_;
  std::unique_ptr<topo::Topology> topo_;
  pkt::AddressMap addresses_;
  std::unique_ptr<route::Router> router_;
  route::RouteTable routes_;
  std::unique_ptr<mark::MarkingScheme> scheme_;
  std::unique_ptr<attack::TrafficPattern> pattern_;
  topo::LinkFailureSet failures_;
  netsim::Simulator sim_;
  Metrics metrics_;
  /// Declared before switches_ so per-switch series registration in the
  /// Switch constructors happens against a live registry.
  telemetry::Registry registry_;
  detect::BlockingFilter filter_;
  attack::AttackConfig attack_;
  /// One label set shared by every switch through Env::port_labels.
  std::vector<std::string> port_labels_;
  Switch::Env switch_env_;
  ComputeNode::Env node_env_;
  std::vector<Switch> switches_;
  std::vector<ComputeNode> nodes_;
  DeliveryHook hook_;
  std::uint64_t next_packet_id_ = 1;
  bool started_ = false;
};

}  // namespace ddpm::cluster
