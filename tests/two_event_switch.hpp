// Reference store-and-forward switch: the two-events-per-hop design that
// cluster::Switch replaced. Every transmission schedules a link-free event
// after serialization and an arrival event after propagation; the link
// stays busy until its link-free event fires. cluster::Switch keeps a
// `free_at` tick instead and schedules a wake only while packets wait.
// tests/test_switch_differential.cpp runs both over the same injection
// schedule and compares every packet's outcome.
//
// Routing, TTL, marking, the capacity check and the queue length are
// cluster::Switch's, from the same public Env; telemetry is left out (it
// observes, it does not decide).
//
// The two designs part only where a packet is handled on the exact tick a
// port's link frees while that port's link-free event is still pending:
// here the link is busy until the event pops, there it is free. The
// reference counts those ticks (ties()); first_tie() is the earliest.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/switch.hpp"
#include "core/ring.hpp"

namespace ddpm::reference {

class TwoEventSwitch {
 public:
  using Env = cluster::Switch::Env;

  TwoEventSwitch(topo::NodeId id, Env* env, netsim::Rng rng)
      : id_(id), env_(env), rng_(rng), ports_(std::size_t(env->topo->num_ports())) {
    for (topo::Port p = 0; p < topo::Port(ports_.size()); ++p) {
      ports_[std::size_t(p)].neighbor =
          env_->topo->neighbor(id_, p).value_or(topo::kInvalidNode);
    }
  }

  void inject(pkt::Packet&& packet) {
    if (env_->scheme != nullptr) env_->scheme->on_injection(packet, id_);
    handle(std::move(packet), route::kLocalPort);
  }

  void handle(pkt::Packet&& packet, topo::Port arrived_on) {
    if (packet.dest_node == id_) {
      packet.delivered_at = env_->sim->now();
      env_->deliver(std::move(packet), id_);
      return;
    }
    const auto port = env_->router->select_output(id_, packet.dest_node, arrived_on,
                                                  *env_->links, rng_);
    if (!port) {
      ++env_->metrics->dropped_no_route;
      return;
    }
    count_tie(*port);
    if (packet.header.decrement_ttl() == 0) {
      ++env_->metrics->dropped_ttl;
      return;
    }
    OutputPort& out = ports_[std::size_t(*port)];
    if (out.fifo.size() - out.sent >= env_->queue_capacity) {
      ++env_->metrics->dropped_queue_full;
      return;
    }
    const topo::NodeId next = out.neighbor;
    if (env_->scheme != nullptr) env_->scheme->on_forward(packet, id_, next);
    ++packet.hops;
    if (!packet.trace.empty()) packet.trace.push_back(next);
    out.fifo.push_back(std::move(packet));
    start_transmission(*port);
  }

  std::size_t queue_length(topo::Port port) const {
    if (port < 0 || std::size_t(port) >= ports_.size()) return 0;
    const OutputPort& out = ports_[std::size_t(port)];
    return out.fifo.size() - out.sent;
  }

  /// Packets handled on a tick where one of this switch's links frees
  /// with its link-free event still pending.
  std::uint64_t ties() const noexcept { return ties_; }
  /// The first such tick; max() when there was none.
  netsim::SimTime first_tie() const noexcept { return first_tie_; }

 private:
  struct OutputPort {
    core::RingBuffer<pkt::Packet> fifo;
    std::size_t sent = 0;
    topo::NodeId neighbor = topo::kInvalidNode;
    bool busy = false;
    netsim::SimTime frees_at = 0;  // the pending link-free event's tick
  };

  // A tie on the chosen port decides when and in which same-tick order the
  // packet starts; a tie on a port with packets waiting also changes the
  // queue length adaptive routing read.
  void count_tie(topo::Port chosen) {
    const netsim::SimTime now = env_->sim->now();
    for (topo::Port p = 0; p < topo::Port(ports_.size()); ++p) {
      const OutputPort& out = ports_[std::size_t(p)];
      if (out.busy && out.frees_at == now &&
          (p == chosen || out.sent != out.fifo.size())) {
        ++ties_;
        if (now < first_tie_) first_tie_ = now;
        return;
      }
    }
  }

  void start_transmission(topo::Port port) {
    OutputPort& out = ports_[std::size_t(port)];
    if (out.busy || out.sent == out.fifo.size()) return;
    out.busy = true;
    const pkt::Packet& packet = out.fifo[out.sent++];
    const auto tx_ticks = netsim::SimTime(
        std::ceil(double(packet.wire_bytes()) / env_->link_bandwidth));
    out.frees_at = env_->sim->now() + tx_ticks;
    // Link frees up after serialization; the packet lands after propagation.
    env_->sim->schedule_in(tx_ticks, [this, port]() {
      ports_[std::size_t(port)].busy = false;
      start_transmission(port);
    });
    env_->sim->schedule_in(tx_ticks + env_->link_latency, [this, port]() {
      OutputPort& p = ports_[std::size_t(port)];
      env_->arrive(std::move(p.fifo.front()), id_, p.neighbor);
      p.fifo.pop_front();
      --p.sent;
    });
  }

  topo::NodeId id_;
  Env* env_;
  netsim::Rng rng_;
  std::vector<OutputPort> ports_;
  std::uint64_t ties_ = 0;
  netsim::SimTime first_tie_ = std::numeric_limits<netsim::SimTime>::max();
};

}  // namespace ddpm::reference
