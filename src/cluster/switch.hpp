// Switch model (paper §4.1: "one node consists of a switch and a computing
// node, but they are separate entities"; switches are trusted and run only
// the routing + marking fast path).
//
// Store-and-forward, output-queued: a packet arriving at a switch is
// routed, TTL-checked, marked, and appended to the chosen output queue;
// each output link serializes one packet at a time at the configured
// bandwidth and delivers it to the neighbor after the link latency.
//
// One event per hop: each port keeps `free_at`, the tick its link finishes
// serializing. A packet pushed at or after free_at starts at once and
// schedules only its arrival. While packets wait, one wake event at
// free_at starts the next. The link is free on the free_at tick itself:
// a packet handled on that tick with nothing waiting ahead of it starts
// at once, whichever same-tick event pops first. With packets waiting,
// the first of the wake and the new arrival to pop starts the oldest.
//
// Per-hop processing order matches walk_packet (walk.hpp) and Figure 4:
// route -> decrement TTL -> mark with (current, next).
//
// Routing reads only state the switch owns. For dimension-order and
// adaptive routing (route::ProductiveRule) the candidates are a port mask
// from the router's coordinate table, and the least-congested usable port
// comes from the switch's own output ports, with no virtual call per hop.
// The other routers, and any hop with no usable candidate (the misroute,
// or a block), go through Router::select_output over a LinkStateView of
// the same ports.
#pragma once

#include <functional>
#include <vector>

#include "cluster/metrics.hpp"
#include "core/hot_path.hpp"
#include "core/ring.hpp"
#include "marking/scheme.hpp"
#include "netsim/rng.hpp"
#include "netsim/simulator.hpp"
#include "routing/router.hpp"
#include "telemetry/probes.hpp"

namespace ddpm::cluster {

using topo::NodeId;
using topo::Port;

class Switch {
 public:
  /// Services the owning network provides. All pointers outlive the switch.
  struct Env {
    netsim::Simulator* sim = nullptr;
    const topo::Topology* topo = nullptr;
    const route::Router* router = nullptr;
    mark::MarkingScheme* scheme = nullptr;  // nullable: unmarked network
    /// Unread: the switch routes from its own ports and `failures`. Kept
    /// only because perfbench/layers.cpp still assigns it; the benchmark
    /// change of ROADMAP item 3 deletes it.
    const route::LinkStateView* links = nullptr;
    /// Failed links no port may use; nullable (no failures).
    const topo::LinkFailureSet* failures = nullptr;
    Metrics* metrics = nullptr;
    /// Per-switch/per-port registry series; nullable (no registration).
    telemetry::Registry* registry = nullptr;
    /// Event tracer for drop instants and link-transmission spans. Owned by
    /// the driver; the network rebinds it on all switches via set_tracer().
    telemetry::Tracer* tracer = nullptr;
    /// Telemetry port labels, built once by the owning network and shared
    /// by every switch (they are identical across a topology). Required
    /// when `registry` is set; unread otherwise.
    const std::vector<std::string>* port_labels = nullptr;
    /// Hands a packet to the local compute node.
    std::function<void(pkt::Packet&&, NodeId at)> deliver;
    /// Hands a packet to the neighbor switch (already past the link).
    std::function<void(pkt::Packet&&, NodeId from, NodeId to)> arrive;

    double link_bandwidth = 1.0;        // bytes per tick
    netsim::SimTime link_latency = 50;  // ticks of propagation per hop
    std::size_t queue_capacity = 16;    // packets per output queue
  };

  Switch(NodeId id, Env* env, netsim::Rng rng);

  /// Packet enters from the attached compute node; runs the scheme's
  /// injection hook (Figure 4's V := 0) before normal handling.
  void inject(pkt::Packet&& packet);

  /// Packet enters from a neighbor through `arrived_on` (this switch's
  /// port toward that neighbor).
  void handle(pkt::Packet&& packet, Port arrived_on);

  /// Output-queue occupancy, the congestion signal adaptive routing reads:
  /// packets waiting for the link, not those already on it.
  std::size_t queue_length(Port port) const {
    if (port < 0 || std::size_t(port) >= ports_.size()) return 0;
    const OutputPort& out = ports_[std::size_t(port)];
    return out.fifo.size() - out.sent;
  }

  NodeId id() const noexcept { return id_; }

  /// select_output's answer when the router permits no usable port.
  static constexpr Port kNoPort = -1;

  /// The output port toward `dest` for a packet that arrived on
  /// `arrived_on`, or kNoPort. Draws from the switch's generator exactly
  /// as Router::select_output would over this switch's queues and the
  /// failure set; public so that equivalence can be tested. (A plain Port,
  /// not an optional: GCC returns an optional<int> through the stack, and
  /// reading it back as one word stalls store forwarding on every hop.)
  Port select_output(NodeId dest, Port arrived_on);

  /// The switch's generator (for tests that compare draw counts).
  const netsim::Rng& rng() const noexcept { return rng_; }

 private:
  struct OutputPort {
    /// Every packet routed to this port and not yet landed, in order: the
    /// first `sent` are on the link (serializing or propagating), the rest
    /// wait for it. Packets land strictly in transmission order
    /// (serialization is sequential and the latency constant), so the
    /// arrival event takes the front and captures just [this, port] — the
    /// capture stays inside InlineAction's inline buffer. Reserved at
    /// construction to the queue capacity plus what one link can hold in
    /// flight, so steady state never touches the allocator.
    core::RingBuffer<pkt::Packet> fifo;
    std::size_t sent = 0;
    /// The switch this port's link reaches; kInvalidNode at a mesh edge.
    NodeId neighbor = topo::kInvalidNode;
    /// The tick the link finishes serializing its last packet; free from
    /// then on (a packet handled on that very tick starts at once).
    netsim::SimTime free_at = 0;
    /// A wake event at free_at is pending; at most one per port.
    bool wake_pending = false;
  };

  class PortLinks;

  /// Router::select_output over this switch's ports (PortLinks).
  Port select_by_router(NodeId dest, Port arrived_on);
  /// The port's link exists and has not failed.
  bool usable(const OutputPort& out) const noexcept {
    return out.neighbor != topo::kInvalidNode &&
           (env_->failures == nullptr ||
            !env_->failures->is_failed(id_, out.neighbor));
  }

  void start_transmission(Port port);

  NodeId id_;
  Env* env_;
  netsim::Rng rng_;
  /// The router's mask rule, read once; coords == nullptr routes every hop
  /// through select_by_router.
  route::ProductiveRule rule_;
  std::vector<OutputPort> ports_;
  telemetry::SwitchProbes probes_;
};

/// Human-readable per-port labels for telemetry: "-x"/"+x"/... on mesh and
/// torus (port 2d is the negative direction in dimension d), "d0"/"d1"/...
/// on the hypercube.
std::vector<std::string> telemetry_port_labels(const topo::Topology& topo);

}  // namespace ddpm::cluster
