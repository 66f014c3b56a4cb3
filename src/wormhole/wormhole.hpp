// Cycle-driven wormhole-switched network with virtual channels.
//
// The cluster model in src/cluster is store-and-forward, which keeps the
// event count low for long scenario runs. Real cluster interconnects of
// the paper's era (and since) use wormhole switching: packets are split
// into flits, the head flit opens a path and the body follows, buffers are
// a few flits deep, and virtual channels (VCs) provide deadlock freedom.
// This module is that substrate, so every marking claim can also be
// exercised under realistic switching:
//
//   * input-buffered routers, one buffer per (input port, VC), credit-based
//     flow control (synchronous credit return, documented simplification);
//   * deadlock avoidance a la Duato: adaptive VCs may follow any productive
//     port, while an escape VC restricted to dimension-order routing is
//     always selectable when a packet (re)allocates at a hop. On the torus
//     the escape layer uses two VCs with a dateline discipline (packets
//     move to the second escape class after crossing a wrap link);
//   * marking and TTL run once per switch at route/VC allocation — the
//     same "after the routing decision" point as Figure 4 and the
//     store-and-forward Switch, so DDPM behaves identically.
//
// The network is stepped one cycle at a time (per cycle: allocation, then
// one flit per output port, then ejection), which makes load-latency
// sweeps (bench_wormhole_loadlatency) and deadlock tests deterministic.
//
// Steady-state performance: the per-flit loop is annotated DDPM_HOT and
// audited by the hot-path analyzer rules (docs/STATIC_ANALYSIS.md). It
// routes from a route::RouteTable (src/routing/route_table.hpp) built at
// construction: neighbor/reverse-port and dateline wrap flag per (node,
// port), and the coordinate table. Each allocation computes the
// productive port mask toward the destination once (route::
// productive_mask, the rule the cluster switch reads too); its lowest bit
// is the escape layer's dimension-order port, and for a router with a
// productive rule (dimension order, adaptive) the mask, or its lowest
// bit, is the adaptive candidate set. The steady-state loop then performs
// no virtual dispatch and no heap allocation, and its state is O(N·P +
// N·D) at every fabric size. Only routers without a productive rule (turn
// model, Valiant, oracle) are asked for candidates through the virtual
// interface; tests wrap a productive router the same way to prove the two
// paths byte-identical.
//
// On top of the tables sits a structure-of-arrays layout: all per-unit
// control state lives in flat UnitCtl/OutCtl records indexed by the global
// unit id, switch-port flit buffers are fixed-depth windows in one
// contiguous slab (their ring cursors live in the control record),
// per-node occupancy and per-(node, port) request bitmasks drive the
// allocation and traversal passes (one ctz per occupied unit instead of a
// scan over every unit), per-node transit and port-request summaries of
// the request masks let a node visit skip in-transit units and touch only
// the output ports some unit is routed to, and a two-level active-node
// bitmap lets step() walk exactly the switches holding flits, in
// ascending node order.
//
// The reference for the cycle semantics is the protocol model
// (src/verify/model/proto_model.hpp), an engine-free re-statement checked
// against this network in lockstep after every event. Golden digests of
// delivery evidence and telemetry (tests/test_wormhole.cpp) pin the output
// byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include <string>

#include "core/hot_path.hpp"
#include "core/model_hooks.hpp"
#include "core/ring.hpp"
#include "marking/scheme.hpp"
#include "packet/packet.hpp"
#include "routing/route_table.hpp"
#include "routing/router.hpp"
#include "telemetry/probes.hpp"
#include "topology/topology.hpp"

namespace ddpm::wormhole {

using topo::NodeId;
using topo::Port;

/// Between-cycles view of the credit/VC protocol state: the same
/// projection the bounded model checker's abstract states encode, captured
/// from the *real* network (src/verify/model, the witness-replay
/// contract). All vectors are indexed with the network's own unit layout:
/// input units as node * (P+1) * V + port * V + vc (port P = injection),
/// output VCs as node * P * V + port * V + vc.
struct ProtocolSnapshot {
  int nodes = 0;
  int ports = 0;
  int vcs = 0;
  int depth = 0;  ///< configured buffer_flits (per switch (port, VC))
  std::vector<std::uint32_t> occupancy;  ///< flits buffered per input unit
  std::vector<std::int32_t> credits;     ///< credit counter per output VC
  std::vector<std::uint8_t> allocated;   ///< allocation flag per output VC
  std::uint64_t flits_in_flight = 0;
  std::uint64_t delivered = 0;
};

struct WormholeConfig {
  std::uint32_t flit_bytes = 16;  // packet -> ceil(wire_bytes / flit_bytes) flits
  int adaptive_vcs = 1;           // VCs free to follow any productive port
  int buffer_flits = 4;           // per-(port, VC) buffer depth
  /// Negative control: remove the escape layer entirely (the network runs
  /// on the adaptive VCs alone, with no deadlock-free discipline). Ring
  /// traffic on the torus then wedges in the textbook hold-and-wait cycle
  /// — the experiment that shows the escape machinery is load-bearing.
  bool disable_escape = false;
  /// Hop budget, decremented once at every switch that allocates the
  /// packet an output, so a minimal route of d hops needs d: the
  /// constructor rejects values below the topology's diameter.
  std::uint8_t initial_ttl = 255;
  /// Not read: the network draws no random numbers. Kept declared, like
  /// route_table_max_nodes and the two `true`-only flags below, because
  /// the benchmark harness (perfbench/workloads.cpp) sets it; they go when
  /// that harness changes.
  std::uint64_t seed = 1;
  /// Only `true` is accepted (std::invalid_argument on `false`): the
  /// network always routes from its route::RouteTable.
  bool use_route_tables = true;
  /// Not read: routing holds no per-(node, dest) table, so no fabric size
  /// changes how the network routes.
  std::size_t route_table_max_nodes = 4096;
  /// Only `true` is accepted (std::invalid_argument on `false`).
  bool use_soa_engine = true;
};

class WormholeNetwork {
 public:
  /// `router` supplies the adaptive candidates: its productive rule, read
  /// once here, or else its virtual candidates(). The escape layer always
  /// routes in dimension order from the route table. `scheme` may be null.
  /// Throws std::invalid_argument when the router needs escape VCs that
  /// the config removes, when (ports + 1) * total_vcs() exceeds the 64-bit
  /// per-node unit masks, when initial_ttl is below the topology's
  /// diameter, or when use_soa_engine or use_route_tables is false.
  WormholeNetwork(const topo::Topology& topo, const route::Router& router,
                  mark::MarkingScheme* scheme, WormholeConfig config);

  WormholeNetwork(const WormholeNetwork&) = delete;
  WormholeNetwork& operator=(const WormholeNetwork&) = delete;

  /// Queues a packet at the source's injection port (unbounded queue; use
  /// injection_backlog to detect saturation). Runs the scheme's injection
  /// hook immediately.
  void inject(pkt::Packet&& packet, NodeId src);

  /// Advances the network one cycle.
  void step();
  /// Runs `cycles` cycles.
  void run(std::uint64_t cycles);
  /// Runs until no flit remains in flight (or `max_cycles` elapse).
  /// Returns true if the network drained.
  bool drain(std::uint64_t max_cycles);

  /// Cycles since the last flit movement or delivery while flits remain in
  /// flight. A large value with flits_in_flight() > 0 indicates deadlock.
  std::uint64_t stall_cycles() const noexcept { return stall_cycles_; }
  /// True if nothing has moved for `threshold` cycles with flits in flight.
  bool deadlocked(std::uint64_t threshold = 1000) const noexcept {
    return flits_in_flight_ > 0 && stall_cycles_ >= threshold;
  }

  std::uint64_t cycle() const noexcept { return cycle_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t flits_in_flight() const noexcept { return flits_in_flight_; }
  std::uint64_t injection_backlog() const;
  std::uint64_t dropped_ttl() const noexcept { return dropped_ttl_; }

  /// Captures the credit/VC protocol state (the model's projection).
  /// Cold by construction: the model checker's lockstep-differential test
  /// and the witness-replay harness call it between cycles; nothing on the
  /// step() path does.
  DDPM_MODEL ProtocolSnapshot snapshot_protocol() const;

  /// Checks the between-cycles protocol invariants on the live state:
  /// credit conservation (upstream credits + downstream occupancy == depth
  /// on every link/VC), no buffer overflow (occupancy <= depth on every
  /// switch unit), flit accounting (buffered flits == flits_in_flight),
  /// and the cached bitmasks the cycle engine reads instead of the records
  /// (occupancy, active-node, request, transit and port-request masks).
  /// Returns false and describes the first violation in `why` (if given).
  /// This is what a replayed witness must be able to break.
  DDPM_MODEL bool check_protocol_invariants(std::string* why = nullptr) const;

  /// Called with each fully ejected packet; delivered_at is the cycle the
  /// tail flit left the network.
  using DeliveryHook = std::function<void(pkt::Packet&&, NodeId)>;
  void set_delivery_hook(DeliveryHook hook) { hook_ = std::move(hook); }

  int total_vcs() const noexcept { return escape_vcs_ + config_.adaptive_vcs; }

  /// Registers wormhole series (VC allocations/stalls, credit stalls, flit
  /// movement, buffer occupancy). Call before the first step().
  void bind_telemetry(telemetry::Registry* registry) {
    probes_.bind(registry);
  }
  /// Samples a flits-in-flight counter track into `tracer`, timestamped in
  /// cycles (the wormhole clock).
  void attach_tracer(telemetry::Tracer* tracer) {
    probes_.attach(tracer);
    if (tracer != nullptr) tracer->set_clock(&cycle_);
  }

 private:
  // Flits carry a slab index, not ownership. All flits of a packet follow
  // the head over the same path and VCs (wormhole invariant), so they are
  // consumed in order at one unit and the tail is provably the last use:
  // the slot is released on tail ejection with no reference count at all.
  // (Previously this was a shared_ptr — one allocation plus ~2 atomic ops
  // per flit of pure overhead in a single-threaded simulation.)
  struct DDPM_HOT_STATE Flit {
    std::uint32_t pkt = 0;          // slot in pkt_pool_
    bool head = false;
    bool tail = false;
    std::uint8_t escape_class = 0;  // torus dateline state
  };
  DDPM_HOT_LAYOUT(Flit, 8, 4);

  int injection_port() const noexcept { return num_ports_; }

  /// Per-input-unit control record, indexed by global unit id
  /// node * units_ + unit. Switch units keep their queue cursors here (the
  /// flits themselves live in the fbuf_ slab); injection units ignore
  /// qhead/qcount and queue in inj_buf_.
  struct DDPM_HOT_STATE UnitCtl {
    std::int32_t out_slot = -1;  // claimed out_ slot (cached index)
    std::int16_t out_port = -1;  // -1 idle/eject, -2 discard sink
    std::int8_t out_vc = -1;
    std::uint8_t active = 0;
    std::uint16_t qhead = 0;   // ring cursor into this unit's fbuf_ window
    std::uint16_t qcount = 0;  // flits buffered (credits bound it <= B)
  };
  DDPM_HOT_LAYOUT(UnitCtl, 12, 4);

  /// Per-output-VC control record, indexed by node * P * V + port * V + vc.
  struct DDPM_HOT_STATE OutCtl {
    std::int16_t credits = 0;
    std::uint8_t allocated = 0;
  };
  DDPM_HOT_LAYOUT(OutCtl, 4, 2);

  /// Sizes the per-unit records and builds the static unit/link tables.
  void build_units();

  /// Route + VC allocation for the head flit at the front of `unit`.
  /// Returns true if an output VC (or the discard sink) was claimed.
  bool allocate(NodeId node, int in_port, int unit);

  /// One switch-allocation pass for a node: each output port forwards at
  /// most one flit; the ejection path consumes arbitrarily many.
  void switch_allocation(NodeId node);

  void eject(NodeId node, int unit);

  /// Start of switch unit `unit`'s fixed-depth window in the fbuf_ slab.
  std::size_t fbase(NodeId n, int unit) const noexcept {
    return (std::size_t(n) * std::size_t(switch_units_) + std::size_t(unit)) *
           std::size_t(config_.buffer_flits);
  }
  /// Injection queue backing an injection unit (unit >= switch_units_).
  core::RingBuffer<Flit>& inj_queue(NodeId n, int unit) noexcept {
    return inj_buf_[std::size_t(n) * std::size_t(total_vcs()) +
                    std::size_t(unit - switch_units_)];
  }

  // Generic queue ops over a unit: switch units resolve to the slab window
  // addressed by the UnitCtl cursors (no pointer chase, the whole depth-B
  // window is contiguous); injection units dispatch to the unbounded ring.
  // The branch predicts well — switch units dominate every pass.
  std::size_t qsize(NodeId n, int unit, const UnitCtl& ctl) noexcept {
    if (unit < switch_units_) return ctl.qcount;
    return inj_queue(n, unit).size();
  }
  Flit& qfront(NodeId n, int unit, UnitCtl& ctl) noexcept {
    if (unit < switch_units_) return fbuf_[fbase(n, unit) + ctl.qhead];
    return inj_queue(n, unit).front();
  }
  void qpop(NodeId n, int unit, UnitCtl& ctl) noexcept {
    if (unit < switch_units_) {
      ctl.qhead = std::uint16_t(int(ctl.qhead) + 1 == config_.buffer_flits
                                    ? 0
                                    : ctl.qhead + 1);
      --ctl.qcount;
    } else {
      inj_queue(n, unit).pop_front();
    }
  }
  /// Credit return for a pop from global unit g = node * U + unit; the
  /// upstream output-VC slot is precomputed in credit_slot_.
  void return_credit(std::size_t g) noexcept {
    if (DDPM_MODEL_MUTATION(kDropCreditReturn)) return;  // seeded bug
    const std::int32_t slot = credit_slot_[g];
    if (slot >= 0 && out_[std::size_t(slot)].credits < config_.buffer_flits) {
      ++out_[std::size_t(slot)].credits;
    }
  }

  std::size_t out_index(NodeId n, Port port, int vc) const noexcept {
    return (std::size_t(n) * std::size_t(num_ports_) + std::size_t(port)) *
               std::size_t(total_vcs()) +
           std::size_t(vc);
  }

  /// Marks unit's buffer non-empty: occupancy bit, node bit, summary bit.
  void note_push(NodeId n, int unit) noexcept {
    occ_[n] |= (std::uint64_t(1) << unsigned(unit));
    node_mask_[n >> 6] |= (std::uint64_t(1) << (n & 63));
    group_mask_[n >> 12] |= (std::uint64_t(1) << ((n >> 6) & 63));
  }
  /// Clears the occupancy bit after a pop emptied unit's buffer; drops the
  /// node out of the active bitmap when its last unit drains.
  void note_empty(NodeId n, int unit) noexcept {
    occ_[n] &= ~(std::uint64_t(1) << unsigned(unit));
    if (occ_[n] == 0) {
      node_mask_[n >> 6] &= ~(std::uint64_t(1) << (n & 63));
      if (node_mask_[n >> 6] == 0) {
        group_mask_[n >> 12] &= ~(std::uint64_t(1) << ((n >> 6) & 63));
      }
    }
  }

  const route::Router& router_;
  mark::MarkingScheme* scheme_;
  WormholeConfig config_;
  int escape_vcs_;
  int num_nodes_ = 0;
  int num_ports_ = 0;
  /// The router's candidate rule; coords == null routes through
  /// router_.candidates. Only whether it is set and lowest_only are read:
  /// allocate() takes the mask from table_'s coordinates, which also give
  /// the escape port, so one mask per allocation serves both.
  route::ProductiveRule rule_;
  route::RouteTable table_;
  /// unit -> in_port, precomputed so the allocation pass never divides
  /// (unit / V was measurable on the cycle loop; V is runtime-sized).
  std::vector<std::int32_t> unit_port_;  // (P+1)*V

  /// Packet slab. inject() acquires a slot (freelist first, growth only
  /// when every slot is in flight — cold); tail ejection releases it.
  /// pkt_free_'s capacity tracks the pool's so the hot-path release push
  /// never allocates.
  std::vector<pkt::Packet> pkt_pool_;
  std::vector<std::uint32_t> pkt_free_;

  /// Input units per node, (P+1)*V; records are indexed by global unit id
  /// node * units_ + u. Units below `switch_units_` (= P*V) are
  /// credit-bounded switch queues whose flits live in the fbuf_ slab; the
  /// rest are injection queues. The per-node masks below are 64 bits
  /// wide, so the constructor rejects units_ > 64.
  int units_ = 0;
  int switch_units_ = 0;
  /// One contiguous depth-B window per switch unit (N * P*V * B flits,
  /// cursors in UnitCtl): at the default depth a whole window is 32 bytes,
  /// so a unit's entire buffer shares a cache line with its neighbors —
  /// the scattered RingBuffer-slab loads this slab replaced were the
  /// engine's largest remaining memory cost.
  std::vector<Flit> fbuf_;
  /// Unbounded injection queues, one per (node, VC); grow only in inject().
  std::vector<core::RingBuffer<Flit>> inj_buf_;  // N*V
  std::vector<UnitCtl> in_;                      // N*U
  std::vector<OutCtl> out_;                      // N*P*V
  std::vector<std::uint8_t> rr_;                 // N*P round-robin pointers
  /// Upstream output-VC slot credited when global unit g pops a flit, or
  /// -1 for injection units (unbounded, no credits). Static per topology;
  /// replaces two link-table loads and two index multiplies per pop.
  std::vector<std::int32_t> credit_slot_;        // N*U
  /// Downstream landing target per (node, out port): the neighbor node and
  /// its input-unit base (reverse_port * V); +vc gives the unit. Static.
  struct LinkDst {
    NodeId node = topo::kInvalidNode;
    std::uint16_t unit_base = 0;
  };
  std::vector<LinkDst> link_dst_;                // N*P
  /// Bit u of occ_[n]: unit u at node n holds at least one flit.
  std::vector<std::uint64_t> occ_;
  /// Bit u of req_[n*P + p]: unit u is active and routed to out port p.
  /// Traversal arbitration iterates req & occ instead of probing every
  /// unit; maintained at allocation (set) and tail departure (clear).
  std::vector<std::uint64_t> req_;
  /// Per-node summaries of req_, kept beside it at the same two points:
  /// transit_[n] is the OR of node n's req_ words (the units in transit,
  /// which the allocation pass skips), and bit p of port_req_[n] is set
  /// iff req_[n*P + p] != 0 (the ports traversal visits).
  std::vector<std::uint64_t> transit_;
  std::vector<std::uint64_t> port_req_;
  /// Active-node bitmap (bit n of word n/64 set = occ_[n] != 0) plus a
  /// summary level (bit w of group_mask_[w/64] = node_mask_[w] != 0):
  /// step() visits exactly the nodes holding flits, in ascending order.
  std::vector<std::uint64_t> node_mask_;
  std::vector<std::uint64_t> group_mask_;

  /// Flits sent this cycle land in downstream buffers only after the full
  /// pass, so a flit cannot traverse two links in one cycle. The target is
  /// resolved to (node, unit) via link_dst_ at forward time, so landing is
  /// one slab store plus a bitmap note.
  struct Arrival {
    NodeId node;
    std::uint16_t unit;
    Flit flit;
  };
  std::vector<Arrival> arrivals_;
  DeliveryHook hook_;
  std::uint64_t cycle_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t flits_in_flight_ = 0;
  std::uint64_t dropped_ttl_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t progress_marker_ = 0;  // bumps on every flit event
  telemetry::WormholeProbes probes_;
};

}  // namespace ddpm::wormhole
