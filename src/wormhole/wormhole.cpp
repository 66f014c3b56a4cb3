#include "wormhole/wormhole.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "routing/deadlock.hpp"

namespace ddpm::wormhole {

WormholeNetwork::WormholeNetwork(const topo::Topology& topo,
                                 const route::Router& router,
                                 mark::MarkingScheme* scheme,
                                 WormholeConfig config)
    : topo_(topo),
      router_(router),
      escape_router_(topo),
      scheme_(scheme),
      config_(config),
      escape_vcs_(config.disable_escape
                      ? 0
                      : (topo.kind() == topo::TopologyKind::kTorus ? 2 : 1)),
      rng_(config.seed) {
  // Factory deadlock gate (routing/deadlock.hpp): a blocking substrate
  // must carry the escape VCs the routing declaration demands. The
  // `disable_escape` negative control opts out explicitly — it exists to
  // demonstrate the deadlock the gate otherwise forbids.
  if (!config.disable_escape) {
    route::require_deadlock_safe(router, escape_vcs_ > 0);
  }
  num_nodes_ = int(topo.num_nodes());
  num_ports_ = topo.num_ports();
  const int V = total_vcs();
  if (!config_.use_soa_engine) {
    throw std::invalid_argument(
        "WormholeConfig::use_soa_engine = false is not supported: the "
        "structure-of-arrays engine is the only wormhole engine");
  }
  units_ = (num_ports_ + 1) * V;
  switch_units_ = num_ports_ * V;
  if (units_ > 64) {
    throw std::invalid_argument(
        "wormhole network on " + topo.spec() + " needs " +
        std::to_string(units_) + " input units per node ((" +
        std::to_string(num_ports_) + " ports + 1) x " + std::to_string(V) +
        " VCs); the per-node unit masks hold at most 64");
  }
  DDPM_CHECK(config_.buffer_flits > 0 && config_.buffer_flits <= 0x7fff,
             "buffer_flits out of range for credit counters");
  build_route_tables();
  build_units();
}

void WormholeNetwork::build_units() {
  const int V = total_vcs();
  const std::size_t N = std::size_t(num_nodes_);
  const std::size_t U = std::size_t(units_);
  unit_port_.resize(U);
  for (int unit = 0; unit < units_; ++unit) {
    unit_port_[std::size_t(unit)] = unit / V;
  }
  // The slab preallocates every switch unit at full credit depth, so
  // steady-state push/pop allocates nothing and touches no queue metadata
  // beyond the unit's own control record (tests/test_wormhole_steady_alloc
  // proves it at runtime, the hot-no-alloc rule statically). Injection
  // queues are unbounded and grow only in inject(), off the hot path.
  fbuf_.assign(N * std::size_t(switch_units_) *
                   std::size_t(config_.buffer_flits),
               Flit{});
  inj_buf_.resize(N * std::size_t(V));
  in_.assign(N * U, UnitCtl{});
  out_.assign(N * std::size_t(num_ports_) * std::size_t(V), OutCtl{});
  for (OutCtl& out : out_) out.credits = std::int16_t(config_.buffer_flits);
  rr_.assign(N * std::size_t(num_ports_), 0);
  occ_.assign(N, 0);
  req_.assign(N * std::size_t(num_ports_), 0);
  node_mask_.assign((N + 63) / 64, 0);
  group_mask_.assign((node_mask_.size() + 63) / 64, 0);
  // At most one flit per output port per node lands per cycle.
  arrivals_.reserve(N * std::size_t(num_ports_));
  // Static link-derived tables: the hot loop's per-pop credit target and
  // per-forward landing target collapse to one table load each.
  credit_slot_.assign(N * U, -1);
  link_dst_.assign(N * std::size_t(num_ports_), LinkDst{});
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (Port p = 0; p < num_ports_; ++p) {
      const std::size_t link = std::size_t(n) * std::size_t(num_ports_) +
                               std::size_t(p);
      const NodeId up = neighbor_[link];
      if (up == topo::kInvalidNode) continue;
      const Port up_port = reverse_port_[link];
      for (int vc = 0; vc < V; ++vc) {
        credit_slot_[std::size_t(n) * U + std::size_t(p * V + vc)] =
            std::int32_t(out_index(up, up_port, vc));
      }
      link_dst_[link] = LinkDst{up, std::uint16_t(up_port * V)};
    }
  }
}

void WormholeNetwork::build_route_tables() {
  const std::size_t N = std::size_t(num_nodes_);
  const std::size_t P = std::size_t(num_ports_);

  // Link tables (always built — O(N*P)): the hot loop reads these instead
  // of dispatching through the virtual Topology interface per flit.
  neighbor_.assign(N * P, topo::kInvalidNode);
  reverse_port_.assign(N * P, Port(-1));
  wrap_link_.assign(N * P, 0);
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (Port p = 0; p < num_ports_; ++p) {
      const auto nbr = topo_.neighbor(n, p);
      if (!nbr.has_value()) continue;
      neighbor_[std::size_t(n) * P + std::size_t(p)] = *nbr;
      reverse_port_[std::size_t(n) * P + std::size_t(p)] = *topo_.port_to(*nbr, n);
      if (escape_vcs_ > 1) {
        // Dateline flag: on the torus, ports follow the cartesian
        // convention (port = 2*dim + dir), and a link whose coordinate
        // delta in its dimension is not +-1 is a wraparound link.
        const std::size_t dim = std::size_t(p / 2);
        const topo::Coord here = topo_.coord_of(n);
        const topo::Coord there = topo_.coord_of(*nbr);
        const int delta = int(there[dim]) - int(here[dim]);
        if (delta != 1 && delta != -1) {
          wrap_link_[std::size_t(n) * P + std::size_t(p)] = 1;
        }
      }
    }
  }

  // Per-(node, dest) tables are O(N^2); honor the budget.
  if (!config_.use_route_tables || N > config_.route_table_max_nodes) return;

  // Escape next hop: dimension-order routing is deterministic and ignores
  // the arrival port, so a single port per (node, dest) captures it.
  escape_port_.assign(N * N, Port(-1));
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      const auto cands = escape_router_.candidates(n, d, route::kLocalPort);
      if (!cands.empty()) {
        escape_port_[std::size_t(n) * N + std::size_t(d)] = cands.front();
      }
    }
  }

  // Adaptive candidate bitmasks: only for routers that declare their
  // candidate set arrival-invariant, and only if the declared order is
  // verifiably ascending — mask iteration then replays the virtual
  // candidate order bit for bit (test_wormhole RouteTableByteIdentity).
  if (!router_.has_static_candidates() || num_ports_ > 32) return;
  std::vector<std::uint32_t> masks(N * N, 0);
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      const auto cands = router_.candidates(n, d, route::kLocalPort);
      Port prev = -1;
      for (Port p : cands) {
        if (p <= prev || p < 0 || p >= num_ports_) return;  // not ascending
        prev = p;
        masks[std::size_t(n) * N + std::size_t(d)] |= (1u << unsigned(p));
      }
    }
  }
  cand_mask_ = std::move(masks);
}

void WormholeNetwork::inject(pkt::Packet&& packet, NodeId src) {
  if (scheme_ != nullptr) scheme_->on_injection(packet, src);
  packet.header.set_ttl(config_.initial_ttl);
  const std::uint32_t flits = std::max<std::uint32_t>(
      1, (packet.wire_bytes() + config_.flit_bytes - 1) / config_.flit_bytes);
  std::uint32_t id;
  if (!pkt_free_.empty()) {
    id = pkt_free_.back();
    pkt_free_.pop_back();
    pkt_pool_[id] = std::move(packet);
  } else {
    id = std::uint32_t(pkt_pool_.size());
    pkt_pool_.push_back(std::move(packet));
    // Keep the freelist's capacity at least the pool's: the tail-ejection
    // release in the hot loop must never allocate.
    pkt_free_.reserve(pkt_pool_.capacity());
  }
  const int unit = switch_units_;  // injection port, VC 0
  core::RingBuffer<Flit>& buf = inj_queue(src, unit);
  for (std::uint32_t i = 0; i < flits; ++i) {
    Flit flit;
    flit.head = (i == 0);
    flit.tail = (i + 1 == flits);
    flit.pkt = id;
    buf.push_back(std::move(flit));
  }
  note_push(src, unit);
  flits_in_flight_ += flits;
}

ProtocolSnapshot WormholeNetwork::snapshot_protocol() const {
  ProtocolSnapshot snap;
  const int V = total_vcs();
  snap.nodes = num_nodes_;
  snap.ports = num_ports_;
  snap.vcs = V;
  snap.depth = config_.buffer_flits;
  snap.flits_in_flight = flits_in_flight_;
  snap.delivered = delivered_;
  const std::size_t in_units = std::size_t(num_ports_ + 1) * std::size_t(V);
  const std::size_t out_units = std::size_t(num_ports_) * std::size_t(V);
  snap.occupancy.assign(std::size_t(num_nodes_) * in_units, 0);
  snap.credits.assign(std::size_t(num_nodes_) * out_units, 0);
  snap.allocated.assign(std::size_t(num_nodes_) * out_units, 0);
  for (NodeId n = 0; n < NodeId(num_nodes_); ++n) {
    for (std::size_t u = 0; u < in_units; ++u) {
      snap.occupancy[std::size_t(n) * in_units + u] =
          int(u) < switch_units_
              ? in_[std::size_t(n) * in_units + u].qcount
              : std::uint32_t(inj_buf_[std::size_t(n) * std::size_t(V) +
                                       (u - std::size_t(switch_units_))]
                                  .size());
    }
  }
  for (std::size_t g = 0; g < out_.size(); ++g) {
    snap.credits[g] = out_[g].credits;
    snap.allocated[g] = out_[g].allocated;
  }
  return snap;
}

bool WormholeNetwork::check_protocol_invariants(std::string* why) const {
  const ProtocolSnapshot snap = snapshot_protocol();
  const int V = snap.vcs;
  const std::size_t in_units = std::size_t(num_ports_ + 1) * std::size_t(V);
  const std::size_t out_units = std::size_t(num_ports_) * std::size_t(V);
  const auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Flit accounting: every in-flight flit is buffered somewhere (between
  // cycles arrivals_ is empty), and nothing is double-counted.
  std::uint64_t buffered = 0;
  for (const std::uint32_t occ : snap.occupancy) buffered += occ;
  if (buffered != snap.flits_in_flight) {
    std::ostringstream os;
    os << "flit accounting: " << buffered << " buffered vs "
       << snap.flits_in_flight << " in flight (loss or duplication)";
    return fail(os.str());
  }
  for (NodeId n = 0; n < NodeId(snap.nodes); ++n) {
    // No overflow: switch units are bounded by the credit depth (injection
    // units, port P, are unbounded by design).
    for (Port p = 0; p < num_ports_; ++p) {
      for (int vc = 0; vc < V; ++vc) {
        const std::uint32_t occ =
            snap.occupancy[std::size_t(n) * in_units +
                           std::size_t(p) * std::size_t(V) + std::size_t(vc)];
        if (occ > std::uint32_t(snap.depth)) {
          std::ostringstream os;
          os << "buffer overflow: node " << n << " port " << p << " vc " << vc
             << " holds " << occ << " flits (depth " << snap.depth << ")";
          return fail(os.str());
        }
        // Credit conservation per link/VC: the upstream neighbor's credit
        // counter for the output VC feeding this buffer, plus the flits
        // sitting in the buffer, must equal the depth.
        const std::size_t link =
            std::size_t(n) * std::size_t(num_ports_) + std::size_t(p);
        const NodeId up = neighbor_[link];
        if (up == topo::kInvalidNode) continue;
        const Port up_port = reverse_port_[link];
        const std::int32_t credits =
            snap.credits[std::size_t(up) * out_units +
                         std::size_t(up_port) * std::size_t(V) +
                         std::size_t(vc)];
        if (credits < 0 || std::uint32_t(credits) + occ !=
                               std::uint32_t(snap.depth)) {
          std::ostringstream os;
          os << "credit conservation: link " << up << "->" << n << " vc "
             << vc << " has " << credits << " credits + " << occ
             << " buffered != depth " << snap.depth;
          return fail(os.str());
        }
      }
    }
  }
  return true;
}

std::uint64_t WormholeNetwork::injection_backlog() const {
  std::uint64_t total = 0;
  for (const core::RingBuffer<Flit>& q : inj_buf_) total += q.size();
  return total;
}

// --------------------------------------------------------------------------
// Cycle engine, driven by bitmasks: the allocation pass walks the occupancy
// mask (one ctz per occupied unit), traversal arbitration walks req & occ
// rotated to the round-robin pointer, and the node loop walks the two-level
// active bitmap — all in ascending order, which fixes when probes fire and
// in which order credits move and VCs are claimed.
// --------------------------------------------------------------------------

DDPM_HOT void WormholeNetwork::eject(NodeId node, int unit) {
  // Consume every buffered flit of the packet being ejected this cycle
  // (infinite ejection bandwidth, a standard simulator simplification).
  UnitCtl& ctl = in_[std::size_t(node) * std::size_t(units_) +
                     std::size_t(unit)];
  while (qsize(node, unit, ctl) > 0) {
    const Flit flit = qfront(node, unit, ctl);
    qpop(node, unit, ctl);
    --flits_in_flight_;
    ++progress_marker_;
    if (flit.tail) {
      ctl.active = 0;
      if (ctl.out_port == -2) {
        ++dropped_ttl_;
      } else {
        pkt_pool_[flit.pkt].delivered_at = cycle_;
        ++delivered_;
        probes_.on_delivered();
        if (hook_) hook_(std::move(pkt_pool_[flit.pkt]), node);
      }
      pkt_free_.push_back(flit.pkt);  // tail is the packet's last use
      ctl.out_port = -1;
      break;
    }
  }
  if (qsize(node, unit, ctl) == 0) note_empty(node, unit);
}

DDPM_HOT bool WormholeNetwork::allocate(NodeId node, int in_port, int unit) {
  UnitCtl& ctl = in_[std::size_t(node) * std::size_t(units_) +
                     std::size_t(unit)];
  const Flit& head = qfront(node, unit, ctl);
  pkt::Packet& packet = pkt_pool_[head.pkt];
  const Port arrived_on =
      in_port == injection_port() ? route::kLocalPort : Port(in_port);

  // Hop budget: a packet whose TTL expires is consumed silently (the
  // discard path in switch_allocation). With minimal adaptive candidates
  // this cannot trigger; it is the safety net the walker and the
  // store-and-forward switch also have.
  if (packet.header.ttl() == 0) {
    ctl.active = 1;
    ctl.out_port = -2;  // discard sink
    ctl.out_vc = -1;
    ctl.out_slot = -1;
    return true;
  }

  // 1. Adaptive VCs on any productive port: pick the (port, vc) with the
  //    most downstream credits (congestion-aware), first-wins on ties.
  //    Fast path: replay the precomputed candidate mask in ascending port
  //    order (verified identical to the router's order at construction).
  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  if (!cand_mask_.empty()) {
    std::uint32_t mask = cand_mask_[std::size_t(node) * std::size_t(num_nodes_) +
                                    std::size_t(packet.dest_node)];
    while (mask != 0) {
      const Port p = Port(__builtin_ctz(mask));
      mask &= mask - 1;
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutCtl& out = out_[out_index(node, p, v)];
        if (out.allocated == 0 && int(out.credits) > best_credits) {
          best_credits = int(out.credits);
          best_port = p;
          best_vc = v;
        }
      }
    }
  } else {
    // Cold fallback (tables disabled or over budget, or a turn-model
    // router without static candidates): the per-flit virtual dispatch and
    // candidate-vector allocation this branch performs are exactly what
    // the tables remove.
    const auto candidates = router_.candidates(  // ddpm-analyze: allow(hot-no-virtual)
        node, packet.dest_node, arrived_on);
    for (Port p : candidates) {
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutCtl& out = out_[out_index(node, p, v)];
        if (out.allocated == 0 && int(out.credits) > best_credits) {
          best_credits = int(out.credits);
          best_port = p;
          best_vc = v;
        }
      }
    }
  }

  // 2. Escape layer: dimension-order port, dateline-disciplined VC class.
  std::uint8_t next_class = head.escape_class;
  if (best_port < 0 &&
      (config_.disable_escape || DDPM_MODEL_MUTATION(kSkipEscapeFallback))) {
    probes_.on_alloc_stall();
    return false;  // no escape lanes: wait (possibly forever — deadlock)
  }
  if (best_port < 0) {
    Port p = -1;
    if (!escape_port_.empty()) {
      p = escape_port_[std::size_t(node) * std::size_t(num_nodes_) +
                       std::size_t(packet.dest_node)];
      if (p < 0) return false;  // only possible if already at dest
    } else {
      // escape_router_ is a concrete member (no virtual dispatch here);
      // the vector it returns is the cost the escape_port_ table removes.
      const auto escape =
          escape_router_.candidates(node, packet.dest_node, arrived_on);
      if (escape.empty()) return false;  // only possible if already at dest
      p = escape.front();
    }
    if (escape_vcs_ > 1) {
      // Torus dateline: entering a new dimension resets the class; taking
      // the wraparound link (precomputed wrap_link_) promotes it.
      const std::size_t dim = std::size_t(p / 2);
      bool same_dim_as_arrival = false;
      if (arrived_on != route::kLocalPort) {
        same_dim_as_arrival = (std::size_t(arrived_on / 2) == dim);
      }
      if (!same_dim_as_arrival) next_class = 0;
      if (wrap_link_[std::size_t(node) * std::size_t(num_ports_) +
                     std::size_t(p)] != 0) {
        next_class = 1;  // wrap crossing
      }
    }
    const int v = int(next_class);
    const OutCtl& out = out_[out_index(node, p, v)];
    if (out.allocated != 0 || out.credits == 0) {
      (out.allocated != 0 ? probes_.on_alloc_stall()
                          : probes_.on_credit_stall());
      return false;  // wait
    }
    best_port = p;
    best_vc = v;
  }

  // Claim the output VC; run TTL + marking once per switch, exactly at the
  // post-routing point Figure 4 prescribes.
  const std::size_t slot = out_index(node, best_port, best_vc);
  out_[slot].allocated = 1;
  probes_.on_vc_alloc();
  ctl.active = 1;
  ctl.out_port = std::int16_t(best_port);
  ctl.out_vc = std::int8_t(best_vc);
  ctl.out_slot = std::int32_t(slot);
  req_[std::size_t(node) * std::size_t(num_ports_) + std::size_t(best_port)] |=
      (std::uint64_t(1) << unsigned(unit));
  const NodeId next = neighbor_[std::size_t(node) * std::size_t(num_ports_) +
                                std::size_t(best_port)];
  packet.header.decrement_ttl();
  // Scheme polymorphism is the experiment's independent variable — the
  // one virtual call the hot path keeps, by design.
  if (scheme_ != nullptr) scheme_->on_forward(packet, node, next);  // ddpm-analyze: allow(hot-no-virtual)
  ++packet.hops;
  // Path tracing is opt-in (trace seeded non-empty) and bounded by TTL.
  if (!packet.trace.empty()) packet.trace.push_back(next);  // ddpm-analyze: allow(hot-no-alloc)
  // Record the downstream escape class on the (future) head flit.
  qfront(node, unit, ctl).escape_class = next_class;
  return true;
}

DDPM_HOT void WormholeNetwork::switch_allocation(NodeId node) {
  const std::size_t base = std::size_t(node) * std::size_t(units_);

  // VC allocation + ejection/discard, over occupied units only. In-transit
  // units (out_port claimed == some req_ bit set) have nothing to do in
  // this pass, so they are masked out up front; what remains is units
  // awaiting allocation, ejection, or discard. The mask snapshot is safe:
  // this pass can only empty the unit it is processing, never another unit
  // at this node (and arrivals land after the full node sweep), so
  // snapshot == live set; emptiness is still re-checked per unit.
  const std::size_t rbase = std::size_t(node) * std::size_t(num_ports_);
  std::uint64_t transit = 0;
  for (Port p = 0; p < num_ports_; ++p) transit |= req_[rbase + std::size_t(p)];
  std::uint64_t occ = occ_[node] & ~transit;
  while (occ != 0) {
    const int unit = __builtin_ctzll(occ);
    occ &= occ - 1;
    UnitCtl& ctl = in_[base + std::size_t(unit)];
    if (qsize(node, unit, ctl) == 0) continue;
    if (ctl.active == 0) {
      const Flit& front = qfront(node, unit, ctl);
      if (!front.head) continue;  // body flits of an ejected/advancing head
      if (pkt_pool_[front.pkt].dest_node == node) {
        // Local delivery path: consume and credit.
        const std::size_t consumed = qsize(node, unit, ctl);
        ctl.out_port = -1;
        ctl.active = 1;  // occupy until tail passes
        eject(node, unit);
        for (std::size_t i = 0; i < consumed - qsize(node, unit, ctl); ++i) {
          return_credit(base + std::size_t(unit));
        }
        continue;
      }
      if (!allocate(node, int(unit_port_[std::size_t(unit)]), unit)) {
        continue;
      }
    }
    if (ctl.active != 0 && (ctl.out_port == -1 || ctl.out_port == -2)) {
      // Ejection or discard in progress: keep consuming arrivals.
      const std::size_t before = qsize(node, unit, ctl);
      eject(node, unit);
      for (std::size_t i = 0; i < before - qsize(node, unit, ctl); ++i) {
        return_credit(base + std::size_t(unit));
      }
    }
  }

  // Switch traversal: each output port forwards at most one flit. The
  // candidate mask (active units routed to this port that hold a flit) is
  // rotated to the round-robin pointer, so the scan visits units in
  // wrap-around order from the pointer — including the credit-stall probes
  // on skipped candidates.
  for (Port out_port = 0; out_port < num_ports_; ++out_port) {
    const std::size_t np = rbase + std::size_t(out_port);
    const std::uint64_t cand = req_[np] & occ_[node];
    if (cand == 0) continue;
    std::uint8_t& rr = rr_[np];
    const std::uint64_t high =
        rr == 0 ? cand : (cand >> unsigned(rr)) << unsigned(rr);
    std::uint64_t part = high != 0 ? high : (cand ^ high);
    bool wrapped = (high == 0);
    while (part != 0) {
      const int unit = __builtin_ctzll(part);
      part &= part - 1;
      if (part == 0 && !wrapped) {
        part = cand ^ high;  // continue the scan below the pointer
        wrapped = true;
      }
      UnitCtl& ctl = in_[base + std::size_t(unit)];
      OutCtl& out = out_[std::size_t(ctl.out_slot)];
      if (out.credits == 0 && !DDPM_MODEL_MUTATION(kBufferOffByOne)) {
        probes_.on_credit_stall();
        continue;
      }
      probes_.on_flit_forward();
      probes_.on_buffer_sample(qsize(node, unit, ctl));
      const Flit flit = qfront(node, unit, ctl);
      qpop(node, unit, ctl);
#if defined(DDPM_MODEL_MUTATIONS)
      // Under the off-by-one mutation the sender "knows" about one slot
      // that does not exist; clamp so the counter models that belief
      // rather than underflowing.
      if (out.credits > 0) --out.credits;
#else
      --out.credits;
#endif
      return_credit(base + std::size_t(unit));
      const LinkDst dst = link_dst_[np];
      if (flit.tail) {
        out.allocated = 0;
        ctl.active = 0;
        ctl.out_port = -1;
        req_[np] &= ~(std::uint64_t(1) << unsigned(unit));
      }
      arrivals_.push_back(Arrival{
          dst.node, std::uint16_t(dst.unit_base + unsigned(ctl.out_vc)),
          flit});
      if (qsize(node, unit, ctl) == 0) note_empty(node, unit);
      rr = std::uint8_t(unit + 1 == units_ ? 0 : unit + 1);
      break;  // one flit per output port per cycle
    }
  }
}

DDPM_HOT void WormholeNetwork::step() {
  const std::uint64_t before = progress_marker_;
  // Two-level active-node bitmap walk, ascending. Processing a node can
  // only clear ITS OWN bits (other nodes' occupancy moves via arrivals_,
  // which land after the sweep), so word snapshots match the live set.
  for (std::size_t grp = 0; grp < group_mask_.size(); ++grp) {
    std::uint64_t gw = group_mask_[grp];
    while (gw != 0) {
      const std::size_t word = grp * 64 + std::size_t(__builtin_ctzll(gw));
      gw &= gw - 1;
      std::uint64_t nw = node_mask_[word];
      while (nw != 0) {
        const NodeId node = NodeId(word * 64 + std::size_t(__builtin_ctzll(nw)));
        nw &= nw - 1;
        switch_allocation(node);
      }
    }
  }
  progress_marker_ += arrivals_.size();
  // Arrivals always land on a switch unit (links feed ports 0..P-1), so
  // landing is a direct slab store: window base + (head + count) mod B.
  const std::size_t depth = std::size_t(config_.buffer_flits);
  for (const Arrival& a : arrivals_) {
    UnitCtl& ctl = in_[std::size_t(a.node) * std::size_t(units_) +
                       std::size_t(a.unit)];
    std::size_t pos = std::size_t(ctl.qhead) + std::size_t(ctl.qcount);
    if (pos >= depth) pos -= depth;
    fbuf_[fbase(a.node, int(a.unit)) + pos] = a.flit;
    ++ctl.qcount;
    note_push(a.node, int(a.unit));
  }
  arrivals_.clear();
  ++cycle_;
  probes_.on_cycle(cycle_, flits_in_flight_);
  if (progress_marker_ == before && flits_in_flight_ > 0) {
    ++stall_cycles_;
  } else {
    stall_cycles_ = 0;
  }
}

void WormholeNetwork::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) step();
}

bool WormholeNetwork::drain(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (flits_in_flight_ == 0) return true;
    if (deadlocked()) return false;  // no point burning cycles
    step();
  }
  return flits_in_flight_ == 0;
}

}  // namespace ddpm::wormhole
