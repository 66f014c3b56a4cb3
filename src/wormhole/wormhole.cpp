#include "wormhole/wormhole.hpp"

#include <algorithm>
#include <bit>
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
    : router_(router),
      scheme_(scheme),
      config_(config),
      escape_vcs_(config.disable_escape
                      ? 0
                      : (topo.kind() == topo::TopologyKind::kTorus ? 2 : 1)),
      num_nodes_(int(topo.num_nodes())),
      num_ports_(topo.num_ports()),
      rule_(router.productive_rule()),
      table_(topo) {
  // Factory deadlock gate (routing/deadlock.hpp): a blocking substrate
  // must carry the escape VCs the routing declaration demands. The
  // `disable_escape` negative control opts out explicitly — it exists to
  // demonstrate the deadlock the gate otherwise forbids.
  if (!config.disable_escape) {
    route::require_deadlock_safe(router, escape_vcs_ > 0);
  }
  const int V = total_vcs();
  if (!config_.use_soa_engine) {
    throw std::invalid_argument(
        "WormholeConfig::use_soa_engine = false is not supported: the "
        "structure-of-arrays engine is the only wormhole engine");
  }
  if (!config_.use_route_tables) {
    throw std::invalid_argument(
        "WormholeConfig::use_route_tables = false is not supported: the "
        "network always routes from its route::RouteTable");
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
  if (int(config_.initial_ttl) < topo.diameter()) {
    throw std::invalid_argument(
        "WormholeConfig::initial_ttl = " +
        std::to_string(int(config_.initial_ttl)) + " is below the diameter " +
        std::to_string(topo.diameter()) + " of " + topo.spec() +
        ": every allocating switch decrements the TTL once, so a minimal "
        "route of d hops needs a TTL of at least d");
  }
  DDPM_CHECK(config_.buffer_flits > 0 && config_.buffer_flits <= 0x7fff,
             "buffer_flits out of range for credit counters");
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
  transit_.assign(N, 0);
  port_req_.assign(N, 0);
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
      const NodeId up = table_.neighbor(n, p);
      if (up == topo::kInvalidNode) continue;
      const Port up_port = table_.reverse_port(n, p);
      for (int vc = 0; vc < V; ++vc) {
        credit_slot_[std::size_t(n) * U + std::size_t(p * V + vc)] =
            std::int32_t(out_index(up, up_port, vc));
      }
      link_dst_[std::size_t(n) * std::size_t(num_ports_) + std::size_t(p)] =
          LinkDst{up, std::uint16_t(up_port * V)};
    }
  }
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
        const NodeId up = table_.neighbor(n, p);
        if (up == topo::kInvalidNode) continue;
        const Port up_port = table_.reverse_port(n, p);
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
  // Cached masks: the cycle engine reads these instead of the records, so
  // each must equal what the records say.
  const std::size_t U = std::size_t(units_);
  std::vector<std::uint64_t> node_mask(node_mask_.size(), 0);
  std::vector<std::uint64_t> group_mask(group_mask_.size(), 0);
  for (NodeId n = 0; n < NodeId(snap.nodes); ++n) {
    const std::size_t base = std::size_t(n) * U;
    std::uint64_t occ = 0;
    for (std::size_t u = 0; u < U; ++u) {
      if (snap.occupancy[base + u] > 0) occ |= std::uint64_t(1) << u;
    }
    if (occ_[n] != occ) {
      std::ostringstream os;
      os << "occupancy mask: node " << n << " has occ_ 0x" << std::hex
         << occ_[n] << " but its non-empty units are 0x" << occ;
      return fail(os.str());
    }
    if (occ != 0) node_mask[n >> 6] |= std::uint64_t(1) << (n & 63);
    std::uint64_t transit = 0;
    std::uint64_t ports = 0;
    for (Port p = 0; p < num_ports_; ++p) {
      std::uint64_t req = 0;
      for (std::size_t u = 0; u < U; ++u) {
        const UnitCtl& ctl = in_[base + u];
        if (ctl.active != 0 && ctl.out_port == p) req |= std::uint64_t(1) << u;
      }
      const std::uint64_t cached =
          req_[std::size_t(n) * std::size_t(num_ports_) + std::size_t(p)];
      if (cached != req) {
        std::ostringstream os;
        os << "request mask: node " << n << " port " << p << " has req_ 0x"
           << std::hex << cached << " but the units routed there are 0x"
           << req;
        return fail(os.str());
      }
      transit |= req;
      if (req != 0) ports |= std::uint64_t(1) << unsigned(p);
    }
    if (transit_[n] != transit || port_req_[n] != ports) {
      std::ostringstream os;
      os << "request summary: node " << n << " has transit_ 0x" << std::hex
         << transit_[n] << " port_req_ 0x" << port_req_[n]
         << " but its req_ words give 0x" << transit << " and 0x" << ports;
      return fail(os.str());
    }
  }
  for (std::size_t w = 0; w < node_mask.size(); ++w) {
    if (node_mask[w] != 0) group_mask[w >> 6] |= std::uint64_t(1) << (w & 63);
  }
  if (node_mask != node_mask_ || group_mask != group_mask_) {
    return fail("active-node bitmap disagrees with the occupancy masks");
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
// mask minus the transit mask (one ctz per unit with work), traversal walks
// the port-request mask and, per port, req & occ rotated to the round-robin
// pointer, and the node loop walks the two-level active bitmap — all in
// ascending order, which fixes when probes fire and in which order credits
// move and VCs are claimed.
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

  // The productive ports toward the destination, once per allocation:
  // the adaptive candidates of a router with a productive rule, and the
  // escape layer's dimension-order port (the lowest of them).
  const std::uint32_t productive =
      route::productive_mask(table_.coords(), node, packet.dest_node);

  // 1. Adaptive VCs on any candidate port: pick the (port, vc) with the
  //    most downstream credits (congestion-aware), first-wins on ties.
  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  const auto consider = [&](Port p) {
    for (int v = escape_vcs_; v < total_vcs(); ++v) {
      const OutCtl& out = out_[out_index(node, p, v)];
      if (out.allocated == 0 && int(out.credits) > best_credits) {
        best_credits = int(out.credits);
        best_port = p;
        best_vc = v;
      }
    }
  };
  if (rule_.coords != nullptr) {
    // The router's candidates are the productive mask (or its lowest
    // bit), in ascending port order.
    std::uint32_t mask =
        rule_.lowest_only ? productive & (~productive + 1) : productive;
    for (; mask != 0; mask &= mask - 1) consider(Port(std::countr_zero(mask)));
  } else {
    // Cold path for routers without a productive rule (turn model,
    // Valiant, oracle): their candidates may depend on the arrival port or
    // on router state, so they are asked per allocation.
    const auto candidates = router_.candidates(  // ddpm-analyze: allow(hot-no-virtual)
        node, packet.dest_node, arrived_on);
    for (Port p : candidates) consider(p);
  }

  // 2. Escape layer: dimension-order port, dateline-disciplined VC class.
  std::uint8_t next_class = head.escape_class;
  if (best_port < 0 &&
      (config_.disable_escape || DDPM_MODEL_MUTATION(kSkipEscapeFallback))) {
    probes_.on_alloc_stall();
    return false;  // no escape lanes: wait (possibly forever — deadlock)
  }
  if (best_port < 0) {
    if (productive == 0) return false;  // only possible if already at dest
    const Port p = Port(std::countr_zero(productive));
    if (escape_vcs_ > 1) {
      // Torus dateline: entering a new dimension resets the class; taking
      // the wraparound link promotes it.
      const std::size_t dim = std::size_t(p / 2);
      bool same_dim_as_arrival = false;
      if (arrived_on != route::kLocalPort) {
        same_dim_as_arrival = (std::size_t(arrived_on / 2) == dim);
      }
      if (!same_dim_as_arrival) next_class = 0;
      if (table_.wraps(node, p)) next_class = 1;  // wrap crossing
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
  const std::uint64_t bit = std::uint64_t(1) << unsigned(unit);
  req_[std::size_t(node) * std::size_t(num_ports_) + std::size_t(best_port)] |=
      bit;
  transit_[node] |= bit;
  port_req_[node] |= std::uint64_t(1) << unsigned(best_port);
  const NodeId next = table_.neighbor(node, best_port);
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
  // units (out_port claimed == some req_ bit set == their transit_ bit)
  // have nothing to do in this pass, so they are masked out up front; what
  // remains is units awaiting allocation, ejection, or discard. The mask
  // snapshot is safe: this pass can only empty the unit it is processing,
  // never another unit at this node (and arrivals land after the full node
  // sweep), so snapshot == live set; emptiness is still re-checked per unit.
  const std::size_t rbase = std::size_t(node) * std::size_t(num_ports_);
  std::uint64_t occ = occ_[node] & ~transit_[node];
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

  // Switch traversal: each output port forwards at most one flit. Only
  // ports some unit is routed to are visited, in ascending order (the
  // others have no candidate). The candidate mask (active units routed to
  // this port that hold a flit) is rotated to the round-robin pointer, so
  // the scan visits units in wrap-around order from the pointer —
  // including the credit-stall probes on skipped candidates. A lone
  // candidate is its own wrap-around order: no second half-scan.
  std::uint64_t ports = port_req_[node];
  while (ports != 0) {
    const Port out_port = Port(__builtin_ctzll(ports));
    ports &= ports - 1;
    const std::size_t np = rbase + std::size_t(out_port);
    const std::uint64_t cand = req_[np] & occ_[node];
    if (cand == 0) continue;
    std::uint8_t& rr = rr_[np];
    std::uint64_t high = cand;
    std::uint64_t part = cand;
    bool wrapped = true;
    if ((cand & (cand - 1)) != 0) {
      high = rr == 0 ? cand : (cand >> unsigned(rr)) << unsigned(rr);
      part = high != 0 ? high : cand;
      wrapped = (high == 0);
    }
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
        const std::uint64_t bit = std::uint64_t(1) << unsigned(unit);
        req_[np] &= ~bit;
        transit_[node] &= ~bit;
        if (req_[np] == 0) {
          port_req_[node] &= ~(std::uint64_t(1) << unsigned(out_port));
        }
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
