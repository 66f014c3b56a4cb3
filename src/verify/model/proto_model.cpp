#include "verify/model/proto_model.hpp"

#include <sstream>
#include <stdexcept>

#include "core/check.hpp"
#include "topology/factory.hpp"

namespace ddpm::verify::model {

ProtoModel::ProtoModel(const ModelOptions& opt) : opt_(opt) {
  if (opt_.buffer_flits < 1 || opt_.buffer_flits > 15) {
    throw std::invalid_argument("ProtoModel: buffer_flits must be in [1, 15]");
  }
  if (opt_.flits_per_packet < 2 || opt_.flits_per_packet > 15) {
    // The real network's minimum is 2 (a 20-byte header alone spans two
    // 16-byte flits), and witness replay depends on matching flit counts.
    throw std::invalid_argument(
        "ProtoModel: flits_per_packet must be in [2, 15]");
  }
  topo_ = topo::make_topology(opt_.topology);
  router_ = route::make_router(opt_.router, *topo_);
  nodes_ = int(topo_->num_nodes());
  ports_ = topo_->num_ports();
  escape_vcs_ =
      opt_.disable_escape
          ? 0
          : (topo_->kind() == topo::TopologyKind::kTorus ? 2 : 1);
  vcs_ = escape_vcs_ + opt_.adaptive_vcs;
  if (nodes_ > 250 || vcs_ < 1 || vcs_ > 15) {
    throw std::invalid_argument("ProtoModel: configuration out of range");
  }

  // Links, wrap flags and escape hops: the table the engine routes from.
  routes_ = std::make_unique<route::RouteTable>(*topo_);
  const std::size_t N = std::size_t(nodes_);
  const std::size_t P = std::size_t(ports_);
  cand_.assign(N * N * (P + 1), route::PortList{});
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      const std::size_t base = (std::size_t(n) * N + std::size_t(d)) * (P + 1);
      cand_[base + P] = router_->candidates(n, d, route::kLocalPort);
      for (Port a = 0; a < ports_; ++a) {
        cand_[base + std::size_t(a)] = router_->candidates(n, d, a);
      }
    }
  }

  if (!opt_.allowed_pairs.empty()) {
    for (const auto& [s, d] : opt_.allowed_pairs) {
      if (s < 0 || d < 0 || s >= nodes_ || d >= nodes_ || s == d) {
        throw std::invalid_argument("ProtoModel: allowed pair out of range");
      }
    }
    pairs_ = opt_.allowed_pairs;
  } else {
    for (int s = 0; s < nodes_; ++s) {
      for (int d = 0; d < nodes_; ++d) {
        if (s != d) pairs_.emplace_back(s, d);
      }
    }
  }
}

const route::PortList& ProtoModel::cand(NodeId n, NodeId d,
                                        Port arrived_on) const {
  const std::size_t a =
      arrived_on == route::kLocalPort ? std::size_t(ports_)
                                      : std::size_t(arrived_on);
  return cand_[(std::size_t(n) * std::size_t(nodes_) + std::size_t(d)) *
                   std::size_t(ports_ + 1) +
               a];
}

ModelState ProtoModel::initial() const {
  ModelState s;
  const std::size_t N = std::size_t(nodes_);
  s.queue.assign(N * std::size_t(in_units()), {});
  s.active.assign(N * std::size_t(in_units()), 0);
  s.out_port.assign(N * std::size_t(in_units()), -1);
  s.out_vc.assign(N * std::size_t(in_units()), -1);
  s.credits.assign(N * std::size_t(out_units()),
                   std::int8_t(opt_.buffer_flits));
  s.allocated.assign(N * std::size_t(out_units()), 0);
  s.rr.assign(N * std::size_t(ports_), 0);
  return s;
}

void ProtoModel::inject(ModelState& s, int src, int dst) const {
  DDPM_CHECK(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
             "model inject out of range");
  const int unit = ports_ * vcs_;  // injection port, VC 0
  auto& q = s.queue[std::size_t(src) * std::size_t(in_units()) +
                    std::size_t(unit)];
  for (int i = 0; i < opt_.flits_per_packet; ++i) {
    ModelFlit flit;
    flit.dest = std::uint8_t(dst);
    flit.head = (i == 0);
    flit.tail = (i + 1 == opt_.flits_per_packet);
    q.push_back(flit);
  }
  s.flits += std::uint64_t(opt_.flits_per_packet);
  ++s.injected;
}

void ProtoModel::restore_credit(ModelState& s, NodeId node, int in_port,
                               int in_vc) const {
  if (mut(core::ModelMutation::kDropCreditReturn)) return;  // seeded bug
  if (in_port == ports_) return;  // injection queue is unbounded
  const NodeId up = routes_->neighbor(node, Port(in_port));
  const Port up_port = routes_->reverse_port(node, Port(in_port));
  std::int8_t& credits =
      s.credits[std::size_t(up) * std::size_t(out_units()) +
                std::size_t(up_port) * std::size_t(vcs_) +
                std::size_t(in_vc)];
  if (credits < std::int8_t(opt_.buffer_flits)) ++credits;
}

std::size_t ProtoModel::drain_ejection(ModelState& s, NodeId node, int unit) const {
  const std::size_t gi = std::size_t(node) * std::size_t(in_units()) +
                         std::size_t(unit);
  auto& q = s.queue[gi];
  std::size_t consumed = 0;
  while (!q.empty()) {
    const ModelFlit flit = q.front();
    q.erase(q.begin());
    --s.flits;
    ++consumed;
    if (flit.tail) {
      s.active[gi] = 0;
      ++s.delivered;
      s.out_port[gi] = -1;
      s.out_vc[gi] = -1;
      break;
    }
  }
  return consumed;
}

bool ProtoModel::try_allocate(ModelState& s, NodeId node, int in_port,
                          int unit) const {
  const std::size_t gi = std::size_t(node) * std::size_t(in_units()) +
                         std::size_t(unit);
  auto& q = s.queue[gi];
  const ModelFlit& head = q.front();
  const NodeId dest = head.dest;
  const Port arrived_on =
      in_port == ports_ ? route::kLocalPort : Port(in_port);

  // 1. Adaptive VCs on any candidate port: most downstream credits wins,
  //    first wins ties, in the router's candidate order (identical to the
  //    real engine whichever of its two routing paths is live).
  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  for (const Port p : cand(node, dest, arrived_on)) {
    for (int v = escape_vcs_; v < vcs_; ++v) {
      const std::size_t oi = std::size_t(node) * std::size_t(out_units()) +
                             std::size_t(p) * std::size_t(vcs_) +
                             std::size_t(v);
      if (s.allocated[oi] == 0 && int(s.credits[oi]) > best_credits) {
        best_credits = int(s.credits[oi]);
        best_port = p;
        best_vc = v;
      }
    }
  }

  // 2. Escape layer: dimension-order port, dateline-disciplined VC class.
  std::uint8_t next_class = head.cls;
  if (best_port < 0 &&
      (opt_.disable_escape || mut(core::ModelMutation::kSkipEscapeFallback))) {
    return false;  // no escape lanes: wait (possibly forever — deadlock)
  }
  if (best_port < 0) {
    const Port p = routes_->escape_port(node, dest);
    if (p < 0) return false;  // only possible if already at dest
    if (escape_vcs_ > 1) {
      const std::size_t dim = std::size_t(p / 2);
      bool same_dim_as_arrival = false;
      if (arrived_on != route::kLocalPort) {
        same_dim_as_arrival = (std::size_t(arrived_on / 2) == dim);
      }
      if (!same_dim_as_arrival) next_class = 0;
      if (link_wrap(node, p)) next_class = 1;  // wrap crossing
    }
    const int v = int(next_class);
    const std::size_t oi = std::size_t(node) * std::size_t(out_units()) +
                           std::size_t(p) * std::size_t(vcs_) +
                           std::size_t(v);
    if (s.allocated[oi] != 0 || s.credits[oi] == 0) return false;  // wait
    best_port = p;
    best_vc = v;
  }

  s.allocated[std::size_t(node) * std::size_t(out_units()) +
              std::size_t(best_port) * std::size_t(vcs_) +
              std::size_t(best_vc)] = 1;
  s.active[gi] = 1;
  s.out_port[gi] = std::int8_t(best_port);
  s.out_vc[gi] = std::int8_t(best_vc);
  q.front().cls = next_class;
  return true;
}

void ProtoModel::step(ModelState& s) const {
  struct Arrival {
    NodeId node;
    int unit;
    ModelFlit flit;
  };
  std::vector<Arrival> staged;
  const int in_u = in_units();
  for (NodeId node = 0; node < NodeId(nodes_); ++node) {
    // Pass 1: VC allocation + ejection for heads at buffer fronts.
    for (int unit = 0; unit < in_u; ++unit) {
      const std::size_t gi = std::size_t(node) * std::size_t(in_u) +
                             std::size_t(unit);
      if (s.queue[gi].empty()) continue;
      const int in_port = unit / vcs_;
      const int in_vc = unit % vcs_;
      if (s.active[gi] == 0) {
        const ModelFlit& front = s.queue[gi].front();
        if (!front.head) continue;  // body flits of an advancing head
        if (front.dest == node) {
          // Local delivery path: consume and credit.
          s.out_port[gi] = -1;
          s.active[gi] = 1;  // occupy until tail passes
          const std::size_t consumed = drain_ejection(s, node, unit);
          for (std::size_t i = 0; i < consumed; ++i) {
            restore_credit(s, node, in_port, in_vc);
          }
          continue;
        }
        if (!try_allocate(s, node, in_port, unit)) continue;
      }
      if (s.active[gi] != 0 && s.out_port[gi] == -1) {
        // Ejection in progress: keep consuming arrivals.
        const std::size_t consumed = drain_ejection(s, node, unit);
        for (std::size_t i = 0; i < consumed; ++i) {
          restore_credit(s, node, in_port, in_vc);
        }
      }
    }
    // Pass 2: switch traversal, one flit per output port, round-robin.
    for (Port out_port = 0; out_port < ports_; ++out_port) {
      const std::size_t rr_idx = std::size_t(node) * std::size_t(ports_) +
                                 std::size_t(out_port);
      std::size_t unit = s.rr[rr_idx];
      for (int probe = 0; probe < in_u;
           ++probe, unit = (unit + 1 == std::size_t(in_u)) ? 0 : unit + 1) {
        const std::size_t gi = std::size_t(node) * std::size_t(in_u) + unit;
        if (s.active[gi] == 0 || s.out_port[gi] != std::int8_t(out_port) ||
            s.queue[gi].empty()) {
          continue;
        }
        const int ovc = int(s.out_vc[gi]);
        const std::size_t oi = std::size_t(node) * std::size_t(out_units()) +
                               std::size_t(out_port) * std::size_t(vcs_) +
                               std::size_t(ovc);
        if (s.credits[oi] == 0 &&
            !mut(core::ModelMutation::kBufferOffByOne)) {
          continue;  // credit stall
        }
        const ModelFlit flit = s.queue[gi].front();
        s.queue[gi].erase(s.queue[gi].begin());
        // The off-by-one mutation clamps instead of underflowing, exactly
        // as the hooked real engine does.
        if (s.credits[oi] > 0) --s.credits[oi];
        restore_credit(s, node, int(unit) / vcs_, int(unit) % vcs_);
        const NodeId next = routes_->neighbor(node, out_port);
        const Port next_in_port = routes_->reverse_port(node, out_port);
        if (flit.tail) {
          s.allocated[oi] = 0;
          s.active[gi] = 0;
          s.out_port[gi] = -1;
          s.out_vc[gi] = -1;
        }
        staged.push_back(Arrival{next, int(next_in_port) * vcs_ + ovc, flit});
        s.rr[rr_idx] =
            std::uint8_t((unit + 1 == std::size_t(in_u)) ? 0 : unit + 1);
        break;  // one flit per output port per cycle
      }
    }
  }
  for (const Arrival& a : staged) {
    s.queue[std::size_t(a.node) * std::size_t(in_u) + std::size_t(a.unit)]
        .push_back(a.flit);
  }
}

bool ProtoModel::check_safety(const ModelState& s, std::string* property,
                              std::string* why) const {
  const auto fail = [&](const char* prop, const std::string& msg) {
    if (property != nullptr) *property = prop;
    if (why != nullptr) *why = msg;
    return false;
  };
  // No loss or duplication: every in-flight flit is buffered exactly once,
  // and a drained network delivered every injected packet.
  std::uint64_t buffered = 0;
  for (const auto& q : s.queue) buffered += q.size();
  if (buffered != s.flits) {
    std::ostringstream os;
    os << "flit accounting: " << buffered << " buffered vs " << s.flits
       << " in flight";
    return fail("no-loss", os.str());
  }
  if (s.flits == 0 && s.delivered != s.injected) {
    std::ostringstream os;
    os << "drained with " << s.delivered << " of " << s.injected
       << " packets delivered";
    return fail("no-loss", os.str());
  }
  const int in_u = in_units();
  for (NodeId n = 0; n < NodeId(nodes_); ++n) {
    for (Port p = 0; p < ports_; ++p) {
      for (int vc = 0; vc < vcs_; ++vc) {
        const std::size_t occ =
            s.queue[std::size_t(n) * std::size_t(in_u) +
                    std::size_t(p) * std::size_t(vcs_) + std::size_t(vc)]
                .size();
        if (occ > std::size_t(opt_.buffer_flits)) {
          std::ostringstream os;
          os << "node " << n << " port " << p << " vc " << vc << " holds "
             << occ << " flits (depth " << opt_.buffer_flits << ")";
          return fail("no-overflow", os.str());
        }
        const NodeId up = routes_->neighbor(n, p);
        if (up == topo::kInvalidNode) continue;
        const Port up_port = routes_->reverse_port(n, p);
        const int credits =
            int(s.credits[std::size_t(up) * std::size_t(out_units()) +
                          std::size_t(up_port) * std::size_t(vcs_) +
                          std::size_t(vc)]);
        if (credits < 0 || std::size_t(credits) + occ !=
                               std::size_t(opt_.buffer_flits)) {
          std::ostringstream os;
          os << "link " << up << "->" << n << " vc " << vc << " has "
             << credits << " credits + " << occ << " buffered != depth "
             << opt_.buffer_flits;
          return fail("credit-conservation", os.str());
        }
      }
    }
  }
  return true;
}

bool ProtoModel::check_escape_reach(std::string* why) const {
  if (escape_vcs_ == 0) return true;  // vacuous: no escape layer configured
  for (NodeId n = 0; n < NodeId(nodes_); ++n) {
    for (NodeId d = 0; d < NodeId(nodes_); ++d) {
      if (n == d) continue;
      NodeId cur = n;
      int hops = 0;
      while (cur != d) {
        const Port p = routes_->escape_port(cur, d);
        if (p < 0 || hops > nodes_ * ports_) {
          if (why != nullptr) {
            std::ostringstream os;
            os << "escape chain " << n << "->" << d << " breaks at node "
               << cur;
            *why = os.str();
          }
          return false;
        }
        cur = routes_->neighbor(cur, p);
        ++hops;
      }
    }
  }
  return true;
}

std::string ProtoModel::encode_state(const ModelState& s) const {
  std::string out;
  out.reserve(s.queue.size() * 3 + s.credits.size() * 2 + s.rr.size() + 4);
  out.push_back(char(s.injected));
  for (std::size_t gi = 0; gi < s.queue.size(); ++gi) {
    const auto& q = s.queue[gi];
    out.push_back(char(q.size()));
    for (const ModelFlit& f : q) {
      out.push_back(char(f.dest));
      out.push_back(char((f.head ? 1 : 0) | (f.tail ? 2 : 0) |
                         (int(f.cls) << 2)));
    }
    out.push_back(char(s.active[gi]));
    out.push_back(char(int(s.out_port[gi]) + 1));
    out.push_back(char(int(s.out_vc[gi]) + 1));
  }
  for (std::size_t oi = 0; oi < s.credits.size(); ++oi) {
    out.push_back(char(s.credits[oi]));
    out.push_back(char(s.allocated[oi]));
  }
  for (const std::uint8_t rr : s.rr) out.push_back(char(rr));
  return out;
}

ModelState ProtoModel::decode_state(const std::string& bytes) const {
  ModelState s = initial();
  std::size_t at = 0;
  const auto next = [&]() -> std::uint8_t {
    DDPM_CHECK(at < bytes.size(), "model decode: truncated encoding");
    return std::uint8_t(bytes[at++]);
  };
  s.injected = next();
  for (std::size_t gi = 0; gi < s.queue.size(); ++gi) {
    const std::size_t len = next();
    s.queue[gi].resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      ModelFlit& f = s.queue[gi][i];
      f.dest = next();
      const std::uint8_t flags = next();
      f.head = (flags & 1) != 0;
      f.tail = (flags & 2) != 0;
      f.cls = std::uint8_t(flags >> 2);
    }
    s.flits += len;
    s.active[gi] = next();
    s.out_port[gi] = std::int8_t(int(next()) - 1);
    s.out_vc[gi] = std::int8_t(int(next()) - 1);
  }
  for (std::size_t oi = 0; oi < s.credits.size(); ++oi) {
    s.credits[oi] = std::int8_t(next());
    s.allocated[oi] = next();
  }
  for (std::uint8_t& rr : s.rr) rr = next();
  DDPM_CHECK(at == bytes.size(), "model decode: trailing bytes");
  return s;
}

ModelProjection ProtoModel::project(const ModelState& s) const {
  ModelProjection proj;
  proj.occupancy.reserve(s.queue.size());
  for (const auto& q : s.queue) {
    proj.occupancy.push_back(std::uint32_t(q.size()));
  }
  proj.credits.assign(s.credits.begin(), s.credits.end());
  proj.allocated.assign(s.allocated.begin(), s.allocated.end());
  proj.flits_in_flight = s.flits;
  proj.delivered = s.delivered;
  return proj;
}

}  // namespace ddpm::verify::model
