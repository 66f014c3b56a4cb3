#include "verify/model/symmetry.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace ddpm::verify::model {

namespace {

/// Ports as a sorted vector, for order-insensitive candidate comparison.
std::vector<int> sorted_ports(const route::PortList& list) {
  std::vector<int> out(list.begin(), list.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

SymmetryGroup::SymmetryGroup(const ProtoModel& m) {
  const topo::Topology& topo = m.topology();
  const int N = m.nodes();
  const int P = m.ports();
  SymElem identity;
  identity.node_map.resize(std::size_t(N));
  identity.port_map.resize(std::size_t(P));
  for (int n = 0; n < N; ++n) identity.node_map[std::size_t(n)] = n;
  for (int p = 0; p < P; ++p) identity.port_map[std::size_t(p)] = p;
  elems_.push_back(identity);

  const std::size_t dims = topo.num_dims();
  if (dims > 10) return;  // bounded configs only; nothing to gain beyond
  for (std::uint32_t mask = 1; mask < (1u << dims); ++mask) {
    SymElem e = identity;
    if (topo.kind() == topo::TopologyKind::kHypercube) {
      // Bit complement of the selected dimensions; ports are dimensions
      // and map to themselves.
      for (int n = 0; n < N; ++n) {
        e.node_map[std::size_t(n)] = int(std::uint32_t(n) ^ mask);
      }
    } else {
      // Per-dimension coordinate reflection; the +/- direction ports of a
      // reflected dimension swap.
      for (int n = 0; n < N; ++n) {
        topo::Coord c = topo.coord_of(topo::NodeId(n));
        for (std::size_t d = 0; d < dims; ++d) {
          if ((mask >> d) & 1u) {
            c[d] = topo::Coord::value_type(topo.dim_size(d) - 1 - c[d]);
          }
        }
        e.node_map[std::size_t(n)] = int(topo.id_of(c));
      }
      for (int p = 0; p < P; ++p) {
        const std::size_t d = std::size_t(p / 2);
        e.port_map[std::size_t(p)] = ((mask >> d) & 1u) ? (p ^ 1) : p;
      }
    }
    if (validates(m, e)) elems_.push_back(e);
  }
}

bool SymmetryGroup::validates(const ProtoModel& m, const SymElem& e) const {
  const int N = m.nodes();
  const int P = m.ports();
  const auto pn = [&](NodeId n) { return NodeId(e.node_map[std::size_t(n)]); };
  const auto pp = [&](Port p) {
    return p == route::kLocalPort ? p : Port(e.port_map[std::size_t(p)]);
  };
  // Link tables must commute exactly.
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (Port p = 0; p < P; ++p) {
      const NodeId nbr = m.routes().neighbor(n, p);
      const NodeId img_nbr = m.routes().neighbor(pn(n), pp(p));
      if (nbr == topo::kInvalidNode) {
        if (img_nbr != topo::kInvalidNode) return false;
        continue;
      }
      if (img_nbr != pn(nbr)) return false;
      if (m.routes().reverse_port(pn(n), pp(p)) !=
          pp(m.routes().reverse_port(n, p))) {
        return false;
      }
      if (m.link_wrap(pn(n), pp(p)) != m.link_wrap(n, p)) return false;
    }
  }
  // Escape next-hops and adaptive candidate sets must map consistently.
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      if (n == d) continue;
      const Port esc = m.routes().escape_port(n, d);
      const Port img_esc = m.routes().escape_port(pn(n), pn(d));
      if (esc < 0 ? img_esc >= 0 : img_esc != pp(esc)) return false;
      for (Port a = -1; a < P; ++a) {
        std::vector<int> mapped;
        for (const Port c : m.cand(n, d, a)) mapped.push_back(int(pp(c)));
        std::sort(mapped.begin(), mapped.end());
        if (mapped != sorted_ports(m.cand(pn(n), pn(d), pp(a)))) {
          return false;
        }
      }
    }
  }
  // The injection alphabet must be closed under the element.
  std::vector<std::pair<int, int>> orig = m.pairs();
  std::vector<std::pair<int, int>> mapped;
  for (const auto& [s, d] : orig) {
    mapped.emplace_back(e.node_map[std::size_t(s)],
                        e.node_map[std::size_t(d)]);
  }
  std::sort(orig.begin(), orig.end());
  std::sort(mapped.begin(), mapped.end());
  return orig == mapped;
}

ModelState SymmetryGroup::apply(const ProtoModel& m, const ModelState& s,
                                const SymElem& e) const {
  const int V = m.vcs();
  const int P = m.ports();
  const int in_u = m.in_units();
  const int out_u = m.out_units();
  const auto unit_map = [&](int u) {
    const int port = u / V;
    return port == P ? u : e.port_map[std::size_t(port)] * V + u % V;
  };
  ModelState r = m.initial();
  r.injected = s.injected;
  r.delivered = s.delivered;
  r.flits = s.flits;
  for (int n = 0; n < m.nodes(); ++n) {
    const std::size_t src = std::size_t(n) * std::size_t(in_u);
    const std::size_t dst =
        std::size_t(e.node_map[std::size_t(n)]) * std::size_t(in_u);
    for (int u = 0; u < in_u; ++u) {
      const std::size_t gi = src + std::size_t(u);
      const std::size_t gj = dst + std::size_t(unit_map(u));
      r.queue[gj] = s.queue[gi];
      for (ModelFlit& f : r.queue[gj]) {
        f.dest = std::uint8_t(e.node_map[std::size_t(f.dest)]);
      }
      r.active[gj] = s.active[gi];
      r.out_port[gj] =
          s.out_port[gi] < 0
              ? s.out_port[gi]
              : std::int8_t(e.port_map[std::size_t(s.out_port[gi])]);
      r.out_vc[gj] = s.out_vc[gi];
    }
    const std::size_t osrc = std::size_t(n) * std::size_t(out_u);
    const std::size_t odst =
        std::size_t(e.node_map[std::size_t(n)]) * std::size_t(out_u);
    for (int p = 0; p < P; ++p) {
      for (int vc = 0; vc < V; ++vc) {
        const std::size_t oi = osrc + std::size_t(p * V + vc);
        const std::size_t oj =
            odst + std::size_t(e.port_map[std::size_t(p)] * V + vc);
        r.credits[oj] = s.credits[oi];
        r.allocated[oj] = s.allocated[oi];
      }
      r.rr[std::size_t(e.node_map[std::size_t(n)]) * std::size_t(P) +
           std::size_t(e.port_map[std::size_t(p)])] =
          std::uint8_t(unit_map(int(
              s.rr[std::size_t(n) * std::size_t(P) + std::size_t(p)])));
    }
  }
  return r;
}

std::string SymmetryGroup::canonical(const ProtoModel& m,
                                     const ModelState& s) const {
  std::string best = m.encode_state(s);
  for (std::size_t i = 1; i < elems_.size(); ++i) {
    std::string img = m.encode_state(apply(m, s, elems_[i]));
    if (img < best) best = std::move(img);
  }
  return best;
}

}  // namespace ddpm::verify::model
