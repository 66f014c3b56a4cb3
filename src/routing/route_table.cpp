#include "routing/route_table.hpp"

#include <utility>

namespace ddpm::route {

RouteTable::RouteTable(const topo::Topology& topo, const Router* router,
                       std::size_t max_pair_nodes)
    : dor_(topo),
      nodes_(topo.num_nodes()),
      ports_(std::size_t(topo.num_ports())),
      links_(nodes_ * ports_) {
  const bool torus = topo.kind() == topo::TopologyKind::kTorus;
  for (NodeId n = 0; n < NodeId(nodes_); ++n) {
    for (Port p = 0; p < Port(ports_); ++p) {
      const auto nbr = topo.neighbor(n, p);
      if (!nbr.has_value()) continue;
      Link& link = links_[n * ports_ + std::size_t(p)];
      link.neighbor = *nbr;
      link.reverse = std::int16_t(*topo.port_to(*nbr, n));
      if (torus) {  // dateline: torus port p runs along dimension p / 2
        const std::size_t dim = std::size_t(p / 2);
        const int delta =
            int(topo.coord_of(*nbr)[dim]) - int(topo.coord_of(n)[dim]);
        link.wrap = (delta != 1 && delta != -1) ? 1 : 0;
      }
    }
  }
  if (nodes_ > max_pair_nodes) return;

  // Dimension-order routing is deterministic and ignores the arrival port,
  // so one port per (node, dest) captures the escape layer. escape_port()
  // asks the router while escape_port_ is still empty.
  std::vector<std::int8_t> escape(nodes_ * nodes_);
  for (NodeId n = 0; n < NodeId(nodes_); ++n) {
    for (NodeId d = 0; d < NodeId(nodes_); ++d) {
      escape[n * nodes_ + d] = std::int8_t(escape_port(n, d));
    }
  }
  escape_port_ = std::move(escape);

  if (router == nullptr || !router->has_static_candidates() || ports_ > 32) {
    return;
  }
  std::vector<std::uint32_t> masks(nodes_ * nodes_, 0);
  for (NodeId n = 0; n < NodeId(nodes_); ++n) {
    for (NodeId d = 0; d < NodeId(nodes_); ++d) {
      Port prev = -1;
      for (const Port p : router->candidates(n, d, kLocalPort)) {
        if (p <= prev || p >= Port(ports_)) return;  // not ascending
        prev = p;
        masks[n * nodes_ + d] |= (1u << unsigned(p));
      }
    }
  }
  cand_mask_ = std::move(masks);
}

}  // namespace ddpm::route
