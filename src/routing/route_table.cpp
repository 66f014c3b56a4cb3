#include "routing/route_table.hpp"

namespace ddpm::route {

RouteTable::RouteTable(const topo::Topology& topo)
    : coords_(topo),
      ports_(std::size_t(topo.num_ports())),
      links_(std::size_t(topo.num_nodes()) * ports_) {
  const bool torus = topo.kind() == topo::TopologyKind::kTorus;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (Port p = 0; p < Port(ports_); ++p) {
      const auto nbr = topo.neighbor(n, p);
      if (!nbr.has_value()) continue;
      Link& link = links_[n * ports_ + std::size_t(p)];
      link.neighbor = *nbr;
      link.reverse = std::int16_t(*topo.port_to(*nbr, n));
      if (torus) {  // dateline: torus port p runs along dimension p / 2
        const std::size_t dim = std::size_t(p / 2);
        const int delta =
            int(coords_.row(*nbr)[dim]) - int(coords_.row(n)[dim]);
        link.wrap = (delta != 1 && delta != -1) ? 1 : 0;
      }
    }
  }
}

}  // namespace ddpm::route
