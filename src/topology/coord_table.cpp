#include "topology/coord_table.hpp"

namespace ddpm::topo {

CoordTable::CoordTable(const Topology& topo)
    : kind_(topo.kind()),
      nodes_(topo.num_nodes()),
      dims_(topo.num_dims()),
      coords_(std::size_t(nodes_) * dims_) {
  for (std::size_t d = 0; d < dims_; ++d) radix_[d] = topo.dim_size(d);
  for (NodeId n = 0; n < nodes_; ++n) {
    const Coord c = topo.coord_of(n);
    for (std::size_t d = 0; d < dims_; ++d) coords_[std::size_t(n) * dims_ + d] = c[d];
  }
}

}  // namespace ddpm::topo
