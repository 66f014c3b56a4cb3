// CoordTable: every node's coordinates in one flat N×D array of int16,
// plus each dimension's radix and the torus flag, built once from a
// Topology.
//
// The per-hop paths — DDPM marking and identification, the adaptive and
// dimension-order routers — read coordinates here instead of calling the
// virtual Topology::coord_of, whose Cartesian codec divides once per
// dimension. The table is O(N·D); there is no per-pair table. Accessors
// are inline and non-virtual, so DDPM_HOT code may call them.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "topology/coord.hpp"
#include "topology/topology.hpp"

namespace ddpm::topo {

class CoordTable {
 public:
  explicit CoordTable(const Topology& topo);

  NodeId num_nodes() const noexcept { return nodes_; }
  std::size_t num_dims() const noexcept { return dims_; }
  int radix(std::size_t d) const noexcept { return radix_[d]; }
  bool torus() const noexcept { return kind_ == TopologyKind::kTorus; }
  bool hypercube() const noexcept { return kind_ == TopologyKind::kHypercube; }

  /// The num_dims() coordinates of node `n` (n < num_nodes()).
  const Coord::value_type* row(NodeId n) const noexcept {
    return coords_.data() + std::size_t(n) * dims_;
  }

  /// Direction (-1, 0 or +1) a minimal route steps in dimension `d` from
  /// coordinate `a` toward `b`: the shorter way round on a torus (ties go
  /// positive), straight toward `b` otherwise.
  int direction(std::size_t d, int a, int b) const noexcept {
    if (torus()) return ring_direction(a, b, radix_[d]);
    return (b > a) - (b < a);
  }

  /// Node at coordinates `c` (num_dims() entries, each in [0, radix)):
  /// row-major on mesh and torus (the last dimension varies fastest), bit
  /// d = coordinate d on the hypercube.
  NodeId id_of(const Coord::value_type* c) const noexcept {
    NodeId id = 0;
    for (std::size_t d = 0; d < dims_; ++d) {
      id = hypercube() ? id | (NodeId(c[d]) << d)
                       : id * NodeId(radix_[d]) + NodeId(c[d]);
    }
    return id;
  }

 private:
  TopologyKind kind_;
  NodeId nodes_;
  std::size_t dims_;
  std::array<int, Coord::kMaxDims> radix_{};
  std::vector<Coord::value_type> coords_;  // N*D, row-major by node
};

}  // namespace ddpm::topo
