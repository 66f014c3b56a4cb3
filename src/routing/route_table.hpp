// RouteTable: the flat tables the blocking substrates route from instead
// of dispatching through the virtual Topology / Router interfaces, and
// the one home of the port layout (topology.hpp) and the torus dateline
// rule (a link wraps when its coordinate delta is not +-1). Built once:
//
//   * per-(node, port) links: neighbor, the neighbor's port back, and the
//     wrap flag;
//   * the coordinate table the productive rule (router.hpp
//     productive_mask) reads, so the dimension-order escape port is the
//     lowest productive port, computed per hop. There is no per-pair
//     table: the state is O(N*P + N*D) at every size.
//
// Read by the wormhole engine, the protocol model, the escape CDG and
// (links only) the cluster network. Accessors are inline and non-virtual,
// so DDPM_HOT loops may call them.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "routing/router.hpp"
#include "topology/coord_table.hpp"
#include "topology/topology.hpp"

namespace ddpm::route {

class RouteTable {
 public:
  explicit RouteTable(const topo::Topology& topo);

  /// Neighbor through `port`, or topo::kInvalidNode where no link exists.
  NodeId neighbor(NodeId node, Port port) const noexcept {
    return links_[node * ports_ + std::size_t(port)].neighbor;
  }
  /// Port on neighbor(node, port) leading back to `node`; -1 if no link.
  Port reverse_port(NodeId node, Port port) const noexcept {
    return links_[node * ports_ + std::size_t(port)].reverse;
  }
  /// True for a torus wraparound (dateline) link.
  bool wraps(NodeId node, Port port) const noexcept {
    return links_[node * ports_ + std::size_t(port)].wrap != 0;
  }
  /// Port on `from` that reaches adjacent node `to`, or -1 if not adjacent.
  Port port_to(NodeId from, NodeId to) const noexcept {
    for (Port p = 0; p < Port(ports_); ++p) {
      if (neighbor(from, p) == to) return p;
    }
    return -1;
  }

  /// The coordinates productive_mask reads.
  const topo::CoordTable& coords() const noexcept { return coords_; }

  /// Dimension-order next hop toward `dest`: the lowest productive port,
  /// -1 at node == dest.
  Port escape_port(NodeId node, NodeId dest) const noexcept {
    const std::uint32_t mask = productive_mask(coords_, node, dest);
    return mask == 0 ? -1 : Port(std::countr_zero(mask));
  }

 private:
  struct Link {
    NodeId neighbor = topo::kInvalidNode;
    std::int16_t reverse = -1;
    std::uint8_t wrap = 0;
  };

  topo::CoordTable coords_;
  std::size_t ports_;
  std::vector<Link> links_;  // N*P
};

}  // namespace ddpm::route
