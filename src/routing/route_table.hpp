// RouteTable: the flat tables the blocking substrates route from instead
// of dispatching through the virtual Topology / Router interfaces, and
// the one home of the port layout (topology.hpp) and the torus dateline
// rule (a link wraps when its coordinate delta is not +-1). Built once:
//
//   * per-(node, port) links, always: neighbor, the neighbor's port back,
//     and the wrap flag;
//   * per-(node, dest) pair tables, only when N <= `max_pair_nodes` (they
//     are O(N^2)): the dimension-order escape port and, for a router with
//     static candidates, the candidate set as an ascending port bitmask.
//     Over budget, escape_port() asks the dimension-order router instead.
//
// Read by the wormhole engine, the protocol model, the escape CDG and
// (links only) the cluster network. Accessors are inline and non-virtual,
// so DDPM_HOT loops may call them. The table keeps a reference to the
// topology, which must outlive it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "routing/dor.hpp"
#include "routing/router.hpp"
#include "topology/topology.hpp"

namespace ddpm::route {

class RouteTable {
 public:
  /// `router` may be null. Candidate masks are built only when it
  /// has_static_candidates(), there are at most 32 ports, and every
  /// candidate list is verified strictly ascending, so iterating a mask's
  /// set bits replays the router's order bit for bit.
  RouteTable(const topo::Topology& topo, const Router* router,
             std::size_t max_pair_nodes);

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

  bool has_escape_ports() const noexcept { return !escape_port_.empty(); }
  /// Dimension-order next hop toward `dest`; -1 at node == dest.
  Port escape_port(NodeId node, NodeId dest) const {
    if (!escape_port_.empty()) return escape_port_[node * nodes_ + dest];
    const PortList hop = dor_.candidates(node, dest, kLocalPort);
    return hop.empty() ? -1 : hop.front();
  }

  bool has_candidate_masks() const noexcept { return !cand_mask_.empty(); }
  /// Bit p set = port p is a candidate toward `dest`.
  std::uint32_t candidate_mask(NodeId node, NodeId dest) const noexcept {
    return cand_mask_[node * nodes_ + dest];
  }

 private:
  struct Link {
    NodeId neighbor = topo::kInvalidNode;
    std::int16_t reverse = -1;
    std::uint8_t wrap = 0;
  };

  DimensionOrderRouter dor_;
  std::size_t nodes_;
  std::size_t ports_;
  std::vector<Link> links_;               // N*P
  std::vector<std::int8_t> escape_port_;  // N*N, or empty over budget
  std::vector<std::uint32_t> cand_mask_;  // N*N, or empty
};

}  // namespace ddpm::route
