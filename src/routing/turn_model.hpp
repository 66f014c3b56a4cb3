// Turn-model partially adaptive routing for the 2-D mesh (paper §3,
// Figure 2(b)).
//
// Glass & Ni's turn model removes just enough turns from the routing graph
// to break every deadlock cycle while leaving some adaptivity. We implement
// the three classic instances:
//
//   west-first      all westward hops happen first; turns *into* west
//                   (N->W, S->W) are prohibited. While the packet still
//                   needs to go west it may ONLY go west; afterwards it
//                   routes adaptively east/north/south, including
//                   non-minimal north/south detours (how Figure 2(b)'s
//                   packets get around the failed east links).
//   north-last      northward hops happen last; turns *out of* north are
//                   prohibited. The router is stateless per hop, so "I am
//                   heading north" is recovered from `arrived_on`.
//   negative-first  all negative-direction hops (west, north) first; turns
//                   from a positive into a negative direction prohibited.
//
// Axis convention (matches Figure 1's drawings): dimension 0 is X
// (west = decreasing, port 0; east = increasing, port 1); dimension 1 is Y
// (north = decreasing, port 2; south = increasing, port 3).
#pragma once

#include "routing/router.hpp"
#include "topology/coord_table.hpp"

namespace ddpm::route {

enum class TurnModel { kWestFirst, kNorthLast, kNegativeFirst };

std::string to_string(TurnModel model);

class TurnModelRouter final : public Router {
 public:
  /// Throws std::invalid_argument unless `topo` is a 2-D mesh.
  TurnModelRouter(const topo::Topology& topo, TurnModel model);

  std::string name() const override { return to_string(model_); }
  bool is_deterministic() const noexcept override { return false; }

  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;
  PortList fallback_candidates(NodeId current, NodeId dest,
                               Port arrived_on) const override;

  static constexpr Port kWest = 0;
  static constexpr Port kEast = 1;
  static constexpr Port kNorth = 2;
  static constexpr Port kSouth = 3;

 private:
  // `arrived_on` is the current node's port that connects back to the
  // previous node, so taking `arrived_on` itself is the 180-degree reversal
  // (prohibited by every model), and the packet's heading is its opposite
  // (arrived_on ^ 1).
  TurnModel model_;
  topo::CoordTable coords_;
};

}  // namespace ddpm::route
