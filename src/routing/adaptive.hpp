// Fully adaptive routing (paper §3, Figure 2(c)).
//
// The minimal variant offers every productive port each hop and picks the
// least congested usable one, so paths between a fixed pair vary with
// network state — exactly the property that breaks path-recording
// traceback schemes (paper §4) and that DDPM must survive.
//
// The misrouting variant additionally derails to any usable non-productive
// port when all productive ports are blocked (no 180-degree reversal).
// Misrouting admits livelock in theory; in the simulator the packet TTL
// bounds it, mirroring the livelock-recovery schemes the paper mentions
// (§4.1: "many adaptive routing algorithms allow a packet to revisit the
// same node").
#pragma once

#include "routing/router.hpp"
#include "topology/coord_table.hpp"

namespace ddpm::route {

class AdaptiveRouter : public Router {
 public:
  /// Works on mesh, torus, and hypercube.
  explicit AdaptiveRouter(const topo::Topology& topo)
      : Router(topo), coords_(topo) {}

  std::string name() const override { return "adaptive"; }
  bool is_deterministic() const noexcept override { return false; }
  // Productive ports are a pure function of the coordinate delta, emitted
  // in ascending dimension order (inherited by the misrouting variant,
  // whose `candidates` is the same minimal set).
  bool has_static_candidates() const noexcept override { return true; }

  /// Every productive (distance-reducing) port: productive_ports().
  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;

  /// The productive set; the misrouting variant's fallback is left to
  /// select_output.
  ProductiveRule productive_rule() const noexcept override {
    return {&coords_, false};
  }

 private:
  topo::CoordTable coords_;
};

class MisroutingAdaptiveRouter final : public AdaptiveRouter {
 public:
  explicit MisroutingAdaptiveRouter(const topo::Topology& topo)
      : AdaptiveRouter(topo) {}

  std::string name() const override { return "adaptive-misroute"; }

  /// Every existing non-productive port except the 180-degree reversal.
  PortList fallback_candidates(NodeId current, NodeId dest,
                               Port arrived_on) const override;
};

}  // namespace ddpm::route
