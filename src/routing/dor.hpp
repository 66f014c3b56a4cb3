// Dimension-order routing (deterministic; paper §3 "XY routing" on the
// 2-D mesh, e-cube on the hypercube).
//
// The packet corrects dimensions in ascending order: all dimension-0 hops,
// then dimension 1, and so on. On the torus each dimension takes the
// shorter ring direction. There is exactly one permitted port per hop, so
// a blocked link blocks the packet — the behaviour Figure 2(b) shows.
#pragma once

#include "routing/router.hpp"
#include "topology/coord_table.hpp"

namespace ddpm::route {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const topo::Topology& topo)
      : Router(topo), coords_(topo) {}

  std::string name() const override { return "dor"; }
  bool is_deterministic() const noexcept override { return true; }

  /// The one port: the first of productive_ports().
  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;

  ProductiveRule productive_rule() const noexcept override {
    return {&coords_, true};
  }

 private:
  topo::CoordTable coords_;
};

}  // namespace ddpm::route
