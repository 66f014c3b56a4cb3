// Valiant-style randomized two-phase routing.
//
// Packets are routed minimally to an intermediate node first, then
// minimally to the destination. The detour decorrelates paths from the
// source — the strongest form of the "route is not stable" property the
// paper assumes (§4.1) — and makes paths non-minimal by design (~2x
// longer on average), which is exactly the stress a path-independent
// marking scheme must survive.
//
// The Router interface is per-hop stateless (it sees only node ids), so
// the intermediate is derived deterministically as hash(destination,
// salt): all traffic to one destination shares a detour, different
// destinations detour differently, and sweeping `salt` (e.g. per packet
// in a bench) gives the full per-packet Valiant behaviour.
//
// Phase rule (stateless, loop-free): route toward the intermediate until
// the packet reaches it OR is already strictly closer to the destination
// than the intermediate is; then route toward the destination. The phase
// predicate can only flip forward, and each phase's distance strictly
// decreases, so every walk terminates.
#pragma once

#include "routing/router.hpp"
#include "topology/coord_table.hpp"

namespace ddpm::route {

class ValiantRouter final : public Router {
 public:
  explicit ValiantRouter(const topo::Topology& topo, std::uint64_t salt = 0)
      : Router(topo), coords_(topo), salt_(salt) {}

  std::string name() const override { return "valiant"; }
  bool is_deterministic() const noexcept override { return false; }

  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;

  /// The intermediate node used for traffic toward `dest` (tests/benches).
  NodeId intermediate_for(NodeId dest) const;

 private:
  topo::CoordTable coords_;
  std::uint64_t salt_;
};

}  // namespace ddpm::route
