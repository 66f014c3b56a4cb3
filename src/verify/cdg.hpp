// Channel-dependency-graph deadlock verifier (Dally & Seitz, docs/VERIFICATION.md).
//
// A channel is a directed link (node, port). A dependency a -> b exists
// when a packet that occupies channel a can request channel b as its next
// hop. On a blocking substrate, routing is deadlock-free iff this graph is
// acyclic. The builder here enumerates only *reachable* dependencies: it
// runs a BFS over (occupied channel, destination) states seeded at
// injection, querying the router for each state — the naive all-states
// closure would count 180-degree reversals no packet can perform and
// wrongly convict dimension-order routing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "routing/router.hpp"
#include "topology/topology.hpp"

namespace ddpm::verify {

struct CdgResult {
  std::size_t channels = 0;      ///< directed channels (incl. VC split)
  std::size_t dependencies = 0;  ///< distinct reachable dependency edges
  bool cyclic = false;
  std::vector<std::string> cycle;  ///< witness: channel names along a cycle
};

/// Builds and cycle-checks the reachable CDG of `router` on `topo`.
/// `include_fallbacks` adds misroute (fallback) candidates to every
/// state's request set — the conservative closure for adaptive routers
/// whose fallbacks fire under congestion.
CdgResult build_cdg(const topo::Topology& topo, const route::Router& router,
                    bool include_fallbacks = true);

/// Builds and cycle-checks the CDG of the escape subnetwork a blocking
/// substrate provides for `topo`: dimension-order routing, with each torus
/// wrap ring split across two dateline virtual channels (packets move to
/// the second class after crossing the wrap link — the wormhole
/// substrate's discipline). Escape hops and wrap flags come from the
/// route::RouteTable the wormhole engine routes from. Acyclic here + unrestricted fallback to the
/// escape layer is Duato's deadlock-freedom criterion for the adaptive
/// combos.
CdgResult build_escape_cdg(const topo::Topology& topo);

/// Stable channel label for witnesses/JSON: "from->to" or "from->to/vc1".
std::string channel_name(const topo::Topology& topo, topo::NodeId from,
                         topo::Port port, int vc, int num_vcs);

}  // namespace ddpm::verify
