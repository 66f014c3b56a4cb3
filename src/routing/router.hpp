// Routing interfaces (paper §3).
//
// A Router is a pure policy object: given the current node, the
// destination, and a view of link state (failures + congestion), it picks
// an output port. Switch mechanics (queues, latency) live in the cluster
// model; routing tests drive routers directly.
//
// The split between `candidates` and `select_output` mirrors the paper's
// adaptivity taxonomy: deterministic routers return one candidate,
// partially adaptive routers return the subset their turn rules allow, and
// fully adaptive routers return every productive port (plus misroutes when
// blocked). Selection then applies congestion-awareness uniformly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "netsim/rng.hpp"
#include "routing/port_list.hpp"
#include "topology/coord_table.hpp"
#include "topology/topology.hpp"

namespace ddpm::route {

using topo::NodeId;
using topo::Port;

/// Sentinel for "injected locally, did not arrive through a port".
inline constexpr Port kLocalPort = -1;

/// Every productive (distance-reducing) port at `current` toward `target`
/// as a port bitmask (bit p = port p); 0 at the target. Hypercube: one
/// port per differing id bit. Mesh and torus: one port per unaligned
/// dimension, the shorter way round on a torus (CoordTable::direction).
/// The minimal routers' one rule, read from the coordinate table; inline
/// and non-virtual, so the cluster switch evaluates it per hop.
inline std::uint32_t productive_mask(const topo::CoordTable& coords,
                                     NodeId current, NodeId target) noexcept {
  // Port p flips id bit p; at most 32 ports (PortList::kCapacity).
  if (coords.hypercube()) return std::uint32_t(current ^ target);
  const auto* a = coords.row(current);
  const auto* b = coords.row(target);
  std::uint32_t mask = 0;
  for (std::size_t d = 0; d < coords.num_dims(); ++d) {
    const int dir = coords.direction(d, a[d], b[d]);
    if (dir != 0) mask |= std::uint32_t{1} << (2 * d + (dir > 0 ? 1 : 0));
  }
  return mask;
}

/// productive_mask's ports in a list, ascending.
PortList productive_ports(const topo::CoordTable& coords, NodeId current,
                          NodeId target);

/// A router whose candidates are the productive ports, or the lowest of
/// them, states so here. A switch then evaluates the candidate set itself
/// as productive_mask over `coords`, with no virtual call per hop, and
/// picks the way select_output would. Only when no candidate is usable
/// does it call select_output, which misroutes or blocks.
struct ProductiveRule {
  /// The router's coordinate table; null when the candidates are not a
  /// productive set (turn model, Valiant, oracle).
  const topo::CoordTable* coords = nullptr;
  /// Dimension order: only the lowest productive port is a candidate.
  bool lowest_only = false;
};

/// Dynamic link state the router may consult. Implemented over static
/// failure sets in tests and over live output-queue occupancy in the
/// cluster model.
class LinkStateView {
 public:
  virtual ~LinkStateView() = default;

  /// True iff the port exists at `node` and its link is operational.
  virtual bool link_usable(NodeId node, Port port) const = 0;

  /// Congestion metric for the link; larger is worse. Adaptive routers
  /// prefer smaller values. The default (0 everywhere) makes congestion
  /// selection degrade to first-candidate order.
  virtual double congestion(NodeId, Port) const { return 0.0; }

 protected:
  // C.67: suppress public copy through the base handle (slicing).
  LinkStateView() = default;
  LinkStateView(const LinkStateView&) = default;
  LinkStateView& operator=(const LinkStateView&) = default;
};

/// LinkStateView over topology geometry plus an optional failure set;
/// reports zero congestion.
class StaticLinkState final : public LinkStateView {
 public:
  explicit StaticLinkState(const topo::Topology& topo,
                           const topo::LinkFailureSet* failures = nullptr)
      : topo_(topo), failures_(failures) {}

  bool link_usable(NodeId node, Port port) const override {
    const auto next = topo_.neighbor(node, port);
    if (!next) return false;
    return failures_ == nullptr || !failures_->is_failed(node, *next);
  }

 private:
  const topo::Topology& topo_;
  const topo::LinkFailureSet* failures_;
};

class Router {
 public:
  explicit Router(const topo::Topology& topo) : topo_(topo) {}
  virtual ~Router() = default;

  virtual std::string name() const = 0;

  /// True for routers whose path between a fixed (src, dst) pair never
  /// varies (paper §3: "deterministic" vs "adaptive").
  virtual bool is_deterministic() const noexcept = 0;

  /// Preferred (productive) ports this algorithm permits at `current`
  /// toward `dest`. Does NOT filter by link state; `select_output` does.
  /// Returned by value in a fixed-capacity PortList: routing decisions
  /// run per flit in the wormhole loop, so the candidate set must never
  /// touch the allocator (routing/port_list.hpp).
  virtual PortList candidates(NodeId current, NodeId dest,
                              Port arrived_on) const = 0;

  /// Permitted misroute ports, consulted only when every preferred port is
  /// unusable. Empty for minimal algorithms.
  virtual PortList fallback_candidates(NodeId, NodeId, Port) const {
    return {};
  }

  /// True iff `candidates` depends only on (current, dest) — never on
  /// arrived_on or mutable router state — AND returns ports in strictly
  /// ascending order. Such candidate sets can be snapshotted into flat
  /// per-(node, dest) tables at network construction (the wormhole
  /// substrate does) with byte-identical routing behaviour. Leave false
  /// when unsure: false only costs the precompute, true wrongly claims
  /// arrival-invariance the tables would then bake in.
  virtual bool has_static_candidates() const noexcept { return false; }

  /// Picks the output port: the usable preferred candidate with the lowest
  /// congestion (random tie-break), falling back to misroute candidates
  /// when all preferred ports are unusable. Returns nullopt when every
  /// permitted port is unusable (the packet is blocked, as XY routing is in
  /// Figure 2(b)).
  virtual std::optional<Port> select_output(NodeId current, NodeId dest,
                                            Port arrived_on,
                                            const LinkStateView& links,
                                            netsim::Rng& rng) const;

  /// The candidate rule a switch may evaluate without calling
  /// select_output. Read once, when the switch is built.
  virtual ProductiveRule productive_rule() const noexcept { return {}; }

  const topo::Topology& topology() const noexcept { return topo_; }

 protected:
  // C.67: a Router copied through the base handle would lose the derived
  // algorithm's state; keep copies within the derived types.
  Router(const Router&) = default;
  // The reference member makes assignment unimplementable anyway.
  Router& operator=(const Router&) = delete;

  const topo::Topology& topo_;
};

/// Constructs a router by name. Accepted names:
///   "dor" / "xy"      dimension-order (XY on 2-D mesh; e-cube on hypercube)
///   "west-first"      turn-model, 2-D mesh only
///   "north-last"      turn-model, 2-D mesh only
///   "negative-first"  turn-model, 2-D mesh only
///   "adaptive"        fully adaptive minimal, congestion-aware
///   "adaptive-misroute"  fully adaptive; misroutes when all minimal blocked
///   "oracle"          fault-aware shortest-path (upper bound; uses BFS)
///   "valiant"         randomized two-phase (non-minimal by design)
/// Throws std::invalid_argument for unknown names or incompatible topology.
std::unique_ptr<Router> make_router(const std::string& name,
                                    const topo::Topology& topo);

}  // namespace ddpm::route
