// cluster::Switch::select_output — the candidate mask from the router's
// coordinate table, picked over the switch's own queues — against
// Router::select_output over a live-queue LinkStateView (the view the
// cluster network used to pass). Each trial builds a standalone switch,
// fills its output queues to random depths, fails random links and asks
// both for a port toward random destinations: they must name the same
// port (or none) and leave the generator in the same state.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "cluster/switch.hpp"
#include "routing/route_table.hpp"
#include "topology/coord_table.hpp"
#include "topology/factory.hpp"

namespace ddpm {
namespace {

using topo::NodeId;
using topo::Port;

/// The cluster network's old link state: a port is usable when its link
/// exists and has not failed; congestion is the switch's waiting packets.
class LiveQueueLinks final : public route::LinkStateView {
 public:
  LiveQueueLinks(const route::RouteTable& routes,
                 const topo::LinkFailureSet& failures,
                 const cluster::Switch& sw)
      : routes_(routes), failures_(failures), sw_(sw) {}

  bool link_usable(NodeId node, Port port) const override {
    const NodeId next = routes_.neighbor(node, port);
    return next != topo::kInvalidNode && !failures_.is_failed(node, next);
  }
  double congestion(NodeId node, Port port) const override {
    EXPECT_EQ(node, sw_.id());
    return double(sw_.queue_length(port));
  }

 private:
  const route::RouteTable& routes_;
  const topo::LinkFailureSet& failures_;
  const cluster::Switch& sw_;
};

struct Cell {
  const char* topology;
  const char* router;
};

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.topology << ' ' << cell.router;
}

class SwitchSelection : public ::testing::TestWithParam<Cell> {};

TEST_P(SwitchSelection, MatchesRouterSelectOutput) {
  constexpr std::size_t kCapacity = 4;
  const std::string name = GetParam().router;
  const auto topo = topo::make_topology(GetParam().topology);
  const auto router = route::make_router(name, *topo);
  const route::RouteTable routes(*topo);
  const topo::CoordTable coords(*topo);
  netsim::Rng rng(0x5e1ec7);
  // What the trials exercised, so a cell that never ties, never blocks or
  // never misroutes fails rather than passing vacuously.
  std::size_t draws = 0;      // the reference drew from the generator
  std::size_t blocked = 0;    // no usable port
  std::size_t misroutes = 0;  // a non-productive port was chosen
  for (int s = 0; s < 300; ++s) {
    netsim::Simulator sim;
    cluster::Metrics metrics;
    topo::LinkFailureSet failures;
    cluster::Switch::Env env;
    env.sim = &sim;
    env.topo = topo.get();
    env.router = router.get();
    env.failures = &failures;
    env.metrics = &metrics;
    env.deliver = [](pkt::Packet&&, NodeId) {};
    env.arrive = [](pkt::Packet&&, NodeId, NodeId) {};
    env.queue_capacity = kCapacity;
    const auto id = NodeId(rng.next_below(topo->num_nodes()));
    cluster::Switch sw(id, &env, netsim::Rng(rng.next_u64()));

    // Random queue depths 0..capacity: one packet on the link, then
    // `depth` waiting behind it. A neighbor has one productive port.
    for (Port p = 0; p < topo->num_ports(); ++p) {
      const NodeId next = routes.neighbor(id, p);
      if (next == topo::kInvalidNode) continue;
      const std::size_t depth = rng.next_below(kCapacity + 1);
      for (std::size_t k = 0; k <= depth; ++k) {
        pkt::Packet packet;
        packet.dest_node = next;
        packet.header.set_ttl(64);
        sw.handle(std::move(packet), route::kLocalPort);
      }
      ASSERT_EQ(sw.queue_length(p), depth);
    }
    // Random failed links: this switch's own, and a few elsewhere (the
    // failure set is the network's, not the switch's).
    for (Port p = 0; p < topo->num_ports(); ++p) {
      const NodeId next = routes.neighbor(id, p);
      if (next != topo::kInvalidNode && rng.next_below(3) == 0) {
        failures.fail(id, next);
      }
    }
    for (int k = 0; k < 3; ++k) {
      const auto a = NodeId(rng.next_below(topo->num_nodes()));
      const auto p = Port(rng.next_below(std::uint64_t(topo->num_ports())));
      const NodeId b = routes.neighbor(a, p);
      if (b != topo::kInvalidNode) failures.fail(a, b);
    }

    const LiveQueueLinks links(routes, failures, sw);
    for (int q = 0; q < 40; ++q) {
      auto dest = NodeId(rng.next_below(topo->num_nodes() - 1));
      if (dest >= id) ++dest;  // never the switch itself
      const auto arrived_on =
          Port(rng.next_below(std::uint64_t(topo->num_ports()) + 1)) - 1;
      netsim::Rng reference_rng = sw.rng();
      netsim::Rng before = reference_rng;
      const std::optional<Port> want =
          router->select_output(id, dest, arrived_on, links, reference_rng);
      const Port got = sw.select_output(dest, arrived_on);
      ASSERT_EQ(got, want.value_or(cluster::Switch::kNoPort))
          << "switch " << id << " -> " << dest << " arrived on " << arrived_on;
      netsim::Rng after = reference_rng;
      netsim::Rng mine = sw.rng();
      const std::uint64_t next = after.next_u64();
      ASSERT_EQ(mine.next_u64(), next)
          << "generator states differ: switch " << id << " -> " << dest;
      draws += before.next_u64() != next;
      blocked += !want.has_value();
      const std::uint32_t productive = route::productive_mask(coords, id, dest);
      misroutes += want && ((productive >> *want) & 1u) == 0;
    }
  }
  EXPECT_GT(blocked, 0u);
  if (name == "dor") {
    EXPECT_EQ(draws, 0u);  // one candidate: never a tie
  } else {
    EXPECT_GT(draws, 0u);
  }
  if (name == "adaptive-misroute") {
    EXPECT_GT(misroutes, 0u);
  } else {
    EXPECT_EQ(misroutes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, SwitchSelection,
    ::testing::Values(Cell{"mesh:4x4", "dor"}, Cell{"mesh:4x4", "adaptive"},
                      Cell{"mesh:4x4", "adaptive-misroute"},
                      Cell{"torus:4x4", "dor"}, Cell{"torus:4x4", "adaptive"},
                      Cell{"torus:4x4", "adaptive-misroute"},
                      Cell{"torus:5x5", "dor"}, Cell{"torus:5x5", "adaptive"},
                      Cell{"torus:5x5", "adaptive-misroute"},
                      Cell{"hypercube:4", "dor"},
                      Cell{"hypercube:4", "adaptive"},
                      Cell{"hypercube:4", "adaptive-misroute"}));

// Both sides of the differential read one tie rule (CoordTable::direction),
// so pin it directly: on an even ring, a destination exactly half-way
// round is reached the positive way, and nothing else is productive.
TEST(SwitchSelectionRule, EvenRingHalfWayTieGoesPositive) {
  const auto topo = topo::make_topology("torus:4x4");
  const topo::CoordTable coords(*topo);
  const NodeId from = topo->id_of(topo::Coord{1, 3});
  EXPECT_EQ(route::productive_mask(coords, from, topo->id_of(topo::Coord{3, 3})),
            1u << 1);  // +x only
  EXPECT_EQ(route::productive_mask(coords, from, topo->id_of(topo::Coord{1, 1})),
            1u << 3);  // +y only
  EXPECT_EQ(route::productive_mask(coords, from, topo->id_of(topo::Coord{3, 1})),
            (1u << 1) | (1u << 3));
  // One step the other way round stays negative.
  EXPECT_EQ(route::productive_mask(coords, from, topo->id_of(topo::Coord{0, 2})),
            (1u << 0) | (1u << 2));

  const auto router = route::make_router("adaptive", *topo);
  netsim::Simulator sim;
  cluster::Metrics metrics;
  cluster::Switch::Env env;
  env.sim = &sim;
  env.topo = topo.get();
  env.router = router.get();
  env.metrics = &metrics;
  cluster::Switch sw(from, &env, netsim::Rng(3));
  EXPECT_EQ(sw.select_output(topo->id_of(topo::Coord{3, 3}), route::kLocalPort), 1);
}

}  // namespace
}  // namespace ddpm
