#include "routing/dor.hpp"

#include <gtest/gtest.h>

#include "marking/walk.hpp"
#include "topology/factory.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace ddpm::route {
namespace {

using mark::walk_packet;
using topo::Coord;

TEST(DimensionOrder, XyRoutesDimension0First) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{0, 0}),
                                m.id_of(Coord{3, 2}));
  ASSERT_TRUE(walk.delivered());
  // Expect x-correcting hops first, then y.
  const std::vector<topo::NodeId> expected{
      m.id_of(Coord{0, 0}), m.id_of(Coord{1, 0}), m.id_of(Coord{2, 0}),
      m.id_of(Coord{3, 0}), m.id_of(Coord{3, 1}), m.id_of(Coord{3, 2})};
  EXPECT_EQ(walk.path, expected);
}

TEST(DimensionOrder, ExactlyOneTurn) {
  topo::Mesh m({6, 6});
  DimensionOrderRouter router(m);
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{5, 5}),
                                m.id_of(Coord{1, 0}));
  ASSERT_TRUE(walk.delivered());
  // Count direction changes along the path: XY routing allows one turn.
  int turns = 0;
  std::optional<std::size_t> prev_dim;
  for (std::size_t i = 1; i < walk.path.size(); ++i) {
    const Coord a = m.coord_of(walk.path[i - 1]);
    const Coord b = m.coord_of(walk.path[i]);
    const std::size_t dim = (a[0] != b[0]) ? 0 : 1;
    if (prev_dim && dim != *prev_dim) ++turns;
    prev_dim = dim;
  }
  EXPECT_LE(turns, 1);
}

TEST(DimensionOrder, DeterministicSamePathEveryTime) {
  topo::Mesh m({5, 5});
  DimensionOrderRouter router(m);
  EXPECT_TRUE(router.is_deterministic());
  mark::WalkOptions a, b;
  a.seed = 1;
  b.seed = 999;  // different RNG must not matter
  const auto w1 = walk_packet(m, router, nullptr, 3, 21, a);
  const auto w2 = walk_packet(m, router, nullptr, 3, 21, b);
  EXPECT_EQ(w1.path, w2.path);
}

TEST(DimensionOrder, MinimalOnAllPairs) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  for (topo::NodeId s = 0; s < m.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < m.num_nodes(); ++d) {
      if (s == d) continue;
      const auto walk = walk_packet(m, router, nullptr, s, d);
      ASSERT_TRUE(walk.delivered());
      EXPECT_EQ(walk.hops, m.min_hops(s, d));
    }
  }
}

TEST(DimensionOrder, TorusTakesShorterRingDirection) {
  topo::Torus t({8, 8});
  DimensionOrderRouter router(t);
  // From (0,0) to (6,0): going minus (wrapping) is 2 hops, plus is 6.
  const auto walk = walk_packet(t, router, nullptr, t.id_of(Coord{0, 0}),
                                t.id_of(Coord{6, 0}));
  ASSERT_TRUE(walk.delivered());
  EXPECT_EQ(walk.hops, 2);
  EXPECT_EQ(walk.path[1], t.id_of(Coord{7, 0}));
}

TEST(DimensionOrder, TorusMinimalOnAllPairs) {
  topo::Torus t({5, 4});
  DimensionOrderRouter router(t);
  for (topo::NodeId s = 0; s < t.num_nodes(); s += 2) {
    for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      const auto walk = walk_packet(t, router, nullptr, s, d);
      ASSERT_TRUE(walk.delivered());
      EXPECT_EQ(walk.hops, t.min_hops(s, d));
    }
  }
}

TEST(DimensionOrder, HypercubeEcubeFlipsLowestBitFirst) {
  topo::Hypercube h(4);
  DimensionOrderRouter router(h);
  const auto walk = walk_packet(h, router, nullptr, 0b0000, 0b1011);
  ASSERT_TRUE(walk.delivered());
  const std::vector<topo::NodeId> expected{0b0000, 0b0001, 0b0011, 0b1011};
  EXPECT_EQ(walk.path, expected);
}

TEST(DimensionOrder, BlockedByFailedLinkOnItsOnlyPath) {
  // Figure 2(b)'s premise: deterministic routing cannot sidestep a failed
  // link on its fixed path.
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  topo::LinkFailureSet failures;
  failures.fail(m.id_of(Coord{1, 0}), m.id_of(Coord{2, 0}));
  mark::WalkOptions options;
  options.failures = &failures;
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{0, 0}),
                                m.id_of(Coord{3, 0}), options);
  EXPECT_EQ(walk.outcome, mark::WalkOutcome::kBlocked);
}

TEST(DimensionOrder, NoCandidatesAtDestination) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  EXPECT_TRUE(router.candidates(5, 5, kLocalPort).empty());
}

TEST(ProductiveDirection, MeshAndTorusSemantics) {
  const topo::CoordTable m(topo::Mesh({8, 8}));
  EXPECT_EQ(m.direction(0, 2, 5), +1);
  EXPECT_EQ(m.direction(0, 5, 2), -1);
  EXPECT_EQ(m.direction(0, 3, 3), 0);
  const topo::CoordTable t(topo::Torus({8, 8}));
  EXPECT_EQ(t.direction(0, 0, 6), -1);  // wrap is shorter
  EXPECT_EQ(t.direction(0, 0, 3), +1);
  EXPECT_EQ(t.direction(0, 0, 4), +1);  // tie goes positive
}

}  // namespace
}  // namespace ddpm::route
