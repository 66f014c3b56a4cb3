#include "marking/ppm_reconstruct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "marking/walk.hpp"
#include "ppm_observe_differential.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"
#include "topology/mesh.hpp"

namespace ddpm::mark {
namespace {

using topo::Coord;

/// Feeds packets from `src` to `victim` through the scheme until the
/// identifier names the true source or the budget runs out; returns the
/// number of packets used (0 = never converged).
std::uint64_t packets_until_identified(const topo::Topology& topo,
                                       const route::Router& router,
                                       PpmScheme& scheme,
                                       PpmIdentifier& identifier,
                                       topo::NodeId src, topo::NodeId victim,
                                       std::uint64_t budget) {
  for (std::uint64_t n = 1; n <= budget; ++n) {
    WalkOptions options;
    options.seed = n * 7919;
    options.record_path = false;
    const auto walk = walk_packet(topo, router, &scheme, src, victim, options);
    if (!walk.delivered()) continue;
    const auto candidates = identifier.observe(walk.packet, victim);
    if (std::find(candidates.begin(), candidates.end(), src) !=
        candidates.end()) {
      return n;
    }
  }
  return 0;
}

TEST(PpmReconstruct, FullEdgeConvergesOnStableRoute) {
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kFullEdge, 0.2, 42);
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});
  const auto used = packets_until_identified(m, *router, scheme, identifier,
                                             src, victim, 100000);
  EXPECT_GT(used, 0u) << "never identified";
  EXPECT_GT(identifier.unique_marks(), 10u);  // all 14 path edges sampled
}

TEST(PpmReconstruct, NeedsManyPacketsUnlikeDdpm) {
  // The victim cannot identify from one packet: the first packet yields at
  // most one mark, and a chain of one level-0 mark names only the last
  // switch, not the distant source.
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kFullEdge, 0.04, 11);
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});
  const auto used = packets_until_identified(m, *router, scheme, identifier,
                                             src, victim, 200000);
  EXPECT_GT(used, 10u);
}

TEST(PpmReconstruct, IdentifiesMultipleAttackersEventually) {
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kFullEdge, 0.15, 5);
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  const auto router = route::make_router("dor", m);
  const auto victim = m.id_of(Coord{4, 4});
  const std::vector<topo::NodeId> attackers{m.id_of(Coord{0, 0}),
                                            m.id_of(Coord{7, 1})};
  std::set<topo::NodeId> found;
  for (std::uint64_t n = 1; n <= 60000 && found.size() < attackers.size(); ++n) {
    const auto src = attackers[n % attackers.size()];
    WalkOptions options;
    options.seed = n * 104729;
    options.record_path = false;
    const auto walk = walk_packet(m, *router, &scheme, src, victim, options);
    ASSERT_TRUE(walk.delivered());
    for (auto c : identifier.observe(walk.packet, victim)) {
      if (std::find(attackers.begin(), attackers.end(), c) != attackers.end()) {
        found.insert(c);
      }
    }
  }
  EXPECT_EQ(found.size(), attackers.size());
}

TEST(PpmReconstruct, AdaptiveRoutingBreaksChains) {
  // Under adaptive routing the marks come from many different paths; the
  // level-based chaining mixes them and convergence degrades badly — the
  // paper's §4.2 conclusion. We check it needs far more packets than the
  // deterministic case (or never converges in budget).
  topo::Mesh m({8, 8});
  const auto budget = 4000u;

  PpmScheme det_scheme(m, PpmVariant::kFullEdge, 0.1, 77);
  PpmIdentifier det_id(m, PpmVariant::kFullEdge);
  const auto dor = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});
  const auto det_used = packets_until_identified(m, *dor, det_scheme, det_id,
                                                 src, victim, budget);
  ASSERT_GT(det_used, 0u);

  PpmScheme ada_scheme(m, PpmVariant::kFullEdge, 0.1, 77);
  PpmIdentifier ada_id(m, PpmVariant::kFullEdge);
  const auto adaptive = route::make_router("adaptive", m);
  const auto ada_used = packets_until_identified(m, *adaptive, ada_scheme,
                                                 ada_id, src, victim, budget);
  // Either it never converged, or it took noticeably longer.
  if (ada_used != 0) {
    EXPECT_GT(ada_used, det_used);
  } else {
    SUCCEED();
  }
}

TEST(PpmReconstruct, SpoofedMarksPrunedByMapValidation) {
  // Marks naming non-edges are discarded (Song-Perrig map assumption), so
  // a victim fed garbage fields has no candidates.
  topo::Mesh m({8, 8});
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  const auto layout = PpmLayout::for_topology(PpmVariant::kFullEdge, m);
  pkt::Packet p;
  std::uint16_t field = 0;
  field = pkt::write_unsigned(field, layout.start, 0);   // (0,0)
  field = pkt::write_unsigned(field, layout.end, 63);    // (7,7): not an edge
  field = pkt::write_unsigned(field, layout.distance, 1);
  p.set_marking_field(field);
  EXPECT_TRUE(identifier.observe(p, 63).empty());
}

TEST(PpmReconstruct, XorVariantAmbiguous) {
  // Feed the XOR identifier a long-running stream; its candidate sets
  // should (at least sometimes) contain multiple plausible origins, the
  // §4.2 ambiguity.
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kXor, 0.15, 3);
  PpmIdentifier identifier(m, PpmVariant::kXor);
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});
  std::size_t max_candidates = 0;
  for (std::uint64_t n = 1; n <= 20000; ++n) {
    WalkOptions options;
    options.seed = n;
    options.record_path = false;
    const auto walk = walk_packet(m, *router, &scheme, src, victim, options);
    max_candidates =
        std::max(max_candidates, identifier.observe(walk.packet, victim).size());
  }
  EXPECT_GE(max_candidates, 1u);
}

TEST(PpmReconstruct, ChainEdgesReconstructTheAttackPath) {
  // Once converged on a stable route, the chain edges are exactly the
  // path's edges oriented toward the victim.
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kFullEdge, 0.2, 42);
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});
  ASSERT_GT(packets_until_identified(m, *router, scheme, identifier, src,
                                     victim, 100000),
            0u);
  // Keep feeding so every edge has been sampled with high probability.
  for (std::uint64_t n = 0; n < 2000; ++n) {
    WalkOptions options;
    options.seed = n * 31 + 7;
    options.record_path = false;
    const auto walk = walk_packet(m, *router, &scheme, src, victim, options);
    identifier.observe(walk.packet, victim);
  }
  const auto edges = identifier.chain_edges(victim);
  // The DOR path has 14 edges; the reconstruction must contain each,
  // oriented (farther, closer).
  const auto path = walk_packet(m, *router, nullptr, src, victim).path;
  std::size_t found = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    found += std::count(edges.begin(), edges.end(),
                        std::make_pair(path[i], path[i + 1]));
  }
  EXPECT_EQ(found, path.size() - 1) << "missing path edges";
  // And nothing that is not a real topology edge (victim map validation).
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(m.port_to(a, b).has_value());
  }
}

TEST(PpmReconstruct, ResetClearsState) {
  topo::Mesh m({4, 4});
  PpmIdentifier identifier(m, PpmVariant::kFullEdge);
  pkt::Packet p;
  p.set_marking_field(0);
  identifier.observe(p, 5);
  EXPECT_GT(identifier.unique_marks(), 0u);
  identifier.reset();
  EXPECT_EQ(identifier.unique_marks(), 0u);
  EXPECT_TRUE(identifier.origins(5).empty());
}

TEST(PpmReconstruct, BitDiffWorksOnHypercubeStyleIds) {
  // On the 8x8 mesh with row-major ids, column neighbors differ by 1 and
  // row neighbors by 8 — both single-bit differences, so bit-diff marks
  // reconstruct like full-edge ones on paths that use such edges.
  topo::Mesh m({8, 8});
  PpmScheme scheme(m, PpmVariant::kBitDiff, 0.2, 9);
  PpmIdentifier identifier(m, PpmVariant::kBitDiff);
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{4, 4});
  const auto used = packets_until_identified(m, *router, scheme, identifier,
                                             src, victim, 60000);
  EXPECT_GT(used, 0u);
}

TEST(PpmReconstruct, ObserveMatchesFreshOriginsAfterEveryPacket) {
  // observe() skips the rebuild when a mark repeats; a fresh origins() is
  // the reference. mesh:6x6 leaves node ids 36..63 unused, so random fields
  // there name nodes that do not exist.
  struct Cell {
    const char* topology;
    PpmVariant variant;
  };
  const Cell cells[] = {
      {"mesh:6x6", PpmVariant::kFullEdge},   {"mesh:6x6", PpmVariant::kXor},
      {"mesh:6x6", PpmVariant::kBitDiff},    {"mesh:8x8", PpmVariant::kFullEdge},
      {"mesh:8x8", PpmVariant::kXor},        {"mesh:8x8", PpmVariant::kBitDiff},
      {"torus:8x8", PpmVariant::kFullEdge},  {"torus:8x8", PpmVariant::kXor},
      {"torus:8x8", PpmVariant::kBitDiff},   {"hypercube:6", PpmVariant::kXor},
      {"hypercube:6", PpmVariant::kBitDiff},
  };
  std::uint64_t seed = 1;
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::string(c.topology) + " " + to_string(c.variant));
    const auto topo = topo::make_topology(c.topology);
    PpmScheme scheme(*topo, c.variant, 0.1, seed);
    PpmIdentifier identifier(*topo, c.variant);
    expect_observe_matches_origins(*topo, scheme, identifier, seed * 7919,
                                   1600);
    ++seed;
  }
}

TEST(PpmReconstruct, RejectsLayoutsThatDoNotFit) {
  // mesh:16x16 needs 21 bits for full-edge; the identifier must refuse it
  // rather than read slices past bit 15.
  for (const auto& [spec, variant] :
       {std::pair{"mesh:16x16", PpmVariant::kFullEdge},
        std::pair{"mesh:64x64", PpmVariant::kXor},
        std::pair{"mesh:32x32", PpmVariant::kBitDiff}}) {
    const auto topo = topo::make_topology(spec);
    const auto layout = PpmLayout::for_topology(variant, *topo);
    ASSERT_FALSE(layout.fits) << spec;
    try {
      PpmIdentifier identifier(*topo, variant);
      ADD_FAILURE() << spec << ": no exception";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(to_string(variant)), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(layout.total_bits) + " bits"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(spec), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace ddpm::mark
