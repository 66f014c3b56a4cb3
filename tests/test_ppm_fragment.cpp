#include "marking/ppm_fragment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "marking/ppm.hpp"
#include "marking/ppm_reconstruct.hpp"
#include "marking/walk.hpp"
#include "ppm_observe_differential.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"
#include "topology/mesh.hpp"

namespace ddpm::mark {
namespace {

using topo::Coord;

TEST(FragmentLayout, WordStructure) {
  const auto w = FragmentLayout::word(5);
  EXPECT_EQ(w >> FragmentLayout::kHashBits, 5u);
  EXPECT_EQ(w & ((1u << FragmentLayout::kHashBits) - 1u),
            FragmentLayout::h22(5));
  // Fragments reassemble the word.
  std::uint32_t re = 0;
  for (int o = 0; o < FragmentLayout::kFragments; ++o) {
    re |= std::uint32_t(FragmentLayout::fragment_of(w, o)) << (8 * o);
  }
  EXPECT_EQ(re, w);
}

TEST(FragmentLayout, SupportsSixteenBySixteenWhereFullEdgeCannot) {
  topo::Mesh big({16, 16});
  EXPECT_TRUE(FragmentLayout::supports(big));
  EXPECT_FALSE(PpmLayout::for_topology(PpmVariant::kFullEdge, big).fits);
  topo::Mesh too_big({32, 32});  // 1024 nodes, but diameter 62 > 31
  EXPECT_FALSE(FragmentLayout::supports(too_big));
  EXPECT_THROW(FragmentPpmScheme(too_big, 0.1, 1), std::invalid_argument);
}

TEST(FragmentLayout, HashSpreads) {
  int diff = 0;
  for (std::uint32_t i = 0; i < 512; ++i) {
    diff += (FragmentLayout::h22(i) != FragmentLayout::h22(i + 1));
  }
  EXPECT_EQ(diff, 512);
}

std::uint64_t converge_fragment(const topo::Topology& topo,
                                const route::Router& router,
                                FragmentPpmScheme& scheme,
                                FragmentPpmIdentifier& identifier,
                                topo::NodeId src, topo::NodeId victim,
                                std::uint64_t budget) {
  for (std::uint64_t n = 1; n <= budget; ++n) {
    WalkOptions options;
    options.seed = n * 2654435761u;
    options.record_path = false;
    const auto walk = walk_packet(topo, router, &scheme, src, victim, options);
    if (!walk.delivered()) continue;
    const auto c = identifier.observe(walk.packet, victim);
    if (std::find(c.begin(), c.end(), src) != c.end()) return n;
  }
  return 0;
}

TEST(FragmentPpm, ConvergesToTrueSourceOnStableRoute) {
  topo::Mesh m({8, 8});
  FragmentPpmScheme scheme(m, 0.15, 42);
  FragmentPpmIdentifier identifier(m);
  const auto router = route::make_router("dor", m);
  const auto used = converge_fragment(m, *router, scheme, identifier,
                                      m.id_of(Coord{0, 0}),
                                      m.id_of(Coord{7, 7}), 100000);
  EXPECT_GT(used, 0u) << "never converged";
}

TEST(FragmentPpm, NeedsMorePacketsThanFullEdge) {
  // The k-fragment penalty: k ln(kd) / ln(d) more packets in expectation.
  topo::Mesh m({8, 8});
  const auto router = route::make_router("dor", m);
  const auto src = m.id_of(Coord{0, 0});
  const auto victim = m.id_of(Coord{7, 7});

  double frag_total = 0, full_total = 0;
  int trials = 3;
  for (int t = 0; t < trials; ++t) {
    FragmentPpmScheme frag_scheme(m, 0.1, 100 + std::uint64_t(t));
    FragmentPpmIdentifier frag_id(m);
    frag_total += double(converge_fragment(m, *router, frag_scheme, frag_id,
                                           src, victim, 200000));
    PpmScheme full_scheme(m, PpmVariant::kFullEdge, 0.1,
                          100 + std::uint64_t(t));
    PpmIdentifier full_id(m, PpmVariant::kFullEdge);
    for (std::uint64_t n = 1; n <= 200000; ++n) {
      WalkOptions options;
      options.seed = n * 2654435761u;
      options.record_path = false;
      const auto walk =
          walk_packet(m, *router, &full_scheme, src, victim, options);
      const auto c = full_id.observe(walk.packet, victim);
      if (std::find(c.begin(), c.end(), src) != c.end()) {
        full_total += double(n);
        break;
      }
    }
  }
  EXPECT_GT(frag_total, full_total * 1.5);
}

TEST(FragmentPpm, WorksOnSixteenBySixteen) {
  // The whole reason the encoding exists: a network the naive layout
  // cannot serve at all.
  topo::Mesh m({16, 16});
  FragmentPpmScheme scheme(m, 0.2, 7);
  FragmentPpmIdentifier identifier(m);
  const auto router = route::make_router("dor", m);
  const auto used = converge_fragment(m, *router, scheme, identifier,
                                      m.id_of(Coord{10, 12}),
                                      m.id_of(Coord{2, 1}), 150000);
  EXPECT_GT(used, 0u);
}

TEST(FragmentPpm, HashVerificationPrunesGarbage) {
  // Feed random fragments: without a matching 22-bit hash no candidate
  // survives, so the identifier stays silent instead of hallucinating.
  topo::Mesh m({8, 8});
  FragmentPpmIdentifier identifier(m);
  netsim::Rng rng(3);
  pkt::Packet p;
  for (int i = 0; i < 2000; ++i) {
    std::uint16_t field = 0;
    field = pkt::write_unsigned(field, FragmentLayout::offset(),
                                std::uint16_t(rng.next_below(4)));
    field = pkt::write_unsigned(field, FragmentLayout::distance(),
                                std::uint16_t(rng.next_below(4)));
    field = pkt::write_unsigned(field, FragmentLayout::fragment(),
                                std::uint16_t(rng.next_below(256)));
    p.set_marking_field(field);
    const auto c = identifier.observe(p, 63);
    // Level-0 verification requires an exact word match against a
    // neighbor of the victim — random fragments essentially never pass.
    EXPECT_TRUE(c.empty() ||
                std::all_of(c.begin(), c.end(), [&](topo::NodeId a) {
                  return m.port_to(a, 63).has_value();
                }));
  }
}

TEST(FragmentPpm, ResetClears) {
  topo::Mesh m({8, 8});
  FragmentPpmIdentifier identifier(m);
  pkt::Packet p;
  p.set_marking_field(0x0123);
  identifier.observe(p, 63);
  EXPECT_GT(identifier.unique_fragments(), 0u);
  identifier.reset();
  EXPECT_EQ(identifier.unique_fragments(), 0u);
}

TEST(FragmentPpm, ObserveMatchesFreshOriginsAfterEveryPacket) {
  // observe() skips the cross-product when a fragment repeats; a fresh
  // origins() is the reference.
  std::uint64_t seed = 1;
  for (const char* spec : {"mesh:6x6", "mesh:8x8", "torus:8x8", "hypercube:6"}) {
    SCOPED_TRACE(spec);
    const auto topo = topo::make_topology(spec);
    FragmentPpmScheme scheme(*topo, 0.1, seed);
    FragmentPpmIdentifier identifier(*topo);
    expect_observe_matches_origins(*topo, scheme, identifier, seed * 7919,
                                   1600);
    ++seed;
  }
}

}  // namespace
}  // namespace ddpm::mark
