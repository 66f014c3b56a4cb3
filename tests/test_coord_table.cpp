// The table paths of the cluster hop against their references: CoordTable
// against Topology::coord_of / id_of, ring_direction against
// ring_shortest_delta, DdpmScheme::on_forward and DdpmIdentifier::identify
// against the whole-vector formulation in ddpm_reference.hpp, and the
// adaptive, dimension-order and Valiant routers against candidates rebuilt
// from productive_direction below.
#include "topology/coord_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ddpm_reference.hpp"
#include "marking/ddpm.hpp"
#include "netsim/rng.hpp"
#include "routing/adaptive.hpp"
#include "routing/dor.hpp"
#include "routing/valiant.hpp"
#include "telemetry/registry.hpp"
#include "topology/factory.hpp"

namespace ddpm {
namespace {

using topo::NodeId;
using topo::Port;

// mesh, torus with odd and even radix (even k has ring ties), a 3-D mesh
// and a hypercube.
const char* const kSpecs[] = {"mesh:6x6", "torus:5x5", "torus:8x8",
                              "mesh:4x4x4", "hypercube:6"};

TEST(CoordTable, RowsAreTheTopologyCoordinates) {
  for (const char* spec : kSpecs) {
    const auto topo = topo::make_topology(spec);
    const topo::CoordTable table(*topo);
    ASSERT_EQ(table.num_nodes(), topo->num_nodes()) << spec;
    ASSERT_EQ(table.num_dims(), topo->num_dims()) << spec;
    EXPECT_EQ(table.torus(), topo->kind() == topo::TopologyKind::kTorus);
    EXPECT_EQ(table.hypercube(),
              topo->kind() == topo::TopologyKind::kHypercube);
    for (std::size_t d = 0; d < table.num_dims(); ++d) {
      EXPECT_EQ(table.radix(d), topo->dim_size(d)) << spec;
    }
    for (NodeId n = 0; n < topo->num_nodes(); ++n) {
      const topo::Coord c = topo->coord_of(n);
      for (std::size_t d = 0; d < table.num_dims(); ++d) {
        EXPECT_EQ(table.row(n)[d], c[d]) << spec << " node " << n;
      }
      EXPECT_EQ(table.id_of(table.row(n)), n) << spec;
    }
  }
}

TEST(RingDirection, MatchesRingShortestDeltaOnEveryPair) {
  for (int k = 3; k <= 256; ++k) {
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        const int delta = topo::ring_shortest_delta(a, b, k);
        const int want = (delta > 0) - (delta < 0);
        ASSERT_EQ(topo::ring_direction(a, b, k), want)
            << "k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
  // The tie rule, spelled out: half way round an even ring goes positive.
  EXPECT_EQ(topo::ring_direction(0, 4, 8), +1);
  EXPECT_EQ(topo::ring_direction(4, 0, 8), +1);
  EXPECT_EQ(topo::ring_direction(1, 4, 7), +1);
  EXPECT_EQ(topo::ring_direction(4, 0, 7), +1);
  EXPECT_EQ(topo::ring_direction(0, 4, 7), -1);
}

/// Every pattern of the codec's bits, once clean and once with every
/// other bit set or random, plus random words: honest fields, the slice
/// boundaries and hostile garbage all appear.
std::vector<std::uint16_t> field_patterns(const mark::DdpmCodec& codec,
                                          netsim::Rng& rng) {
  std::vector<std::uint16_t> fields;
  const std::uint16_t mask = codec.mask();
  // Subsets of the mask, by the standard submask walk.
  for (unsigned sub = mask;; sub = (sub - 1) & mask) {
    fields.push_back(std::uint16_t(sub));
    fields.push_back(std::uint16_t(sub | ~mask));
    fields.push_back(std::uint16_t(sub | (rng.next_u64() & ~mask)));
    if (sub == 0) break;
  }
  for (int i = 0; i < 64; ++i) fields.push_back(std::uint16_t(rng.next_u64()));
  return fields;
}

#if DDPM_TELEMETRY_ENABLED
std::uint64_t saturations(const telemetry::Registry& registry) {
  return registry.snapshot().counter_value(
      "mark.field_saturations{scheme=ddpm}");
}
#endif

TEST(DdpmTablePath, ForwardMatchesTheCoordReferenceOnEveryLink) {
  for (const char* spec : kSpecs) {
    const auto topo = topo::make_topology(spec);
    mark::DdpmScheme scheme(*topo);
    telemetry::Registry registry(true);
    scheme.bind_telemetry(&registry);
    const mark::DdpmCodec& codec = scheme.codec();
    netsim::Rng rng(11);
    const std::vector<std::uint16_t> fields = field_patterns(codec, rng);
    std::uint64_t want_saturations = 0;
    std::uint64_t calls = 0;
    for (NodeId current = 0; current < topo->num_nodes(); ++current) {
      for (const NodeId next : topo->neighbors(current)) {
        for (const std::uint16_t field : fields) {
          const std::uint16_t want = reference::ddpm_forward(
              *topo, codec, field, current, next, want_saturations);
          pkt::Packet p;
          p.set_marking_field(field);
          scheme.on_forward(p, current, next);
          ++calls;
          ASSERT_EQ(p.marking_field(), want)
              << spec << " " << current << "->" << next << " field 0x"
              << std::hex << field;
#if DDPM_TELEMETRY_ENABLED
          ASSERT_EQ(saturations(registry), want_saturations)
              << spec << " " << current << "->" << next << " field 0x"
              << std::hex << field;
#endif
        }
      }
    }
    // The patterns reach the slice boundaries, so saturation is exercised
    // everywhere but on the hypercube, which has nothing to saturate.
    if (codec.is_hypercube()) {
      EXPECT_EQ(want_saturations, 0u) << spec;
    } else {
      EXPECT_GT(want_saturations, calls / 16) << spec;
    }
  }
}

TEST(DdpmTablePath, IdentifyMatchesTheCoordReference) {
  for (const char* spec : kSpecs) {
    const auto topo = topo::make_topology(spec);
    const mark::DdpmIdentifier identifier(*topo);
    const mark::DdpmCodec codec(*topo);
    netsim::Rng rng(12);
    const std::vector<std::uint16_t> fields = field_patterns(codec, rng);
    std::size_t named = 0;
    std::size_t declined = 0;
    for (NodeId victim = 0; victim < topo->num_nodes(); ++victim) {
      for (const std::uint16_t field : fields) {
        const auto want = reference::ddpm_identify(*topo, codec, victim, field);
        ASSERT_EQ(identifier.identify(victim, field), want)
            << spec << " victim " << victim << " field 0x" << std::hex
            << field;
        ++(want ? named : declined);
      }
    }
    EXPECT_GT(named, 0u) << spec;
    if (!codec.is_hypercube()) {
      EXPECT_GT(declined, 0u) << spec;
    }
    EXPECT_THROW((void)identifier.identify(topo->num_nodes(), 0),
                 std::out_of_range);
  }
}

/// Signed step direction (-1 or +1) a minimal route takes in dimension `d`
/// from coordinate `a` toward `b`, or 0 if aligned: the shorter way round
/// on a torus by ring_shortest_delta (ties positive), straight otherwise.
int productive_direction(const topo::Topology& topo, std::size_t d, int a,
                         int b) {
  if (a == b) return 0;
  if (topo.kind() == topo::TopologyKind::kTorus) {
    return topo::ring_shortest_delta(a, b, topo.dim_size(d)) > 0 ? +1 : -1;
  }
  return b > a ? +1 : -1;
}

/// Productive ports rebuilt from productive_direction (e-cube bits on the
/// hypercube), ascending; only the first one when `first_only`.
route::PortList reference_candidates(const topo::Topology& topo,
                                     NodeId current, NodeId dest,
                                     bool first_only) {
  route::PortList out;
  if (current == dest) return out;
  const bool cube = topo.kind() == topo::TopologyKind::kHypercube;
  const topo::Coord a = topo.coord_of(current);
  const topo::Coord b = topo.coord_of(dest);
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    const int dir = productive_direction(topo, d, a[d], b[d]);
    if (dir == 0) continue;
    out.push_back(cube ? Port(d) : Port(2 * d + (dir > 0 ? 1 : 0)));
    if (first_only) break;
  }
  return out;
}

TEST(RouterTablePath, CandidatesMatchProductiveDirectionOnEveryPair) {
  for (const char* spec : kSpecs) {
    const auto topo = topo::make_topology(spec);
    const route::AdaptiveRouter adaptive(*topo);
    const route::MisroutingAdaptiveRouter misroute(*topo);
    const route::DimensionOrderRouter dor(*topo);
    const route::ValiantRouter valiant(*topo, 5);
    const topo::CoordTable table(*topo);
    for (NodeId current = 0; current < topo->num_nodes(); ++current) {
      for (NodeId dest = 0; dest < topo->num_nodes(); ++dest) {
        const auto all = reference_candidates(*topo, current, dest, false);
        const auto first = reference_candidates(*topo, current, dest, true);
        for (const Port arrived : {route::kLocalPort, Port(0)}) {
          ASSERT_EQ(adaptive.candidates(current, dest, arrived), all)
              << spec << " " << current << "->" << dest;
          ASSERT_EQ(misroute.candidates(current, dest, arrived), all)
              << spec << " " << current << "->" << dest;
          ASSERT_EQ(dor.candidates(current, dest, arrived), first)
              << spec << " " << current << "->" << dest;
        }
        // Valiant heads for its intermediate node until it is no farther
        // from the destination than that node is.
        const NodeId mid = valiant.intermediate_for(dest);
        const bool phase_two =
            current == mid ||
            topo->min_hops(current, dest) < topo->min_hops(mid, dest);
        ASSERT_EQ(valiant.candidates(current, dest, route::kLocalPort),
                  reference_candidates(*topo, current,
                                       phase_two ? dest : mid, false))
            << spec << " " << current << "->" << dest;
        const topo::Coord a = topo->coord_of(current);
        const topo::Coord b = topo->coord_of(dest);
        for (std::size_t d = 0; d < topo->num_dims(); ++d) {
          ASSERT_EQ(table.direction(d, a[d], b[d]),
                    productive_direction(*topo, d, a[d], b[d]))
              << spec << " dim " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ddpm
