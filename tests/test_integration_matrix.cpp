// Broad integration coverage: the full detect->identify->block pipeline
// across the topology x scheme x router matrix, with per-cell sanity
// invariants (conservation, pipeline causality) and the scheme-specific
// quality expectations where they are unconditional.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "core/report_json.hpp"
#include "core/sis.hpp"

namespace ddpm::core {
namespace {

using Param = std::tuple<const char* /*topology*/, const char* /*scheme*/,
                         const char* /*router*/>;

/// One matrix cell: a three-zombie UDP flood on the last node, identified by
/// the scheme that marks.
ScenarioConfig cell_config(const std::string& topology,
                           const std::string& scheme,
                           const std::string& router) {
  ScenarioConfig c;
  c.cluster.topology = topology;
  c.cluster.scheme = scheme;
  c.cluster.router = router;
  c.cluster.benign_rate_per_node = 0.0002;
  c.cluster.seed = 77;
  c.identifier = scheme;
  c.detect_rate_threshold = 0.004;
  c.duration = 250000;
  c.attack.kind = attack::AttackKind::kUdpFlood;
  const auto probe = topo::make_topology(c.cluster.topology);
  c.attack.victim = probe->num_nodes() - 1;
  netsim::Rng rng(5);
  c.attack.zombies = attack::pick_zombies(*probe, 3, c.attack.victim, rng);
  c.attack.rate_per_zombie = 0.008;
  c.attack.start_time = 20000;
  return c;
}

class PipelineMatrix : public ::testing::TestWithParam<Param> {
 protected:
  ScenarioConfig config() const {
    return cell_config(std::get<0>(GetParam()), std::get<1>(GetParam()),
                       std::get<2>(GetParam()));
  }
};

TEST_P(PipelineMatrix, RunsAndHoldsInvariants) {
  SourceIdentificationSystem system(config());
  const ScenarioReport report = system.run();
  const auto& m = report.metrics;

  // Conservation: every injected packet is delivered, dropped, or still in
  // flight (bounded by a small residue).
  EXPECT_LE(m.delivered() + m.dropped(), m.injected());
  EXPECT_GE(m.delivered() + m.dropped() + 200, m.injected());

  // The flood is loud enough to detect on every substrate.
  ASSERT_TRUE(report.detection_time.has_value());
  EXPECT_GE(*report.detection_time, 20000u);

  // Causality: blocks can only exist if something was identified, and
  // every blocked node was named first.
  EXPECT_EQ(report.blocked_sources, report.identified_sources);
  EXPECT_EQ(report.true_positives + report.false_positives,
            report.identified_sources.size());

  // Latency sanity.
  if (m.delivered_benign > 0) {
    EXPECT_GT(m.latency_benign.mean(), 0.0);
    EXPECT_LE(m.latency_benign.mean(), m.latency_benign.max());
    EXPECT_GE(m.latency_benign_p99.value(), m.latency_benign.mean() * 0.5);
  }
}

TEST_P(PipelineMatrix, DdpmCellsArePerfect) {
  if (std::string(std::get<1>(GetParam())) != "ddpm") {
    GTEST_SKIP() << "DDPM-only assertion";
  }
  SourceIdentificationSystem system(config());
  const ScenarioReport report = system.run();
  EXPECT_EQ(report.true_positives, 3u);
  EXPECT_EQ(report.false_positives, 0u);
  EXPECT_LE(report.packets_to_first_identification, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineMatrix,
    ::testing::Combine(::testing::Values("mesh:6x6", "torus:5x5",
                                         "hypercube:5"),
                       ::testing::Values("ddpm", "dpm", "ppm-full",
                                         "ppm-fragment"),
                       ::testing::Values("dor", "adaptive")));

/// FNV-1a, as tests/test_determinism.cpp fingerprints reports.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenCell {
  const char* topology;
  const char* scheme;
  const char* router;
  std::uint64_t digest;  // FNV-1a of to_json(config, report)
  // The same with the probes compiled out (DDPM_TELEMETRY=OFF): the
  // report counts its telemetry series, which that build has none of.
  std::uint64_t digest_no_telemetry;
};

// PPM identification output, pinned across commits: any change to what the
// victim-side reconstruction names, or when, moves a digest. The failure
// prints the new value.
constexpr GoldenCell kPpmGolden[] = {
    {"torus:5x5", "ppm-full", "adaptive", 0xc14aac35df07c06fULL,
     0x85dd27fd0627615aULL},
    {"torus:5x5", "ppm-xor", "adaptive", 0x2d85d84c5ab08f0bULL,
     0x9713d3b3e368a9b6ULL},
    {"torus:5x5", "ppm-bitdiff", "adaptive", 0x5d21c49d2a39836dULL,
     0x1e33949d4747a438ULL},
    {"torus:5x5", "ppm-fragment", "adaptive", 0x8b4a9e0c07767a09ULL,
     0xebbafe91b0ba9424ULL},
    {"mesh:6x6", "ppm-full", "dor", 0x9523296dedbaca56ULL,
     0xc60df2f0ce3017a8ULL},
};

// The cluster hop itself, pinned across commits: routing, the switch's
// queues and links, and DDPM/DPM marking all feed these reports, so any
// change to which port a packet takes, when it lands, or what mark it
// carries moves a digest. "none" pins the unmarked network alone.
constexpr GoldenCell kClusterGolden[] = {
    {"torus:5x5", "ddpm", "adaptive", 0xd33993f8c5a29a4cULL,
     0xe682c3f796f9f707ULL},
    {"torus:5x5", "dpm", "adaptive", 0x079570e760e90d1eULL,
     0xf03a2db1defb7099ULL},
    {"torus:5x5", "none", "adaptive", 0x9fccb31d92548c71ULL,
     0x6950b8a9eb37372eULL},
    {"mesh:6x6", "ddpm", "dor", 0x22367a8dbcccd578ULL,
     0xccba02818ccb502eULL},
    {"mesh:6x6", "dpm", "dor", 0xa1179193c2cb59c2ULL,
     0xfbf3df0be7e3da1cULL},
    {"mesh:6x6", "none", "dor", 0x3ac66be0ec53cfdeULL,
     0x2b0d2d7b0cd841a6ULL},
    {"hypercube:5", "ddpm", "adaptive", 0x5c62727e75370fd7ULL,
     0xe06748b5884e554fULL},
    {"mesh:4x4x4", "ddpm", "adaptive", 0x9b50384eabb0f1d8ULL,
     0x7f84616ee315356bULL},
    {"torus:6x6", "ddpm", "dor", 0xf5a6fb4f640d993cULL,
     0x230ecac1f9cf920aULL},
};

void expect_golden(const GoldenCell& g) {
  const ScenarioConfig config = cell_config(g.topology, g.scheme, g.router);
  SourceIdentificationSystem system(config);
  const ScenarioReport report = system.run();
  const std::uint64_t got = fnv1a(to_json(config, report));
#if DDPM_TELEMETRY_ENABLED
  const std::uint64_t want = g.digest;
#else
  const std::uint64_t want = g.digest_no_telemetry;
#endif
  EXPECT_EQ(got, want) << g.topology << " " << g.scheme << " " << g.router
                       << ": digest 0x" << std::hex << got;
}

TEST(PipelineGolden, PpmIdentificationDigestsArePinned) {
  for (const GoldenCell& g : kPpmGolden) expect_golden(g);
}

TEST(PipelineGolden, ClusterHopDigestsArePinned) {
  for (const GoldenCell& g : kClusterGolden) expect_golden(g);
}

}  // namespace
}  // namespace ddpm::core
