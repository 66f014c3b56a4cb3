// Broad integration coverage: the full detect->identify->block pipeline
// across the topology x scheme x router matrix, with per-cell sanity
// invariants (conservation, pipeline causality) and the scheme-specific
// quality expectations where they are unconditional.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "core/sis.hpp"
#include "golden_digest.hpp"

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

struct GoldenCell {
  const char* topology;
  const char* scheme;
  const char* router;
  std::uint64_t digest;  // golden::masked_report_digest, either probe build
};

// PPM identification output, pinned across commits: any change to what the
// victim-side reconstruction names, or when, moves a digest. The failure
// prints the new value.
constexpr GoldenCell kPpmGolden[] = {
    {"torus:5x5", "ppm-full", "adaptive", 0x7b4961ee2e9ac0acULL},
    {"torus:5x5", "ppm-xor", "adaptive", 0xa1d6ee75fadf37b0ULL},
    {"torus:5x5", "ppm-bitdiff", "adaptive", 0xf249a9e89b43b206ULL},
    {"torus:5x5", "ppm-fragment", "adaptive", 0x52b0f9bcb71cf1baULL},
    {"mesh:6x6", "ppm-full", "dor", 0xdf0f1888a2586876ULL},
};

// The cluster hop itself, pinned across commits: routing, the switch's
// queues and links, and DDPM/DPM marking all feed these reports, so any
// change to which port a packet takes, when it lands, or what mark it
// carries moves a digest. "none" pins the unmarked network alone.
constexpr GoldenCell kClusterGolden[] = {
    {"torus:5x5", "ddpm", "adaptive", 0xb19ffbf921989cb7ULL},
    {"torus:5x5", "dpm", "adaptive", 0x89daa21b2a8f298dULL},
    {"torus:5x5", "none", "adaptive", 0x4028c791cd0c2d78ULL},
    {"mesh:6x6", "ddpm", "dor", 0x7f87c39ea7c13078ULL},
    {"mesh:6x6", "dpm", "dor", 0x7e71c80f63302fc2ULL},
    {"mesh:6x6", "none", "dor", 0xb9b0a3c656851c60ULL},
    {"hypercube:5", "ddpm", "adaptive", 0x8daa87c3b286da2fULL},
    {"mesh:4x4x4", "ddpm", "adaptive", 0x20c06fdc8f953803ULL},
    {"torus:6x6", "ddpm", "dor", 0x24b9e55970dfb11cULL},
};

void expect_golden(const GoldenCell& g) {
  const ScenarioConfig config = cell_config(g.topology, g.scheme, g.router);
  SourceIdentificationSystem system(config);
  const std::uint64_t got = golden::masked_report_digest(config, system.run());
  EXPECT_EQ(got, g.digest) << g.topology << " " << g.scheme << " " << g.router
                           << ": digest 0x" << std::hex << got;
}

TEST(PipelineGolden, PpmIdentificationDigestsArePinned) {
  for (const GoldenCell& g : kPpmGolden) expect_golden(g);
}

TEST(PipelineGolden, ClusterHopDigestsArePinned) {
  for (const GoldenCell& g : kClusterGolden) expect_golden(g);
}

/// The series a scenario registers, from the fabric alone: per switch a
/// local-delivery counter, a queue-depth histogram and three link counters
/// per port; the pipeline's four `identify.*` counters and its
/// `detect.memory_bytes` gauge; two `mark.*` counters unless the scheme is
/// "none"; and the 11 `sim.*`/`net.*` gauges published at snapshot time,
/// which are all that is left with the probes compiled out.
std::size_t expected_series(const std::string& topology,
                            const std::string& scheme) {
  constexpr std::size_t kSnapshotGauges = 11;
  if (!DDPM_TELEMETRY_ENABLED) return kSnapshotGauges;
  const auto topo = topo::make_topology(topology);
  const std::size_t per_switch = 2 + 3 * std::size_t(topo->num_ports());
  return std::size_t(topo->num_nodes()) * per_switch + 5 +
         (scheme == "none" ? 0 : 2) + kSnapshotGauges;
}

void expect_series(const GoldenCell& g) {
  const ScenarioConfig config = cell_config(g.topology, g.scheme, g.router);
  SourceIdentificationSystem system(config);
  EXPECT_EQ(system.run().telemetry.series(),
            expected_series(g.topology, g.scheme))
      << g.topology << " " << g.scheme << " " << g.router;
}

TEST(PipelineGolden, SeriesCountFollowsTheFabric) {
  for (const GoldenCell& g : kPpmGolden) expect_series(g);
  for (const GoldenCell& g : kClusterGolden) expect_series(g);
}

}  // namespace
}  // namespace ddpm::core
