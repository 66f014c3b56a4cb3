// Determinism regression: the paper's tables are only reproducible if one
// seed produces one bit-identical outcome. Two runs of the same scenario
// with the same seed must agree on every metric — asserted over the full
// JSON serialization (stable key order), not just a handful of fields, so
// any future nondeterminism (unordered-container iteration, uninitialized
// reads, wall-clock leakage) trips this test.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/report_json.hpp"
#include "core/sis.hpp"
#include "core/sweep_grid.hpp"
#include "flow/trace_gen.hpp"
#include "stream/flow_analyzer.hpp"
#include "golden_digest.hpp"

namespace ddpm::core {
namespace {

ScenarioConfig scenario(const std::string& topology, const std::string& router,
                        std::uint64_t seed) {
  ScenarioConfig config;
  config.cluster.topology = topology;
  config.cluster.router = router;
  config.cluster.seed = seed;
  config.cluster.benign_rate_per_node = 0.0003;
  config.identifier = "ddpm";
  config.detect_rate_threshold = 0.003;
  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.victim = 21;
  config.attack.zombies = {3, 14};
  config.attack.rate_per_zombie = 0.006;
  config.attack.start_time = 20000;
  config.duration = 120000;
  return config;
}

std::string run_to_json(const ScenarioConfig& config) {
  SourceIdentificationSystem sis(config);
  const ScenarioReport report = sis.run();
  return to_json(config, report);
}

TEST(Determinism, SameSeedSameJsonDigest) {
  const auto config = scenario("mesh:6x6", "adaptive", 1234);
  const std::string first = run_to_json(config);
  const std::string second = run_to_json(config);
  EXPECT_EQ(golden::fnv1a(first), golden::fnv1a(second));
  ASSERT_EQ(first, second);
}

TEST(Determinism, SameSeedSameJsonDigestOnTorus) {
  const auto config = scenario("torus:5x5", "dor", 77);
  EXPECT_EQ(run_to_json(config), run_to_json(config));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Not a correctness requirement in itself, but if two seeds ever produce
  // identical full reports the RNG plumbing has collapsed somewhere.
  const std::string a = run_to_json(scenario("mesh:6x6", "adaptive", 1));
  const std::string b = run_to_json(scenario("mesh:6x6", "adaptive", 2));
  EXPECT_NE(a, b);
}

TEST(Determinism, ReplicationStreamsDiverge) {
  // Replications share a seed but take disjoint RNG streams; each stream
  // must produce a distinct scenario trajectory.
  auto config = scenario("mesh:6x6", "adaptive", 1234);
  const std::string s0 = run_to_json(config);
  config.cluster.rng_stream = 1;
  const std::string s1 = run_to_json(config);
  EXPECT_NE(s0, s1);
}

/// A small sweep grid used to pin parallel output to serial output.
SweepSpec small_sweep(std::size_t jobs) {
  SweepSpec spec;
  spec.topologies = {"mesh:4x4", "torus:4x4"};
  spec.schemes = {"ddpm", "dpm"};
  spec.routers = {"adaptive"};
  spec.rates = {0.01};
  spec.seeds = 3;
  spec.jobs = jobs;
  return spec;
}

TEST(Determinism, SweepOutputBitIdenticalAcrossJobCounts) {
  // The parallel runner merges replications in (cell, stream) order, so
  // the rendered CSV must be byte-identical no matter how many threads
  // carried the work.
  const std::string serial = sweep_csv(run_sweep(small_sweep(1)));
  const std::string parallel = sweep_csv(run_sweep(small_sweep(4)));
  EXPECT_EQ(golden::fnv1a(serial), golden::fnv1a(parallel));
  ASSERT_EQ(serial, parallel);
  const std::string parallel8 = sweep_csv(run_sweep(small_sweep(8)));
  ASSERT_EQ(serial, parallel8);
}

TEST(Determinism, RepeatedRunsParallelMatchesSerial) {
  const auto config = scenario("mesh:6x6", "adaptive", 99);
  const auto serial = run_replications(config, 4, 1);
  const auto parallel = run_replications(config, 4, 4);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.detected_runs, parallel.detected_runs);
  EXPECT_EQ(serial.perfect_runs, parallel.perfect_runs);
  // Exact equality on the floating aggregates: the merge is serial and in
  // replication order, so not even the summation order may differ.
  EXPECT_EQ(serial.true_positives.mean(), parallel.true_positives.mean());
  EXPECT_EQ(serial.false_positives.mean(), parallel.false_positives.mean());
  EXPECT_EQ(serial.detection_latency.mean(),
            parallel.detection_latency.mean());
  EXPECT_EQ(serial.packets_to_first_identification.mean(),
            parallel.packets_to_first_identification.mean());
  EXPECT_EQ(serial.benign_latency_mean.mean(),
            parallel.benign_latency_mean.mean());
}

TEST(Determinism, TelemetrySnapshotsByteIdenticalAcrossJobCounts) {
  // Per-replication metrics snapshots merge serially in replication order,
  // so the aggregated telemetry must serialize byte-identically whether the
  // replications ran on one thread or eight.
  const auto config = scenario("mesh:6x6", "adaptive", 4321);
  const auto serial = run_replications(config, 8, 1);
  const auto parallel = run_replications(config, 8, 8);
  EXPECT_EQ(golden::fnv1a(serial.telemetry.to_json()),
            golden::fnv1a(parallel.telemetry.to_json()));
  ASSERT_EQ(serial.telemetry.to_json(), parallel.telemetry.to_json());
  ASSERT_EQ(serial.telemetry.to_csv(), parallel.telemetry.to_csv());
}

TEST(Determinism, SweepTelemetryBitIdenticalAcrossJobCounts) {
  const std::string serial = sweep_metrics_json(run_sweep(small_sweep(1)));
  const std::string parallel = sweep_metrics_json(run_sweep(small_sweep(8)));
  ASSERT_EQ(serial, parallel);
}

/// One flow-replay detection report rendered at a given worker count. The
/// analyzer's shard count is structural (part of the config), so jobs may
/// only change who does the work, never a byte of the answer.
std::string flow_report_json(std::size_t jobs) {
  flow::TraceGenConfig gen;
  gen.seed = 31337;
  gen.attack = flow::AttackShape::kFlood;
  gen.attack_sources = 30'000;
  gen.attack_start = 50'000;
  gen.attack_duration = 150'000;
  gen.duration = 300'000;
  flow::TraceGenerator source(gen);
  stream::FlowAnalyzerConfig config;
  config.jobs = jobs;
  return stream::replay(source, config).to_json();
}

TEST(Determinism, FlowReplayBitIdenticalAcrossJobCounts) {
  const std::string serial = flow_report_json(1);
  EXPECT_NE(serial.find("\"detection_time\": "), std::string::npos);
  const std::string parallel4 = flow_report_json(4);
  EXPECT_EQ(golden::fnv1a(serial), golden::fnv1a(parallel4));
  ASSERT_EQ(serial, parallel4);
  const std::string parallel8 = flow_report_json(8);
  ASSERT_EQ(serial, parallel8);
}

}  // namespace
}  // namespace ddpm::core
