// End-to-end pipeline tests: detect -> identify -> block, across schemes.
#include "core/sis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ddpm::core {
namespace {

ScenarioConfig flood_scenario(const std::string& scheme) {
  ScenarioConfig config;
  config.cluster.topology = "mesh:8x8";
  config.cluster.router = "adaptive";
  config.cluster.scheme = scheme;
  config.cluster.benign_rate_per_node = 0.0002;
  config.cluster.seed = 1234;
  config.identifier = scheme;
  config.detect_rate_threshold = 0.005;
  config.detect_half_life = 2000;
  config.duration = 400000;

  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.victim = 63;
  config.attack.zombies = {0, 9, 27, 36};
  config.attack.rate_per_zombie = 0.01;
  config.attack.spoof = attack::SpoofStrategy::kRandomCluster;
  config.attack.start_time = 20000;
  return config;
}

TEST(EndToEnd, DdpmIdentifiesAndBlocksEveryZombie) {
  auto config = flood_scenario("ddpm");
  SourceIdentificationSystem system(config);
  const ScenarioReport report = system.run();

  ASSERT_TRUE(report.detection_time.has_value());
  EXPECT_GT(*report.detection_time, config.attack.start_time);

  // Every zombie identified, nobody innocent named (perfect classifier).
  EXPECT_EQ(report.identified_sources,
            std::set<topo::NodeId>(config.attack.zombies.begin(),
                                   config.attack.zombies.end()));
  EXPECT_EQ(report.false_positives, 0u);
  EXPECT_EQ(report.true_positives, config.attack.zombies.size());

  // One packet per zombie suffices once tracing starts.
  EXPECT_LE(report.packets_to_first_identification, 1u);

  // Mitigation: blocks installed and the attack throttled at its sources.
  EXPECT_EQ(report.blocked_sources, report.identified_sources);
  EXPECT_GT(report.metrics.blocked_at_source, 0u);
  // The flood keeps offering traffic for ~95% of the run; blocking must
  // stop nearly all of it from reaching the victim.
  EXPECT_LT(report.attack_delivered_after_block,
            report.metrics.injected_attack / 10 + 100);
}

TEST(EndToEnd, DdpmUnaffectedBySpoofStrategy) {
  for (auto spoof : {attack::SpoofStrategy::kNone,
                     attack::SpoofStrategy::kRandomAny,
                     attack::SpoofStrategy::kVictimReflect}) {
    auto config = flood_scenario("ddpm");
    config.attack.spoof = spoof;
    SourceIdentificationSystem system(config);
    const ScenarioReport report = system.run();
    EXPECT_EQ(report.true_positives, config.attack.zombies.size())
        << attack::to_string(spoof);
    EXPECT_EQ(report.false_positives, 0u);
  }
}

TEST(EndToEnd, DpmDegradesUnderAdaptiveRouting) {
  // DPM's trained signatures assume stable routes; under adaptive routing
  // the observed signatures are essentially arbitrary, so lookups hit
  // trained entries of *innocent* nodes — identification loses precision
  // (paper §4.3). DDPM stays exact.
  auto ddpm_config = flood_scenario("ddpm");
  auto dpm_config = flood_scenario("dpm");
  const auto ddpm_report = SourceIdentificationSystem(ddpm_config).run();
  const auto dpm_report = SourceIdentificationSystem(dpm_config).run();
  EXPECT_EQ(ddpm_report.true_positives, 4u);
  EXPECT_EQ(ddpm_report.false_positives, 0u);
  EXPECT_GT(dpm_report.false_positives, 0u);
  // And DPM wrongly blocks those innocents when auto-block is on.
  EXPECT_GT(dpm_report.blocked_sources.size(), dpm_report.true_positives);
}

TEST(EndToEnd, DpmWorksBetterUnderDeterministicRouting) {
  auto config = flood_scenario("dpm");
  config.cluster.router = "dor";
  const auto report = SourceIdentificationSystem(config).run();
  // Signatures may still collide, but single-candidate identifications of
  // true zombies should occur under the routes DPM trained on.
  EXPECT_GE(report.true_positives, 1u);
}

TEST(EndToEnd, NoIdentifierMeansNoBlocks) {
  auto config = flood_scenario("none");
  const auto report = SourceIdentificationSystem(config).run();
  EXPECT_TRUE(report.identified_sources.empty());
  EXPECT_TRUE(report.blocked_sources.empty());
  EXPECT_EQ(report.metrics.blocked_at_source, 0u);
  // Without mitigation the victim keeps absorbing the flood.
  EXPECT_GT(report.metrics.delivered_attack, 500u);
}

TEST(EndToEnd, ImperfectClassifierCausesCollateralBlocks) {
  auto config = flood_scenario("ddpm");
  config.classifier_false_positive_rate = 0.9;
  const auto report = SourceIdentificationSystem(config).run();
  // DDPM names benign senders correctly too; a sloppy classifier turns
  // that precision into collateral damage.
  EXPECT_GT(report.false_positives, 0u);
  EXPECT_EQ(report.true_positives, config.attack.zombies.size());
}

TEST(EndToEnd, AutoBlockCanBeDisabled) {
  auto config = flood_scenario("ddpm");
  config.auto_block = false;
  const auto report = SourceIdentificationSystem(config).run();
  EXPECT_EQ(report.true_positives, config.attack.zombies.size());
  EXPECT_TRUE(report.blocked_sources.empty());
  EXPECT_EQ(report.metrics.blocked_at_source, 0u);
}

TEST(EndToEnd, SynFloodDetectedAndTraced) {
  auto config = flood_scenario("ddpm");
  config.attack.kind = attack::AttackKind::kSynFlood;
  const auto report = SourceIdentificationSystem(config).run();
  EXPECT_TRUE(report.detection_time.has_value());
  EXPECT_EQ(report.true_positives, config.attack.zombies.size());
}

TEST(EndToEnd, RunTwiceThrows) {
  auto config = flood_scenario("ddpm");
  config.duration = 1000;
  SourceIdentificationSystem system(config);
  system.run();
  EXPECT_THROW(system.run(), std::logic_error);
}

TEST(EndToEnd, ReportSummaryReadable) {
  auto config = flood_scenario("ddpm");
  config.duration = 100000;
  const auto report = SourceIdentificationSystem(config).run();
  const std::string s = report.summary();
  EXPECT_NE(s.find("identified"), std::string::npos);
  EXPECT_NE(s.find("detection"), std::string::npos);
}

TEST(MakeIdentifier, CoversAllSchemes) {
  const auto topo = topo::make_topology("mesh:8x8");
  EXPECT_EQ(make_identifier("none", *topo, 0, 64), nullptr);
  for (const char* name :
       {"ddpm", "dpm", "ppm-full", "ppm-xor", "ppm-bitdiff", "ppm-fragment"}) {
    EXPECT_NE(make_identifier(name, *topo, 0, 64), nullptr) << name;
  }
  EXPECT_THROW(make_identifier("bogus", *topo, 0, 64), std::invalid_argument);
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  auto config = flood_scenario("ddpm");
  config.duration = 150000;
  const auto a = SourceIdentificationSystem(config).run();
  const auto b = SourceIdentificationSystem(config).run();
  EXPECT_EQ(a.metrics.injected(), b.metrics.injected());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.identified_sources, b.identified_sources);
  EXPECT_EQ(a.detection_time, b.detection_time);
}

TEST(EndToEnd, WindowedDetectorTimesArePinned) {
  // ddpm_sim's default scenario (no flags): torus:8x8, adaptive routing,
  // DDPM, four zombies flooding node 63 from tick 50000. Each windowed
  // detector's first alarm is pinned per spoof mode; 0 means no alarm.
  ScenarioConfig base;
  base.cluster.topology = "torus:8x8";
  base.cluster.router = "adaptive";
  base.cluster.scheme = "ddpm";
  base.cluster.benign_rate_per_node = 0.0003;
  base.identifier = "ddpm";
  base.detect_rate_threshold = 0.005;
  base.duration = 400000;
  base.attack.kind = attack::AttackKind::kUdpFlood;
  base.attack.victim = 63;
  base.attack.zombies = {10, 17, 24, 55};
  base.attack.rate_per_zombie = 0.01;
  base.attack.start_time = 50000;

  struct Pin {
    const char* detector;
    attack::SpoofStrategy spoof;
    netsim::SimTime detection_time;
  };
  using attack::SpoofStrategy;
  const Pin pins[] = {
      {"cusum", SpoofStrategy::kRandomCluster, 52918},
      {"cusum", SpoofStrategy::kRandomAny, 52918},
      {"cusum", SpoofStrategy::kNone, 52837},
      {"entropy", SpoofStrategy::kRandomCluster, 0},
      {"entropy", SpoofStrategy::kRandomAny, 175925},
      {"entropy", SpoofStrategy::kNone, 0},
      {"sketch-entropy", SpoofStrategy::kRandomCluster, 0},
      {"sketch-entropy", SpoofStrategy::kRandomAny, 175925},
      {"sketch-entropy", SpoofStrategy::kNone, 0},
      {"sketch-cusum", SpoofStrategy::kRandomCluster, 0},
      {"sketch-cusum", SpoofStrategy::kRandomAny, 0},
      {"sketch-cusum", SpoofStrategy::kNone, 60000},
  };
  for (const Pin& pin : pins) {
    ScenarioConfig config = base;
    config.detector = pin.detector;
    config.attack.spoof = pin.spoof;
    const ScenarioReport report = SourceIdentificationSystem(config).run();
    EXPECT_EQ(report.detection_time.value_or(0), pin.detection_time)
        << pin.detector << " spoof " << attack::to_string(pin.spoof);
  }
}

}  // namespace
}  // namespace ddpm::core
