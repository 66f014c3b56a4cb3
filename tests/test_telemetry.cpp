// Telemetry subsystem tests: registry handle semantics, snapshot merge
// algebra, Chrome-trace emission, and the end-to-end acceptance checks that
// a mesh:8x8 flood scenario reports per-switch forwards and marks, and that
// those series agree with the report's metrics and drop instants.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sis.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/trace.hpp"

namespace ddpm::telemetry {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CounterHandleWritesThroughToSnapshot) {
  Registry reg;
  Counter hits = reg.counter("cache.hits");
  hits.inc();
  hits.inc(4);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("cache.hits"), 5u);
}

TEST(Registry, SameKeyRegistersOnceSharesSlot) {
  Registry reg;
  Counter a = reg.counter("x", "switch=3");
  Counter b = reg.counter("x", "switch=3");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot().counter_value("x{switch=3}"), 2u);
}

TEST(Registry, MakeKeyFormatsLabels) {
  EXPECT_EQ(Registry::make_key("a.b", ""), "a.b");
  EXPECT_EQ(Registry::make_key("link.tx", "switch=3,port=+x"),
            "link.tx{switch=3,port=+x}");
}

TEST(Registry, GaugeTracksValueAndPeak) {
  Registry reg;
  Gauge depth = reg.gauge("queue.depth");
  depth.set(4.0);
  depth.set(9.0);
  depth.set(2.0);
  depth.add(1.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
  EXPECT_DOUBLE_EQ(snap.gauges[0].peak, 9.0);
}

TEST(Registry, HistogramBinsAndSaturation) {
  Registry reg;
  HistogramHandle h = reg.histogram("lat", {}, 10);
  h.add(0);
  h.add(9);
  h.add(10);  // the first sample past the last unit bin
  h.add(42);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& e = snap.histograms[0];
  EXPECT_DOUBLE_EQ(e.lo, 0.0);
  EXPECT_DOUBLE_EQ(e.hi, 10.0);
  EXPECT_EQ(e.total, 4u);
  EXPECT_EQ(e.underflow, 0u);
  EXPECT_EQ(e.overflow, 2u);
  EXPECT_EQ(e.bins[0], 1u);
  EXPECT_EQ(e.bins[9], 1u);
  EXPECT_DOUBLE_EQ(e.sum, 61.0);
}

TEST(Registry, DisabledRegistryIsInert) {
  Registry reg(false);
  Counter c = reg.counter("a");
  Gauge g = reg.gauge("b");
  HistogramHandle h = reg.histogram("c", {}, 4);
  c.inc(100);
  g.set(5.0);
  h.add(2);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Registry, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  HistogramHandle h;
  c.inc();   // must not crash
  g.set(1.0);
  h.add(1);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter c = reg.counter("n");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter_value("n"), 0u);
  c.inc();  // outstanding handle still points at the live slot
  EXPECT_EQ(reg.snapshot().counter_value("n"), 1u);
}

TEST(Registry, SnapshotSortedByKey) {
  Registry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc();
  reg.counter("mid", "switch=1").inc();
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].key, "alpha");
  EXPECT_EQ(snap.counters[1].key, "mid{switch=1}");
  EXPECT_EQ(snap.counters[2].key, "zeta");
}

// ---------------------------------------------------------------- families

TEST(Families, RowsCountIntoFlatCellsKeyedOnlyAtSnapshot) {
  Registry reg;
  const std::vector<std::string> ports = {"-x", "+x"};
  std::uint64_t* row = reg.counter_family("link.tx", 12, ports).bind(10);
  ASSERT_NE(row, nullptr);
  row[0] += 3;  // port -x
  row[1] += 5;  // port +x
  Counter(reg.counter_family("local", 12).bind(2)).inc(7);
  HistogramHandle depth = reg.histogram_family("depth", 12, 4).bind(1);
  depth.add(2);
  depth.add(9);  // overflow
  EXPECT_EQ(reg.size(), 4u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("link.tx{switch=10,port=-x}"), 3u);
  EXPECT_EQ(snap.counter_value("link.tx{switch=10,port=+x}"), 5u);
  EXPECT_EQ(snap.counter_value("local{switch=2}"), 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  EXPECT_EQ(h.key, "depth{switch=1}");
  EXPECT_DOUBLE_EQ(h.hi, 4.0);
  EXPECT_EQ(h.bins, (std::vector<std::uint64_t>{0, 0, 1, 0}));
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.total, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 11.0);
}

TEST(Families, KeysComeOutInStringOrderAmongNamedSeries) {
  Registry reg;
  // `link.tx{` sorts after `link.tx_bytes{` (`{` > `_`), `d10}` before
  // `d1}`, `switch=10}` before `switch=1}` and `switch=1,` before
  // `switch=10,`.
  const std::vector<std::string> ports = {"d1", "d10", "d0"};
  const CounterFamily tx = reg.counter_family("link.tx", 11, ports);
  const CounterFamily bytes = reg.counter_family("link.tx_bytes", 11);
  for (const std::uint32_t sw : {10u, 1u, 0u}) {
    tx.bind(sw);
    bytes.bind(sw);
  }
  reg.counter("link.tx", "switch=1,port=c");  // a named series among them
  reg.counter("link.a");
  std::vector<std::string> keys;
  for (const auto& c : reg.snapshot().counters) keys.push_back(c.key);
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(keys, sorted);
  EXPECT_EQ(keys.size(), 1u + 3u + 9u + 1u);
  EXPECT_EQ(keys[1], "link.tx_bytes{switch=0}");
  EXPECT_EQ(keys[2], "link.tx_bytes{switch=10}");
  EXPECT_EQ(keys[3], "link.tx_bytes{switch=1}");
}

TEST(Families, FoundByNameResetAndDisabled) {
  Registry reg;
  std::uint64_t* a = reg.counter_family("f", 3).bind(1);
  std::uint64_t* b = reg.counter_family("f", 3).bind(1);
  EXPECT_EQ(a, b);
  *a = 9;
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter_value("f{switch=1}"), 0u);
  EXPECT_EQ(reg.size(), 1u);  // unbound rows are not series

  Registry off(false);
  EXPECT_EQ(off.counter_family("f", 3).bind(1), nullptr);
  off.histogram_family("h", 3, 8).bind(0).add(1);  // inert
  EXPECT_EQ(off.size(), 0u);
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(RegistryDeathTest, HistogramRegisteredAgainWithAnotherShapeIsFatal) {
  Registry reg;
  reg.histogram("lat", "a=1", 10);
  reg.histogram("lat", "a=1", 10);  // the same shape: the same slot
  EXPECT_DEATH(reg.histogram("lat", "a=1", 20),
               "'lat.a=1.' registered over .0, 10. in unit bins, again over "
               ".0, 20. in unit bins");
}

TEST(RegistryDeathTest, FamilyRegisteredAgainWithAnotherShapeIsFatal) {
  Registry reg;
  const std::vector<std::string> ports = {"-x", "+x"};
  reg.counter_family("link.tx", 4, ports);
  reg.histogram_family("depth", 4, 64);
  EXPECT_DEATH(reg.counter_family("link.tx", 5, ports),
               "'link.tx' registered as a counter family over 4 switches and "
               "ports -x .x, again as a counter family over 5 switches");
  EXPECT_DEATH(reg.counter_family("link.tx", 4, {"-y", "+y"}),
               "again as a counter family over 4 switches and ports -y .y");
  EXPECT_DEATH(reg.counter_family("link.tx", 4), "link.tx");
  EXPECT_DEATH(reg.histogram_family("depth", 4, 32),
               "'depth' registered as a histogram family over 4 switches, "
               ".0, 64. in unit bins, again as a histogram family over 4 "
               "switches, .0, 32.");
  EXPECT_DEATH(reg.counter_family("depth", 4), "again as a counter family");
  EXPECT_DEATH(reg.counter_family("link.tx", 4, ports).bind(4),
               "past the family's switch count");
}

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, CounterSumPrefix) {
  Registry reg;
  reg.counter("link.tx_packets", "switch=0,port=+x").inc(2);
  reg.counter("link.tx_packets", "switch=1,port=-x").inc(3);
  reg.counter("link.tx_bytes", "switch=0,port=+x").inc(10);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_sum_prefix("link.tx_packets"), 5u);
  EXPECT_EQ(snap.counter_sum_prefix("link."), 15u);
  EXPECT_EQ(snap.counter_sum_prefix("nope"), 0u);
}

TEST(Snapshot, MergeAddsSharedSeries) {
  Registry a, b;
  a.counter("n").inc(2);
  b.counter("n").inc(3);
  a.gauge("g").set(5.0);
  b.gauge("g").set(7.0);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter_value("n"), 5u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 12.0);  // values sum
  EXPECT_DOUBLE_EQ(merged.gauges[0].peak, 7.0);    // peaks max
}

TEST(Snapshot, MergeDisjointSnapshotsInsertsSorted) {
  // Disjoint key sets — the shape produced when replications instrument
  // different switches. Union must come out sorted with values intact.
  Registry a, b;
  a.counter("m", "switch=0").inc(1);
  a.counter("z.last").inc(9);
  b.counter("a.first").inc(4);
  b.counter("m", "switch=1").inc(2);
  b.histogram("h", {}, 4).add(1);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.counters.size(), 4u);
  EXPECT_EQ(merged.counters[0].key, "a.first");
  EXPECT_EQ(merged.counters[1].key, "m{switch=0}");
  EXPECT_EQ(merged.counters[2].key, "m{switch=1}");
  EXPECT_EQ(merged.counters[3].key, "z.last");
  EXPECT_EQ(merged.counter_value("a.first"), 4u);
  EXPECT_EQ(merged.counter_value("z.last"), 9u);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].total, 1u);
  // Merging the other way yields the identical snapshot.
  MetricsSnapshot reversed = b.snapshot();
  reversed.merge(a.snapshot());
  EXPECT_EQ(reversed.to_json(), merged.to_json());
}

TEST(Snapshot, MergeHistogramBinsAdd) {
  Registry a, b;
  a.histogram("h", {}, 10).add(1);
  b.histogram("h", {}, 10).add(1);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].total, 2u);
  EXPECT_EQ(merged.histograms[0].bins[1], 2u);
}

TEST(Snapshot, JsonAndCsvAreStableAndParseable) {
  Registry reg;
  reg.counter("a").inc(1);
  reg.gauge("b").set(2.5);
  reg.histogram("c", {}, 2).add(0);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.to_json(), snap.to_json());  // deterministic
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,a,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c,"), std::string::npos);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, RecordsAgainstBoundClock) {
  Tracer tracer;
  std::uint64_t clock = 100;
  tracer.set_clock(&clock);
  tracer.instant("alarm", kPidPipeline, 0);
  clock = 250;
  tracer.counter("depth", kPidKernel, 3.0);
  EXPECT_EQ(tracer.recorded(), 2u);
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("\"ts\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 250"), std::string::npos);
  EXPECT_NE(json.find("\"alarm\""), std::string::npos);
}

TEST(Tracer, SpanCoversScope) {
  Tracer tracer;
  std::uint64_t clock = 10;
  tracer.set_clock(&clock);
  {
    TraceSpan span(&tracer, "work", kPidCluster, 7);
    clock = 60;
  }
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 7"), std::string::npos);
}

TEST(Tracer, RingDropsOldestAndCounts) {
  Tracer tracer(4);
  std::uint64_t clock = 0;
  tracer.set_clock(&clock);
  for (clock = 1; clock <= 10; ++clock) {
    tracer.instant("e", kPidKernel, 0);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.retained(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.flush_to_string();
  // Oldest events evicted: ts 1..6 gone, 7..10 retained, in order.
  EXPECT_EQ(json.find("\"ts\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.instant("e", 0, 0);
  TraceSpan span(&tracer, "s", 0, 0);
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, MetadataNamesLanes) {
  Tracer tracer;
  name_standard_processes(tracer);
  tracer.set_thread_name(kPidCluster, 3, "switch 3");
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("event kernel"), std::string::npos);
  EXPECT_NE(json.find("switch 3"), std::string::npos);
}

TEST(Tracer, ClearKeepsNamesAndClock) {
  Tracer tracer;
  std::uint64_t clock = 5;
  tracer.set_clock(&clock);
  tracer.set_process_name(0, "lane");
  tracer.instant("e", 0, 0);
  tracer.clear();
  EXPECT_EQ(tracer.retained(), 0u);
  tracer.instant("f", 0, 0);
  const std::string json = tracer.flush_to_string();
  EXPECT_EQ(json.find("\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"f\""), std::string::npos);
  EXPECT_NE(json.find("lane"), std::string::npos);
}

// -------------------------------------------------------------- acceptance

core::ScenarioConfig flood_scenario() {
  core::ScenarioConfig config;
  config.cluster.topology = "mesh:8x8";
  config.cluster.router = "adaptive";
  config.cluster.scheme = "ddpm";
  config.cluster.benign_rate_per_node = 0.0002;
  config.cluster.seed = 1234;
  config.identifier = "ddpm";
  config.detect_rate_threshold = 0.005;
  config.detect_half_life = 2000;
  config.duration = 200000;
  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.victim = 63;
  config.attack.zombies = {0, 9, 27, 36};
  config.attack.rate_per_zombie = 0.01;
  config.attack.spoof = attack::SpoofStrategy::kRandomCluster;
  config.attack.start_time = 20000;
  return config;
}

#if DDPM_TELEMETRY_ENABLED

/// The unmitigated flood: hot enough to overflow output queues.
core::ScenarioConfig unmitigated_flood() {
  auto config = flood_scenario();
  config.auto_block = false;
  config.attack.rate_per_zombie = 0.08;
  return config;
}

/// Sums the `total` of every histogram whose key starts with `prefix` (a
/// whole key, closing brace included, matches that one series).
std::uint64_t histogram_total_sum(const MetricsSnapshot& snap,
                                  std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const MetricsSnapshot::HistogramEntry& h : snap.histograms) {
    if (h.key.starts_with(prefix)) sum += h.total;
  }
  return sum;
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Acceptance, FloodScenarioReportsPerSwitchForwardsAndMarks) {
  const auto config = unmitigated_flood();
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  const MetricsSnapshot& snap = report.telemetry;

  ASSERT_FALSE(snap.empty());
  // Per-switch forward counts (the queue-depth histogram's total) exist for
  // the whole 8x8 mesh.
  for (int sw : {0, 27, 63}) {
    const std::string key =
        "switch.queue_depth{switch=" + std::to_string(sw) + "}";
    EXPECT_NE(histogram_total_sum(snap, key), 0u) << key;
  }
  // A saturating flood drops packets; the report's metrics count them.
  EXPECT_GT(report.metrics.dropped_queue_full, 0u);
  // The marking scheme stamped packets.
  EXPECT_GT(snap.counter_value("mark.applied{scheme=ddpm}"), 0u);
  // The pipeline detected and identified; the report is its only record.
  EXPECT_TRUE(report.detection_time.has_value());
  EXPECT_GT(report.true_positives, 0u);
  // Link-level series carry port labels.
  EXPECT_GT(snap.counter_sum_prefix("link.tx_packets{switch="), 0u);
}

TEST(Acceptance, PerSwitchSeriesAgreeWithTheReport) {
  const auto config = unmitigated_flood();
  core::SourceIdentificationSystem system(config);
  // Large enough to keep every event of the run (about 164k).
  Tracer tracer(std::size_t{1} << 18);
  system.set_tracer(&tracer);
  const core::ScenarioReport report = system.run();
  const MetricsSnapshot& snap = report.telemetry;
  const cluster::Metrics& metrics = report.metrics;
  ASSERT_EQ(tracer.dropped(), 0u);

  // Every packet that reaches its destination switch is either handed to
  // the node or suppressed by the victim's filter.
  EXPECT_EQ(snap.counter_sum_prefix("switch.delivered_local{"),
            metrics.delivered() + metrics.filtered_at_victim);
  // DDPM marks once per forward, and every forward is one queue-depth
  // sample.
  const std::uint64_t forwards =
      histogram_total_sum(snap, "switch.queue_depth{");
  EXPECT_GT(forwards, 0u);
  EXPECT_EQ(forwards, snap.counter_value("mark.applied{scheme=ddpm}"));
  // Each queue-full drop is one trace instant on its switch's lane.
  EXPECT_GT(metrics.dropped_queue_full, 0u);
  EXPECT_EQ(count_of(tracer.flush_to_string(), "\"drop.queue_full\""),
            metrics.dropped_queue_full);
}

TEST(Acceptance, EverySwitchExportsFourteenSeries) {
  auto config = flood_scenario();
  config.duration = 30000;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  const MetricsSnapshot& snap = report.telemetry;

  // One local-delivery counter, one queue-depth histogram and three link
  // counters on each of the mesh's four ports, for all 64 switches.
  std::vector<std::string> keys;
  for (const auto& c : snap.counters) keys.push_back(c.key);
  for (const auto& g : snap.gauges) keys.push_back(g.key);
  for (const auto& h : snap.histograms) keys.push_back(h.key);
  for (int sw = 0; sw < 64; ++sw) {
    const std::string whole = "switch=" + std::to_string(sw) + "}";
    const std::string first = "switch=" + std::to_string(sw) + ",";
    std::size_t n = 0;
    for (const std::string& key : keys) {
      const auto open = key.find('{');
      if (open == std::string::npos) continue;
      const std::string_view labels = std::string_view(key).substr(open + 1);
      if (labels.starts_with(whole) || labels.starts_with(first)) ++n;
    }
    EXPECT_EQ(n, 14u) << "switch " << sw;
  }
  // No series re-counts Metrics' drops, the queue-depth histograms'
  // forward totals, or what the report says the pipeline detected, named
  // and blocked.
  for (const std::string& key : keys) {
    for (const char* gone :
         {"switch.drop_", "switch.forwarded", "switch.mark_hooks", "wormhole.",
          "detect.firings", "detect.latency_ticks", "identify.correct",
          "identify.innocent", "mitigate.blocks_installed"}) {
      EXPECT_FALSE(key.starts_with(gone)) << key;
    }
  }
}

TEST(Acceptance, TraceOfFloodScenarioIsWellFormed) {
  auto config = flood_scenario();
  config.duration = 60000;
  core::SourceIdentificationSystem system(config);
  Tracer tracer;
  name_standard_processes(tracer);
  system.set_tracer(&tracer);
  (void)system.run();
  EXPECT_GT(tracer.recorded(), 0u);
  const std::string json = tracer.flush_to_string();
  EXPECT_EQ(json.find("\"ts\": -"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("link.tx"), std::string::npos);
}

TEST(Acceptance, RuntimeDisabledClusterProducesEmptyTelemetry) {
  auto config = flood_scenario();
  config.duration = 30000;
  config.cluster.telemetry = false;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  EXPECT_TRUE(report.telemetry.empty());
}

#else  // !DDPM_TELEMETRY_ENABLED

TEST(Acceptance, CompiledOutProbesYieldNoSeries) {
  auto config = flood_scenario();
  config.duration = 30000;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  // Probe-fed series are gone; only snapshot-time aggregate gauges remain.
  EXPECT_EQ(report.telemetry.counter_sum_prefix("switch."), 0u);
  EXPECT_EQ(report.telemetry.counter_sum_prefix("mark."), 0u);
  EXPECT_TRUE(report.telemetry.counters.empty());
}

#endif  // DDPM_TELEMETRY_ENABLED

}  // namespace
}  // namespace ddpm::telemetry
