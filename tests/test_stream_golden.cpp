// Golden digests of FlowStreamAnalyzer reports.
//
// FNV-1a digests of StreamReport::to_json() pin every byte the analyzer
// reports, so a change to the sketch work done at window close (which
// summaries are kept, how a run of equal keys is applied, how the heap
// sinks) cannot move a detection time, a victim or a heavy-hitter count
// unnoticed. `memory_bytes` is masked out of the digests and asserted on its
// own: it is a property of the configured sketches, not of the stream.
//
// The gap cases pin how empty windows are closed. A record far in the future
// must not cost one window close per empty window, but every report field
// must be what closing them one at a time gives: warm-up still averages the
// empty windows in, CUSUM still decays through them, and an alarm that an
// empty window raises is still dated by that window.
//
// A failure prints the new digest. Never re-record one to make a test pass:
// a moved digest means the analyzer's output changed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "flow/record.hpp"
#include "flow/trace_gen.hpp"
#include "stream/flow_analyzer.hpp"
#include "golden_digest.hpp"

namespace ddpm::stream {
namespace {

using golden::fnv1a;

/// Digest of the report with `memory_bytes` zeroed.
std::uint64_t masked_digest(StreamReport report) {
  report.memory_bytes = 0;
  return fnv1a(report.to_json());
}

// --- Generated traces -------------------------------------------------------

struct TraceGolden {
  flow::AttackShape shape;
  std::uint32_t topk;
  std::uint32_t shards;
  std::uint64_t digest;
};

StreamReport replay_shape(const TraceGolden& g, std::size_t jobs) {
  flow::TraceGenConfig gen;
  gen.seed = 4242;
  gen.attack = g.shape;
  gen.attack_sources = 20'000;
  gen.attack_start = 50'000;
  gen.attack_duration = 200'000;
  gen.duration = 300'000;
  gen.attack_rate =
      1.25 * double(gen.attack_sources) / double(gen.attack_duration);
  flow::TraceGenerator source(gen);
  FlowAnalyzerConfig config;
  config.topk = g.topk;
  config.shards = g.shards;
  config.jobs = jobs;
  return replay(source, config);
}

TEST(StreamReportGolden, FloodPulseChurnDigestsAtJobsOneAndFour) {
  // The default geometry, plus a small-summary one where destination
  // summaries evict as well as source summaries.
  const TraceGolden goldens[] = {
      {flow::AttackShape::kFlood, 64, 16, 0xaa425ea82cb9d042ULL},
      {flow::AttackShape::kPulse, 64, 16, 0xf9f3017817c40254ULL},
      {flow::AttackShape::kChurn, 64, 16, 0xb627a7771042cd51ULL},
      {flow::AttackShape::kFlood, 4, 2, 0x96084e6449091811ULL},
      {flow::AttackShape::kChurn, 4, 2, 0xeea805e9da5301baULL},
  };
  for (const TraceGolden& g : goldens) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      const std::uint64_t got = masked_digest(replay_shape(g, jobs));
      EXPECT_EQ(got, g.digest)
          << "shape " << int(g.shape) << " topk " << g.topk << " shards "
          << g.shards << " jobs " << jobs << ": digest 0x" << std::hex << got;
    }
  }
}

TEST(StreamReportGolden, MemoryBytesIsTheSketchGeometry) {
  // Per shard, three Space-Saving summaries of 64 slots: 68 padded counts
  // (8 B: 3 lead slots, the root and 16 families of 4), a 256-slot index
  // (8 B) and 64 records (16 B), 3 * (544 + 2048 + 1024) B. Plus the
  // 4096-bucket sliding-entropy sketch: 32 KiB.
  const FlowAnalyzerConfig config;
  EXPECT_EQ(FlowStreamAnalyzer(config).memory_bytes(), 206'336u);
  const TraceGolden flood{flow::AttackShape::kFlood, 64, 16, 0};
  EXPECT_EQ(replay_shape(flood, 1).memory_bytes, 206'336u);
}

// --- Gaps of empty windows ---------------------------------------------------

/// What fills one window of a scripted trace.
enum class Fill : std::uint8_t {
  kEmpty,   // no records
  kBenign,  // 120 records over 12 destinations, top count ~20 packets
  kBurst,   // benign plus 480 packets at the victim: lifts CUSUM, no alarm
  kFlood,   // benign plus 1200 packets at the victim: CUSUM alarms
};

constexpr std::uint32_t kVictim = 7;
constexpr netsim::SimTime kWindow = 1000;

void fill_window(std::vector<flow::FlowRecord>& out, core::WindowIndex w,
                 Fill fill, std::uint32_t& next_src) {
  if (fill == Fill::kEmpty) return;
  const netsim::SimTime start = netsim::SimTime(w) * kWindow;
  const std::uint32_t attack =
      fill == Fill::kBurst ? 240 : fill == Fill::kFlood ? 600 : 0;
  for (std::uint32_t i = 0; i < 120 + attack; ++i) {
    flow::FlowRecord r;
    r.src = next_src++;
    const bool benign = i < 120;
    r.dst = benign ? 100 + i % 12 : kVictim;
    r.packets = benign ? 1 + i % 3 : 2;
    r.bytes = 64ULL * r.packets;
    r.first_ts = start + (netsim::SimTime(i) * kWindow) / (120 + attack);
    r.last_ts = r.first_ts;
    out.push_back(r);
  }
}

struct Segment {
  Fill fill;
  std::uint32_t windows;
};

/// Where the gap sits relative to the CUSUM warm-up (4 windows).
enum class Place : std::uint8_t {
  kBeforeWarmup,   // the trace opens with the gap
  kDuringWarmup,   // after two warm-up windows
  kAfterWarmup,    // warm-up done, CUSUM statistic at 0
  kCusumPositive,  // right after a burst, CUSUM statistic well above 0
  kAlarmInGap,     // during warm-up, with a CUSUM that alarms on any window
};

std::vector<Segment> script(Place place, std::uint32_t gap) {
  switch (place) {
    case Place::kBeforeWarmup:
      return {{Fill::kEmpty, gap}, {Fill::kBenign, 6}, {Fill::kFlood, 2},
              {Fill::kBenign, 2}};
    case Place::kDuringWarmup:
    case Place::kAlarmInGap:
      return {{Fill::kBenign, 2}, {Fill::kEmpty, gap}, {Fill::kBenign, 4},
              {Fill::kFlood, 2}, {Fill::kBenign, 2}};
    case Place::kAfterWarmup:
      return {{Fill::kBenign, 6}, {Fill::kEmpty, gap}, {Fill::kFlood, 2},
              {Fill::kBenign, 2}};
    case Place::kCusumPositive:
      return {{Fill::kBenign, 5}, {Fill::kBurst, 1}, {Fill::kEmpty, gap},
              {Fill::kFlood, 2}, {Fill::kBenign, 2}};
  }
  return {};
}

StreamReport replay_gap(Place place, std::uint32_t gap) {
  std::vector<flow::FlowRecord> records;
  std::uint32_t next_src = 1;
  core::WindowIndex w = 0;
  for (const Segment& s : script(place, gap)) {
    for (std::uint32_t i = 0; i < s.windows; ++i) {
      fill_window(records, w++, s.fill, next_src);
    }
  }
  FlowAnalyzerConfig config;
  config.window = kWindow;
  // CUSUM is the only signal, so the empty windows decide when it fires.
  config.entropy_low_bits = 0.0;
  config.entropy_high_bits = 64.0;
  config.hh_share = 0.95;
  config.cusum_threshold_frac = place == Place::kAlarmInGap ? -1.0 : 40.0;
  return replay(records, config);
}

TEST(StreamReportGolden, EmptyWindowGapDigests) {
  struct Golden {
    Place place;
    std::uint64_t digests[5];  // gaps of 1, 3, 7, 50, 500 windows
  };
  const std::uint32_t gaps[5] = {1, 3, 7, 50, 500};
  const Golden goldens[] = {
      {Place::kBeforeWarmup,
       {0xace66cfd3703b140ULL, 0x2223877422ab74aeULL, 0x2386749d9b90d307ULL,
        0x937d96df9bb9fe25ULL, 0x1433fdd7cb108043ULL}},
      {Place::kDuringWarmup,
       {0xace66cfd3703b140ULL, 0x1e6fd1dc1c3dab43ULL, 0x2621e126834bffefULL,
        0xd9e62665c095d77dULL, 0xd7b6a7ab6bfadd51ULL}},
      {Place::kAfterWarmup,
       {0xc6dbec2014ae0cd8ULL, 0x5ac27439952fe8f2ULL, 0x1b9e46ffc7c7b4d6ULL,
        0x1c35716d1e85f6bcULL, 0xd393996cf33a08c2ULL}},
      {Place::kCusumPositive,
       {0xcf08b6932275cdbfULL, 0xa758bf38cea9c0aeULL, 0x2a07518bc1ccf1acULL,
        0xa16bfbf0d059acf6ULL, 0xa7feeb4712ae925eULL}},
      {Place::kAlarmInGap,
       {0x0c17aa775517909bULL, 0xcea7a4a68c6d29aaULL, 0x26792920880d2536ULL,
        0xde4d489268e34b88ULL, 0x84fa13af1b330cc6ULL}},
  };
  for (const Golden& g : goldens) {
    for (std::size_t i = 0; i < 5; ++i) {
      const StreamReport report = replay_gap(g.place, gaps[i]);
      const std::uint64_t got = masked_digest(report);
      EXPECT_EQ(got, g.digests[i])
          << "place " << int(g.place) << " gap " << gaps[i] << ": digest 0x"
          << std::hex << got;
    }
  }
}

TEST(StreamReportGolden, GapScriptsExerciseWhatTheyClaim) {
  // Guards the scripts themselves: the burst leaves CUSUM above 0, and the
  // flood after a gap raises the CUSUM alarm after the gap.
  const StreamReport positive = replay_gap(Place::kCusumPositive, 0);
  EXPECT_GT(positive.cusum_statistic, 0.0);
  const StreamReport after = replay_gap(Place::kAfterWarmup, 50);
  ASSERT_TRUE(after.cusum_alarm.has_value());
  EXPECT_GT(*after.cusum_alarm, netsim::SimTime(6 + 50) * kWindow);
  EXPECT_EQ(after.windows, 6u + 50u + 4u);
  const StreamReport in_gap = replay_gap(Place::kAlarmInGap, 50);
  ASSERT_TRUE(in_gap.cusum_alarm.has_value());
  EXPECT_EQ(*in_gap.cusum_alarm, netsim::SimTime(5) * kWindow);
  EXPECT_FALSE(in_gap.victim_identified);
}

TEST(FlowAnalyzer, FarFutureTimestampFinishesAtOnce) {
  const auto start = std::chrono::steady_clock::now();
  const FlowAnalyzerConfig config;
  FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord r;
  r.src = 1;
  r.dst = 2;
  r.packets = 1;  // too quiet to judge
  r.bytes = 64;
  analyzer.ingest(r);
  constexpr netsim::SimTime kLast = std::numeric_limits<netsim::SimTime>::max();
  r.packets = 100;
  r.first_ts = kLast;
  r.last_ts = kLast;
  analyzer.ingest(r);
  const StreamReport report = analyzer.finish();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.windows, kLast / config.window + 1);
  // The last window alarms; its end saturates instead of wrapping to 0.
  EXPECT_EQ(report.share_alarm, kLast);
  EXPECT_EQ(report.detection_time, kLast);
  EXPECT_TRUE(report.victim_identified);
  EXPECT_EQ(report.victim, 2u);
}

TEST(FlowAnalyzer, FarFutureTimestampAfterABurstFinishesAtOnce) {
  // Warm-up sees one packet, so the CUSUM mean clamps to 1 and the drift
  // is 2 per window. The burst then lifts the statistic to 2^32 - 3, which
  // one empty window at a time would take ~2.1e9 closes to drain.
  const FlowAnalyzerConfig config;
  const auto run = [&](netsim::SimTime last_ts) {
    FlowStreamAnalyzer analyzer(config);
    flow::FlowRecord r;
    r.src = 1;
    r.dst = 2;
    r.packets = 1;
    r.bytes = 64;
    analyzer.ingest(r);
    r.src = 3;
    r.packets = std::numeric_limits<std::uint32_t>::max();
    r.first_ts = r.last_ts = 4 * config.window;  // first window after warm-up
    analyzer.ingest(r);
    r.src = 4;
    r.packets = 1;
    r.first_ts = r.last_ts = last_ts;
    analyzer.ingest(r);
    return analyzer.finish();
  };
  const auto start = std::chrono::steady_clock::now();
  // 2,147,483,146 empty windows take 2 each off 2^32 - 3; the last
  // window's single packet takes 1 more.
  const StreamReport partial = run((5 + 2'147'483'146ULL) * config.window);
  EXPECT_EQ(partial.cusum_statistic, 1000.0);
  EXPECT_EQ(partial.windows, 5 + 2'147'483'146ULL + 1);
  const StreamReport drained = run(1'000'000'000'000'000'000ULL);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_EQ(drained.cusum_statistic, 0.0);
  EXPECT_EQ(drained.windows, 1'000'000'000'000'000'000ULL / config.window + 1);
  EXPECT_EQ(drained.cusum_alarm, 5 * config.window);
}

TEST(FlowAnalyzerDeathTest, RejectsANegativeCusumSlack) {
  // A negative slack would let empty windows raise the CUSUM statistic.
  FlowAnalyzerConfig config;
  config.cusum_slack_frac = -0.5;
  EXPECT_DEATH(FlowStreamAnalyzer{config}, "cusum_slack_frac must be >= 0");
  config.cusum_slack_frac = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(FlowStreamAnalyzer{config}, "cusum_slack_frac must be >= 0");
}

}  // namespace
}  // namespace ddpm::stream
