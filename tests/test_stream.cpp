#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/rng.hpp"
#include "packet/packet.hpp"
#include "stream/cusum.hpp"
#include "stream/detectors.hpp"
#include "stream/entropy_window.hpp"
#include "stream/flow_analyzer.hpp"
#include "stream/sketch.hpp"
#include "stream/space_saving.hpp"
#include "space_saving_reference.hpp"

namespace ddpm::stream {
namespace {

constexpr std::size_t kMemoryBudget = 4u << 20;  // 4 MiB

/// A skewed synthetic stream over ~100k distinct keys: rank sampled with
/// a heavy bias so a handful of keys dominate (the regime sketches are
/// built for).
std::vector<std::uint32_t> skewed_stream(std::size_t n, std::uint32_t keys,
                                         std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Squaring a uniform variate biases toward low ranks ~ p(r) ∝ 1/sqrt(r).
    const double u = rng.next_double();
    out.push_back(std::uint32_t(u * u * double(keys)));
  }
  return out;
}

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch cms(2048, 4, 99);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(200'000, 100'000, 1)) {
    cms.update(key);
    ++exact[key];
  }
  EXPECT_EQ(cms.items(), 200'000u);
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cms.estimate(key), count);
  }
}

TEST(CountMin, EpsilonDeltaBoundHolds) {
  CountMinSketch cms(2048, 4, 123);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(200'000, 100'000, 2)) {
    cms.update(key);
    ++exact[key];
  }
  const double bound = cms.epsilon() * double(cms.items());
  std::size_t violations = 0;
  for (const auto& [key, count] : exact) {
    if (double(cms.estimate(key)) > double(count) + bound) ++violations;
  }
  // P(violation) <= delta per key; with conservative update the observed
  // rate is far lower. Allow 2x delta for statistical slack.
  const double max_violations = 2.0 * cms.delta() * double(exact.size());
  EXPECT_LE(double(violations), std::max(max_violations, 4.0));
}

TEST(CountMin, ConservativeDominatesPlain) {
  CountMinSketch conservative(512, 4, 7, true);
  CountMinSketch plain(512, 4, 7, false);
  const std::vector<std::uint32_t> stream = skewed_stream(50'000, 20'000, 3);
  for (std::uint32_t key : stream) {
    conservative.update(key);
    plain.update(key);
  }
  // Same hash seeds, so pointwise: conservative estimate <= plain estimate.
  for (std::uint32_t key = 0; key < 20'000; ++key) {
    EXPECT_LE(conservative.estimate(key), plain.estimate(key));
  }
}

TEST(CountMin, UpdateReturnsPostEstimateAndClearResets) {
  CountMinSketch cms(64, 4, 5);
  EXPECT_EQ(cms.update(42), 1u);
  EXPECT_EQ(cms.update(42, 9), 10u);
  EXPECT_GE(cms.estimate(42), 10u);
  cms.clear();
  EXPECT_EQ(cms.estimate(42), 0u);
  EXPECT_EQ(cms.items(), 0u);
}

TEST(CountMin, MemoryIsGeometryNotStream) {
  CountMinSketch cms(2048, 4, 1);
  const std::size_t before = cms.memory_bytes();
  for (std::uint32_t key = 0; key < 500'000; ++key) cms.update(key);
  EXPECT_EQ(cms.memory_bytes(), before);
  EXPECT_LE(cms.memory_bytes(), kMemoryBudget);
}

TEST(SpaceSaving, CountBracketsTruth) {
  SpaceSavingTopK summary(64, 17);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(100'000, 50'000, 4)) {
    summary.offer(key);
    ++exact[key];
  }
  EXPECT_EQ(summary.total(), 100'000u);
  for (const auto& item : summary.top(64)) {
    const std::uint64_t truth = exact[item.key];
    EXPECT_LE(truth, item.count);                // never undercounts
    EXPECT_GE(truth + item.error, item.count);   // overcount bounded by error
  }
}

/// Half the stream concentrates on 16 hot keys, the rest spreads over
/// `keys` cold ones — every hot key's count is well above N/capacity, so
/// the Space-Saving guarantees bite (the plain skewed_stream is too flat
/// for a capacity-64 summary over 100k keys).
std::vector<std::uint32_t> hot_cold_stream(std::size_t n, std::uint32_t keys,
                                           std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_bool(0.5)) {
      out.push_back(std::uint32_t(rng.next_below(16)));
    } else {
      out.push_back(16 + std::uint32_t(rng.next_below(keys)));
    }
  }
  return out;
}

TEST(SpaceSaving, GuaranteedHeavyHittersAreMonitored) {
  SpaceSavingTopK summary(64, 18);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : hot_cold_stream(100'000, 50'000, 5)) {
    summary.offer(key);
    ++exact[key];
  }
  // Classic guarantee: any key with true count > N/capacity is monitored.
  const std::uint64_t threshold = summary.total() / summary.capacity();
  std::size_t heavy = 0;
  for (const auto& [key, count] : exact) {
    if (count > threshold) {
      ++heavy;
      EXPECT_GT(summary.estimate(key), 0u) << "missing heavy key " << key;
    }
  }
  EXPECT_GE(heavy, 16u);  // the guarantee was actually exercised
}

TEST(SpaceSaving, TopKRecallOnSkewedStream) {
  SpaceSavingTopK summary(64, 19);
  std::map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : hot_cold_stream(200'000, 100'000, 6)) {
    summary.offer(key);
    ++exact[key];
  }
  // True top-8 by count (key-ascending tiebreak, same as the summary).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [key, count] : exact) ranked.push_back({count, key});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const auto top = summary.top(16);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (const auto& item : top) {
      if (item.key == ranked[i].second) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 7u);  // >= 7/8 of the true top-8 inside the reported top-16
}

TEST(SpaceSaving, EvictionTracksNewHeavyKey) {
  SpaceSavingTopK summary(4, 20);
  for (int i = 0; i < 100; ++i) {
    summary.offer(1);
    summary.offer(2);
    summary.offer(3);
    summary.offer(4);
  }
  // A fresh key hammered after the summary is full must displace someone
  // and surface at the top.
  for (int i = 0; i < 1000; ++i) summary.offer(99);
  const auto top = summary.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 99u);
  EXPECT_GE(top[0].count, 1000u);
  EXPECT_LE(top[0].count - top[0].error, 1000u + 100u);
  EXPECT_EQ(summary.top1().key, 99u);
}

TEST(SpaceSaving, ClearEmptiesSummary) {
  SpaceSavingTopK summary(8, 21);
  for (std::uint32_t k = 0; k < 100; ++k) summary.offer(k);
  summary.clear();
  EXPECT_EQ(summary.size(), 0u);
  EXPECT_EQ(summary.total(), 0u);
  EXPECT_EQ(summary.estimate(5), 0u);
  summary.offer(7, 3);
  EXPECT_EQ(summary.estimate(7), 3u);
}

// --- Differential oracle: SpaceSavingTopK against the reference heap --------

enum class SsStream : std::uint8_t {
  kSkewed,
  kFlat,
  kAllTie,
  kWeighted,
  kLongRun,
};

struct Offer {
  std::uint32_t key;
  std::uint64_t weight;
};

/// `n` offers of one shape, sized for a summary of `capacity` slots.
std::vector<Offer> ss_stream(SsStream kind, std::size_t n,
                             std::uint32_t capacity, std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<Offer> out;
  out.reserve(n);
  while (out.size() < n) {
    const double u = rng.next_double();
    switch (kind) {
      case SsStream::kSkewed:
        out.push_back({std::uint32_t(u * u * 8.0 * capacity), 1});
        break;
      case SsStream::kFlat:
        out.push_back({std::uint32_t(rng.next_below(4 * capacity + 1)), 1});
        break;
      case SsStream::kAllTie:
        // Round robin over a few more keys than slots: every count ties,
        // and every offer past the first round evicts.
        out.push_back({std::uint32_t(out.size() % (capacity + 3)), 1});
        break;
      case SsStream::kWeighted: {
        const std::uint64_t w =
            rng.next_bool(0.02) ? (1ULL << 40) : 1 + rng.next_below(1000);
        out.push_back({std::uint32_t(u * u * 3.0 * capacity), w});
        break;
      }
      case SsStream::kLongRun: {
        // Runs of one key, as a flood stages them: most runs are the hot
        // key, the rest fresh keys that evict.
        const auto key =
            rng.next_bool(0.5) ? 7u : std::uint32_t(rng.next_u64());
        const std::uint64_t run = 1 + rng.next_below(40);
        for (std::uint64_t i = 0; i < run && out.size() < n; ++i) {
          out.push_back({key, 1 + rng.next_below(4)});
        }
        break;
      }
    }
  }
  return out;
}

void expect_same_summary(const reference::SpaceSavingTopK& want,
                         const SpaceSavingTopK& got, std::uint32_t key,
                         const std::string& where) {
  const std::vector<SpaceSavingTopK::Item> a = want.top(got.capacity());
  const std::vector<SpaceSavingTopK::Item> b = got.top(got.capacity());
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << where << " rank " << i;
    ASSERT_EQ(a[i].count, b[i].count) << where << " rank " << i;
    ASSERT_EQ(a[i].error, b[i].error) << where << " rank " << i;
  }
  ASSERT_EQ(want.min_count(), got.min_count()) << where;
  ASSERT_EQ(want.total(), got.total()) << where;
  ASSERT_EQ(want.estimate(key), got.estimate(key)) << where;
  ASSERT_EQ(want.estimate(key + 1), got.estimate(key + 1)) << where;
}

constexpr SsStream kSsStreams[] = {SsStream::kSkewed, SsStream::kFlat,
                                   SsStream::kAllTie, SsStream::kWeighted,
                                   SsStream::kLongRun};

TEST(SpaceSavingOracle, EveryOfferMatchesTheReferenceHeap) {
  for (const SsStream kind : kSsStreams) {
    for (std::uint32_t capacity = 1; capacity <= 70; ++capacity) {
      reference::SpaceSavingTopK want(capacity);
      SpaceSavingTopK got(capacity, 0xfeedULL + capacity);
      const std::vector<Offer> stream =
          ss_stream(kind, 600, capacity, 31 * capacity + std::uint64_t(kind));
      for (std::size_t i = 0; i < stream.size(); ++i) {
        want.offer(stream[i].key, stream[i].weight);
        got.offer(stream[i].key, stream[i].weight);
        ASSERT_NO_FATAL_FAILURE(expect_same_summary(
            want, got, stream[i].key,
            "stream " + std::to_string(int(kind)) + " cap " +
                std::to_string(capacity) + " offer " + std::to_string(i)));
      }
    }
  }
}

TEST(SpaceSavingOracle, OfferRunsMatchesOneOfferPerEntry) {
  // offer_runs applies a run of one key as two offers; the summary must
  // equal the reference fed one entry at a time. Chunks stand in for the
  // flow analyzer's per-window staging buffers, so runs also break at a
  // chunk's end.
  for (const SsStream kind : kSsStreams) {
    for (std::uint32_t capacity = 1; capacity <= 70; ++capacity) {
      reference::SpaceSavingTopK want(capacity);
      SpaceSavingTopK got(capacity, 0xbeefULL + capacity);
      const std::vector<Offer> stream =
          ss_stream(kind, 2000, capacity, 77 * capacity + std::uint64_t(kind));
      for (std::size_t begin = 0; begin < stream.size(); begin += 64) {
        const std::size_t end = std::min(begin + 64, stream.size());
        const std::vector<Offer> chunk(stream.begin() + std::ptrdiff_t(begin),
                                       stream.begin() + std::ptrdiff_t(end));
        for (const Offer& o : chunk) want.offer(o.key, o.weight);
        offer_runs(got, chunk);
        ASSERT_NO_FATAL_FAILURE(expect_same_summary(
            want, got, chunk.back().key,
            "stream " + std::to_string(int(kind)) + " cap " +
                std::to_string(capacity) + " chunk at " +
                std::to_string(begin)));
      }
    }
  }
}

TEST(EntropySketch, MatchesExactEntropyOnSmallAlphabet) {
  // 8 equiprobable keys into 4096 buckets: collisions are negligible, so
  // the sketch entropy must sit at ~3 bits once the window fills.
  SlidingEntropySketch sketch(1024, 4096, 31);
  for (std::uint32_t i = 0; i < 4096; ++i) sketch.observe_key(i & 7);
  EXPECT_TRUE(sketch.full());
  EXPECT_NEAR(sketch.entropy_bits(), 3.0, 0.01);
}

TEST(EntropySketch, SlidesWithTheWindow) {
  SlidingEntropySketch sketch(1024, 4096, 32);
  // Fill with high diversity, then flood a single key: the window must
  // forget the diverse prefix and collapse toward 0 bits.
  for (std::uint32_t i = 0; i < 2048; ++i) sketch.observe_key(i);
  const double diverse = sketch.entropy_bits();
  EXPECT_GT(diverse, 9.0);
  for (std::uint32_t i = 0; i < 2048; ++i) sketch.observe_key(0xdead);
  EXPECT_NEAR(sketch.entropy_bits(), 0.0, 1e-9);
}

TEST(EntropySketch, SpoofedFloodSaturates) {
  SlidingEntropySketch sketch(4096, 4096, 33);
  for (std::uint32_t i = 0; i < 8192; ++i) sketch.observe_key(i * 2654435761u);
  // All-distinct keys: entropy approaches log2(window) minus collision
  // loss (~0.8 bits for load factor 1).
  EXPECT_GT(sketch.entropy_bits(), 10.5);
  EXPECT_LE(sketch.entropy_bits(), 12.0);
}

TEST(EntropySketch, ClearResets) {
  SlidingEntropySketch sketch(64, 64, 34);
  for (std::uint32_t i = 0; i < 100; ++i) sketch.observe_key(i);
  sketch.clear();
  EXPECT_FALSE(sketch.full());
  EXPECT_EQ(sketch.entropy_bits(), 0.0);
}

TEST(RateCusum, RatchetsAcrossBursts) {
  RateCusum cusum(10.0, 5.0, 100.0);
  // Benign windows hover at the mean: statistic stays pinned at 0.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(cusum.fold(10.0));
  EXPECT_EQ(cusum.statistic(), 0.0);
  // 40-per-window bursts with quiet gaps: each burst adds 25, each gap
  // subtracts 15 — the ratchet still climbs to the threshold.
  bool alarmed = false;
  for (int i = 0; i < 40 && !alarmed; ++i) {
    alarmed = cusum.fold(i % 2 == 0 ? 40.0 : 0.0);
  }
  EXPECT_TRUE(alarmed);
}

TEST(RateCusum, FoldZerosMatchesRepeatedFolds) {
  // Drifts (mean + slack) with a rounding tie in some binade: 3 + 2^-33 is
  // a tie at the ulp of [2^20, 2^21), 1.5 at the ulp of [2^52, 2^53). The
  // tiny drift rounds away near 2^30, a fixed point.
  const double tie20 = 3.0 + std::ldexp(1.0, -33);
  const struct {
    double mean, slack;
  } drifts[] = {{1.0, 0.0}, {1.0, 1.0}, {1.0, 0.5}, {0.1, 0.2},
                {3.0, std::ldexp(1.0, -33)}, {7.3, 7.3},
                {std::ldexp(1.0, -31), 0.0}, {1e6, 1e6}};
  const double starts[] = {0.5, 1.0, 2.0, 12345.678,
                           std::ldexp(1.0, 20) + 1.0, std::ldexp(1.0, 20) * 1.7,
                           std::ldexp(1.0, 21) + tie20, std::ldexp(1.0, 30),
                           4.0e6, std::ldexp(1.0, 52) + 3.0};
  const std::uint64_t counts[] = {0, 1, 2, 3, 7, 100, 1000, 123457, 1'000'000};
  for (const auto& d : drifts) {
    // A last fold of a small value sets the low bits of s; the two values
    // differ by the ulp of [2^20, 2^21), so a tie there first meets both an
    // odd and an even multiple. (Folds of 0 alone only leave even ones.)
    for (const double start : starts) for (const double last :
         {0.3, 0.3 + std::ldexp(1.0, -32)}) {
      RateCusum base(d.mean, d.slack, 0.0);
      base.fold(start + d.mean + d.slack);  // s near start
      base.fold(last);
      RateCusum reference = base;
      std::uint64_t done = 0;
      for (const std::uint64_t n : counts) {
        for (; done < n; ++done) reference.fold(0.0);
        RateCusum fast = base;
        fast.fold_zeros(n);
        EXPECT_EQ(fast.statistic(), reference.statistic())
            << "mean " << d.mean << " slack " << d.slack << " start "
            << base.statistic() << " n " << n;
      }
    }
  }
  // A long drain, exact in integers: 2^32 - 3 down by 2 per window.
  RateCusum drain(1.0, 1.0, 8.0);
  drain.fold(4294967295.0);
  drain.fold_zeros(2'147'483'146);
  EXPECT_EQ(drain.statistic(), 1001.0);
  drain.fold_zeros(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(drain.statistic(), 0.0);
}

pkt::Packet make_packet(std::uint32_t src) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src, 42, pkt::IpProto::kUdp, 64);
  return p;
}

TEST(SketchDetectors, EntropyDetectorAlarmsOnSpoofedFlood) {
  SketchDetectorTuning tuning;
  tuning.entropy_window = 1024;
  tuning.entropy_buckets = 2048;
  tuning.entropy_low_bits = 0.5;
  tuning.entropy_high_bits = 8.0;
  SketchEntropyDetector detector(tuning);
  netsim::SimTime t = 0;
  // Benign: 64 distinct sources -> ~6 bits, inside the band.
  for (int i = 0; i < 4096; ++i) detector.observe(make_packet(i % 64), ++t);
  EXPECT_FALSE(detector.alarmed()) << detector.current_entropy();
  // Spoofed flood: every packet a fresh source -> entropy > 8 bits.
  for (std::uint32_t i = 0; i < 4096; ++i) {
    detector.observe(make_packet(0x10000 + i), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
  EXPECT_LE(detector.memory_bytes(), kMemoryBudget);
  detector.reset();
  EXPECT_FALSE(detector.alarmed());
}

TEST(SketchDetectors, HeavyHitterAlarmsOnDominatingSource) {
  SketchDetectorTuning tuning;
  tuning.hh_min_total = 256;
  tuning.hh_share = 0.5;
  HeavyHitterDetector detector(tuning);
  netsim::SimTime t = 0;
  for (int round = 0; round < 64; ++round) {
    for (std::uint32_t s = 0; s < 16; ++s) detector.observe(make_packet(s), ++t);
  }
  EXPECT_FALSE(detector.alarmed());  // uniform: max share 1/16
  for (int i = 0; i < 4096; ++i) detector.observe(make_packet(7), ++t);
  EXPECT_TRUE(detector.alarmed());
  EXPECT_EQ(detector.top_source().key, 7u);
}

TEST(SketchDetectors, SketchCusumCatchesPulsingSource) {
  SketchDetectorTuning tuning;
  tuning.cusum_window = 1000;
  tuning.cusum_mean = 10.0;
  tuning.cusum_slack = 5.0;
  tuning.cusum_threshold = 200.0;
  SketchCusumDetector detector(tuning);
  netsim::SimTime t = 0;
  // Benign: ~10 packets per window from rotating sources.
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < 10; ++i) detector.observe(make_packet(i), t + 100u * i);
    t += 1000;
  }
  EXPECT_FALSE(detector.alarmed());
  // Pulse: every other window one source fires 100 packets.
  for (int w = 0; w < 20 && !detector.alarmed(); ++w) {
    if (w % 2 == 0) {
      for (int i = 0; i < 100; ++i) detector.observe(make_packet(666), t + i);
    } else {
      detector.observe(make_packet(1), t + 1);
    }
    t += 1000;
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(SketchDetectors, FactoryBuildsEveryName) {
  for (const char* name :
       {"rate-threshold", "entropy", "cusum", "syn-half-open",
        "sketch-entropy", "heavy-hitter", "sketch-cusum"}) {
    const auto detector = make_detector(name, 0.02, 2000, {});
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_FALSE(detector->alarmed());
    EXPECT_LE(detector->memory_bytes(), kMemoryBudget);
  }
  EXPECT_THROW(make_detector("nope", 0.02, 2000, {}), std::invalid_argument);
}

TEST(FlowAnalyzer, QuietOnBenignTraffic) {
  flow::TraceGenConfig gen;
  gen.seed = 9;
  gen.attack = flow::AttackShape::kNone;
  gen.duration = 400'000;
  flow::TraceGenerator source(gen);
  const StreamReport report = replay(source, FlowAnalyzerConfig{});
  EXPECT_FALSE(report.detection_time.has_value());
  EXPECT_FALSE(report.victim_identified);
  EXPECT_GT(report.records, 1000u);
}

TEST(FlowAnalyzer, DetectsFloodAndNamesVictim) {
  flow::TraceGenConfig gen;
  gen.seed = 10;
  gen.attack = flow::AttackShape::kFlood;
  gen.attack_sources = 50'000;
  gen.attack_start = 100'000;
  gen.attack_duration = 200'000;
  gen.duration = 400'000;
  flow::TraceGenerator source(gen);
  FlowAnalyzerConfig config;
  const StreamReport report = replay(source, config);
  ASSERT_TRUE(report.detection_time.has_value());
  // Detection within two windows of the attack starting.
  EXPECT_GE(*report.detection_time, gen.attack_start);
  EXPECT_LE(*report.detection_time, gen.attack_start + 2 * config.window);
  EXPECT_TRUE(report.victim_identified);
  EXPECT_EQ(report.victim, gen.victim);
  EXPECT_LE(report.memory_bytes, kMemoryBudget);
  // The victim tops the cumulative destination heavy hitters.
  ASSERT_FALSE(report.top_dests.empty());
  EXPECT_EQ(report.top_dests[0].key, gen.victim);
}

TEST(FlowAnalyzer, MemoryIndependentOfSourceCount) {
  FlowAnalyzerConfig config;
  const std::size_t expected = FlowStreamAnalyzer(config).memory_bytes();
  for (std::uint32_t sources : {10'000u, 100'000u}) {
    flow::TraceGenConfig gen;
    gen.attack_sources = sources;
    gen.duration = 200'000;
    gen.attack_start = 50'000;
    gen.attack_duration = 100'000;
    flow::TraceGenerator source(gen);
    const StreamReport report = replay(source, config);
    EXPECT_EQ(report.memory_bytes, expected) << sources;
  }
}

TEST(FlowAnalyzer, LateRecordsFoldIntoOpenWindow) {
  FlowAnalyzerConfig config;
  config.window = 1000;
  FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord r;
  r.src = 1;
  r.dst = 2;
  r.packets = 1;
  r.bytes = 100;
  r.first_ts = 5'500;
  r.last_ts = 5'500;
  analyzer.ingest(r);
  r.first_ts = 200;  // straggler from an earlier window
  analyzer.ingest(r);
  const StreamReport report = analyzer.finish();
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.windows, 6u);  // windows 0..5 closed
}

TEST(StreamReportJson, IsWellFormedAndStable) {
  flow::TraceGenConfig gen;
  gen.duration = 100'000;
  gen.attack_start = 20'000;
  gen.attack_duration = 50'000;
  flow::TraceGenerator source(gen);
  const StreamReport report = replay(source, FlowAnalyzerConfig{});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("\"detection_time\""), std::string::npos);
  EXPECT_NE(json.find("\"top_dests\""), std::string::npos);
  // No "jobs" field: reports at different parallelism compare bytewise.
  EXPECT_EQ(json.find("jobs"), std::string::npos);
}

}  // namespace
}  // namespace ddpm::stream
