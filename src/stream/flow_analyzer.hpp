// FlowStreamAnalyzer: bounded-memory DDoS detection over flow streams,
// byte-identical for any --jobs count.
//
// The analyzer composes three bounded-memory primitives: Space-Saving
// top-K summaries (space_saving.hpp), a sliding source-entropy sketch
// (entropy_window.hpp) and a CUSUM fold (cusum.hpp). It tumbles the stream
// into fixed windows and keeps the Space-Saving summaries SHARDED by key,
// with a structural shard count that is part of the configuration — NOT
// the thread count:
//
//   * ingest (serial): each record is staged into the shard owning its
//     source key and the shard owning its destination key; the global
//     sliding-entropy sketch is fed in stream order.
//   * window close: shards are processed by core::ParallelRunner — each
//     worker touches only its own shard's summaries and staging buffers —
//     then judged and merged serially in shard order.
//
// Every detection decision happens at a window boundary from the merged
// per-shard state, so reports are bit-identical for jobs=1..N by
// construction (tests/test_determinism.cpp pins this).
//
// Detection signals (all sublinear in distinct sources):
//   * source-entropy: sliding window over hashed buckets; spoofed floods
//     saturate it toward log2(buckets), single-source floods collapse it;
//   * victim concentration: per-window destination heavy-hitter share
//     (Space-Saving lower bound) — also names the victim;
//   * CUSUM over the per-window top-destination count, baselined on the
//     first `warmup_windows` windows — catches pulsing floods.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/shard_annotations.hpp"
#include "flow/record.hpp"
#include "flow/trace_gen.hpp"
#include "stream/cusum.hpp"
#include "stream/entropy_window.hpp"
#include "stream/space_saving.hpp"

namespace ddpm::stream {

struct FlowAnalyzerConfig {
  /// Tumbling-window length in ticks.
  netsim::SimTime window = 10'000;

  /// Structural shard count. Part of the detector definition: changing it
  /// changes which hash owns which key, so reports are comparable only at
  /// equal shard counts. Independent of `jobs`.
  std::uint32_t shards = 16;

  /// Not read by the analyzer, which keeps no count-min sketch. Kept
  /// declared because the benchmark harness (perfbench/) sets and reports
  /// them; they go when that harness changes.
  std::uint32_t cms_width = 2048;
  std::uint32_t cms_depth = 4;

  /// Per-shard Space-Saving capacity (cumulative and per-window).
  std::uint32_t topk = 64;

  /// Global sliding source-entropy window/buckets (rounded to pow2).
  std::uint32_t entropy_window = 4096;
  std::uint32_t entropy_buckets = 4096;
  double entropy_low_bits = 0.5;
  double entropy_high_bits = 11.0;

  /// Windows quieter than this are never judged (entropy/share alarms).
  std::uint64_t min_window_arrivals = 64;

  /// Victim-concentration alarm: provable top-destination share of the
  /// window's arrivals.
  double hh_share = 0.4;

  /// CUSUM baseline calibration: mean top-destination count over the
  /// first `warmup_windows` windows; slack/threshold scale off that mean.
  /// The slack must not be negative (the constructor checks).
  std::uint32_t warmup_windows = 4;
  double cusum_slack_frac = 1.0;
  double cusum_threshold_frac = 8.0;

  std::uint64_t seed = 0x5eed'f10eULL;

  /// Worker threads for window close. Any value yields the same bytes.
  std::size_t jobs = 1;
};

struct TopEntry {
  std::uint32_t key = 0;
  std::uint64_t count = 0;  // packets (Space-Saving upper bound)
  std::uint64_t error = 0;  // max overcount of `count`
};

struct StreamReport {
  std::uint64_t records = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t windows = 0;

  /// Earliest alarm across the three signals, in ticks (window-end
  /// timestamps). Subtract the attack start to get detection latency.
  std::optional<netsim::SimTime> detection_time;
  std::optional<netsim::SimTime> entropy_alarm;
  std::optional<netsim::SimTime> share_alarm;
  std::optional<netsim::SimTime> cusum_alarm;

  /// Destination named at the first alarmed window (top destination of
  /// that window), plus its provable share of the window's packets.
  bool victim_identified = false;
  std::uint32_t victim = 0;
  double victim_share = 0.0;

  double last_entropy_bits = 0.0;
  double cusum_statistic = 0.0;

  /// Persistent sketch state (the 4 MiB budget) and the peak transient
  /// ingest-staging footprint, reported separately on purpose.
  std::size_t memory_bytes = 0;
  std::size_t peak_buffer_bytes = 0;

  /// Cumulative heavy hitters by packets (Space-Saving estimates).
  std::vector<TopEntry> top_sources;
  std::vector<TopEntry> top_dests;

  /// Deterministic single-line-per-field JSON; excludes `jobs` so runs at
  /// different parallelism compare byte-for-byte.
  std::string to_json() const;
};

class FlowStreamAnalyzer {
 public:
  explicit FlowStreamAnalyzer(FlowAnalyzerConfig config);

  /// Feeds one record. Records are windowed by first_ts; a record older
  /// than the open window is folded into the open window (late arrival).
  /// `record.packets` must be >= 1 (checked, fatal).
  void ingest(const flow::FlowRecord& record);

  /// Flushes the open window and returns the final report. Call once.
  /// DDPM_DET_SINK: the report is the byte-identity artifact the
  /// determinism suite pins; every cross-shard read on its path must go
  /// through a DDPM_SHARD_MERGE function.
  DDPM_DET_SINK StreamReport finish();

  /// Persistent sketch footprint (excludes transient ingest buffers).
  /// DDPM_SHARD_MERGE: folds per-shard footprints in shard order.
  DDPM_SHARD_MERGE std::size_t memory_bytes() const noexcept;

  const FlowAnalyzerConfig& config() const noexcept { return config_; }

 private:
  struct Staged {
    std::uint32_t key = 0;
    std::uint32_t weight = 0;  // packets
  };

  /// Per-shard sketch state; only the owning shard's close-window worker
  /// ever touches it.
  struct Shard {
    Shard(const FlowAnalyzerConfig& config, std::uint64_t seed);

    SpaceSavingTopK src_top;       // cumulative
    SpaceSavingTopK dst_top;       // cumulative
    SpaceSavingTopK win_dst_top;   // cleared every window

    std::size_t memory_bytes() const noexcept;
  };

  std::uint32_t shard_of(std::uint32_t key) const noexcept;
  /// Makes `w` the open window. Closes the open window, the empty warm-up
  /// windows and one more; later empty windows only fold 0 into CUSUM.
  void advance_to(core::WindowIndex w);
  /// DDPM_SHARD_MERGE: drains the staging buffers into the shard
  /// sketches (fanned, disjoint per index) and then judges/merges the
  /// window serially in shard order.
  DDPM_SHARD_MERGE void close_window();
  void judge_window(std::uint64_t arrivals);
  /// DDPM_SHARD_MERGE: folds the per-shard top-k summaries in shard
  /// order with a total tie-break, so the result is order-stable.
  DDPM_SHARD_MERGE std::vector<TopEntry> merged_top(bool sources,
                                                    std::size_t k) const;

  FlowAnalyzerConfig config_;
  /// DDPM_SHARD_STATE: per-shard sketches — owned by this class, crossed
  /// only through the DDPM_SHARD_MERGE members above.
  DDPM_SHARD_STATE std::vector<Shard> shards_;
  SlidingEntropySketch entropy_;
  std::optional<RateCusum> cusum_;      // armed after warm-up
  double warmup_sum_ = 0.0;
  core::WindowIndex open_window_ = 0;   // ordinal of the open window
  std::uint64_t win_arrivals_ = 0;      // packets staged in the open window
  /// DDPM_SHARD_STATE: per-shard ingest staging (drained at window close).
  DDPM_SHARD_STATE std::vector<std::vector<Staged>> src_buf_;
  DDPM_SHARD_STATE std::vector<std::vector<Staged>> dst_buf_;
  StreamReport report_;
  bool finished_ = false;
};

/// Streams a generator (or a materialized trace) through an analyzer.
StreamReport replay(flow::TraceGenerator& gen, const FlowAnalyzerConfig& config);
StreamReport replay(const std::vector<flow::FlowRecord>& records,
                    const FlowAnalyzerConfig& config);

}  // namespace ddpm::stream
