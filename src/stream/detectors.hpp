// Windowed detect::Detector implementations + the detector factory.
//
// These adapters put the bounded-memory primitives (space_saving.hpp,
// entropy_window.hpp, cusum.hpp) behind the victim-side Detector
// interface so any SIS scenario can select them by name. Every one holds
// O(sketch) state regardless of how many distinct sources the attacker
// spoofs — the property that matters at million-source scale (see
// docs/STREAMING.md for the bounds).
//
// The virtual observe() wrappers are intentionally NOT DDPM_HOT — the hot
// annotations live on the inner sketch primitives they call, which the
// analyzer audits via the call closure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "detect/detector.hpp"
#include "stream/cusum.hpp"
#include "stream/entropy_window.hpp"
#include "stream/space_saving.hpp"

namespace ddpm::stream {

/// Shared knobs for every detector the factory builds. Defaults suit the
/// scenario-matrix clusters; the flow analyzer carries its own config
/// (flow_analyzer.hpp).
struct SketchDetectorTuning {
  // entropy / sketch-entropy: window of claimed sources over hashed
  // buckets; alarm when the windowed entropy leaves [low, high] bits.
  std::uint32_t entropy_window = 4096;
  std::uint32_t entropy_buckets = 2048;
  double entropy_low_bits = 1.0;
  double entropy_high_bits = 10.0;

  // heavy-hitter: alarm when one claimed source PROVABLY owns more than
  // `hh_share` of the stream (Space-Saving lower bound), after at least
  // `hh_min_total` observations.
  std::uint32_t hh_capacity = 64;
  double hh_share = 0.5;
  std::uint64_t hh_min_total = 512;

  // cusum folds per-window arrival counts into a CUSUM, sketch-cusum
  // per-window top-source counts.
  netsim::SimTime cusum_window = 10'000;
  double cusum_mean = 8.0;
  double cusum_slack = 4.0;
  double cusum_threshold = 64.0;

  // syn-half-open passthrough (factory convenience).
  std::size_t syn_max_half_open = 64;
  netsim::SimTime syn_timeout = 20'000;

  std::uint64_t seed = 0x5eed'0000'0001ULL;
};

/// Alarms when the claimed-source entropy over the last `entropy_window`
/// packets leaves [low, high] bits, once the window has filled. The window
/// lives in a fixed ring + hashed buckets instead of a per-source map, so
/// memory is independent of distinct-source count.
class SketchEntropyDetector final : public detect::Detector {
 public:
  explicit SketchEntropyDetector(const SketchDetectorTuning& tuning);

  std::string name() const override { return "sketch-entropy"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;
  std::size_t memory_bytes() const noexcept override;

  double current_entropy() const noexcept { return sketch_.entropy_bits(); }

 private:
  double low_, high_;
  SlidingEntropySketch sketch_;
};

/// Alarms when a single claimed source provably dominates the inbound
/// stream — the non-spoofed volumetric flood signature. Uses the
/// Space-Saving LOWER bound (count - error), so an alarm is never a
/// sketch artifact.
class HeavyHitterDetector final : public detect::Detector {
 public:
  explicit HeavyHitterDetector(const SketchDetectorTuning& tuning);

  std::string name() const override { return "heavy-hitter"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;
  std::size_t memory_bytes() const noexcept override;

  /// The dominating source at alarm time (or the current leader).
  SpaceSavingTopK::Item top_source() const noexcept { return summary_.top1(); }

 private:
  double share_;
  std::uint64_t min_total_;
  SpaceSavingTopK summary_;
};

/// CUSUM change-point detector over fixed arrival-count windows.
///
/// The classic answer to pulsing (shrew) floods that evade EWMA smoothing
/// (ablation A7b): the statistic S = max(0, S + count - mean - slack)
/// RATCHETS across bursts instead of decaying between them, so a 10%-duty
/// pulse train that never lifts the EWMA above threshold still drives S
/// over h after a few periods. The open window alarms early once its own
/// count already proves the crossing.
class CusumDetector final : public detect::Detector {
 public:
  /// `window` ticks per bucket; `benign_mean` the expected benign arrivals
  /// per bucket; `slack` the per-bucket drift allowance (k); `threshold`
  /// the alarm level (h), in arrival units.
  CusumDetector(netsim::SimTime window, double benign_mean, double slack,
                double threshold)
      : window_(window), cusum_(benign_mean, slack, threshold) {}

  std::string name() const override { return "cusum"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  double statistic() const noexcept { return cusum_.statistic(); }

 private:
  /// Folds completed windows up to `now` into the statistic.
  void advance(netsim::SimTime now);

  netsim::SimTime window_;
  std::uint64_t bucket_ = 0;     // index of the open window
  std::uint64_t in_bucket_ = 0;  // arrivals in the open window
  RateCusum cusum_;
};

/// CUSUM over per-window top-source counts: catches pulsing floods whose
/// bursts duck under rate thresholds but whose busiest source ratchets
/// the statistic across windows.
class SketchCusumDetector final : public detect::Detector {
 public:
  explicit SketchCusumDetector(const SketchDetectorTuning& tuning);

  std::string name() const override { return "sketch-cusum"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;
  std::size_t memory_bytes() const noexcept override;

  double statistic() const noexcept { return cusum_.statistic(); }

 private:
  /// Folds completed windows up to `now` into the statistic.
  void advance(netsim::SimTime now);

  netsim::SimTime window_;
  std::uint64_t bucket_ = 0;  // index of the open window
  RateCusum cusum_;
  SpaceSavingTopK summary_;  // cleared at every window boundary
};

/// Builds a victim-side detector by name:
///   "rate-threshold"  detect::RateThresholdDetector(rate_threshold, half_life)
///   "entropy"         SketchEntropyDetector (same as "sketch-entropy")
///   "cusum"           CusumDetector
///   "syn-half-open"   detect::SynHalfOpenDetector
///   "sketch-entropy"  SketchEntropyDetector
///   "heavy-hitter"    HeavyHitterDetector
///   "sketch-cusum"    SketchCusumDetector
/// Throws std::invalid_argument for anything else.
std::unique_ptr<detect::Detector> make_detector(
    const std::string& name, double rate_threshold, double half_life,
    const SketchDetectorTuning& tuning = {});

}  // namespace ddpm::stream
