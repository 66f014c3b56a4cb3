#include "stream/detectors.hpp"

#include <stdexcept>

namespace ddpm::stream {

SketchEntropyDetector::SketchEntropyDetector(const SketchDetectorTuning& tuning)
    : low_(tuning.entropy_low_bits),
      high_(tuning.entropy_high_bits),
      sketch_(tuning.entropy_window, tuning.entropy_buckets, tuning.seed) {}

void SketchEntropyDetector::observe(const pkt::Packet& packet,
                                    netsim::SimTime now) {
  sketch_.observe_key(packet.header.source());
  if (!sketch_.full()) return;
  const double h = sketch_.entropy_bits();
  if (h < low_ || h > high_) latch(now);
}

void SketchEntropyDetector::reset() {
  alarm_time_.reset();
  sketch_.clear();
}

std::size_t SketchEntropyDetector::memory_bytes() const noexcept {
  return sketch_.memory_bytes();
}

HeavyHitterDetector::HeavyHitterDetector(const SketchDetectorTuning& tuning)
    : share_(tuning.hh_share),
      min_total_(tuning.hh_min_total),
      summary_(tuning.hh_capacity, tuning.seed) {}

void HeavyHitterDetector::observe(const pkt::Packet& packet,
                                  netsim::SimTime now) {
  summary_.offer(packet.header.source());
  if (summary_.total() < min_total_) return;
  const SpaceSavingTopK::Item leader = summary_.top1();
  // count - error is a LOWER bound on the leader's true count, so this
  // comparison can only under-fire, never alarm on sketch error.
  const double floor = double(leader.count - leader.error);
  if (floor > share_ * double(summary_.total())) latch(now);
}

void HeavyHitterDetector::reset() {
  alarm_time_.reset();
  summary_.clear();
}

std::size_t HeavyHitterDetector::memory_bytes() const noexcept {
  return summary_.memory_bytes();
}

void CusumDetector::advance(netsim::SimTime now) {
  const std::uint64_t current = now / window_;
  while (bucket_ < current) {
    // Close the open window, fold it, and account the empty ones between.
    if (cusum_.fold(double(in_bucket_))) latch((bucket_ + 1) * window_);
    in_bucket_ = 0;
    ++bucket_;
  }
}

void CusumDetector::observe(const pkt::Packet&, netsim::SimTime now) {
  advance(now);
  ++in_bucket_;
  if (cusum_.would_cross(double(in_bucket_))) latch(now);
}

void CusumDetector::reset() {
  alarm_time_.reset();
  cusum_.clear();
  bucket_ = 0;
  in_bucket_ = 0;
}

SketchCusumDetector::SketchCusumDetector(const SketchDetectorTuning& tuning)
    : window_(tuning.cusum_window),
      cusum_(tuning.cusum_mean, tuning.cusum_slack, tuning.cusum_threshold),
      summary_(tuning.hh_capacity, tuning.seed) {}

void SketchCusumDetector::advance(netsim::SimTime now) {
  const std::uint64_t current = now / window_;
  while (bucket_ < current) {
    // Close the open window: fold its busiest source's count (0 for the
    // empty windows in between), then recycle the summary.
    const double value = double(summary_.top1().count);
    if (cusum_.fold(value)) latch((bucket_ + 1) * window_);
    summary_.clear();
    ++bucket_;
  }
}

void SketchCusumDetector::observe(const pkt::Packet& packet,
                                  netsim::SimTime now) {
  advance(now);
  summary_.offer(packet.header.source());
}

void SketchCusumDetector::reset() {
  alarm_time_.reset();
  cusum_.clear();
  summary_.clear();
  bucket_ = 0;
}

std::size_t SketchCusumDetector::memory_bytes() const noexcept {
  return summary_.memory_bytes();
}

std::unique_ptr<detect::Detector> make_detector(
    const std::string& name, double rate_threshold, double half_life,
    const SketchDetectorTuning& tuning) {
  if (name == "rate-threshold") {
    return std::make_unique<detect::RateThresholdDetector>(rate_threshold,
                                                           half_life);
  }
  if (name == "entropy" || name == "sketch-entropy") {
    return std::make_unique<SketchEntropyDetector>(tuning);
  }
  if (name == "cusum") {
    return std::make_unique<CusumDetector>(tuning.cusum_window,
                                           tuning.cusum_mean,
                                           tuning.cusum_slack,
                                           tuning.cusum_threshold);
  }
  if (name == "syn-half-open") {
    return std::make_unique<detect::SynHalfOpenDetector>(
        tuning.syn_max_half_open, tuning.syn_timeout);
  }
  if (name == "heavy-hitter") {
    return std::make_unique<HeavyHitterDetector>(tuning);
  }
  if (name == "sketch-cusum") {
    return std::make_unique<SketchCusumDetector>(tuning);
  }
  throw std::invalid_argument("make_detector: unknown detector '" + name + "'");
}

}  // namespace ddpm::stream
