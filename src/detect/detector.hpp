// Victim-side DDoS detection (paper §6.1).
//
// The paper assumes "there exists an efficient DDoS detection method" and
// discusses why detection is hard inside a cluster. This header holds the
// Detector interface and two standard lightweight detectors:
//   * RateThresholdDetector — EWMA inbound packet rate vs. threshold, the
//     classic volumetric-flood alarm;
//   * SynHalfOpenDetector — count of TCP connections stuck half-open,
//     modelling the SYN-flood symptom the paper describes in §1.
// The windowed detectors (source entropy, CUSUM, heavy hitter) live in
// stream/detectors.hpp on the bounded-memory stream primitives, and
// stream::make_detector builds any of them by name.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "netsim/sim_time.hpp"
#include "netsim/stats.hpp"
#include "packet/packet.hpp"

namespace ddpm::detect {

/// Common interface: feed every delivered packet; `alarmed` latches once
/// triggered until reset().
class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string name() const = 0;
  virtual void observe(const pkt::Packet& packet, netsim::SimTime now) = 0;
  virtual bool alarmed() const noexcept = 0;
  virtual void reset() = 0;

  /// Approximate heap footprint of the detector's state, for the
  /// memory-vs-scale telemetry. 0 = "constant and negligible".
  virtual std::size_t memory_bytes() const noexcept { return 0; }

  /// Time of the first alarm, if any.
  std::optional<netsim::SimTime> alarm_time() const noexcept { return alarm_time_; }

 protected:
  // C.67: a Detector sliced through the base handle would shed the derived
  // detector's window state and latch spuriously.
  Detector() = default;
  Detector(const Detector&) = default;
  Detector& operator=(const Detector&) = default;

  void latch(netsim::SimTime now) {
    if (!alarm_time_) alarm_time_ = now;
  }
  std::optional<netsim::SimTime> alarm_time_;
};

class RateThresholdDetector final : public Detector {
 public:
  /// Alarms when the EWMA inbound rate exceeds `threshold` packets/tick.
  RateThresholdDetector(double threshold, double half_life)
      : threshold_(threshold), half_life_(half_life), rate_(half_life) {}

  std::string name() const override { return "rate-threshold"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  double current_rate(netsim::SimTime now) const { return rate_.rate(now); }

 private:
  double threshold_;
  double half_life_;
  netsim::EwmaRate rate_;
};

class SynHalfOpenDetector final : public Detector {
 public:
  /// A SYN opens a half-open slot that closes after `handshake_timeout` if
  /// no matching completion arrives. Attack SYNs (spoofed) never complete.
  /// Alarms when more than `max_half_open` slots are pending.
  SynHalfOpenDetector(std::size_t max_half_open,
                      netsim::SimTime handshake_timeout)
      : max_half_open_(max_half_open), timeout_(handshake_timeout) {}

  std::string name() const override { return "syn-half-open"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  std::size_t half_open(netsim::SimTime now) const;

 private:
  void expire(netsim::SimTime now) const;

  std::size_t max_half_open_;
  netsim::SimTime timeout_;
  mutable std::deque<netsim::SimTime> pending_;  // open times, FIFO
};

}  // namespace ddpm::detect
