#include "detect/detector.hpp"

namespace ddpm::detect {

void RateThresholdDetector::observe(const pkt::Packet&, netsim::SimTime now) {
  rate_.observe(now);
  if (rate_.rate(now) > threshold_) latch(now);
}

void RateThresholdDetector::reset() {
  alarm_time_.reset();
  rate_ = netsim::EwmaRate(half_life_);
}

void SynHalfOpenDetector::expire(netsim::SimTime now) const {
  while (!pending_.empty() && pending_.front() + timeout_ <= now) {
    pending_.pop_front();
  }
}

void SynHalfOpenDetector::observe(const pkt::Packet& packet,
                                  netsim::SimTime now) {
  if (packet.header.protocol() != pkt::IpProto::kTcp) return;
  expire(now);
  pending_.push_back(now);
  if (pending_.size() > max_half_open_) latch(now);
}

void SynHalfOpenDetector::reset() {
  alarm_time_.reset();
  pending_.clear();
}

std::size_t SynHalfOpenDetector::half_open(netsim::SimTime now) const {
  expire(now);
  return pending_.size();
}

}  // namespace ddpm::detect
