#include "detect/detector.hpp"

#include <gtest/gtest.h>

#include "detect/filter.hpp"
#include "stream/detectors.hpp"

namespace ddpm::detect {
namespace {

pkt::Packet make_packet(pkt::Ipv4Address src,
                        pkt::IpProto proto = pkt::IpProto::kUdp) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src, 42, proto, 64);
  return p;
}

TEST(RateDetector, SilentOnTrickle) {
  RateThresholdDetector detector(0.1, 1000);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 100000; t += 100) {  // rate 0.01
    detector.observe(p, t);
  }
  EXPECT_FALSE(detector.alarmed());
}

TEST(RateDetector, AlarmsOnFlood) {
  RateThresholdDetector detector(0.1, 1000);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 5000; ++t) {  // rate 1.0
    detector.observe(p, t);
  }
  EXPECT_TRUE(detector.alarmed());
  ASSERT_TRUE(detector.alarm_time().has_value());
  EXPECT_LT(*detector.alarm_time(), 5000u);
}

TEST(RateDetector, AlarmTimeLatches) {
  RateThresholdDetector detector(0.01, 100);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 1000; ++t) detector.observe(p, t);
  const auto first = detector.alarm_time();
  ASSERT_TRUE(first.has_value());
  for (netsim::SimTime t = 1000; t < 2000; ++t) detector.observe(p, t);
  EXPECT_EQ(detector.alarm_time(), first);
  detector.reset();
  EXPECT_FALSE(detector.alarmed());
}

stream::SketchEntropyDetector entropy_detector(std::uint32_t window,
                                               double low_bits,
                                               double high_bits) {
  stream::SketchDetectorTuning tuning;
  tuning.entropy_window = window;
  tuning.entropy_low_bits = low_bits;
  tuning.entropy_high_bits = high_bits;
  return stream::SketchEntropyDetector(tuning);
}

TEST(EntropyDetector, SpoofedFloodRaisesEntropy) {
  // Benign: 4 distinct sources (2 bits). Spoofed flood: hundreds of random
  // sources pushes entropy above the benign band.
  auto detector = entropy_detector(256, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i % 4)), ++t);
  }
  EXPECT_FALSE(detector.alarmed()) << detector.current_entropy();
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(0x10000 + i)), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(EntropyDetector, SingleSourceFloodDropsEntropy) {
  auto detector = entropy_detector(256, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i % 4)), ++t);
  }
  EXPECT_FALSE(detector.alarmed());
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(7), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(EntropyDetector, NeedsFullWindow) {
  auto detector = entropy_detector(1000, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i)), ++t);
  }
  EXPECT_FALSE(detector.alarmed());  // window not yet full
}

TEST(SynDetector, IgnoresUdp) {
  SynHalfOpenDetector detector(10, 1000);
  netsim::SimTime t = 0;
  for (int i = 0; i < 100; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kUdp), ++t);
  }
  EXPECT_FALSE(detector.alarmed());
  EXPECT_EQ(detector.half_open(t), 0u);
}

TEST(SynDetector, AlarmsWhenHalfOpenExceedsLimit) {
  SynHalfOpenDetector detector(10, 100000);
  netsim::SimTime t = 0;
  for (int i = 0; i < 11; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kTcp), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(SynDetector, TimeoutsDrainHalfOpenSlots) {
  SynHalfOpenDetector detector(10, 50);
  netsim::SimTime t = 0;
  for (int i = 0; i < 8; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kTcp), t += 10);
  }
  // Each SYN expires 50 ticks after it arrived; at t+60 all are gone.
  EXPECT_EQ(detector.half_open(t + 60), 0u);
  EXPECT_FALSE(detector.alarmed());
}

TEST(Filter, SourceNodeRules) {
  BlockingFilter filter;
  filter.block_source_node(5);
  EXPECT_TRUE(filter.blocks_injection(5));
  EXPECT_FALSE(filter.blocks_injection(6));
  EXPECT_EQ(filter.rule_count(), 1u);
}

TEST(Filter, SignatureRules) {
  BlockingFilter filter;
  filter.block_signature(0xbeef);
  pkt::Packet hit = make_packet(1);
  hit.set_marking_field(0xbeef);
  pkt::Packet miss = make_packet(1);
  miss.set_marking_field(0xbee0);
  EXPECT_TRUE(filter.blocks_delivery(hit));
  EXPECT_FALSE(filter.blocks_delivery(miss));
}

TEST(Filter, AddressRulesDefeatedBySpoofing) {
  BlockingFilter filter;
  filter.block_address(100);
  pkt::Packet honest = make_packet(100);
  EXPECT_TRUE(filter.blocks_delivery(honest));
  pkt::Packet spoofed = make_packet(100);
  spoofed.header.set_source(101);  // attacker rotates addresses
  EXPECT_FALSE(filter.blocks_delivery(spoofed));
}

TEST(Filter, ClearRemovesEverything) {
  BlockingFilter filter;
  filter.block_source_node(1);
  filter.block_signature(2);
  filter.block_address(3);
  EXPECT_EQ(filter.rule_count(), 3u);
  filter.clear();
  EXPECT_EQ(filter.rule_count(), 0u);
  EXPECT_FALSE(filter.blocks_injection(1));
}

}  // namespace
}  // namespace ddpm::detect
