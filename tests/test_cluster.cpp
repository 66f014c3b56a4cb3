#include "cluster/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "marking/ddpm.hpp"
#include "routing/dor.hpp"

namespace ddpm::cluster {
namespace {

pkt::Packet make_packet(const ClusterNetwork& net, topo::NodeId src,
                        topo::NodeId dst, std::uint32_t payload = 80) {
  pkt::Packet p;
  p.header = pkt::IpHeader(net.addresses().address_of(src),
                           net.addresses().address_of(dst), pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.header.set_ttl(64);
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  return p;
}

ClusterConfig quiet_config() {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.router = "dor";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0;  // manual injection only
  return config;
}

TEST(Cluster, SinglePacketDeliveredWithExpectedLatency) {
  ClusterNetwork net(quiet_config());
  std::optional<pkt::Packet> got;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    EXPECT_EQ(at, 3u);
    got = p;
  });
  net.start();
  auto p = make_packet(net, 0, 3, 80);
  p.injected_at = net.sim().now();
  ASSERT_TRUE(net.inject(std::move(p), 0));
  net.run_until(100000);
  ASSERT_TRUE(got.has_value());
  // 3 hops, each serializing 100 wire bytes at 1 B/tick + 50 ticks of
  // propagation = 3 * 150.
  EXPECT_EQ(got->delivered_at, 450u);
  EXPECT_EQ(got->hops, 3u);
  EXPECT_EQ(net.metrics().delivered_benign, 1u);
}

TEST(Cluster, DdpmIdentifiesInClusterContext) {
  ClusterConfig config = quiet_config();
  config.router = "adaptive";
  ClusterNetwork net(config);
  mark::DdpmIdentifier identifier(net.topology());
  std::vector<topo::NodeId> identified;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    for (auto s : identifier.observe(p, at)) identified.push_back(s);
  });
  net.start();
  for (topo::NodeId src = 0; src < 15; ++src) {
    ASSERT_TRUE(net.inject(make_packet(net, src, 15), src));
  }
  net.run_until(1000000);
  ASSERT_EQ(identified.size(), 15u);
  std::sort(identified.begin(), identified.end());
  for (topo::NodeId src = 0; src < 15; ++src) EXPECT_EQ(identified[src], src);
}

TEST(Cluster, LonePacketFiresOneEventPerHop) {
  ClusterNetwork net(quiet_config());
  net.start();
  ASSERT_FALSE(net.sim().pending());
  ASSERT_TRUE(net.inject(make_packet(net, 0, 15), 0));  // 6 hops
  net.run_until(100000);
  EXPECT_EQ(net.metrics().delivered(), 1u);
  EXPECT_EQ(net.sim().events_executed(), 6u);
}

TEST(Cluster, TtlExpiryCountsAsDrop) {
  ClusterNetwork net(quiet_config());
  net.start();
  auto p = make_packet(net, 0, 15);
  p.header.set_ttl(2);  // needs 6 hops
  ASSERT_TRUE(net.inject(std::move(p), 0));
  net.run_until(100000);
  EXPECT_EQ(net.metrics().dropped_ttl, 1u);
  EXPECT_EQ(net.metrics().delivered(), 0u);
}

TEST(Cluster, PacketTravelsAtMostTtlMinusOneHops) {
  // Every forwarding switch decrements the TTL and drops at zero, so 6
  // hops need a TTL of 7: the reach ddpm_sim's missed-zombie warning
  // compares the hop distance against.
  for (const std::uint8_t ttl : {std::uint8_t(6), std::uint8_t(7)}) {
    ClusterNetwork net(quiet_config());
    net.start();
    auto p = make_packet(net, 0, 15);  // 6 hops
    p.header.set_ttl(ttl);
    ASSERT_TRUE(net.inject(std::move(p), 0));
    net.run_until(100000);
    const bool reaches = ttl == 7;
    EXPECT_EQ(net.metrics().delivered(), reaches ? 1u : 0u) << int(ttl);
    EXPECT_EQ(net.metrics().dropped_ttl, reaches ? 0u : 1u) << int(ttl);
  }
}

TEST(Cluster, QueueOverflowDrops) {
  ClusterConfig config = quiet_config();
  config.queue_capacity = 2;
  ClusterNetwork net(config);
  net.start();
  // Blast 20 packets through node 0's single productive port at once.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  }
  net.run_until(1000000);
  EXPECT_GT(net.metrics().dropped_queue_full, 0u);
  EXPECT_LT(net.metrics().delivered(), 20u);
  EXPECT_EQ(net.metrics().delivered() + net.metrics().dropped_queue_full, 20u);
}

// A standalone switch, wired the way an owning network wires one: node 0
// of mesh:4x4 under dimension-order routing sends everything bound for
// node 3 out of port 3 (+y) to node 1. Bare 20-byte packets serialize in
// 20 ticks and propagate for 100, so up to six are on the link at once.
class StandaloneSwitch : public ::testing::Test {
 protected:
  struct Landing {
    std::uint64_t id;
    netsim::SimTime at;
    topo::NodeId from;
    topo::NodeId to;
  };

  StandaloneSwitch() {
    env_.sim = &sim_;
    env_.topo = topo_.get();
    env_.router = &router_;
    env_.links = &links_;
    env_.metrics = &metrics_;
    env_.deliver = [](pkt::Packet&&, topo::NodeId) {};
    env_.arrive = [this](pkt::Packet&& p, topo::NodeId from, topo::NodeId to) {
      landed_.push_back({p.id, sim_.now(), from, to});
    };
    env_.link_latency = 100;
    env_.queue_capacity = 2;
  }

  /// Hands a fresh packet for node 3 to the switch, as if from port -x.
  void send(std::uint64_t id, std::uint32_t payload = 0) {
    pkt::Packet p;
    p.id = id;
    p.dest_node = 3;
    p.payload_bytes = payload;
    p.header.set_ttl(64);
    switch_->handle(std::move(p), 0);
  }

  std::size_t waiting() const { return switch_->queue_length(kOut); }

  static constexpr topo::Port kOut = 3;
  netsim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_ = topo::make_topology("mesh:4x4");
  route::DimensionOrderRouter router_{*topo_};
  route::StaticLinkState links_{*topo_};
  Metrics metrics_;
  Switch::Env env_;
  std::vector<Landing> landed_;
  std::unique_ptr<Switch> switch_;

  void build() { switch_ = std::make_unique<Switch>(0, &env_, netsim::Rng(1)); }
};

TEST_F(StandaloneSwitch, QueueLengthCountsOnlyPacketsWaitingForTheLink) {
  build();
  send(1);  // starts serializing at once
  EXPECT_EQ(waiting(), 0u);
  send(2);
  send(3);
  EXPECT_EQ(waiting(), 2u);
  sim_.run(50);  // 1 and 2 propagating, 3 serializing
  EXPECT_EQ(waiting(), 0u);
  send(4);
  EXPECT_EQ(waiting(), 1u);
  sim_.run();
  EXPECT_EQ(waiting(), 0u);
  EXPECT_EQ(landed_.size(), 4u);
  EXPECT_EQ(switch_->queue_length(-1), 0u);
  EXPECT_EQ(switch_->queue_length(99), 0u);
}

TEST_F(StandaloneSwitch, CapacityDropsCountQueuedPacketsOnly) {
  build();
  send(1);
  send(2);
  send(3);  // 1 on the link, 2 and 3 fill the queue
  send(4);
  EXPECT_EQ(metrics_.dropped_queue_full, 1u);
  sim_.run(45);  // 1 and 2 propagating, 3 serializing: 3 on the link
  send(5);
  send(6);  // the queue is full again with 3 more packets on the link
  EXPECT_EQ(waiting(), 2u);
  EXPECT_EQ(metrics_.dropped_queue_full, 1u);
  send(7);
  EXPECT_EQ(metrics_.dropped_queue_full, 2u);
  sim_.run();
  std::vector<std::uint64_t> ids;
  for (const Landing& l : landed_) ids.push_back(l.id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 5, 6}));
}

TEST_F(StandaloneSwitch, ArrivalsKeepTransmissionOrder) {
  // Mixed sizes: serialization times 20..140 ticks. A packet lands one
  // link latency after its serialization ends, and serialization is
  // back to back, so landing order is sending order.
  const std::uint32_t payloads[] = {120, 0, 60, 0, 0, 30, 90, 0};
  env_.queue_capacity = 16;
  build();
  for (std::uint64_t i = 0; i < std::size(payloads); ++i) {
    send(i + 1, payloads[i]);
  }
  sim_.run();
  ASSERT_EQ(landed_.size(), std::size(payloads));
  netsim::SimTime done = 0;
  for (std::size_t i = 0; i < landed_.size(); ++i) {
    done += 20 + payloads[i];
    EXPECT_EQ(landed_[i].id, i + 1);
    EXPECT_EQ(landed_[i].at, done + 100) << "packet " << i + 1;
    EXPECT_EQ(landed_[i].from, 0u);
    EXPECT_EQ(landed_[i].to, 1u);
  }
  EXPECT_EQ(metrics_.dropped_queue_full, 0u);
}

// One event per hop: a transmission schedules only its arrival. A wake
// event at the link's free tick is scheduled only while packets wait.
TEST_F(StandaloneSwitch, BackToBackPacketsFireKArrivalsAndKMinusOneWakes) {
  env_.queue_capacity = 16;
  build();
  constexpr std::uint64_t kPackets = 5;
  for (std::uint64_t i = 1; i <= kPackets; ++i) send(i);
  EXPECT_EQ(sim_.run(), kPackets + (kPackets - 1));
  EXPECT_EQ(landed_.size(), kPackets);
}

TEST_F(StandaloneSwitch, PacketOnTheTickTheLinkFreesStartsAtOnce) {
  env_.queue_capacity = 1;
  build();
  // Scheduled before packet 1 starts, so it pops at tick 20 ahead of
  // anything the switch schedules for that tick.
  std::size_t waiting_after_first = 99;
  sim_.schedule_at(20, [&] {
    send(2);  // the link frees at 20: on it at once, not waiting
    waiting_after_first = waiting();
    send(3);  // the only packet waiting: within the capacity of 1
  });
  send(1);  // on the link for ticks [0, 20)
  EXPECT_EQ(sim_.run(), 1u + 3u + 1u);  // the injection, 3 arrivals, 1 wake
  EXPECT_EQ(waiting_after_first, 0u);
  EXPECT_EQ(metrics_.dropped_queue_full, 0u);
  ASSERT_EQ(landed_.size(), 3u);
  EXPECT_EQ(landed_[0].at, 120u);
  EXPECT_EQ(landed_[1].at, 140u);
  EXPECT_EQ(landed_[2].at, 160u);
}

using StandaloneSwitchDeathTest = StandaloneSwitch;

TEST_F(StandaloneSwitchDeathTest, RegistryWithoutPortLabelsIsFatal) {
  telemetry::Registry registry;
  env_.registry = &registry;
  EXPECT_DEATH(build(), "port labels");
}

#if DDPM_TELEMETRY_ENABLED

TEST_F(StandaloneSwitch, RegistryHoldsFourteenSeriesPerSwitch) {
  telemetry::Registry registry;
  const std::vector<std::string> labels = telemetry_port_labels(*topo_);
  env_.registry = &registry;
  env_.port_labels = &labels;
  build();
  // A local-delivery counter, the queue-depth histogram, and three link
  // counters for each of the mesh's four ports.
  ASSERT_EQ(labels.size(), 4u);
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.series(), 14u);
  EXPECT_EQ(snap.counter_value("switch.delivered_local{switch=0}"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].key, "switch.queue_depth{switch=0}");
  for (const auto& c : snap.counters) {
    EXPECT_TRUE(c.key == "switch.delivered_local{switch=0}" ||
                c.key.starts_with("link."))
        << c.key;
  }
}

TEST_F(StandaloneSwitch, ForwardsAreQueueDepthSamplesAndDropsStayInMetrics) {
  telemetry::Registry registry;
  const std::vector<std::string> labels = telemetry_port_labels(*topo_);
  env_.registry = &registry;
  env_.port_labels = &labels;
  build();
  send(1);
  send(2);
  send(3);
  send(4);  // the queue is full: dropped
  pkt::Packet local;
  local.dest_node = 0;
  switch_->handle(std::move(local), 0);
  sim_.run();
  ASSERT_EQ(landed_.size(), 3u);
  EXPECT_EQ(metrics_.dropped_queue_full, 1u);

  const telemetry::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].total, 3u);
  EXPECT_EQ(snap.counter_sum_prefix("link.tx_packets{"), 3u);
  EXPECT_EQ(snap.counter_value("switch.delivered_local{switch=0}"), 1u);
  // The drop is counted once, in Metrics; no series re-counts it.
  for (const auto& c : snap.counters) {
    EXPECT_EQ(c.key.find("drop"), std::string::npos) << c.key;
  }
}

TEST_F(StandaloneSwitch, DropsAreTraceInstantsOnTheSwitchLane) {
  // No registry: the drop instants need only the tracer.
  telemetry::Tracer tracer(1024);
  env_.tracer = &tracer;
  build();
  send(1);
  send(2);
  send(3);
  send(4);  // queue full
  pkt::Packet expiring;
  expiring.dest_node = 3;
  expiring.header.set_ttl(1);
  switch_->handle(std::move(expiring), 0);
  sim_.run();
  EXPECT_EQ(metrics_.dropped_queue_full, 1u);
  EXPECT_EQ(metrics_.dropped_ttl, 1u);

  const std::string json = tracer.flush_to_string();
  const auto occurrences = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"drop.queue_full\""), 1u);
  EXPECT_EQ(occurrences("\"drop.ttl\""), 1u);
  EXPECT_EQ(occurrences("\"drop.no_route\""), 0u);
}

#endif  // DDPM_TELEMETRY_ENABLED

TEST(Cluster, FailedLinkBlocksDeterministicRoute) {
  ClusterNetwork net(quiet_config());
  net.failures().fail(0, 1);  // (0,0)-(0,1): DOR's only way for 0 -> 3
  net.start();
  ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  net.run_until(100000);
  EXPECT_EQ(net.metrics().dropped_no_route, 1u);
}

TEST(Cluster, SourceBlockRefusesInjection) {
  ClusterNetwork net(quiet_config());
  net.filter().block_source_node(5);
  net.start();
  EXPECT_FALSE(net.inject(make_packet(net, 5, 3), 5));
  EXPECT_EQ(net.metrics().blocked_at_source, 1u);
  EXPECT_TRUE(net.inject(make_packet(net, 6, 3), 6));
}

TEST(Cluster, SignatureFilterSuppressesDelivery) {
  ClusterConfig config = quiet_config();
  config.scheme = "none";  // keep the field exactly as injected
  ClusterNetwork net(config);
  net.filter().block_signature(0x1234);
  int delivered = 0;
  net.set_delivery_hook([&](const pkt::Packet&, topo::NodeId) { ++delivered; });
  net.start();
  auto bad = make_packet(net, 0, 3);
  bad.set_marking_field(0x1234);
  auto good = make_packet(net, 0, 3);
  good.set_marking_field(0x4321);
  ASSERT_TRUE(net.inject(std::move(bad), 0));
  ASSERT_TRUE(net.inject(std::move(good), 0));
  net.run_until(100000);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.metrics().filtered_at_victim, 1u);
}

TEST(Cluster, BenignTrafficFlowsAndBalances) {
  ClusterConfig config;
  config.topology = "torus:4x4";
  config.router = "adaptive";
  config.benign_rate_per_node = 0.001;
  config.seed = 11;
  ClusterNetwork net(config);
  net.start();
  net.run_until(200000);
  const Metrics& m = net.metrics();
  EXPECT_GT(m.injected_benign, 1000u);
  EXPECT_GT(m.delivered_benign, m.injected_benign * 9 / 10);
  EXPECT_LE(m.delivered(), m.injected());
  EXPECT_GT(m.latency_benign.mean(), 0.0);
  EXPECT_GT(m.hops.mean(), 1.0);
  EXPECT_EQ(m.injected_attack, 0u);
}

TEST(Cluster, FloodAttackReachesVictim) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0, 5, 10};
  attack.rate_per_zombie = 0.002;
  attack.start_time = 1000;
  net.set_attack(attack);
  std::uint64_t victim_got = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    if (at == 15 && p.is_attack()) ++victim_got;
  });
  net.start();
  net.run_until(500000);
  EXPECT_GT(net.metrics().injected_attack, 1000u);
  EXPECT_GT(victim_got, 500u);
}

TEST(Cluster, AttackWindowCloses) {
  ClusterConfig config = quiet_config();
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0};
  attack.rate_per_zombie = 0.01;
  attack.start_time = 0;
  attack.stop_time = 10000;
  net.set_attack(attack);
  net.start();
  net.run_until(200000);
  const auto injected = net.metrics().injected_attack;
  EXPECT_GT(injected, 0u);
  // Roughly rate * window worth, certainly not rate * full run.
  EXPECT_LT(injected, 400u);
}

TEST(Cluster, WormSpreadsExponentially) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kWorm;
  attack.zombies = {0};  // patient zero
  attack.worm_scan_rate = 0.01;
  attack.worm_incubation = 100;
  net.set_attack(attack);
  net.start();
  EXPECT_EQ(net.infected_count(), 1u);
  net.run_until(50000);
  const auto midway = net.infected_count();
  EXPECT_GT(midway, 1u);
  net.run_until(400000);
  EXPECT_EQ(net.infected_count(), 16u);  // full compromise
  EXPECT_TRUE(net.node_infected(13));
}

TEST(Cluster, LifecycleErrors) {
  ClusterNetwork net(quiet_config());
  net.start();
  EXPECT_THROW(net.start(), std::logic_error);
  attack::AttackConfig attack;
  EXPECT_THROW(net.set_attack(attack), std::logic_error);
}

TEST(Cluster, RecordTracesCapturesPath) {
  ClusterConfig config = quiet_config();
  config.record_traces = true;
  config.benign_rate_per_node = 0.0001;
  config.seed = 3;
  ClusterNetwork net(config);
  std::vector<topo::NodeId> trace;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId) {
    if (trace.empty()) trace = p.trace;
  });
  net.start();
  net.run_until(200000);
  ASSERT_GT(trace.size(), 1u);
  // Trace must be a connected walk.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_TRUE(net.topology().port_to(trace[i - 1], trace[i]).has_value());
  }
}

TEST(Cluster, IngressFilteringDropsSpoofedInjections) {
  ClusterConfig config = quiet_config();
  config.ingress_filtering = true;
  ClusterNetwork net(config);
  net.start();
  // Honest packet passes.
  EXPECT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  // Spoofed packet (claims node 5's address, injected at node 0) dies.
  auto spoofed = make_packet(net, 0, 3);
  spoofed.header.set_source(net.addresses().address_of(5));
  EXPECT_FALSE(net.inject(std::move(spoofed), 0));
  EXPECT_EQ(net.metrics().dropped_spoofed_ingress, 1u);
  // Foreign (non-cluster) source address dies too.
  auto foreign = make_packet(net, 0, 3);
  foreign.header.set_source(0xdeadbeef);
  EXPECT_FALSE(net.inject(std::move(foreign), 0));
  EXPECT_EQ(net.metrics().dropped_spoofed_ingress, 2u);
}

TEST(Cluster, IngressFilteringNeutralizesSpoofedFloods) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  config.ingress_filtering = true;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0, 5};
  attack.rate_per_zombie = 0.005;
  attack.spoof = attack::SpoofStrategy::kRandomAny;  // never a valid self
  attack.start_time = 0;
  net.set_attack(attack);
  net.start();
  net.run_until(300000);
  EXPECT_EQ(net.metrics().injected_attack, 0u);
  EXPECT_GT(net.metrics().dropped_spoofed_ingress, 1000u);
  EXPECT_EQ(net.metrics().delivered_attack, 0u);
}

TEST(Cluster, MidRunLinkFailureReroutesAdaptiveTraffic) {
  // Fail links while traffic is flowing: adaptive routing detours, DDPM
  // keeps identifying, and only the no-route counter may grow.
  ClusterConfig config;
  config.topology = "mesh:6x6";
  config.router = "adaptive-misroute";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0005;
  config.seed = 77;
  ClusterNetwork net(config);
  mark::DdpmIdentifier identifier(net.topology());
  std::uint64_t checked = 0, correct = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    ++checked;
    const auto named = identifier.identify(at, p.marking_field());
    correct += (named && *named == p.true_source);
  });
  net.start();
  net.run_until(100000);
  // Sever a column of links through the middle of the mesh.
  for (int y = 1; y <= 4; ++y) {
    net.failures().fail(net.topology().id_of(topo::Coord{2, y}),
                        net.topology().id_of(topo::Coord{3, y}));
  }
  net.run_until(300000);
  EXPECT_GT(checked, 2000u);
  EXPECT_EQ(correct, checked);  // identification survives the rerouting
  EXPECT_GT(net.metrics().delivered_benign, 2000u);
}

TEST(Cluster, AdaptiveAvoidsCongestedPortsEndToEnd) {
  // Pump a hot flow along one row; a second flow with two minimal choices
  // must mostly take the uncongested one. Compare mean latency against a
  // run where the router is deterministic (forced through the hot row).
  auto run = [](const char* router) {
    ClusterConfig config;
    config.topology = "mesh:4x4";
    config.router = router;
    config.scheme = "none";
    config.benign_rate_per_node = 0.0;
    config.queue_capacity = 64;
    ClusterNetwork net(config);
    net.start();
    // Hot flow: (0,0) -> (3,0) backs up row y=0 (40 packets stay under the
    // queue capacity so the probe is delayed, not dropped).
    for (int i = 0; i < 40; ++i) {
      pkt::Packet hot;
      hot.header = pkt::IpHeader(1, 2, pkt::IpProto::kUdp, 200);
      hot.header.set_ttl(64);
      hot.true_source = net.topology().id_of(topo::Coord{0, 0});
      hot.dest_node = net.topology().id_of(topo::Coord{3, 0});
      hot.payload_bytes = 200;
      hot.injected_at = net.sim().now();
      net.inject(std::move(hot), hot.true_source);
    }
    // Probe flow: (0,0) -> (3,3) has many minimal paths.
    pkt::Packet probe;
    probe.header = pkt::IpHeader(1, 2, pkt::IpProto::kUdp, 64);
    probe.header.set_ttl(64);
    probe.true_source = net.topology().id_of(topo::Coord{0, 0});
    probe.dest_node = net.topology().id_of(topo::Coord{3, 3});
    probe.payload_bytes = 64;
    probe.injected_at = net.sim().now();
    netsim::SimTime probe_latency = 0;
    net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId) {
      if (p.dest_node == net.topology().id_of(topo::Coord{3, 3})) {
        probe_latency = p.delivered_at - p.injected_at;
      }
    });
    net.inject(std::move(probe), net.topology().id_of(topo::Coord{0, 0}));
    net.run_until(10000000);
    return probe_latency;
  };
  const auto adaptive = run("adaptive");
  const auto deterministic = run("dor");
  EXPECT_LT(adaptive, deterministic / 2);
}

TEST(Cluster, CongestionMetricVisible) {
  ClusterConfig config = quiet_config();
  config.queue_capacity = 64;
  ClusterNetwork net(config);
  net.start();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  }
  // Before the simulator runs, packets sit in node 0's output queue.
  EXPECT_GT(net.queue_length(0, 3), 0u);
  net.run_until(1000000);
  EXPECT_EQ(net.queue_length(0, 3), 0u);
}

}  // namespace
}  // namespace ddpm::cluster
