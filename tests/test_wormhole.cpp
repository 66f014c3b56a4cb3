#include "wormhole/wormhole.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "telemetry/registry.hpp"

#include "topology/coord.hpp"

#include "marking/ddpm.hpp"
#include "topology/factory.hpp"
#include "golden_digest.hpp"

namespace ddpm::wormhole {
namespace {

using golden::fnv1a;

pkt::Packet make_packet(const topo::Topology&, NodeId src, NodeId dst,
                        std::uint32_t payload = 60) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src + 1, dst + 1, pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  return p;
}

TEST(Wormhole, SinglePacketDelivered) {
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeNetwork net(*topo, *router, nullptr, {});
  std::vector<NodeId> delivered_at;
  pkt::Packet got;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    delivered_at.push_back(at);
    got = std::move(p);
  });
  net.inject(make_packet(*topo, 0, 15), 0);
  ASSERT_TRUE(net.drain(10000));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at.front(), 15u);
  EXPECT_EQ(got.hops, 6u);  // minimal path on the 4x4 mesh corner pair
  EXPECT_EQ(net.delivered(), 1u);
  EXPECT_EQ(net.flits_in_flight(), 0u);
}

TEST(Wormhole, FlitSegmentation) {
  // 60-byte payload + 20-byte header = 80 bytes = 5 flits of 16.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("dor", *topo);
  WormholeNetwork net(*topo, *router, nullptr, {});
  net.inject(make_packet(*topo, 0, 1, 60), 0);
  EXPECT_EQ(net.flits_in_flight(), 5u);
  ASSERT_TRUE(net.drain(10000));
}

TEST(Wormhole, LatencyScalesWithDistanceAndLength) {
  const auto topo = topo::make_topology("mesh:8x8");
  const auto router = route::make_router("dor", *topo);
  WormholeNetwork net(*topo, *router, nullptr, {});
  std::map<NodeId, std::uint64_t> arrival;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    arrival[at] = p.delivered_at;
  });
  net.inject(make_packet(*topo, 0, 1), 0);    // 1 hop
  net.inject(make_packet(*topo, 0, 63), 0);   // 14 hops
  ASSERT_TRUE(net.drain(100000));
  ASSERT_EQ(arrival.size(), 2u);
  EXPECT_LT(arrival[1], arrival[63]);
  // Wormhole pipelining: latency ~ hops + flits, far below hops * flits.
  EXPECT_LT(arrival[63], 200u);
}

TEST(Wormhole, AllPairsDeliveredOnEveryTopologyAndRouter) {
  for (const char* spec : {"mesh:4x4", "torus:4x4", "hypercube:4"}) {
    const auto topo = topo::make_topology(spec);
    for (const char* router_name : {"dor", "adaptive"}) {
      const auto router = route::make_router(router_name, *topo);
      WormholeNetwork net(*topo, *router, nullptr, {});
      std::uint64_t expected = 0;
      for (NodeId s = 0; s < topo->num_nodes(); ++s) {
        for (NodeId d = 0; d < topo->num_nodes(); ++d) {
          if (s == d) continue;
          net.inject(make_packet(*topo, s, d), s);
          ++expected;
        }
      }
      ASSERT_TRUE(net.drain(2000000)) << spec << " " << router_name
                                      << " did not drain (deadlock?)";
      EXPECT_EQ(net.delivered(), expected) << spec << " " << router_name;
      EXPECT_EQ(net.dropped_ttl(), 0u);
    }
  }
}

TEST(Wormhole, HeavyHotspotLoadDrainsOnTorus) {
  // Deadlock stress: everyone floods one node on a torus (the topology
  // that needs the dateline escape discipline), tiny buffers.
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.buffer_flits = 2;
  config.adaptive_vcs = 1;
  WormholeNetwork net(*topo, *router, nullptr, config);
  std::uint64_t expected = 0;
  for (int round = 0; round < 20; ++round) {
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      if (s == 5) continue;
      net.inject(make_packet(*topo, s, 5), s);
      ++expected;
    }
  }
  ASSERT_TRUE(net.drain(3000000)) << "possible deadlock";
  EXPECT_EQ(net.delivered(), expected);
}

TEST(Wormhole, WithoutEscapeVcsTheTorusDeadlocks) {
  // Negative control: the same hotspot stress that drains with the Duato
  // escape layer wedges without it — cyclic channel dependencies around
  // the torus rings. This is the experiment that proves the escape VCs
  // are load-bearing, not decorative.
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.buffer_flits = 2;
  config.adaptive_vcs = 1;
  config.disable_escape = true;
  WormholeNetwork net(*topo, *router, nullptr, config);
  // Ring-circular traffic: every node sends halfway around its row and
  // column ring. The tie-break sends all of it the same way round, and
  // 200-byte packets (14 flits vs 2-flit buffers) span many channels —
  // the classic wormhole hold-and-wait cycle.
  std::uint64_t injected = 0;
  for (int round = 0; round < 30; ++round) {
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      const auto c = topo->coord_of(s);
      net.inject(make_packet(*topo, s,
                             topo->id_of(topo::Coord{(c[0] + 2) % 4, c[1]}),
                             200),
                 s);
      net.inject(make_packet(*topo, s,
                             topo->id_of(topo::Coord{c[0], (c[1] + 2) % 4}),
                             200),
                 s);
      injected += 2;
    }
  }
  const bool drained = net.drain(500000);
  EXPECT_FALSE(drained) << "expected a deadlock without escape VCs";
  EXPECT_TRUE(net.deadlocked());
  EXPECT_GT(net.flits_in_flight(), 0u);
  EXPECT_LT(net.delivered(), injected);
}

TEST(Wormhole, SameStressDrainsWithEscapeVcs) {
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.buffer_flits = 2;
  config.adaptive_vcs = 1;
  WormholeNetwork net(*topo, *router, nullptr, config);
  std::uint64_t injected = 0;
  for (int round = 0; round < 30; ++round) {
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      const auto c = topo->coord_of(s);
      net.inject(make_packet(*topo, s,
                             topo->id_of(topo::Coord{(c[0] + 2) % 4, c[1]}),
                             200),
                 s);
      net.inject(make_packet(*topo, s,
                             topo->id_of(topo::Coord{c[0], (c[1] + 2) % 4}),
                             200),
                 s);
      injected += 2;
    }
  }
  ASSERT_TRUE(net.drain(3000000));
  EXPECT_EQ(net.delivered(), injected);
  EXPECT_FALSE(net.deadlocked());
}

TEST(Wormhole, DdpmInvariantUnderWormholeSwitching) {
  // The whole point of the substrate: marking behaves identically under
  // realistic switching. Every delivered packet identifies its source.
  for (const char* spec : {"mesh:6x6", "torus:5x5", "hypercube:5"}) {
    const auto topo = topo::make_topology(spec);
    const auto router = route::make_router("adaptive", *topo);
    mark::DdpmScheme scheme(*topo);
    mark::DdpmIdentifier identifier(*topo);
    WormholeNetwork net(*topo, *router, &scheme, {});
    std::uint64_t checked = 0;
    bool all_correct = true;
    net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
      ++checked;
      const auto named = identifier.identify(at, p.marking_field());
      all_correct = all_correct && named && *named == p.true_source;
    });
    netsim::Rng rng(2);
    for (int i = 0; i < 500; ++i) {
      const auto s = NodeId(rng.next_below(topo->num_nodes()));
      auto d = NodeId(rng.next_below(topo->num_nodes()));
      if (d == s) d = (d + 1) % topo->num_nodes();
      // Attacker-style: pre-load the marking field; injection resets it.
      auto p = make_packet(*topo, s, d);
      p.set_marking_field(0xffff);
      net.inject(std::move(p), s);
    }
    ASSERT_TRUE(net.drain(1000000)) << spec;
    EXPECT_EQ(checked, 500u) << spec;
    EXPECT_TRUE(all_correct) << spec;
  }
}

TEST(Wormhole, ThreeDimensionalTorusDatelinesHold) {
  // The dateline discipline is per-dimension; a 3-D torus exercises the
  // dimension-change reset path.
  const auto topo = topo::make_topology("torus:3x3x3");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.buffer_flits = 2;
  WormholeNetwork net(*topo, *router, nullptr, config);
  std::uint64_t expected = 0;
  for (NodeId s = 0; s < topo->num_nodes(); ++s) {
    for (NodeId d = 0; d < topo->num_nodes(); ++d) {
      if (s == d) continue;
      net.inject(make_packet(*topo, s, d), s);
      ++expected;
    }
  }
  ASSERT_TRUE(net.drain(3000000)) << "possible 3-D dateline deadlock";
  EXPECT_EQ(net.delivered(), expected);
}

TEST(Wormhole, TurnModelRoutersWorkAsTheAdaptiveLayer) {
  // Turn-model candidates feed the adaptive VCs; the DOR escape layer
  // keeps everything deadlock-free regardless.
  const auto topo = topo::make_topology("mesh:4x4");
  for (const char* name : {"west-first", "north-last", "negative-first"}) {
    const auto router = route::make_router(name, *topo);
    mark::DdpmScheme scheme(*topo);
    mark::DdpmIdentifier identifier(*topo);
    WormholeNetwork net(*topo, *router, &scheme, {});
    bool all_correct = true;
    std::uint64_t checked = 0;
    net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
      ++checked;
      const auto named = identifier.identify(at, p.marking_field());
      all_correct = all_correct && named && *named == p.true_source;
    });
    std::uint64_t expected = 0;
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      for (NodeId d = 0; d < topo->num_nodes(); ++d) {
        if (s == d) continue;
        net.inject(make_packet(*topo, s, d), s);
        ++expected;
      }
    }
    ASSERT_TRUE(net.drain(2000000)) << name;
    EXPECT_EQ(checked, expected) << name;
    EXPECT_TRUE(all_correct) << name;
  }
}

TEST(Wormhole, MarksExactlyOncePerHop) {
  // hops recorded by the wormhole switch must equal the walker's notion:
  // number of links traversed.
  const auto topo = topo::make_topology("mesh:8x8");
  const auto router = route::make_router("dor", *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeNetwork net(*topo, *router, &scheme, {});
  std::uint32_t hops = 0;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId) { hops = p.hops; });
  net.inject(make_packet(*topo, 0, 63), 0);
  ASSERT_TRUE(net.drain(100000));
  EXPECT_EQ(hops, 14u);
}

#if DDPM_TELEMETRY_ENABLED

TEST(Wormhole, BufferOccupancyTotalIsTheFlitForwardCount) {
  // Every flit is forwarded once per link it crosses: hops forwards per
  // flit. Ejection at the destination is not a forward.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeNetwork net(*topo, *router, nullptr, {});
  telemetry::Registry registry;
  net.bind_telemetry(&registry);
  const std::uint64_t flit_bytes = WormholeConfig{}.flit_bytes;
  std::uint64_t expected = 0;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId) {
    const std::uint64_t flits = (p.wire_bytes() + flit_bytes - 1) / flit_bytes;
    expected += flits * p.hops;
  });
  const std::uint32_t payloads[] = {0, 60, 12, 200, 44};
  for (NodeId s = 0; s < topo->num_nodes(); ++s) {
    const NodeId d = (s * 7 + 5) % topo->num_nodes();
    if (d != s) net.inject(make_packet(*topo, s, d, payloads[s % 5]), s);
  }
  ASSERT_TRUE(net.drain(100000));
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].key, "wormhole.buffer_occupancy");
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(snap.histograms[0].total, expected);
}

TEST(Wormhole, RegistryLeavesTheDeliveredCountToTheNetwork) {
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeNetwork net(*topo, *router, nullptr, {});
  telemetry::Registry registry;
  net.bind_telemetry(&registry);
  std::uint64_t hooked = 0;
  net.set_delivery_hook([&](pkt::Packet&&, NodeId) { ++hooked; });
  for (NodeId s = 0; s < topo->num_nodes(); ++s) {
    net.inject(make_packet(*topo, s, (s + 9) % topo->num_nodes()), s);
  }
  ASSERT_TRUE(net.drain(100000));
  EXPECT_EQ(net.delivered(), hooked);
  EXPECT_EQ(net.delivered(), std::uint64_t(topo->num_nodes()));
  // The registry holds the allocation and stall counts and the occupancy
  // histogram; nothing there re-counts deliveries or flit forwards.
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> keys;
  for (const auto& c : snap.counters) keys.push_back(c.key);
  for (const auto& h : snap.histograms) keys.push_back(h.key);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "wormhole.alloc_stalls", "wormhole.credit_stalls",
                      "wormhole.vc_allocs", "wormhole.buffer_occupancy"}));
}

#endif  // DDPM_TELEMETRY_ENABLED

TEST(Wormhole, BackpressureLimitsThroughputNotCorrectness) {
  // Saturating injection: many packets from one source through one link.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("dor", *topo);
  WormholeConfig config;
  config.buffer_flits = 2;
  WormholeNetwork net(*topo, *router, nullptr, config);
  for (int i = 0; i < 100; ++i) net.inject(make_packet(*topo, 0, 3), 0);
  EXPECT_GT(net.injection_backlog(), 0u);
  ASSERT_TRUE(net.drain(1000000));
  EXPECT_EQ(net.delivered(), 100u);
  EXPECT_EQ(net.injection_backlog(), 0u);
}

TEST(Wormhole, InterleavedFlowsDoNotCorruptPackets) {
  // Two flows crossing the same switch: flit streams must not mix. Check
  // by delivering both packets intact (hops and marking sensible).
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("dor", *topo);
  mark::DdpmScheme scheme(*topo);
  mark::DdpmIdentifier identifier(*topo);
  WormholeNetwork net(*topo, *router, &scheme, {});
  int correct = 0;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    const auto named = identifier.identify(at, p.marking_field());
    correct += (named && *named == p.true_source);
  });
  // Flows 0->15 and 12->3 share middle links in opposite directions; and
  // 0->12, 3->15 share columns.
  for (int i = 0; i < 25; ++i) {
    net.inject(make_packet(*topo, 0, 15), 0);
    net.inject(make_packet(*topo, 12, 3), 12);
    net.inject(make_packet(*topo, 0, 12), 0);
    net.inject(make_packet(*topo, 3, 15), 3);
  }
  ASSERT_TRUE(net.drain(1000000));
  EXPECT_EQ(correct, 100);
}

// -- productive-rule byte-identity ------------------------------------------
// Evaluating a router's productive rule in the engine (and the route
// table's neighbor/wrap caches) is an optimization only: every routing
// decision, and therefore every delivered byte, must match the
// virtual-dispatch reference path exactly. Full per-packet evidence:
// delivery order, hop count, delivery cycle, final marking field, and the
// complete node trace.

struct DeliveryEvidence {
  NodeId at;
  NodeId true_source;
  std::uint32_t hops;
  std::uint64_t delivered_at;
  std::uint16_t marking;
  std::vector<NodeId> trace;

  bool operator==(const DeliveryEvidence&) const = default;
};

/// The reference path: forwards everything the network asks a router for
/// but keeps the default empty productive_rule(), so the network calls
/// candidates() through the virtual interface at every allocation.
class VirtualOnlyRouter final : public route::Router {
 public:
  explicit VirtualOnlyRouter(const route::Router& inner)
      : Router(inner.topology()), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool is_deterministic() const noexcept override {
    return inner_.is_deterministic();
  }
  route::PortList candidates(NodeId current, NodeId dest,
                             Port arrived_on) const override {
    return inner_.candidates(current, dest, arrived_on);
  }
  route::PortList fallback_candidates(NodeId current, NodeId dest,
                                      Port arrived_on) const override {
    return inner_.fallback_candidates(current, dest, arrived_on);
  }

 private:
  const route::Router& inner_;
};

/// Uniform load: each cycle every node injects with probability `rate`
/// (to a uniformly drawn other node) for `cycles` cycles. Zero cycles
/// means the burst instead: 400 random pairs injected before cycle 0.
struct Load {
  double rate = 0;
  std::uint64_t cycles = 0;
  std::uint32_t payload = 60;
};

/// Runs `load` on `spec` with DDPM marking and path tracing; `use_tables`
/// false routes through VirtualOnlyRouter, the virtual reference path.
std::vector<DeliveryEvidence> run_traced_scenario(
    const char* spec, const char* router_name, bool use_tables,
    std::string* telemetry_csv = nullptr, int adaptive_vcs = 1,
    Load load = {}) {
  const auto topo = topo::make_topology(spec);
  const auto productive = route::make_router(router_name, *topo);
  const VirtualOnlyRouter reference(*productive);
  const route::Router& router =
      use_tables ? *productive : static_cast<const route::Router&>(reference);
  mark::DdpmScheme scheme(*topo);
  WormholeConfig config;
  config.adaptive_vcs = adaptive_vcs;
  WormholeNetwork net(*topo, router, &scheme, config);
  telemetry::Registry registry;
  if (telemetry_csv != nullptr) net.bind_telemetry(&registry);
  std::vector<DeliveryEvidence> evidence;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    evidence.push_back(DeliveryEvidence{at, p.true_source, p.hops,
                                        p.delivered_at, p.marking_field(),
                                        p.trace});
  });
  netsim::Rng rng(17);
  std::uint64_t injected = 0;
  const auto send = [&](NodeId s) {
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    auto p = make_packet(*topo, s, d, load.payload);
    p.trace.push_back(s);  // opt into per-hop path tracing
    net.inject(std::move(p), s);
    ++injected;
  };
  if (load.cycles == 0) {
    for (int i = 0; i < 400; ++i) send(NodeId(rng.next_below(topo->num_nodes())));
  }
  for (std::uint64_t c = 0; c < load.cycles; ++c) {
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      if (rng.next_bool(load.rate)) send(s);
    }
    net.step();
  }
  EXPECT_TRUE(net.drain(2000000)) << spec << " " << router_name
                                  << " tables=" << use_tables;
  EXPECT_EQ(evidence.size(), injected);
  if (telemetry_csv != nullptr) *telemetry_csv = registry.snapshot().to_csv();
  return evidence;
}

std::uint64_t evidence_digest(const std::vector<DeliveryEvidence>& evidence) {
  std::ostringstream os;
  for (const DeliveryEvidence& e : evidence) {
    os << e.at << ' ' << e.true_source << ' ' << e.hops << ' '
       << e.delivered_at << ' ' << e.marking << ':';
    for (const NodeId n : e.trace) os << ' ' << n;
    os << '\n';
  }
  return fnv1a(os.str());
}

// -- golden digests ----------------------------------------------------------
// The traced scenario's full delivery evidence and its telemetry CSV (every
// probe firing, including stall probes on skipped arbitration candidates and
// buffer-depth histogram samples), fingerprinted and pinned. Any change to
// cycle semantics — allocation order, same-cycle credit visibility, VC-claim
// ordering, arbitration — moves a digest. The constants were recorded when
// two independent engines (an object-graph one and the structure-of-arrays
// one that replaced it) agreed on all of them, with telemetry on and off. A
// deliberate semantic change must re-record them (the failure message
// prints the new values) and say why.

struct GoldenDigest {
  const char* spec;
  const char* router;
  bool use_tables;
  std::uint64_t delivery;
  std::uint64_t telemetry;
};

constexpr GoldenDigest kGoldenDigests[] = {
    {"mesh:8x8", "dor", true, 0xe44e7aa65e2fb52eULL, 0x7321153df7bd3954ULL},
    {"mesh:8x8", "adaptive", true, 0xa8bba3846bac15a9ULL,
     0x84729e4a62e94605ULL},
    {"torus:4x4", "dor", true, 0x5b5de84e733900e9ULL, 0xd1592a86e33850b2ULL},
    {"torus:4x4", "adaptive", true, 0xbfd1cf07b5746ddfULL,
     0xc45225f97f247e79ULL},
    {"torus:4x4", "adaptive", false, 0xbfd1cf07b5746ddfULL,
     0xc45225f97f247e79ULL},
};

TEST(Wormhole, GoldenDigestsPinDeliveryAndTelemetry) {
  for (const GoldenDigest& g : kGoldenDigests) {
    std::string csv;
    const auto evidence =
        run_traced_scenario(g.spec, g.router, g.use_tables, &csv);
    const std::string where = std::string(g.spec) + " " + g.router +
                              (g.use_tables ? " tables=1" : " tables=0");
    EXPECT_EQ(evidence_digest(evidence), g.delivery)
        << where << ": delivery digest 0x" << std::hex
        << evidence_digest(evidence);
#if DDPM_TELEMETRY_ENABLED
    EXPECT_EQ(fnv1a(csv), g.telemetry)
        << where << ": telemetry digest 0x" << std::hex << fnv1a(csv);
#endif
  }
}

// Cells whose traversal arbitration has more than one candidate per port:
// two adaptive VCs on torus:4x4 (up to four units compete for one output
// port, so the round-robin rotation wraps), hypercube:4 adaptive, and
// torus:8x8 adaptive under the benchmark's load shape (4-flit packets at
// 0.06 per node per cycle for 2,000 cycles, then a drain). Recorded with
// the same rules as kGoldenDigests.

struct ArbitrationDigest {
  const char* spec;
  int adaptive_vcs;
  Load load;
  std::uint64_t delivery;
  std::uint64_t telemetry;
};

constexpr ArbitrationDigest kArbitrationDigests[] = {
    {"torus:4x4", 2, {}, 0xf3e08fe1ed05b209ULL, 0xdcad681075bb9d27ULL},
    {"hypercube:4", 1, {}, 0x03f5db74c8d61edeULL, 0x2b9fda5dad8f2cb8ULL},
    {"torus:8x8", 1, {0.06, 2000, 44}, 0x55806aafd2bd6750ULL,
     0xc598d47bb46c5f8fULL},
};

TEST(Wormhole, GoldenDigestsPinMultiCandidateArbitration) {
  for (const ArbitrationDigest& g : kArbitrationDigests) {
    std::string csv;
    const auto evidence = run_traced_scenario(g.spec, "adaptive", true, &csv,
                                              g.adaptive_vcs, g.load);
    const std::string where = std::string(g.spec) + " adaptive vcs=" +
                              std::to_string(g.adaptive_vcs);
    EXPECT_EQ(evidence_digest(evidence), g.delivery)
        << where << ": delivery digest 0x" << std::hex
        << evidence_digest(evidence);
#if DDPM_TELEMETRY_ENABLED
    EXPECT_EQ(fnv1a(csv), g.telemetry)
        << where << ": telemetry digest 0x" << std::hex << fnv1a(csv);
#endif
  }
}

TEST(Wormhole, RouteTablesAreByteIdenticalToVirtualPath) {
  for (const char* spec : {"mesh:8x8", "torus:4x4"}) {
    for (const char* router_name : {"dor", "adaptive"}) {
      const auto fast = run_traced_scenario(spec, router_name, true);
      const auto reference = run_traced_scenario(spec, router_name, false);
      ASSERT_EQ(fast.size(), reference.size()) << spec << " " << router_name;
      for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i], reference[i])
            << spec << " " << router_name << " packet " << i << " diverged "
            << "(delivered at " << fast[i].at << " vs " << reference[i].at
            << ", hops " << fast[i].hops << " vs " << reference[i].hops
            << ")";
      }
    }
  }
}

TEST(Wormhole, ProductiveRuleAboveFourThousandNodesMatchesVirtualPath) {
  // mesh:65x64 has 4,160 nodes, more than the 4,096 above which per-pair
  // route tables were once skipped; the productive rule holds at any size.
  const auto fast = run_traced_scenario("mesh:65x64", "adaptive", true);
  const auto reference = run_traced_scenario("mesh:65x64", "adaptive", false);
  ASSERT_EQ(fast.size(), 400u);
  EXPECT_TRUE(fast == reference);
}

TEST(Wormhole, RejectsUnitCountBeyondTheMaskWidth) {
  // (P+1)*V input units per node must fit the 64-bit per-node masks; an
  // adaptive_vcs burst past that is a configuration error, not a fallback.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.adaptive_vcs = 13;  // (4+1)*(13+1) = 70 units > 64
  EXPECT_THROW(WormholeNetwork(*topo, *router, nullptr, config),
               std::invalid_argument);
  config.adaptive_vcs = 11;  // (4+1)*(11+1) = 60 units: fits
  WormholeNetwork net(*topo, *router, nullptr, config);
  for (int i = 0; i < 50; ++i) net.inject(make_packet(*topo, 0, 15), 0);
  ASSERT_TRUE(net.drain(1000000));
  EXPECT_EQ(net.delivered(), 50u);
}

TEST(Wormhole, InitialTtlMustCoverTheDiameter) {
  // Each allocating switch decrements the TTL once, so the corner-to-corner
  // route of mesh:4x4 (6 hops, the diameter) needs a TTL of exactly 6.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.initial_ttl = 6;
  WormholeNetwork net(*topo, *router, nullptr, config);
  net.inject(make_packet(*topo, 0, 15), 0);
  ASSERT_TRUE(net.drain(10000));
  EXPECT_EQ(net.delivered(), 1u);
  EXPECT_EQ(net.dropped_ttl(), 0u);

  config.initial_ttl = 5;
  try {
    WormholeNetwork short_ttl(*topo, *router, nullptr, config);
    ADD_FAILURE() << "initial_ttl 5 below diameter 6 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("initial_ttl = 5"), std::string::npos) << what;
    EXPECT_NE(what.find("diameter 6"), std::string::npos) << what;
  }
}

TEST(Wormhole, CachedMasksHoldAfterEveryCycleUnderLoad) {
  // check_protocol_invariants also recomputes every cached mask (occupancy,
  // active-node bitmap, request, transit, port-request) from the unit
  // records; assert it after each cycle of a loaded run and its drain.
  for (const char* spec : {"mesh:8x8", "torus:4x4", "hypercube:4"}) {
    const auto topo = topo::make_topology(spec);
    const auto router = route::make_router("adaptive", *topo);
    WormholeConfig config;
    config.adaptive_vcs = 2;
    WormholeNetwork net(*topo, *router, nullptr, config);
    netsim::Rng rng(5);
    std::string why;
    bool holds = true;
    constexpr std::uint64_t kLoadCycles = 800;
    for (std::uint64_t c = 0; holds && c < 20000; ++c) {
      const bool loading = c < kLoadCycles;
      if (!loading && net.flits_in_flight() == 0) break;
      for (NodeId s = 0; loading && s < topo->num_nodes(); ++s) {
        if (!rng.next_bool(0.08)) continue;
        auto d = NodeId(rng.next_below(topo->num_nodes()));
        if (d == s) d = (d + 1) % topo->num_nodes();
        net.inject(make_packet(*topo, s, d), s);
      }
      net.step();
      holds = net.check_protocol_invariants(&why);
    }
    EXPECT_TRUE(holds) << spec << " after cycle " << net.cycle() << ": "
                       << why;
    EXPECT_EQ(net.flits_in_flight(), 0u) << spec;
  }
}

TEST(Wormhole, RejectsTheRemovedObjectGraphEngine) {
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.use_soa_engine = false;
  EXPECT_THROW(WormholeNetwork(*topo, *router, nullptr, config),
               std::invalid_argument);
}

TEST(Wormhole, RejectsDisabledRouteTablesFlag) {
  // The network always routes from its route table; the old on/off toggle
  // is rejected rather than ignored.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.use_route_tables = false;
  EXPECT_THROW(WormholeNetwork(*topo, *router, nullptr, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddpm::wormhole
