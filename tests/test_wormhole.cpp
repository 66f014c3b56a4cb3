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

namespace ddpm::wormhole {
namespace {

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

// -- route-table byte-identity ---------------------------------------------
// The precomputed tables (escape next hop, adaptive candidate bitmasks,
// neighbor/wrap caches) are an optimization only: every routing decision,
// and therefore every delivered byte, must match the virtual-dispatch
// reference path exactly. Full per-packet evidence: delivery order, hop
// count, delivery cycle, final marking field, and the complete node trace.

struct DeliveryEvidence {
  NodeId at;
  NodeId true_source;
  std::uint32_t hops;
  std::uint64_t delivered_at;
  std::uint16_t marking;
  std::vector<NodeId> trace;

  bool operator==(const DeliveryEvidence&) const = default;
};

std::vector<DeliveryEvidence> run_traced_scenario(
    const char* spec, const char* router_name, bool use_tables,
    std::string* telemetry_csv = nullptr) {
  const auto topo = topo::make_topology(spec);
  const auto router = route::make_router(router_name, *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeConfig config;
  if (!use_tables) config.route_table_max_nodes = 0;  // virtual path
  WormholeNetwork net(*topo, *router, &scheme, config);
  EXPECT_EQ(net.using_route_tables(), use_tables);
  telemetry::Registry registry;
  if (telemetry_csv != nullptr) net.bind_telemetry(&registry);
  std::vector<DeliveryEvidence> evidence;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    evidence.push_back(DeliveryEvidence{at, p.true_source, p.hops,
                                        p.delivered_at, p.marking_field(),
                                        p.trace});
  });
  netsim::Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    const auto s = NodeId(rng.next_below(topo->num_nodes()));
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    auto p = make_packet(*topo, s, d);
    p.trace.push_back(s);  // opt into per-hop path tracing
    net.inject(std::move(p), s);
  }
  EXPECT_TRUE(net.drain(2000000)) << spec << " " << router_name
                                  << " tables=" << use_tables;
  EXPECT_EQ(evidence.size(), 400u);
  if (telemetry_csv != nullptr) *telemetry_csv = registry.snapshot().to_csv();
  return evidence;
}

/// FNV-1a, as tests/test_determinism.cpp fingerprints reports.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
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
    {"mesh:8x8", "dor", true, 0xe44e7aa65e2fb52eULL, 0xbb00db3c570a1228ULL},
    {"mesh:8x8", "adaptive", true, 0xa8bba3846bac15a9ULL,
     0xf22ce5b46f283c59ULL},
    {"torus:4x4", "dor", true, 0x5b5de84e733900e9ULL, 0x33af5607dfd7ab7eULL},
    {"torus:4x4", "adaptive", true, 0xbfd1cf07b5746ddfULL,
     0xa2208531b783922fULL},
    {"torus:4x4", "adaptive", false, 0xbfd1cf07b5746ddfULL,
     0xa2208531b783922fULL},
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

TEST(Wormhole, RejectsTheRemovedObjectGraphEngine) {
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.use_soa_engine = false;
  EXPECT_THROW(WormholeNetwork(*topo, *router, nullptr, config),
               std::invalid_argument);
}

TEST(Wormhole, RouteTablesRespectNodeBudget) {
  // Over budget -> the network must fall back to the virtual path (and
  // still work) rather than build O(N^2) tables.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.route_table_max_nodes = 0;  // below the 16 nodes of mesh:4x4
  WormholeNetwork net(*topo, *router, nullptr, config);
  EXPECT_FALSE(net.using_route_tables());
  net.inject(make_packet(*topo, 0, 15), 0);
  ASSERT_TRUE(net.drain(10000));
  EXPECT_EQ(net.delivered(), 1u);
}

TEST(Wormhole, RejectsDisabledRouteTablesFlag) {
  // The virtual reference path is route_table_max_nodes = 0; the old
  // on/off toggle is no longer a second way to ask for it.
  const auto topo = topo::make_topology("mesh:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeConfig config;
  config.use_route_tables = false;
  EXPECT_THROW(WormholeNetwork(*topo, *router, nullptr, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddpm::wormhole
