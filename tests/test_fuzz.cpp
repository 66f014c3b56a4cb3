// Randomized robustness tests: hostile or random inputs must never crash,
// corrupt state, or violate documented invariants. Reference-model checks
// pin the event wheel against std::multimap.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <type_traits>

#include <sstream>

#include "core/parse_number.hpp"
#include "ddpm_reference.hpp"
#include "hybrid/hybrid.hpp"
#include "indirect/port_stamp.hpp"
#include "irregular/irregular.hpp"
#include "marking/ddpm.hpp"
#include "netsim/event_wheel.hpp"
#include "netsim/rng.hpp"
#include "packet/ip_header.hpp"
#include "packet/marking_field.hpp"
#include "topology/factory.hpp"
#include "trace/trace.hpp"

namespace ddpm {
namespace {

TEST(Fuzz, IpHeaderParseNeverCrashesOnRandomBytes) {
  netsim::Rng rng(1);
  int parsed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::array<std::uint8_t, pkt::IpHeader::kWireSize> wire;
    for (auto& b : wire) b = std::uint8_t(rng.next_u64());
    try {
      const auto h = pkt::IpHeader::parse(wire);
      ++parsed;
      // Anything that parses must re-serialize to valid wire format.
      EXPECT_NO_THROW(pkt::IpHeader::parse(h.serialize()));
    } catch (const std::invalid_argument&) {
      // expected for almost all random byte strings
    }
  }
  // Random bytes essentially never carry a valid version + checksum.
  EXPECT_LT(parsed, 10);
}

TEST(Fuzz, IpHeaderRoundTripRandomFields) {
  netsim::Rng rng(2);
  for (int trial = 0; trial < 5000; ++trial) {
    pkt::IpHeader h(pkt::Ipv4Address(rng.next_u64()),
                    pkt::Ipv4Address(rng.next_u64()),
                    rng.next_bool(0.5) ? pkt::IpProto::kTcp
                                       : pkt::IpProto::kUdp,
                    std::uint16_t(rng.next_below(1480)));
    h.set_identification(std::uint16_t(rng.next_u64()));
    h.set_ttl(std::uint8_t(rng.next_u64()));
    const auto parsed = pkt::IpHeader::parse(h.serialize());
    EXPECT_EQ(parsed.source(), h.source());
    EXPECT_EQ(parsed.destination(), h.destination());
    EXPECT_EQ(parsed.identification(), h.identification());
    EXPECT_EQ(parsed.ttl(), h.ttl());
    EXPECT_EQ(parsed.total_length(), h.total_length());
  }
}

TEST(Fuzz, EventWheelMatchesReferenceModel) {
  netsim::EventWheel queue;
  std::multimap<std::pair<netsim::SimTime, std::uint64_t>, int> reference;
  netsim::Rng rng(3);
  std::uint64_t seq = 0;
  int fired_total = 0;
  std::vector<int> fired;
  for (int op = 0; op < 20000; ++op) {
    if (rng.next_below(10) < 5) {  // schedule
      // Offset from the monotonicity watermark: the queue contracts that no
      // event lands before the most recently popped instant. The span
      // reaches past the 1024-tick window, so both stores are exercised.
      const netsim::SimTime when = queue.last_popped_time() + rng.next_below(2000);
      const int tag = op;
      queue.schedule(when, [&fired, tag] { fired.push_back(tag); });
      reference.emplace(std::make_pair(when, seq++), tag);
    } else if (!queue.empty()) {  // pop
      ASSERT_FALSE(reference.empty());
      const auto expected = reference.begin();
      EXPECT_EQ(queue.next_time(), expected->first.first);
      auto [when, action] = queue.pop();
      action();
      ++fired_total;
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(when, expected->first.first);
      EXPECT_EQ(fired.back(), expected->second);
      reference.erase(expected);
    }
  }
  EXPECT_GT(fired_total, 1000);
}

TEST(Fuzz, MarkingFieldSlicesNeverInterfere) {
  // Random disjoint slices written in random order must read back intact.
  netsim::Rng rng(4);
  for (int trial = 0; trial < 5000; ++trial) {
    // Partition 16 bits into 1-4 random slices.
    std::vector<pkt::FieldSlice> slices;
    unsigned offset = 0;
    while (offset < 16) {
      const unsigned width =
          1 + unsigned(rng.next_below(std::min(16u - offset, 6u)));
      slices.push_back({offset, width});
      offset += width;
    }
    std::vector<std::uint16_t> values(slices.size());
    std::uint16_t field = std::uint16_t(rng.next_u64());
    // Write in shuffled order.
    for (std::size_t k = slices.size(); k-- > 0;) {
      const std::size_t i = rng.next_below(slices.size());
      values[i] = std::uint16_t(rng.next_below(1u << slices[i].width));
      field = pkt::write_unsigned(field, slices[i], values[i]);
    }
    // Everything written must read back (unwritten slices unspecified).
    for (std::size_t i = 0; i < slices.size(); ++i) {
      // Only check slices we know were last written with values[i]; since
      // each index may be written several times, re-write then check all.
      field = pkt::write_unsigned(field, slices[i], values[i]);
    }
    for (std::size_t i = 0; i < slices.size(); ++i) {
      EXPECT_EQ(pkt::read_unsigned(field, slices[i]), values[i]);
    }
  }
}

TEST(Fuzz, DdpmIdentifierSafeOnRandomFields) {
  // Random (possibly hostile) marking fields: identify() either names an
  // in-range node or declines; it must never throw or return garbage ids.
  for (const char* spec : {"mesh:6x6", "torus:8x8", "hypercube:7",
                           "mesh:3x5x4"}) {
    const auto topo = topo::make_topology(spec);
    mark::DdpmIdentifier identifier(*topo);
    netsim::Rng rng(5);
    for (int trial = 0; trial < 20000; ++trial) {
      const auto victim = topo::NodeId(rng.next_below(topo->num_nodes()));
      const auto field = std::uint16_t(rng.next_u64());
      const auto named = identifier.identify(victim, field);
      if (named) {
        EXPECT_LT(*named, topo->num_nodes());
      }
    }
  }
}

TEST(Fuzz, DdpmSchemeSurvivesHostileFieldsMidRoute) {
  // A scheme fed arbitrary field values (tampering) must keep working:
  // saturating arithmetic, never throwing, and the same field the
  // whole-vector reference computes.
  const auto topo = topo::make_topology("mesh:6x6");
  mark::DdpmScheme scheme(*topo);
  netsim::Rng rng(6);
  pkt::Packet p;
  std::uint64_t saturations = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    p.set_marking_field(std::uint16_t(rng.next_u64()));
    const auto a = topo::NodeId(rng.next_below(topo->num_nodes()));
    const auto neighbors = topo->neighbors(a);
    const auto b = neighbors[rng.next_below(neighbors.size())];
    const std::uint16_t want = reference::ddpm_forward(
        *topo, scheme.codec(), p.marking_field(), a, b, saturations);
    EXPECT_NO_THROW(scheme.on_forward(p, a, b));
    EXPECT_EQ(p.marking_field(), want);
  }
  EXPECT_GT(saturations, 0u);
}

TEST(Fuzz, PortStampIdentifySafeOnRandomFields) {
  indirect::Butterfly net(3, 3);  // non-power-of-two radix: dead code points
  indirect::PortStampScheme scheme(net);
  netsim::Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto field = std::uint16_t(rng.next_u64());
    const auto named = scheme.identify(field);
    if (named) {
      EXPECT_LT(*named, net.num_terminals());
    }
  }
}

TEST(Fuzz, IrregularTopologiesAlwaysFullyRoutable) {
  // Random graph parameters: up*/down* must route every pair on every
  // instance (deadlock-free routability is a theorem; this hunts for
  // implementation gaps in the orientation/state-graph code).
  netsim::Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    const auto nodes = irregular::NodeId(8 + rng.next_below(40));
    const auto max_extra =
        std::size_t(nodes) * (nodes - 1) / 2 - (nodes - 1);
    const auto extra = std::size_t(rng.next_below(
        std::min<std::size_t>(max_extra + 1, std::size_t(nodes) * 2)));
    irregular::IrregularTopology topo(nodes, extra, rng.next_u64());
    irregular::UpDownRouter router(topo);
    for (irregular::NodeId s = 0; s < nodes; ++s) {
      for (irregular::NodeId d = 0; d < nodes; ++d) {
        if (s == d) continue;
        ASSERT_GT(router.legal_distance(s, d), 0)
            << topo.spec() << " " << s << "->" << d;
      }
    }
  }
}

TEST(Fuzz, HybridCodecRandomRoundTrip) {
  hybrid::HybridTopology topo(16, 16);
  hybrid::HierarchicalDdpmCodec codec(topo);
  netsim::Rng rng(10);
  for (int trial = 0; trial < 20000; ++trial) {
    const int local = int(rng.next_below(16));
    const topo::Coord v{int(rng.next_in(-15, 15)), int(rng.next_in(-15, 15))};
    const auto field = codec.encode(local, v);
    EXPECT_EQ(codec.decode_local(field), local);
    EXPECT_EQ(codec.decode_vector(field), v);
  }
}

TEST(Fuzz, TraceParserNeverCrashesOnMangledRows) {
  netsim::Rng rng(11);
  const std::string header = trace::TraceWriter::header();
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line;
    const auto len = rng.next_below(60);
    for (std::uint64_t i = 0; i < len; ++i) {
      const char chars[] = "0123456789,abc -";
      line += chars[rng.next_below(sizeof(chars) - 1)];
    }
    std::istringstream in(header + "\n" + line + "\n");
    try {
      (void)trace::read_trace(in);
    } catch (const std::invalid_argument&) {
      // expected for malformed rows
    }
  }
}

/// parse_number on `text` as a T; when accepted, the printed value must
/// parse back to exactly the same number. Returns whether it accepted.
template <typename T>
bool parses_and_round_trips(const std::string& text) {
  T value{};
  if (!core::parse_number(text, value)) return false;
  T again{};
  EXPECT_TRUE(core::parse_number(core::format_number(value), again)) << text;
  EXPECT_EQ(again, value) << text;
  if constexpr (std::is_floating_point_v<T>) {
    EXPECT_TRUE(std::isfinite(value)) << text;
  }
  return true;
}

TEST(Fuzz, ParseNumberNeverCrashesAndRoundTrips) {
  netsim::Rng rng(12);
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text;
    const auto len = rng.next_below(24);
    for (std::uint64_t i = 0; i < len; ++i) {
      // Mostly number-shaped characters, with a tail of arbitrary bytes.
      const char chars[] = "0123456789-+.eEinfaINx ";
      text += rng.next_bool(0.9) ? chars[rng.next_below(sizeof(chars) - 1)]
                                 : char(rng.next_below(256));
    }
    accepted += parses_and_round_trips<std::uint32_t>(text);
    accepted += parses_and_round_trips<std::uint64_t>(text);
    accepted += parses_and_round_trips<int>(text);
    accepted += parses_and_round_trips<double>(text);
  }
  EXPECT_GT(accepted, 1000) << "the generator should reach the accept path";
}

TEST(Fuzz, CodecDecodeEncodeStable) {
  // decode may read any field; encode(decode(f)) must preserve the bits
  // the codec owns (idempotent normalization).
  const auto topo = topo::make_topology("torus:8x8");
  mark::DdpmCodec codec(*topo);
  netsim::Rng rng(8);
  for (int trial = 0; trial < 10000; ++trial) {
    const auto f = std::uint16_t(rng.next_u64());
    const auto v = codec.decode(f);
    const auto f2 = codec.encode(v);
    EXPECT_EQ(codec.decode(f2), v);
  }
}

}  // namespace
}  // namespace ddpm
