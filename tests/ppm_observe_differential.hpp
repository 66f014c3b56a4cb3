// Differential check shared by the PPM identifier tests: observe() returns a
// remembered answer between new marks, so after every packet it must equal
// what a fresh origins() derives from the collected marks.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "marking/walk.hpp"
#include "netsim/rng.hpp"
#include "routing/router.hpp"

namespace ddpm::mark {

/// Feeds `identifier` `packets` packets and compares observe() against
/// origins() after each one. The stream mixes adaptive-routed walks from
/// several sources, walks whose Marking Field an attacker pre-loaded, and
/// raw random fields (out-of-range node ids, level gaps). The victim
/// switches twice mid-stream, alternates quickly near the end, and the
/// identifier is reset once in between.
template <class Identifier>
void expect_observe_matches_origins(const topo::Topology& topo,
                                    MarkingScheme& scheme,
                                    Identifier& identifier, std::uint64_t seed,
                                    int packets) {
  const auto router = route::make_router("adaptive", topo);
  netsim::Rng rng(seed);
  const NodeId n = topo.num_nodes();
  // Disjoint on every fabric of six or more nodes.
  const std::array<NodeId, 2> victims{n - 1, n / 3};
  const std::array<NodeId, 4> sources{0, 1, n / 2, n - 2};
  for (int i = 0; i < packets; ++i) {
    if (i == packets / 2) identifier.reset();
    NodeId victim = victims[0];
    if (i >= packets / 4 && i < packets / 2) victim = victims[1];
    if (i >= 3 * packets / 4) victim = victims[std::size_t(i / 5) % 2];
    const std::uint64_t kind = rng.next_below(10);
    pkt::Packet packet;
    if (kind < 8) {
      const NodeId src = sources[rng.next_below(sources.size())];
      WalkOptions options;
      options.seed = rng.next_u64();
      options.record_path = false;
      const auto seeded =
          kind < 6 ? std::uint16_t{0} : std::uint16_t(rng.next_u64());
      const auto walk =
          walk_packet(topo, *router, &scheme, src, victim, options, seeded);
      if (!walk.delivered()) continue;
      packet = walk.packet;
    } else {
      packet.set_marking_field(std::uint16_t(rng.next_u64()));
    }
    const auto observed = identifier.observe(packet, victim);
    ASSERT_EQ(observed, identifier.origins(victim))
        << topo.spec() << " packet " << i << " field "
        << packet.marking_field();
  }
}

}  // namespace ddpm::mark
