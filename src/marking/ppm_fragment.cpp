#include "marking/ppm_fragment.hpp"

#include <array>
#include <stdexcept>

namespace ddpm::mark {

std::uint32_t FragmentLayout::h22(std::uint32_t index) {
  std::uint64_t z = index + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return std::uint32_t(z) & ((1u << kHashBits) - 1u);
}

std::uint32_t FragmentLayout::word(topo::NodeId node) {
  return (std::uint32_t(node) << kHashBits) | h22(std::uint32_t(node));
}

std::uint8_t FragmentLayout::fragment_of(std::uint32_t word, int offset) {
  return std::uint8_t(word >> (unsigned(offset) * kFragmentBits));
}

bool FragmentLayout::supports(const topo::Topology& topo) {
  return topo.num_nodes() <= (1u << kIndexBits) &&
         topo.diameter() <= kMaxDistance;
}

FragmentPpmScheme::FragmentPpmScheme(const topo::Topology& topo,
                                     double marking_probability,
                                     std::uint64_t seed)
    : p_(marking_probability), rng_(seed) {
  if (!FragmentLayout::supports(topo)) {
    throw std::invalid_argument(
        "FragmentPpmScheme: needs <= 1024 nodes and diameter <= 31 (" +
        topo.spec() + ")");
  }
  if (p_ <= 0.0 || p_ > 1.0) {
    throw std::invalid_argument("FragmentPpmScheme: bad probability");
  }
}

void FragmentPpmScheme::on_forward(pkt::Packet& packet, NodeId current,
                                   NodeId /*next*/) {
  std::uint16_t field = packet.marking_field();
  if (rng_.next_bool(p_)) {
    const int offset = int(rng_.next_below(FragmentLayout::kFragments));
    field = pkt::write_unsigned(field, FragmentLayout::offset(),
                                std::uint16_t(offset));
    field = pkt::write_unsigned(field, FragmentLayout::distance(), 0);
    field = pkt::write_unsigned(
        field, FragmentLayout::fragment(),
        FragmentLayout::fragment_of(FragmentLayout::word(current), offset));
  } else {
    const int d = int(pkt::read_unsigned(field, FragmentLayout::distance()));
    if (d == 0) {
      // Complete the edge: XOR in our fragment at the stored offset.
      const int offset =
          int(pkt::read_unsigned(field, FragmentLayout::offset()));
      const auto mine =
          FragmentLayout::fragment_of(FragmentLayout::word(current), offset);
      field = pkt::write_unsigned(
          field, FragmentLayout::fragment(),
          std::uint16_t(pkt::read_unsigned(field, FragmentLayout::fragment()) ^
                        mine));
    }
    if (d < FragmentLayout::kMaxDistance) {
      field = pkt::write_unsigned(field, FragmentLayout::distance(),
                                  std::uint16_t(d + 1));
    }
  }
  packet.set_marking_field(field);
}

FragmentPpmIdentifier::FragmentPpmIdentifier(const topo::Topology& topo)
    : topo_(topo) {
  if (!FragmentLayout::supports(topo)) {
    throw std::invalid_argument("FragmentPpmIdentifier: topology unsupported");
  }
}

void FragmentPpmIdentifier::reset() {
  levels_.clear();
  unique_ = 0;
}

std::vector<NodeId> FragmentPpmIdentifier::observe(const pkt::Packet& packet,
                                                   NodeId victim) {
  const std::uint16_t field = packet.marking_field();
  const int level = int(pkt::read_unsigned(field, FragmentLayout::distance()));
  const int offset = int(pkt::read_unsigned(field, FragmentLayout::offset()));
  const auto fragment =
      std::uint8_t(pkt::read_unsigned(field, FragmentLayout::fragment()));
  if (levels_[level][std::size_t(offset)].insert(fragment).second) {
    ++unique_;
    origins_victim_.reset();
  }
  if (origins_victim_ != victim) {
    origins_ = origins(victim);
    origins_victim_ = victim;
  }
  return origins_;
}

std::vector<NodeId> FragmentPpmIdentifier::origins(NodeId victim) const {
  // Walk levels from the victim outward; `prev` holds the verified chain
  // nodes one level closer to the victim.
  std::set<NodeId> prev;
  std::set<NodeId> result;
  int expected = 0;
  for (const auto& [level, sets] : levels_) {
    if (level != expected) break;  // gap: cannot chain deeper yet
    // All offsets must have at least one fragment, and the cross-product
    // must stay tractable.
    std::size_t combos = 1;
    bool complete = true;
    for (const auto& s : sets) {
      if (s.empty()) {
        complete = false;
        break;
      }
      combos *= s.size();
    }
    if (!complete || combos > kComboCap) break;
    std::set<NodeId> here;
    // Enumerate the cross-product of fragment choices.
    std::array<std::set<std::uint8_t>::const_iterator,
               FragmentLayout::kFragments>
        its{sets[0].begin(), sets[1].begin(), sets[2].begin(),
            sets[3].begin()};
    for (;;) {
      std::uint32_t w = 0;
      for (int o = 0; o < FragmentLayout::kFragments; ++o) {
        w |= std::uint32_t(*its[std::size_t(o)])
             << (unsigned(o) * FragmentLayout::kFragmentBits);
      }
      if (level == 0) {
        // Half-written mark: w must BE some neighbor's word.
        const NodeId a = NodeId(w >> FragmentLayout::kHashBits);
        if (topo_.contains(a) && FragmentLayout::word(a) == w &&
            topo_.port_to(a, victim).has_value()) {
          here.insert(a);
        }
      } else {
        // w = word(a) ^ word(b) for edge (a, b) with b one level closer.
        for (const NodeId b : prev) {
          const NodeId a =
              NodeId((w >> FragmentLayout::kHashBits) ^ std::uint32_t(b));
          if (!topo_.contains(a)) continue;
          const std::uint32_t expected_hash =
              (FragmentLayout::h22(std::uint32_t(a)) ^
               FragmentLayout::h22(std::uint32_t(b)));
          if ((w & ((1u << FragmentLayout::kHashBits) - 1u)) != expected_hash) {
            continue;
          }
          if (topo_.port_to(a, b).has_value()) here.insert(a);
        }
      }
      // Advance the odometer.
      int o = 0;
      for (; o < FragmentLayout::kFragments; ++o) {
        if (++its[std::size_t(o)] != sets[std::size_t(o)].end()) break;
        its[std::size_t(o)] = sets[std::size_t(o)].begin();
      }
      if (o == FragmentLayout::kFragments) break;
    }
    if (here.empty()) break;
    result = here;  // deepest fully-chained level's candidates
    prev = std::move(here);
    ++expected;
  }
  return std::vector<NodeId>(result.begin(), result.end());
}

}  // namespace ddpm::mark
