#include "marking/ppm_reconstruct.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ddpm::mark {

PpmIdentifier::PpmIdentifier(const topo::Topology& topo, PpmVariant variant)
    : topo_(topo),
      variant_(variant),
      layout_(PpmLayout::for_topology(variant, topo)) {
  if (!layout_.fits) {
    throw std::invalid_argument("PpmIdentifier: " + to_string(variant) +
                                " needs " + std::to_string(layout_.total_bits) +
                                " bits on " + topo.spec() +
                                ", Marking Field has 16");
  }
}

void PpmIdentifier::reset() {
  marks_by_level_.clear();
  unique_marks_ = 0;
}

std::vector<NodeId> PpmIdentifier::observe(const pkt::Packet& packet,
                                           NodeId victim) {
  const std::uint16_t field = packet.marking_field();
  const int level = int(pkt::read_unsigned(field, layout_.distance));
  RawMark mark{};
  mark.start = pkt::read_unsigned(field, layout_.start);
  switch (variant_) {
    case PpmVariant::kFullEdge:
      mark.aux = pkt::read_unsigned(field, layout_.end);
      break;
    case PpmVariant::kBitDiff:
      mark.aux = layout_.bitpos.width > 0
                     ? pkt::read_unsigned(field, layout_.bitpos)
                     : 0;
      break;
    case PpmVariant::kXor:
      mark.aux = 0;
      break;
  }
  if (level == 0) mark.aux = 0;  // end/bitpos are stale in half-written marks
  if (marks_by_level_[level].insert(mark).second) {
    ++unique_marks_;
    origins_victim_.reset();
  }
  if (origins_victim_ != victim) {
    origins_ = origins(victim);
    origins_victim_ = victim;
  }
  return origins_;
}

std::vector<NodeId> PpmIdentifier::expand(const RawMark& mark, int level,
                                          const std::set<NodeId>& prev,
                                          NodeId victim) const {
  std::vector<NodeId> out;
  if (level == 0) {
    // Half-written mark: `start` is the last forwarding switch, which must
    // be a neighbor of the victim (map validation). For the XOR layout the
    // level-0 value is also the raw start index.
    const NodeId a = mark.start;
    if (!topo_.contains(a)) return out;
    if (topo_.port_to(a, victim).has_value()) out.push_back(a);
    return out;
  }
  switch (variant_) {
    case PpmVariant::kFullEdge: {
      const NodeId a = mark.start;
      const NodeId b = mark.aux;
      if (!topo_.contains(a) || !topo_.contains(b)) break;
      if (!topo_.port_to(a, b).has_value()) break;  // not a real edge: spoofed
      if (prev.count(b)) out.push_back(a);
      break;
    }
    case PpmVariant::kXor: {
      // Any edge (a, b) with a ^ b == value and b consistent below.
      for (const NodeId b : prev) {
        const NodeId a = NodeId(mark.start) ^ b;
        if (topo_.contains(a) && topo_.port_to(a, b).has_value()) {
          out.push_back(a);
        }
      }
      break;
    }
    case PpmVariant::kBitDiff: {
      const NodeId a = mark.start;
      if (!topo_.contains(a)) break;
      // Successor candidates: neighbors of `a` whose id differs from `a`
      // with the recorded lowest set bit.
      for (const NodeId b : topo_.neighbors(a)) {
        const NodeId diff = a ^ b;
        const unsigned pos = unsigned(std::countr_zero(diff));
        const unsigned stored_bits = layout_.bitpos.width;
        const unsigned masked =
            stored_bits >= 16 ? pos : (pos & ((1u << stored_bits) - 1u));
        if (masked == mark.aux && prev.count(b)) {
          out.push_back(a);
          break;
        }
      }
      break;
    }
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> PpmIdentifier::chain_edges(
    NodeId victim) const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::set<NodeId> prev;
  int expected = 0;
  for (const auto& [level, marks] : marks_by_level_) {
    if (level != expected) break;
    std::set<NodeId> here;
    for (const RawMark& m : marks) {
      for (NodeId a : expand(m, level, prev, victim)) {
        here.insert(a);
        if (level == 0) {
          edges.emplace_back(a, victim);
        } else {
          // Record the (a, b) pairs this mark certifies.
          for (const NodeId b : prev) {
            const bool linked =
                variant_ == PpmVariant::kFullEdge
                    ? (NodeId(m.start) == a && NodeId(m.aux) == b)
                    : topo_.port_to(a, b).has_value();
            if (linked) edges.emplace_back(a, b);
          }
        }
      }
    }
    if (here.empty()) break;
    prev = std::move(here);
    ++expected;
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<NodeId> PpmIdentifier::origins(NodeId victim) const {
  if (marks_by_level_.empty()) return {};
  // consistent[d]: nodes that can start a chain segment at level d.
  std::map<int, std::set<NodeId>> consistent;
  std::set<NodeId> prev;  // consistent set at level-1
  int expected = 0;
  for (const auto& [level, marks] : marks_by_level_) {
    if (level != expected) break;  // gap: deeper marks cannot chain yet
    std::set<NodeId>& here = consistent[level];
    for (const RawMark& m : marks) {
      for (NodeId a : expand(m, level, prev, victim)) here.insert(a);
    }
    if (here.empty()) {
      consistent.erase(level);
      break;
    }
    prev = here;
    ++expected;
  }
  if (consistent.empty()) return {};
  // Leaves: consistent starts with no deeper consistent mark pointing at
  // them (no level-(d+1) chain continues through them).
  std::vector<NodeId> leaves;
  for (const auto& [level, nodes] : consistent) {
    const auto next = consistent.find(level + 1);
    for (NodeId a : nodes) {
      bool continued = false;
      if (next != consistent.end()) {
        // A deeper chain continues through `a` if some consistent start at
        // level+1 is adjacent to `a` via an observed mark. Conservatively,
        // treat any consistent level+1 start adjacent to `a` as continuing.
        for (NodeId deeper : next->second) {
          if (topo_.port_to(deeper, a).has_value()) {
            continued = true;
            break;
          }
        }
      }
      if (!continued) leaves.push_back(a);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return leaves;
}

}  // namespace ddpm::mark
