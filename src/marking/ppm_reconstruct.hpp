// Victim-side PPM path reconstruction (paper §2, §4.2).
//
// The victim buckets received marks by distance and stitches them into
// chains: a level-d mark (start A, end B) is consistent if (A,B) is a real
// topology edge and B is a consistent start at level d-1. Level-0 starts
// must be neighbors of the victim. Chain "leaves" — consistent starts with
// no deeper consistent mark pointing at them — are the current origin
// candidates. With the full-edge layout and a stable route the unique leaf
// converges to the true source once every edge of the path has been
// sampled; the XOR and bit-difference layouts admit multiple (A,B) pairs
// per mark, which is precisely the reconstruction ambiguity §4.2 analyzes.
//
// The class follows the Song-Perrig assumption the paper cites: the victim
// has a complete map of the interconnect, so it can (and does) discard
// marks that name non-edges — the only defense PPM has against
// attacker-seeded marks.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "marking/ppm.hpp"
#include "marking/scheme.hpp"

namespace ddpm::mark {

class PpmIdentifier final : public SourceIdentifier {
 public:
  /// Throws std::invalid_argument if the variant's layout does not fit the
  /// 16-bit field on `topo` (the same check PpmScheme makes).
  PpmIdentifier(const topo::Topology& topo, PpmVariant variant);

  std::string name() const override { return to_string(variant_) + "-id"; }

  /// Ingests the packet's mark and returns the current origin candidates
  /// (chain leaves). The candidate set evolves as marks accumulate; PPM has
  /// no single-packet answer. Reconstruction depends only on the distinct
  /// marks, so the answer is recomputed only when the mark is new or the
  /// victim differs from the previous call.
  std::vector<NodeId> observe(const pkt::Packet& packet, NodeId victim) override;

  void reset() override;

  /// Unique marks collected so far (diagnostic).
  std::size_t unique_marks() const noexcept { return unique_marks_; }

  /// Current origin candidates without ingesting a packet.
  std::vector<NodeId> origins(NodeId victim) const;

  /// The chain edges currently consistent with the collected marks,
  /// oriented toward the victim as (from, to) pairs — the attack-path
  /// reconstruction an analyst would plot (analysis::AttackGraph). Only
  /// the full-edge layout yields unambiguous edges; the other variants
  /// return the edges compatible with their candidate sets.
  std::vector<std::pair<NodeId, NodeId>> chain_edges(NodeId victim) const;

 private:
  struct RawMark {
    std::uint16_t start;  // full/bit-diff: start index; XOR: a^b (or raw start at d=0)
    std::uint16_t aux;    // full: end index; bit-diff: bit position; XOR: unused
    bool operator<(const RawMark& o) const noexcept {
      return start < o.start || (start == o.start && aux < o.aux);
    }
  };

  /// Nodes that can be the level-d start given a mark and the level-(d-1)
  /// consistent set.
  std::vector<NodeId> expand(const RawMark& mark, int level,
                             const std::set<NodeId>& prev, NodeId victim) const;

  const topo::Topology& topo_;
  PpmVariant variant_;
  PpmLayout layout_;
  std::map<int, std::set<RawMark>> marks_by_level_;
  std::size_t unique_marks_ = 0;
  // origins(*origins_victim_) as of the last observe(); cleared by a new
  // mark, which the first one after reset() always is.
  std::vector<NodeId> origins_;
  std::optional<NodeId> origins_victim_;
};

}  // namespace ddpm::mark
