// Compressed edge-fragment sampling — Savage's full Internet PPM encoding
// (paper §2: "they proposed an encoding scheme which hashes IP addresses
// and writes a fraction of it", with expected packets k ln(kd)/(p(1-p)^(d-1))).
//
// Adaptation to the cluster index space: each switch r owns a 32-bit word
//   word(r) = (index(r) << 22) | h22(index(r))
// (10-bit index, 22-bit hash — the scaled-down analogue of Savage's 32-bit
// address + 32-bit hash). A marking switch picks a random fragment offset
// o in [0,4), stores fragment o of its word with distance 0; the next
// switch XORs in fragment o of its own word, making the stored fragment a
// piece of word(a) XOR word(b) for edge (a,b); everyone after increments
// the distance. Field layout (15 of 16 bits):
//   [fragment: 8 | distance: 5 | offset: 2]
//
// The victim reassembles: per (distance, offset) it accumulates fragment
// sets, forms the cross-product of the four offsets, and keeps the 32-bit
// words whose hash part verifies against a candidate edge from its network
// map. The win over the full-edge layout: it fits networks up to 1024
// nodes and diameter 31 (e.g. a 16x16 mesh, where full-edge needs 21
// bits). The cost — k times more packets and combinatorial reconstruction
// — is exactly the trade the paper says disqualifies PPM in clusters.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "marking/scheme.hpp"
#include "netsim/rng.hpp"
#include "packet/marking_field.hpp"

namespace ddpm::mark {

/// Static parameters of the fragment encoding.
struct FragmentLayout {
  static constexpr int kFragments = 4;
  static constexpr unsigned kFragmentBits = 8;
  static constexpr unsigned kIndexBits = 10;   // <= 1024 nodes
  static constexpr unsigned kHashBits = 22;
  static constexpr int kMaxDistance = 31;      // 5-bit distance field

  static constexpr pkt::FieldSlice fragment() { return {0, 8}; }
  static constexpr pkt::FieldSlice distance() { return {8, 5}; }
  static constexpr pkt::FieldSlice offset() { return {13, 2}; }

  /// 22-bit hash of a node index (SplitMix64 finalizer, truncated).
  static std::uint32_t h22(std::uint32_t index);
  /// The switch's 32-bit word: index || hash.
  static std::uint32_t word(topo::NodeId node);
  /// Fragment o (bits [8o, 8o+8)) of a word.
  static std::uint8_t fragment_of(std::uint32_t word, int offset);

  static bool supports(const topo::Topology& topo);
};

class FragmentPpmScheme final : public MarkingScheme {
 public:
  /// Throws if the topology exceeds 1024 nodes or diameter 31.
  FragmentPpmScheme(const topo::Topology& topo, double marking_probability,
                    std::uint64_t seed);

  std::string name() const override { return "ppm-fragment"; }

  void on_forward(pkt::Packet& packet, NodeId current, NodeId next) override;

 private:
  double p_;
  netsim::Rng rng_;
};

class FragmentPpmIdentifier final : public SourceIdentifier {
 public:
  explicit FragmentPpmIdentifier(const topo::Topology& topo);

  std::string name() const override { return "ppm-fragment-id"; }

  /// Ingests the fragment and returns origins(victim), recomputed only
  /// when the fragment is new or the victim differs from the previous call.
  std::vector<NodeId> observe(const pkt::Packet& packet, NodeId victim) override;
  void reset() override;

  /// Candidate chain origins reconstructible from the fragments collected
  /// so far (the cross-product per level is capped; see kComboCap).
  std::vector<NodeId> origins(NodeId victim) const;

  std::size_t unique_fragments() const noexcept { return unique_; }

 private:
  static constexpr std::size_t kComboCap = 65536;

  const topo::Topology& topo_;
  // level -> offset -> fragment values seen.
  std::map<int, std::array<std::set<std::uint8_t>, FragmentLayout::kFragments>>
      levels_;
  std::size_t unique_ = 0;
  // origins(*origins_victim_) as of the last observe(); cleared by a new
  // fragment, which the first one after reset() always is.
  std::vector<NodeId> origins_;
  std::optional<NodeId> origins_victim_;
};

}  // namespace ddpm::mark
