// Deterministic Distance Packet Marking (paper §5, Figure 4) — the paper's
// contribution.
//
// Every switch adds the per-dimension coordinate difference of the hop it
// is about to take into the 16-bit Marking Field. Because the per-hop
// differences telescope, the accumulated vector V at any point equals
// (current − source) no matter which route the packet took — including
// non-minimal adaptive routes, torus wraparounds, and revisits. The
// destination D recovers the true source as S = D − V (mesh/torus) or
// S = D ⊕ V (hypercube) from a SINGLE packet, with no path knowledge.
//
// The telescoping argument also bounds the stored values: every component
// of V is a coordinate difference, hence within [-(k−1), k−1], so the codec
// never overflows mid-route if it can represent the final vector.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "marking/scheme.hpp"
#include "packet/marking_field.hpp"
#include "topology/coord_table.hpp"

namespace ddpm::mark {

/// Packs a signed displacement vector into the 16-bit Marking Field.
///
/// Mesh/torus: dimension d gets a two's-complement slice wide enough for
/// [-(k_d − 1), k_d − 1], i.e. ceil(log2 k_d) + 1 bits. Hypercube:
/// dimension d gets a single bit. Construction throws if the total exceeds
/// 16 bits; `required_bits` lets callers (and the Table 3 bench) probe the
/// limit without constructing.
class DdpmCodec {
 public:
  explicit DdpmCodec(const topo::Topology& topo);

  /// Total Marking Field bits DDPM needs for this topology.
  static int required_bits(const topo::Topology& topo);
  /// True iff the topology's displacement vectors fit in 16 bits.
  static bool fits(const topo::Topology& topo);

  /// Encodes a displacement vector. Throws std::range_error if any
  /// component exceeds its slice — which indicates a caller bug, since
  /// legal coordinate differences always fit (see file comment).
  std::uint16_t encode(const topo::Coord& v) const;

  /// Decodes the field back into a displacement vector.
  topo::Coord decode(std::uint16_t field) const;

  std::size_t num_dims() const noexcept { return slices_.size(); }
  bool is_hypercube() const noexcept { return hypercube_; }

  /// Bit slice assigned to dimension d — the verifier's hook for auditing
  /// the layout (contiguity, width sums) against the Table 3 bit budgets.
  const pkt::FieldSlice& slice(std::size_t d) const { return slices_.at(d); }
  /// The bits the slices occupy; encode() leaves every other bit clear.
  std::uint16_t mask() const noexcept { return mask_; }

 private:
  std::vector<pkt::FieldSlice> slices_;  // one per dimension
  std::uint16_t mask_ = 0;
  bool hypercube_;
};

/// Switch-side DDPM (Figure 4). Stateless apart from tables built at
/// construction (the codec, the coordinate table, one lane per dimension);
/// every hop is a per-slice add (a word XOR on the hypercube) into the
/// field — the basis of the paper's §6.2 low-overhead claim.
class DdpmScheme final : public MarkingScheme {
 public:
  explicit DdpmScheme(const topo::Topology& topo);

  std::string name() const override { return "ddpm"; }

  /// Figure 4: V := 0 when the packet enters its first switch.
  void on_injection(pkt::Packet& packet, NodeId at) override;

  /// Figure 4: V' := V + (Y − X), slice by slice with saturation; for the
  /// hypercube V' := V ⊕ (Y ⊕ X). Bits outside the codec's slices are
  /// cleared, as a full re-encode would.
  void on_forward(pkt::Packet& packet, NodeId current, NodeId next) override;

  const DdpmCodec& codec() const noexcept { return codec_; }

 private:
  /// What the per-hop loop needs of dimension d, side by side: its slice,
  /// the slice's bits, and the largest honest |component|, radix − 1.
  struct Lane {
    pkt::FieldSlice slice;
    std::uint16_t mask;
    std::int16_t span;
  };
  DdpmCodec codec_;
  topo::CoordTable coords_;
  std::array<Lane, topo::Coord::kMaxDims> lanes_{};
};

/// Victim-side DDPM: one packet, one answer.
class DdpmIdentifier final : public SourceIdentifier {
 public:
  explicit DdpmIdentifier(const topo::Topology& topo)
      : codec_(topo), coords_(topo) {}

  std::string name() const override { return "ddpm"; }

  /// Returns exactly one candidate: S = D − V (or D ⊕ V). Returns empty
  /// only if the decoded source lies outside the coordinate space, which
  /// cannot happen for packets marked by honest switches.
  std::vector<NodeId> observe(const pkt::Packet& packet, NodeId victim) override;

  /// Stateless helper for direct use: source from a (victim, marking field)
  /// pair. Throws std::out_of_range for a victim outside the topology.
  std::optional<NodeId> identify(NodeId victim, std::uint16_t field) const;

 private:
  DdpmCodec codec_;
  topo::CoordTable coords_;
};

}  // namespace ddpm::mark
