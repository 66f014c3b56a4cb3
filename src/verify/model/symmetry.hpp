// Symmetry reduction for the bounded protocol model checker.
//
// Candidate automorphisms are generated from the topology's geometry —
// per-dimension coordinate reflections on mesh/torus (port map swaps the
// +/- direction pair of each reflected dimension), per-dimension bit
// complements on the hypercube (port map is the identity) — and then
// STRUCTURALLY FILTERED: an element survives only if it commutes with the
// link tables (neighbor/reverse/wrap), maps every escape next-hop
// consistently, preserves the router's candidate sets, and fixes the
// injection-pair alphabet. What the filter does not (cannot cheaply) mod
// out is intra-cycle ordering: the model and the engine sweep nodes and
// candidate ports in index order, so tie-breaking under a surviving permutation may still
// diverge. The quotient is therefore a heuristic: proofs run on the full
// space by default (ModelOptions::use_symmetry = false), the symmetry
// parity test pins verdict agreement empirically, and any conviction found
// under the quotient is re-explored unreduced before a witness is emitted
// (verify/model/explore.cpp). docs/VERIFICATION.md spells out the
// contract.
#pragma once

#include <string>
#include <vector>

#include "verify/model/proto_model.hpp"

namespace ddpm::verify::model {

/// One symmetry: a node relabeling plus the matching physical-port
/// relabeling (the injection port always maps to itself).
struct SymElem {
  std::vector<int> node_map;  ///< size N
  std::vector<int> port_map;  ///< size P
};

class SymmetryGroup {
 public:
  /// Generates and validates the group for `m`'s topology. Always contains
  /// at least the identity.
  explicit SymmetryGroup(const ProtoModel& m);

  std::size_t size() const noexcept { return elems_.size(); }
  const std::vector<SymElem>& elements() const noexcept { return elems_; }

  /// Image of `s` under `e` (states, queues, allocations, credits, and
  /// round-robin pointers all relabeled).
  ModelState apply(const ProtoModel& m, const ModelState& s,
                   const SymElem& e) const;

  /// Lexicographically smallest encoding over all group images — the
  /// quotient representative used for deduplication.
  std::string canonical(const ProtoModel& m, const ModelState& s) const;

 private:
  bool validates(const ProtoModel& m, const SymElem& e) const;

  std::vector<SymElem> elems_;
};

}  // namespace ddpm::verify::model
