// Abstract stepping model of the wormhole VC/credit protocol.
//
// ProtoModel is the bounded model checker's transition system and the
// reference for the WormholeNetwork cycle semantics (src/wormhole): a
// pure-state, engine-free re-statement over a small topology, router, VC
// count, and credit depth. Nothing here simulates performance —
// a ModelState is exactly the protocol-relevant projection (buffer
// contents, VC allocations, credit counters, round-robin pointers), and
// step()/inject() are the only transitions. The fidelity contract is
// lockstep equality with the real network's DDPM_MODEL snapshot_protocol()
// projection after every event (tests/test_model_checker.cpp drives both
// on shared schedules), which is what entitles the explorer's verdicts to
// speak about the production engine, and what witness replay re-checks on
// every conviction (docs/VERIFICATION.md, "Bounded protocol model
// checking"). The port layout and dateline rule are not re-stated: links
// and escape hops come from the shared route::RouteTable.
//
// The ModelMutation knob mirrors the DDPM_MODEL_MUTATION hooks compiled
// into the real engine (src/core/model_hooks.hpp): the same three seeded
// bugs exist at the same protocol points, so a conviction found here has a
// concrete counterpart to reproduce on replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/model_hooks.hpp"
#include "routing/port_list.hpp"
#include "routing/route_table.hpp"
#include "routing/router.hpp"
#include "topology/topology.hpp"

namespace ddpm::verify::model {

using topo::NodeId;
using topo::Port;

/// One bounded-exploration configuration: the small fabric, the injection
/// alphabet, and the exploration budget.
struct ModelOptions {
  std::string topology = "mesh:2x2";  ///< topo::make_topology spec
  std::string router = "dor";         ///< route::make_router factory name
  int adaptive_vcs = 1;               ///< VCs beyond the escape layer
  int buffer_flits = 1;               ///< per-(port, VC) credit depth
  int packets = 2;                    ///< total injection budget K
  int flits_per_packet = 2;           ///< flits per injected packet (>= 2)
  /// Ordered (src, dst) pairs the inject action may use; empty = every
  /// ordered pair of distinct nodes. Restricting the alphabet is how the
  /// larger configurations stay exhaustively closable.
  std::vector<std::pair<int, int>> allowed_pairs;
  std::uint64_t max_states = 400000;  ///< exploration cap (completeness gate)
  /// Quotient the search by the validated symmetry group
  /// (verify/model/symmetry.hpp). Heuristic speedup: group elements are
  /// structurally filtered but intra-cycle ordering is not modded out, so
  /// proofs default to the full space and the parity test pins agreement.
  bool use_symmetry = false;
  bool disable_escape = false;  ///< negative control (drops the escape layer)
  core::ModelMutation mutation = core::ModelMutation::kNone;
};

/// One buffered flit. `dest` stands in for the packet (all protocol
/// decisions the engine makes per flit depend only on the destination and
/// the head/tail flags); `cls` is the torus dateline escape class, updated
/// on head flits at allocation exactly as the real engine does.
struct ModelFlit {
  std::uint8_t dest = 0;
  bool head = false;
  bool tail = false;
  std::uint8_t cls = 0;
};

/// Full protocol state between cycles. Flat layouts match the real
/// network: input units as node * (P+1) * V + port * V + vc (port P =
/// injection), output VCs as node * P * V + port * V + vc.
struct ModelState {
  std::vector<std::vector<ModelFlit>> queue;  ///< one FIFO per input unit
  std::vector<std::uint8_t> active;           ///< input unit holds an output VC
  std::vector<std::int8_t> out_port;          ///< claimed output port (-1 none)
  std::vector<std::int8_t> out_vc;            ///< claimed output VC (-1 none)
  std::vector<std::int8_t> credits;           ///< credit counter per output VC
  std::vector<std::uint8_t> allocated;        ///< allocation flag per output VC
  std::vector<std::uint8_t> rr;               ///< round-robin unit pointer per
                                              ///< (node, output port)
  std::uint32_t injected = 0;                 ///< packets injected so far
  std::uint32_t delivered = 0;  ///< packets delivered (not encoded; derived)
  std::uint64_t flits = 0;      ///< flits in flight (= sum of queue sizes)
};

/// The model-side analogue of wormhole::ProtocolSnapshot, for the lockstep
/// differential test (same indexing, engine-agnostic).
struct ModelProjection {
  std::vector<std::uint32_t> occupancy;
  std::vector<std::int32_t> credits;
  std::vector<std::uint8_t> allocated;
  std::uint64_t flits_in_flight = 0;
  std::uint64_t delivered = 0;
};

class ProtoModel {
 public:
  /// Builds the topology, router, route table and candidate table. Throws
  /// std::invalid_argument when the factories reject the combo.
  explicit ProtoModel(const ModelOptions& opt);

  const ModelOptions& options() const noexcept { return opt_; }
  int nodes() const noexcept { return nodes_; }
  int ports() const noexcept { return ports_; }
  int vcs() const noexcept { return vcs_; }
  int escape_vcs() const noexcept { return escape_vcs_; }
  int depth() const noexcept { return opt_.buffer_flits; }
  int in_units() const noexcept { return (ports_ + 1) * vcs_; }
  int out_units() const noexcept { return ports_ * vcs_; }
  const topo::Topology& topology() const noexcept { return *topo_; }

  /// The injection alphabet actually in force (allowed_pairs or the full
  /// ordered-pair set), in deterministic order.
  const std::vector<std::pair<int, int>>& pairs() const noexcept {
    return pairs_;
  }

  ModelState initial() const;

  /// Queues one packet (flits_per_packet flits) at src's injection unit.
  void inject(ModelState& s, int src, int dst) const;

  /// Advances one full cycle with the engine's exact semantics:
  /// ascending node sweep, VC-allocation/ejection pass, one-flit-per-
  /// output-port switch traversal with intra-sweep credit return, then the
  /// staged arrivals land.
  void step(ModelState& s) const;

  /// Between-cycles safety properties: flit accounting (no loss or
  /// duplication), buffer occupancy <= depth, and per-link/VC credit
  /// conservation. On violation fills `property` with the stable id
  /// ("no-loss", "no-overflow", "credit-conservation") and `why` with the
  /// concrete site.
  bool check_safety(const ModelState& s, std::string* property,
                    std::string* why) const;

  /// Structural escape-layer proof: from every node the escape (DOR) next-
  /// hop chain reaches every destination in finitely many hops. Vacuously
  /// true when the escape layer is disabled.
  bool check_escape_reach(std::string* why) const;

  /// Deterministic byte encoding of the dedup-relevant state (queues,
  /// allocations, credits, rr pointers, injection count). `delivered` and
  /// `flits` are derivable and excluded.
  std::string encode_state(const ModelState& s) const;
  ModelState decode_state(const std::string& bytes) const;

  ModelProjection project(const ModelState& s) const;

  // Tables, exposed for the symmetry-group validator. Links and escape
  // hops are the shared route::RouteTable the engine routes from.
  const route::RouteTable& routes() const noexcept { return *routes_; }
  /// Dateline wrap flag; the dateline exists only with two escape classes.
  bool link_wrap(NodeId n, Port p) const noexcept {
    return escape_vcs_ > 1 && routes_->wraps(n, p);
  }
  /// Adaptive candidates for (node, dest, arrived_on); arrived_on may be
  /// route::kLocalPort.
  const route::PortList& cand(NodeId n, NodeId d, Port arrived_on) const;

 private:
  int unit_of(int port, int vc) const noexcept { return port * vcs_ + vc; }
  bool mut(core::ModelMutation m) const noexcept { return opt_.mutation == m; }

  void restore_credit(ModelState& s, NodeId node, int in_port,
                     int in_vc) const;
  bool try_allocate(ModelState& s, NodeId node, int in_port, int unit) const;
  /// Consumes buffered flits of the packet being ejected (until the tail or
  /// the buffer empties); returns the number consumed.
  std::size_t drain_ejection(ModelState& s, NodeId node, int unit) const;

  ModelOptions opt_;
  std::unique_ptr<topo::Topology> topo_;
  std::unique_ptr<route::Router> router_;
  std::unique_ptr<route::RouteTable> routes_;
  int nodes_ = 0;
  int ports_ = 0;
  int vcs_ = 0;
  int escape_vcs_ = 0;
  /// The model's own statement of adaptive routing, per arrival port.
  std::vector<route::PortList> cand_;   // N * N * (P + 1), arrival-indexed
  std::vector<std::pair<int, int>> pairs_;
};

}  // namespace ddpm::verify::model
