// Abstract model of a regular direct network (paper §3).
//
// A Topology is pure geometry: it maps flat node ids to coordinates,
// enumerates neighbor links by port number, and reports degree/diameter.
// Dynamic state — link failures, congestion — lives elsewhere
// (LinkFailureSet here, queue occupancy in the cluster model) so the same
// geometry can be shared immutably by every component.
//
// Port numbering convention:
//   * mesh / torus: port 2*d   = negative direction in dimension d,
//                   port 2*d+1 = positive direction in dimension d.
//   * hypercube:    port d     = flip dimension (bit) d.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "topology/coord.hpp"

namespace ddpm::topo {

/// Flat node identifier; row-major over the coordinate space.
using NodeId = std::uint32_t;
/// Output port index on a switch; see the numbering convention above.
using Port = int;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

enum class TopologyKind { kMesh, kTorus, kHypercube };

std::string to_string(TopologyKind kind);

class Topology {
 public:
  virtual ~Topology() = default;

  virtual TopologyKind kind() const noexcept = 0;

  /// Total number of nodes (product of dimension sizes).
  virtual NodeId num_nodes() const noexcept = 0;

  /// Number of dimensions n.
  virtual std::size_t num_dims() const noexcept = 0;

  /// Radix k_d of dimension d.
  virtual int dim_size(std::size_t d) const noexcept = 0;

  /// Maximum number of links incident on any node (paper §3).
  virtual int degree() const noexcept = 0;

  /// Largest minimal hop distance between any node pair (paper §3).
  virtual int diameter() const noexcept = 0;

  /// Number of physical ports per switch (= degree for these topologies).
  virtual int num_ports() const noexcept = 0;

  virtual Coord coord_of(NodeId id) const = 0;
  virtual NodeId id_of(const Coord& c) const = 0;

  /// Neighbor reached through `port`, or nullopt if the port does not exist
  /// at this node (mesh boundary).
  virtual std::optional<NodeId> neighbor(NodeId node, Port port) const = 0;

  /// Port on `from` that reaches adjacent node `to`; nullopt if not adjacent.
  virtual std::optional<Port> port_to(NodeId from, NodeId to) const = 0;

  /// Minimal hop distance between two nodes.
  virtual int min_hops(NodeId a, NodeId b) const = 0;

  /// All existing neighbors of a node, in port order.
  std::vector<NodeId> neighbors(NodeId node) const;

  /// All undirected links as (low-id, high-id) pairs, each listed once.
  std::vector<std::pair<NodeId, NodeId>> links() const;

  /// Human-readable spec, e.g. "mesh:4x4", "torus:8x8x8", "hypercube:10".
  virtual std::string spec() const = 0;

  bool contains(NodeId id) const noexcept { return id < num_nodes(); }

 protected:
  // C.67: suppress public copy through the base handle (slicing).
  Topology() = default;
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;
};

/// Mutable set of failed (bidirectional) links, used to reproduce the
/// Figure 2 fault scenarios and for fault-injection testing. A failed link
/// blocks traffic in both directions.
class LinkFailureSet {
 public:
  void fail(NodeId a, NodeId b) { failed_.insert(key(a, b)); }
  void restore(NodeId a, NodeId b) { failed_.erase(key(a, b)); }
  /// Hashes only when some link has failed: routing asks once per
  /// candidate port per hop, and the set is usually empty.
  bool is_failed(NodeId a, NodeId b) const {
    return !failed_.empty() && failed_.count(key(a, b)) != 0;
  }
  void clear() { failed_.clear(); }
  std::size_t size() const noexcept { return failed_.size(); }

 private:
  static std::uint64_t key(NodeId a, NodeId b) noexcept {
    if (a > b) std::swap(a, b);
    return (std::uint64_t(a) << 32) | b;
  }
  std::unordered_set<std::uint64_t> failed_;
};

}  // namespace ddpm::topo
