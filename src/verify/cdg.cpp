#include "verify/cdg.hpp"

#include <deque>
#include <set>
#include <sstream>
#include <utility>

#include "core/check.hpp"
#include "routing/route_table.hpp"

namespace ddpm::verify {

using topo::NodeId;
using topo::Port;

namespace {

/// Dependency graph over channel ids with deterministic edge order (the
/// per-node edge sets are ordered, so witnesses are reproducible).
struct DepGraph {
  explicit DepGraph(std::size_t channels) : adj(channels) {}

  void add(std::size_t from, std::size_t to) { adj[from].insert(to); }

  std::size_t edges() const {
    std::size_t n = 0;
    for (const auto& out : adj) n += out.size();
    return n;
  }

  /// Iterative 3-color DFS; on the first back edge, fills `cycle` with the
  /// channel ids along the witness loop and returns true.
  bool find_cycle(std::vector<std::size_t>& cycle) const {
    enum : char { kWhite, kGray, kBlack };
    std::vector<char> color(adj.size(), kWhite);
    std::vector<std::size_t> path;
    // Frame: (node, iterator into its edge set).
    std::vector<std::pair<std::size_t, std::set<std::size_t>::const_iterator>>
        stack;
    for (std::size_t root = 0; root < adj.size(); ++root) {
      if (color[root] != kWhite) continue;
      color[root] = kGray;
      path.push_back(root);
      stack.emplace_back(root, adj[root].begin());
      while (!stack.empty()) {
        auto& [node, it] = stack.back();
        if (it == adj[node].end()) {
          color[node] = kBlack;
          path.pop_back();
          stack.pop_back();
          continue;
        }
        const std::size_t next = *it++;
        if (color[next] == kGray) {
          // Witness: the path suffix from `next` to the current node.
          std::size_t start = 0;
          while (path[start] != next) ++start;
          cycle.assign(path.begin() + std::ptrdiff_t(start), path.end());
          return true;
        }
        if (color[next] == kWhite) {
          color[next] = kGray;
          path.push_back(next);
          stack.emplace_back(next, adj[next].begin());
        }
      }
    }
    return false;
  }

  std::vector<std::set<std::size_t>> adj;
};

std::size_t channel_id(const topo::Topology& topo, NodeId from, Port port,
                       int vc, int num_vcs) {
  return (std::size_t(from) * std::size_t(topo.num_ports()) +
          std::size_t(port)) *
             std::size_t(num_vcs) +
         std::size_t(vc);
}

void decode_channel(const topo::Topology& topo, std::size_t cid, int num_vcs,
                    NodeId& from, Port& port, int& vc) {
  vc = int(cid % std::size_t(num_vcs));
  const std::size_t link = cid / std::size_t(num_vcs);
  port = Port(link % std::size_t(topo.num_ports()));
  from = NodeId(link / std::size_t(topo.num_ports()));
}

std::vector<std::string> name_cycle(const topo::Topology& topo,
                                    const std::vector<std::size_t>& cycle,
                                    int num_vcs) {
  std::vector<std::string> names;
  names.reserve(cycle.size());
  for (const std::size_t cid : cycle) {
    NodeId from = 0;
    Port port = 0;
    int vc = 0;
    decode_channel(topo, cid, num_vcs, from, port, vc);
    names.push_back(channel_name(topo, from, port, vc, num_vcs));
  }
  return names;
}

CdgResult finalize(const topo::Topology& topo, const DepGraph& graph,
                   std::size_t channels, int num_vcs) {
  CdgResult result;
  result.channels = channels;
  result.dependencies = graph.edges();
  std::vector<std::size_t> cycle;
  result.cyclic = graph.find_cycle(cycle);
  if (result.cyclic) result.cycle = name_cycle(topo, cycle, num_vcs);
  return result;
}

}  // namespace

std::string channel_name(const topo::Topology& topo, NodeId from, Port port,
                         int vc, int num_vcs) {
  std::ostringstream os;
  const auto to = topo.neighbor(from, port);
  os << from << "->" << (to ? std::to_string(*to) : std::string("?"));
  if (num_vcs > 1) os << "/vc" << vc;
  return os.str();
}

CdgResult build_cdg(const topo::Topology& topo, const route::Router& router,
                    bool include_fallbacks) {
  const NodeId n = topo.num_nodes();
  const std::size_t ports = std::size_t(topo.num_ports());
  const std::size_t channels = std::size_t(n) * ports;
  DepGraph graph(channels);

  // Count only channels over real links (mesh boundaries have port slots
  // with no neighbor).
  std::size_t real_channels = 0;
  for (NodeId from = 0; from < n; ++from) {
    for (Port p = 0; p < topo.num_ports(); ++p) {
      if (topo.neighbor(from, p)) ++real_channels;
    }
  }

  // Reachable-state BFS over (occupied channel, destination).
  std::vector<char> visited(channels * std::size_t(n), 0);
  std::deque<std::pair<std::size_t, NodeId>> queue;

  const auto requests = [&](NodeId current, NodeId dest,
                            Port arrived_on) -> route::PortList {
    route::PortList out = router.candidates(current, dest, arrived_on);
    if (include_fallbacks) {
      for (const Port p : router.fallback_candidates(current, dest, arrived_on))
        out.push_back(p);
    }
    return out;
  };

  const auto push_state = [&](std::size_t chan, NodeId dest) {
    const std::size_t state = chan * std::size_t(n) + std::size_t(dest);
    if (visited[state]) return;
    visited[state] = 1;
    queue.emplace_back(chan, dest);
  };

  // Seeds: a packet injected at src toward dest occupies no channel yet, so
  // injection contributes start states but no dependency edges.
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dest = 0; dest < n; ++dest) {
      if (src == dest) continue;
      for (const Port p : requests(src, dest, route::kLocalPort)) {
        if (!topo.neighbor(src, p)) continue;
        push_state(channel_id(topo, src, p, 0, 1), dest);
      }
    }
  }

  while (!queue.empty()) {
    const auto [chan, dest] = queue.front();
    queue.pop_front();
    NodeId prev = 0;
    Port in_port = 0;
    int vc = 0;
    decode_channel(topo, chan, 1, prev, in_port, vc);
    const auto current_opt = topo.neighbor(prev, in_port);
    DDPM_CHECK(current_opt.has_value(), "CDG state over a nonexistent link");
    const NodeId current = *current_opt;
    if (current == dest) continue;  // channel drains at the destination
    const auto arrived_opt = topo.port_to(current, prev);
    DDPM_CHECK(arrived_opt.has_value(), "asymmetric link in CDG walk");
    for (const Port p : requests(current, dest, *arrived_opt)) {
      if (!topo.neighbor(current, p)) continue;
      const std::size_t next_chan = channel_id(topo, current, p, 0, 1);
      graph.add(chan, next_chan);
      push_state(next_chan, dest);
    }
  }

  CdgResult result = finalize(topo, graph, real_channels, 1);
  return result;
}

CdgResult build_escape_cdg(const topo::Topology& topo) {
  // Walk every (src, dst) escape path on the route table the wormhole
  // engine runs. On the torus each ring splits across two dateline VCs: a
  // hop carries the packet's current class, crossing a wrap link moves it
  // to class 1 for the rest of that dimension, and the class resets to 0
  // when dimension order advances. Mesh and hypercube use one VC.
  const route::RouteTable routes(topo);
  const int kVcs = topo.kind() == topo::TopologyKind::kTorus ? 2 : 1;
  const NodeId n = topo.num_nodes();
  const std::size_t channels = std::size_t(n) *
                               std::size_t(topo.num_ports()) *
                               std::size_t(kVcs);
  DepGraph graph(channels);
  std::size_t real_channels = 0;
  for (NodeId from = 0; from < n; ++from) {
    for (Port p = 0; p < topo.num_ports(); ++p) {
      if (topo.neighbor(from, p)) real_channels += std::size_t(kVcs);
    }
  }

  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      NodeId current = src;
      int vc = 0;
      std::size_t current_dim = std::size_t(-1);
      bool have_prev = false;
      std::size_t prev_chan = 0;
      int hops = 0;
      while (current != dst) {
        DDPM_CHECK(++hops <= topo.diameter() + 1,
                   "dimension-order walk exceeded the diameter");
        const Port p = routes.escape_port(current, dst);
        DDPM_CHECK(p >= 0, "dimension-order returned no port");
        const NodeId next = routes.neighbor(current, p);
        DDPM_CHECK(next != topo::kInvalidNode,
                   "dimension-order port has no link");
        const std::size_t dim = std::size_t(p) / 2;
        if (dim != current_dim) {
          current_dim = dim;
          vc = 0;
        }
        const std::size_t chan = channel_id(topo, current, p, vc, kVcs);
        if (have_prev) graph.add(prev_chan, chan);
        if (routes.wraps(current, p)) vc = 1;
        prev_chan = chan;
        have_prev = true;
        current = next;
      }
    }
  }
  return finalize(topo, graph, real_channels, kVcs);
}

}  // namespace ddpm::verify
