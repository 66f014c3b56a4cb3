// Routing tour: watch every routing algorithm steer the same packet, with
// and without link failures, and verify DDPM's route-independence live.
//
//   $ ./adaptive_routing_tour [topology-spec] [src] [dst]
//   default: mesh:6x6, corner to corner
#include <iostream>

#include "core/parse_number.hpp"
#include "marking/ddpm.hpp"
#include "marking/walk.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"
#include "topology/graph.hpp"

namespace {

using namespace ddpm;

std::string path_string(const topo::Topology& topo,
                        const std::vector<topo::NodeId>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += " ";
    out += topo.coord_of(path[i]).to_string();
  }
  return out;
}

void tour(const topo::Topology& topo, topo::NodeId src, topo::NodeId dst,
          const topo::LinkFailureSet* failures, const char* title) {
  std::cout << "\n=== " << title << " ===\n";
  mark::DdpmScheme scheme(topo);
  mark::DdpmIdentifier identifier(topo);
  const std::vector<std::string> router_names =
      topo.kind() == topo::TopologyKind::kMesh && topo.num_dims() == 2
          ? std::vector<std::string>{"xy", "west-first", "north-last",
                                     "negative-first", "adaptive",
                                     "adaptive-misroute", "oracle"}
          : std::vector<std::string>{"dor", "adaptive", "adaptive-misroute",
                                     "oracle"};
  for (const auto& name : router_names) {
    const auto router = route::make_router(name, topo);
    mark::WalkOptions options;
    options.failures = failures;
    options.seed = 17;
    const auto walk =
        mark::walk_packet(topo, *router, &scheme, src, dst, options);
    std::cout << "  " << name << std::string(18 - name.size(), ' ');
    switch (walk.outcome) {
      case mark::WalkOutcome::kBlocked:
        std::cout << "BLOCKED\n";
        continue;
      case mark::WalkOutcome::kTtlExpired:
        std::cout << "TTL EXPIRED (livelock bound)\n";
        continue;
      case mark::WalkOutcome::kDelivered:
        break;
    }
    const auto named = identifier.identify(dst, walk.packet.marking_field());
    std::cout << walk.hops << " hops, DDPM names "
              << topo.coord_of(*named).to_string()
              << (*named == src ? " (correct)" : " (WRONG)") << "\n"
              << "      path: " << path_string(topo, walk.path) << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec = argc > 1 ? argv[1] : "mesh:6x6";
  const auto topo = topo::make_topology(spec);
  topo::NodeId src = 0;
  topo::NodeId dst = topo->num_nodes() - 1;
  if ((argc > 2 && !core::parse_number(argv[2], src)) ||
      (argc > 3 && !core::parse_number(argv[3], dst)) ||
      src >= topo->num_nodes() || dst >= topo->num_nodes()) {
    std::cerr << "error: src and dst must be node ids in [0, "
              << topo->num_nodes() - 1 << "]\n";
    return 1;
  }
  std::cout << "topology " << topo->spec() << ": " << topo->num_nodes()
            << " nodes, degree " << topo->degree() << ", diameter "
            << topo->diameter() << "\nfrom " << topo->coord_of(src).to_string()
            << " to " << topo->coord_of(dst).to_string() << '\n';

  tour(*topo, src, dst, nullptr, "healthy network");

  // Fail a handful of links near the middle of a shortest path.
  topo::LinkFailureSet failures;
  const auto sp = topo::shortest_path(*topo, src, dst);
  if (sp && sp->size() > 3) {
    const std::size_t mid = sp->size() / 2;
    failures.fail((*sp)[mid - 1], (*sp)[mid]);
    failures.fail((*sp)[mid], (*sp)[mid + 1]);
    std::cout << "\nfailing links "
              << topo->coord_of((*sp)[mid - 1]).to_string() << "-"
              << topo->coord_of((*sp)[mid]).to_string() << " and "
              << topo->coord_of((*sp)[mid]).to_string() << "-"
              << topo->coord_of((*sp)[mid + 1]).to_string() << '\n';
    tour(*topo, src, dst, &failures, "after link failures");
  }

  std::cout << "\nEvery delivered packet, whatever its route, decodes to the\n"
               "same source: the telescoping distance vector at work.\n";
  return 0;
}
