// route::RouteTable against the virtual interfaces it flattens, and the
// productive rule both substrates route from against the routers' virtual
// candidates. The wormhole engine, the protocol model and the escape CDG
// all read this one table, so agreement among them does not check it;
// this file does, entry by entry, from the Topology and Router answers and
// the coordinate form of the dateline rule.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "cluster/network.hpp"
#include "routing/dor.hpp"
#include "routing/route_table.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"

namespace {

using namespace ddpm;
using topo::NodeId;
using topo::Port;

constexpr const char* kSpecs[] = {"mesh:4x4",    "mesh:3x5",  "torus:4x4",
                                  "torus:3x4x5", "torus:5x3", "hypercube:4"};

/// A link wraps when its coordinate delta, in the one dimension it moves
/// along, is not +-1.
bool coordinate_wrap(const topo::Topology& t, NodeId from, NodeId to) {
  const topo::Coord a = t.coord_of(from);
  const topo::Coord b = t.coord_of(to);
  int moved = 0;
  bool wrap = false;
  for (std::size_t d = 0; d < t.num_dims(); ++d) {
    const int delta = int(b[d]) - int(a[d]);
    if (delta == 0) continue;
    ++moved;
    wrap = delta != 1 && delta != -1;
  }
  EXPECT_EQ(moved, 1) << t.spec() << " link " << from << "->" << to;
  return wrap;
}

TEST(RouteTable, LinksMatchTheTopology) {
  for (const char* spec : kSpecs) {
    const auto t = topo::make_topology(spec);
    const route::RouteTable table(*t);
    for (NodeId n = 0; n < t->num_nodes(); ++n) {
      for (Port p = 0; p < t->num_ports(); ++p) {
        const auto nbr = t->neighbor(n, p);
        const std::string where = std::string(spec) + " node " +
                                  std::to_string(n) + " port " +
                                  std::to_string(p);
        if (!nbr.has_value()) {
          EXPECT_EQ(table.neighbor(n, p), topo::kInvalidNode) << where;
          EXPECT_EQ(table.reverse_port(n, p), -1) << where;
          EXPECT_FALSE(table.wraps(n, p)) << where;
          continue;
        }
        EXPECT_EQ(table.neighbor(n, p), *nbr) << where;
        EXPECT_EQ(table.reverse_port(n, p), *t->port_to(*nbr, n)) << where;
        EXPECT_EQ(table.wraps(n, p), coordinate_wrap(*t, n, *nbr)) << where;
      }
    }
  }
}

TEST(RouteTable, TorusHasWrapLinksAndMeshHasNone) {
  // Guards the wrap comparison above against a table of all zeros.
  const auto count_wraps = [](const char* spec) {
    const auto t = topo::make_topology(spec);
    const route::RouteTable table(*t);
    int wraps = 0;
    for (NodeId n = 0; n < t->num_nodes(); ++n) {
      for (Port p = 0; p < t->num_ports(); ++p) wraps += table.wraps(n, p);
    }
    return wraps;
  };
  EXPECT_EQ(count_wraps("torus:4x4"), 16);  // 2 per ring, 8 rings
  EXPECT_EQ(count_wraps("mesh:4x4"), 0);
  EXPECT_EQ(count_wraps("hypercube:4"), 0);
}

/// The candidate list a productive rule stands for: the mask's ports in
/// ascending order, or only the lowest one.
route::PortList rule_candidates(std::uint32_t mask, bool lowest_only) {
  route::PortList out;
  for (; mask != 0; mask &= mask - 1) {
    out.push_back(Port(std::countr_zero(mask)));
    if (lowest_only) break;
  }
  return out;
}

TEST(RouteTable, ProductiveRuleMatchesTheRoutersFromEveryArrivalPort) {
  // The substrates evaluate a router's productive rule instead of calling
  // candidates(), from (node, dest) alone. That is sound only if the
  // router's candidates never depend on the arrival port: check every
  // arrival port, kLocalPort included, against both coordinate tables the
  // substrates read (the router's own and the route table's).
  for (const char* spec : kSpecs) {
    const auto t = topo::make_topology(spec);
    const route::RouteTable table(*t);
    for (const char* name : {"dor", "adaptive", "adaptive-misroute"}) {
      const auto router = route::make_router(name, *t);
      const route::ProductiveRule rule = router->productive_rule();
      ASSERT_NE(rule.coords, nullptr) << spec << " " << name;
      EXPECT_EQ(rule.lowest_only, std::string(name) == "dor") << name;
      for (NodeId n = 0; n < t->num_nodes(); ++n) {
        for (NodeId d = 0; d < t->num_nodes(); ++d) {
          const std::uint32_t mask =
              route::productive_mask(table.coords(), n, d);
          ASSERT_EQ(route::productive_mask(*rule.coords, n, d), mask);
          const route::PortList expected =
              rule_candidates(mask, rule.lowest_only);
          for (Port a = route::kLocalPort; a < t->num_ports(); ++a) {
            EXPECT_EQ(router->candidates(n, d, a), expected)
                << spec << " " << name << " " << n << "->" << d
                << " arrived on " << a;
          }
        }
      }
    }
  }
}

TEST(RouteTable, EscapePortIsTheDimensionOrderHop) {
  for (const char* spec : kSpecs) {
    const auto t = topo::make_topology(spec);
    const route::DimensionOrderRouter dor(*t);
    const route::RouteTable table(*t);
    for (NodeId n = 0; n < t->num_nodes(); ++n) {
      for (NodeId d = 0; d < t->num_nodes(); ++d) {
        const std::string where = std::string(spec) + " " +
                                  std::to_string(n) + "->" +
                                  std::to_string(d);
        if (n == d) {
          EXPECT_EQ(table.escape_port(n, d), -1) << where;
          continue;
        }
        EXPECT_EQ(table.escape_port(n, d),
                  dor.candidates(n, d, route::kLocalPort).front())
            << where;
      }
    }
  }
}

TEST(RouteTable, ClusterPortLookupMatchesTheTopology) {
  for (const char* spec : kSpecs) {
    cluster::ClusterConfig config;
    config.topology = spec;
    const cluster::ClusterNetwork net(config);
    const topo::Topology& t = net.topology();
    const route::RouteTable& table = net.route_table();
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      EXPECT_EQ(table.port_to(n, n), -1) << spec;
      for (const NodeId m : t.neighbors(n)) {
        EXPECT_EQ(table.port_to(n, m), *t.port_to(n, m))
            << spec << " " << n << "->" << m;
      }
    }
  }
}

}  // namespace
