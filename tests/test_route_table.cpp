// route::RouteTable against the virtual interfaces it flattens. The
// wormhole engine, the protocol model and the escape CDG all read this one
// table, so agreement among them no longer checks it; this file does,
// entry by entry, from the Topology and Router answers and the coordinate
// form of the dateline rule.
#include <gtest/gtest.h>

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
    const route::RouteTable table(*t, nullptr, 0);
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
    const route::RouteTable table(*t, nullptr, 0);
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

TEST(RouteTable, PairTablesMatchTheRouters) {
  for (const char* spec : kSpecs) {
    const auto t = topo::make_topology(spec);
    const route::DimensionOrderRouter dor(*t);
    const auto adaptive = route::make_router("adaptive", *t);
    const route::RouteTable table(*t, adaptive.get(), t->num_nodes());
    ASSERT_TRUE(table.has_escape_ports()) << spec;
    ASSERT_TRUE(table.has_candidate_masks()) << spec;
    for (NodeId n = 0; n < t->num_nodes(); ++n) {
      for (NodeId d = 0; d < t->num_nodes(); ++d) {
        const std::string where = std::string(spec) + " " +
                                  std::to_string(n) + "->" +
                                  std::to_string(d);
        const auto escape = dor.candidates(n, d, route::kLocalPort);
        EXPECT_EQ(table.escape_port(n, d), escape.empty() ? -1 : escape.front())
            << where;
        std::uint32_t expected = 0;
        for (const Port p : adaptive->candidates(n, d, route::kLocalPort)) {
          expected |= 1u << unsigned(p);
        }
        EXPECT_EQ(table.candidate_mask(n, d), expected) << where;
      }
    }
  }
}

TEST(RouteTable, PairTablesFollowTheNodeBudget) {
  const auto t = topo::make_topology("mesh:4x4");
  const auto adaptive = route::make_router("adaptive", *t);
  const route::RouteTable none(*t, adaptive.get(), 0);
  EXPECT_FALSE(none.has_escape_ports());
  EXPECT_FALSE(none.has_candidate_masks());
  const route::RouteTable under(*t, adaptive.get(), t->num_nodes() - 1);
  EXPECT_FALSE(under.has_escape_ports());
  const route::RouteTable full(*t, adaptive.get(), t->num_nodes());
  EXPECT_TRUE(full.has_escape_ports());
  EXPECT_TRUE(full.has_candidate_masks());
  // Without a router (or with one whose candidates depend on the arrival
  // port) only the escape ports are built.
  const route::RouteTable escape_only(*t, nullptr, t->num_nodes());
  EXPECT_TRUE(escape_only.has_escape_ports());
  EXPECT_FALSE(escape_only.has_candidate_masks());
}

TEST(RouteTable, ClusterPortLookupMatchesTheTopology) {
  for (const char* spec : kSpecs) {
    cluster::ClusterConfig config;
    config.topology = spec;
    const cluster::ClusterNetwork net(config);
    const topo::Topology& t = net.topology();
    const route::RouteTable& table = net.route_table();
    EXPECT_FALSE(table.has_escape_ports()) << spec;  // link part only
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
