// cluster::Switch (one arrival event per hop, a wake only while packets
// wait) against the two-event reference in two_event_switch.hpp (a
// link-free and an arrival event per hop). Both are wired from public
// Switch::Envs into the same fabric and fed the same pre-generated
// injection schedule; every packet's outcome — its delivery tick, or that
// it was dropped — and the drop counts by reason are compared.
//
// The designs may part only at a same-tick link-free tie (a packet handled
// on the tick a link frees, before the reference's link-free event pops).
// A run without one must match packet for packet; a run with one must
// match on every tick before the first.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <ostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/switch.hpp"
#include "routing/route_table.hpp"
#include "topology/factory.hpp"
#include "two_event_switch.hpp"

namespace ddpm {
namespace {

constexpr netsim::SimTime kDropped = std::numeric_limits<netsim::SimTime>::max();

struct Injection {
  netsim::SimTime at;
  topo::NodeId src;
  topo::NodeId dst;
  std::uint32_t payload;
  std::uint8_t ttl;
};

struct Load {
  const char* topology;
  const char* router;
  std::uint64_t seed;
  std::size_t bursts;
  std::size_t burst;        // packets one node injects on one tick
  netsim::SimTime horizon;  // bursts spread uniformly over [0, horizon)
  std::size_t queue_capacity;
};

void PrintTo(const Load& load, std::ostream* os) {
  *os << load.topology << ' ' << load.router << " seed " << load.seed << ", "
      << load.bursts << " bursts of " << load.burst;
}

/// Uniform random traffic in bursts, with mixed sizes (20..260 wire bytes)
/// and TTLs low enough that the longest routes expire. A burst queues its
/// packets behind one another on the source's output ports. Its sizes are
/// distinct: two equal-sized packets sent back to back down one path tie
/// at every later hop (the second lands on the tick the first's next link
/// frees).
std::vector<Injection> make_schedule(const Load& load, int nodes) {
  netsim::Rng rng(load.seed);
  std::vector<Injection> schedule;
  schedule.reserve(load.bursts * load.burst);
  for (std::size_t b = 0; b < load.bursts; ++b) {
    const auto at = netsim::SimTime(rng.next_below(load.horizon));
    const auto src = topo::NodeId(rng.next_below(std::uint64_t(nodes)));
    std::uint32_t sizes[] = {0, 40, 80, 120, 160, 200, 240};
    for (std::size_t k = 0; k < load.burst; ++k) {
      std::swap(sizes[k], sizes[k + rng.next_below(std::size(sizes) - k)]);
      Injection in{at, src, src, sizes[k], 0};
      do {
        in.dst = topo::NodeId(rng.next_below(std::uint64_t(nodes)));
      } while (in.dst == in.src);
      in.ttl = std::uint8_t(4 + rng.next_below(12));
      schedule.push_back(in);
    }
  }
  return schedule;
}

struct Outcome {
  std::vector<netsim::SimTime> delivered_at;  // kDropped while undelivered
  cluster::Metrics metrics;
  std::uint64_t events = 0;
  std::uint64_t ties = 0;
  netsim::SimTime first_tie = kDropped;
};

/// N switches of one kind over a topology, wired the way ClusterNetwork
/// wires them: arrive() hands a landed packet to the neighbor through its
/// port back toward the sender, and adaptive routing reads live queue
/// lengths.
template <class SwitchT>
class Fabric {
 public:
  Fabric(const Load& load, const std::vector<Injection>& schedule)
      : topo_(topo::make_topology(load.topology)),
        router_(route::make_router(load.router, *topo_)),
        routes_(*topo_, nullptr, 0),
        links_(*this),
        schedule_(schedule) {
    outcome_.delivered_at.assign(schedule.size(), kDropped);
    env_.sim = &sim_;
    env_.topo = topo_.get();
    env_.router = router_.get();
    env_.links = &links_;
    env_.metrics = &outcome_.metrics;
    env_.deliver = [this](pkt::Packet&& p, topo::NodeId) {
      outcome_.delivered_at[p.id] = p.delivered_at;
    };
    env_.arrive = [this](pkt::Packet&& p, topo::NodeId from, topo::NodeId to) {
      switches_[to]->handle(std::move(p), routes_.port_to(to, from));
    };
    env_.queue_capacity = load.queue_capacity;
    netsim::Rng master(load.seed ^ 0x5eedULL);
    for (topo::NodeId id = 0; id < topo_->num_nodes(); ++id) {
      switches_.push_back(std::make_unique<SwitchT>(id, &env_, master.jump_stream()));
    }
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      sim_.schedule_at(schedule_[i].at, [this, i]() {
        const Injection& in = schedule_[i];
        pkt::Packet p;
        p.id = i;
        p.dest_node = in.dst;
        p.payload_bytes = in.payload;
        p.header.set_ttl(in.ttl);
        switches_[in.src]->inject(std::move(p));
      });
    }
  }

  /// Runs every event stamped `until` or earlier.
  Outcome run(netsim::SimTime until = std::numeric_limits<netsim::SimTime>::max()) {
    sim_.run(until);
    outcome_.events = sim_.events_executed();
    if constexpr (requires(const SwitchT& s) { s.ties(); }) {
      for (const auto& s : switches_) {
        outcome_.ties += s->ties();
        outcome_.first_tie = std::min(outcome_.first_tie, s->first_tie());
      }
    }
    return outcome_;
  }

 private:
  class QueueLinks final : public route::LinkStateView {
   public:
    explicit QueueLinks(const Fabric& fabric) : fabric_(fabric) {}
    bool link_usable(topo::NodeId node, topo::Port port) const override {
      return fabric_.routes_.neighbor(node, port) != topo::kInvalidNode;
    }
    double congestion(topo::NodeId node, topo::Port port) const override {
      return double(fabric_.switches_[node]->queue_length(port));
    }

   private:
    const Fabric& fabric_;
  };

  std::unique_ptr<topo::Topology> topo_;
  std::unique_ptr<route::Router> router_;
  route::RouteTable routes_;
  QueueLinks links_;
  const std::vector<Injection>& schedule_;
  netsim::Simulator sim_;
  Outcome outcome_;
  typename SwitchT::Env env_;
  std::vector<std::unique_ptr<SwitchT>> switches_;
};

using Reference = Fabric<reference::TwoEventSwitch>;
using OneEvent = Fabric<cluster::Switch>;

std::size_t differing_packets(const Outcome& a, const Outcome& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.delivered_at.size(); ++i) {
    n += a.delivered_at[i] != b.delivered_at[i] ? 1 : 0;
  }
  return n;
}

void expect_same_outcomes(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(got.delivered_at, want.delivered_at);
  EXPECT_EQ(got.metrics.dropped_queue_full, want.metrics.dropped_queue_full);
  EXPECT_EQ(got.metrics.dropped_ttl, want.metrics.dropped_ttl);
  EXPECT_EQ(got.metrics.dropped_no_route, want.metrics.dropped_no_route);
}

class SwitchDifferential : public ::testing::TestWithParam<Load> {};

TEST_P(SwitchDifferential, OutcomesMatchUpToTheFirstLinkFreeTie) {
  const Load& load = GetParam();
  const auto nodes = topo::make_topology(load.topology)->num_nodes();
  const std::vector<Injection> schedule = make_schedule(load, nodes);
  const Outcome want = Reference(load, schedule).run();
  const Outcome got = OneEvent(load, schedule).run();

  std::size_t delivered = 0;
  for (netsim::SimTime t : want.delivered_at) delivered += t != kDropped ? 1 : 0;
  std::cout << "[ differential ] " << load.topology << ' ' << load.router
            << " seed " << load.seed << ": " << schedule.size() << " packets, "
            << delivered << " delivered, " << want.metrics.dropped_queue_full
            << " queue drops, " << want.metrics.dropped_ttl << " ttl drops; "
            << want.ties << " ties, " << differing_packets(want, got)
            << " packets differ; events " << want.events << " -> " << got.events
            << '\n';

  // One arrival per forwarded packet plus the injections, and at most one
  // wake per transmission — never the reference's two events per hop.
  EXPECT_LT(got.events, want.events);

  if (want.ties == 0) {
    expect_same_outcomes(want, got);
    return;
  }
  // Up to the tick before the first tie, both fabrics saw the same events.
  const Outcome want_prefix = Reference(load, schedule).run(want.first_tie - 1);
  const Outcome got_prefix = OneEvent(load, schedule).run(want.first_tie - 1);
  expect_same_outcomes(want_prefix, got_prefix);
}

// Sparse traffic leaves the links mostly idle; sparse bursts queue
// packets behind one another with few ties or none (two of the four runs
// have none); dense traffic fills the queues to their capacity, and ties
// come early.
INSTANTIATE_TEST_SUITE_P(
    Fabrics, SwitchDifferential,
    ::testing::Values(Load{"torus:5x5", "dor", 1, 200, 1, 200'000, 4},
                      Load{"torus:5x5", "adaptive", 2, 200, 1, 200'000, 4},
                      Load{"mesh:6x6", "dor", 3, 200, 1, 200'000, 4},
                      Load{"mesh:6x6", "adaptive", 4, 200, 1, 200'000, 4},
                      Load{"torus:5x5", "dor", 11, 60, 6, 200'000, 4},
                      Load{"torus:5x5", "adaptive", 12, 60, 6, 200'000, 4},
                      Load{"mesh:6x6", "dor", 13, 60, 6, 200'000, 4},
                      Load{"mesh:6x6", "adaptive", 14, 60, 6, 200'000, 4},
                      Load{"torus:5x5", "dor", 5, 4000, 1, 40'000, 2},
                      Load{"torus:5x5", "adaptive", 6, 4000, 1, 40'000, 2},
                      Load{"mesh:6x6", "dor", 7, 4000, 1, 40'000, 2},
                      Load{"mesh:6x6", "adaptive", 8, 4000, 1, 40'000, 2}),
    [](const ::testing::TestParamInfo<Load>& p) {
      std::string name = std::string(p.param.topology) + '_' + p.param.router +
                         "_seed" + std::to_string(p.param.seed);
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ddpm
