// Zero-allocation steady-state gate for the wormhole hot loop.
//
// The static hot-path rules (tools/ddpm_analyze.py, hot-no-alloc) prove the
// absence of allocation *lexically*; this test proves it *dynamically*: a
// counting global operator new observes a 200-cycle steady-state window of
// WormholeNetwork::step() on a loaded mesh:8x8 and must see zero calls.
// Frees are not counted — delivered packets may release their shared state
// inside the window; only acquiring memory is a hot-path violation.
#include "wormhole/wormhole.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "marking/ddpm.hpp"
#include "netsim/simulator.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"

namespace {

// Interposer state. Plain atomics: the simulator is single-threaded, but
// gtest internals may touch the allocator from other threads in other
// configurations, and relaxed atomics make the gate race-free either way.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_alloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  note_alloc();
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]): every acquiring
// form funnels through the counter; every releasing form stays silent.
void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return checked_aligned(size, std::size_t(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return checked_aligned(size, std::size_t(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ddpm::wormhole {
namespace {

pkt::Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload = 60) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src + 1, dst + 1, pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  return p;
}

TEST(WormholeSteadyAlloc, StepIsAllocationFreeInSteadyState) {
  const auto topo = topo::make_topology("mesh:8x8");
  const auto router = route::make_router("adaptive", *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeNetwork net(*topo, *router, &scheme, {});

  // The hook must itself be allocation-free: count deliveries, nothing more.
  std::size_t delivered_in_window = 0;
  net.set_delivery_hook(
      [&delivered_in_window](pkt::Packet&&, NodeId) { ++delivered_in_window; });

  // Load the injection queues up front (inject() may allocate: it is the
  // cold boundary). Random many-to-many traffic keeps every switch busy.
  netsim::Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const auto s = NodeId(rng.next_below(topo->num_nodes()));
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    net.inject(make_packet(s, d), s);
  }

  // Warm-up: staged/rr/buffer structures reach steady occupancy.
  net.run(500);
  ASSERT_GT(net.flits_in_flight(), 0u) << "warm-up drained the network";
  const std::uint64_t delivered_before = net.delivered();

  delivered_in_window = 0;  // hook also saw warm-up deliveries
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  net.run(200);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "WormholeNetwork::step() allocated during the steady-state window";
  // The window must have been real work, not a drained no-op.
  EXPECT_GT(net.flits_in_flight(), 0u) << "window was not steady state";
  EXPECT_GT(net.delivered(), delivered_before)
      << "no packet completed inside the window";
  EXPECT_EQ(net.delivered() - delivered_before, delivered_in_window);

  ASSERT_TRUE(net.drain(2000000));
}

/// The link clock as one self-rescheduling kernel event: each tick steps
/// the network and schedules the next tick one cycle later.
struct LinkClock {
  netsim::Simulator* sim;
  WormholeNetwork* net;
  std::uint64_t remaining;

  void operator()() {
    net->step();
    if (--remaining > 0) sim->schedule_in(1, *this);
  }
};

static_assert(netsim::InlineAction::fits_inline<LinkClock>,
              "link-clock tick must stay on the allocation-free path");

/// Runs `cycles` link-clock ticks on `sim` (first at now + 1).
void run_link_clock(netsim::Simulator& sim, WormholeNetwork& net,
                    std::uint64_t cycles) {
  sim.schedule_in(1, LinkClock{&sim, &net, cycles});
  sim.run();
}

// Same gate with the link clock living on the simulation kernel's calendar
// wheel: the periodic tick's schedule/pop must stay on the wheel's O(1)
// bucket path and acquire no memory either — the full event-driven stack,
// wormhole engine plus wheel, is allocation-free in steady state.
TEST(WormholeSteadyAlloc, WheelDrivenStepIsAllocationFreeInSteadyState) {
  const auto topo = topo::make_topology("mesh:8x8");
  const auto router = route::make_router("adaptive", *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeNetwork net(*topo, *router, &scheme, {});

  // Heavier load than the direct-run gate: the warm-up must cover a full
  // wheel revolution (1024 ticks at period 1) without draining.
  netsim::Rng rng(13);
  for (int i = 0; i < 12000; ++i) {
    const auto s = NodeId(rng.next_below(topo->num_nodes()));
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    net.inject(make_packet(s, d), s);
  }

  netsim::Simulator sim;
  // Warm-up long enough that the tick's bucket cycle has touched every
  // wheel bucket once (window = 1024 at tick period 1), so the window
  // below exercises only recycled storage.
  run_link_clock(sim, net, 1500);
  ASSERT_GT(net.flits_in_flight(), 0u) << "warm-up drained the network";
  const std::uint64_t delivered_before = net.delivered();

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  run_link_clock(sim, net, 200);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "wheel-driven step() acquired memory during the steady window";
  EXPECT_GT(net.flits_in_flight(), 0u) << "window was not steady state";
  EXPECT_GT(net.delivered(), delivered_before)
      << "no packet completed inside the window";
  ASSERT_TRUE(net.drain(2000000));
}

// The wheel-driven gate above measures the same engine as the direct one
// only if driving the link clock through the kernel changes nothing: the
// same packets must arrive at the same nodes in the same order.
TEST(WormholeSteadyAlloc, WheelDrivenRunMatchesDirectRun) {
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);
  WormholeNetwork direct(*topo, *router, nullptr, {});
  WormholeNetwork wheeled(*topo, *router, nullptr, {});

  using Arrival = std::pair<NodeId, NodeId>;  // (true source, node)
  std::vector<Arrival> direct_arrivals;
  std::vector<Arrival> wheeled_arrivals;
  direct.set_delivery_hook([&direct_arrivals](pkt::Packet&& p, NodeId at) {
    direct_arrivals.emplace_back(p.true_source, at);
  });
  wheeled.set_delivery_hook([&wheeled_arrivals](pkt::Packet&& p, NodeId at) {
    wheeled_arrivals.emplace_back(p.true_source, at);
  });

  netsim::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const auto s = NodeId(rng.next_below(topo->num_nodes()));
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    direct.inject(make_packet(s, d, 44), s);
    wheeled.inject(make_packet(s, d, 44), s);
  }

  direct.run(600);
  netsim::Simulator sim;
  run_link_clock(sim, wheeled, 600);
  EXPECT_EQ(sim.events_executed(), 600u);
  EXPECT_EQ(sim.now(), 600u);

  EXPECT_EQ(wheeled.cycle(), direct.cycle());
  EXPECT_EQ(wheeled.delivered(), direct.delivered());
  EXPECT_EQ(wheeled.flits_in_flight(), direct.flits_in_flight());
  EXPECT_GT(direct_arrivals.size(), 0u);
  EXPECT_EQ(wheeled_arrivals, direct_arrivals);
}

}  // namespace
}  // namespace ddpm::wormhole
