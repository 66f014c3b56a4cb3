#include "layers.hpp"

#include <memory>
#include <unordered_map>

#include "cluster/switch.hpp"
#include "core/sis.hpp"
#include "marking/factory.hpp"
#include "netsim/event_wheel.hpp"
#include "netsim/simulator.hpp"
#include "packet/address_map.hpp"
#include "routing/router.hpp"
#include "stream/detectors.hpp"
#include "stream/sketch.hpp"
#include "topology/factory.hpp"

namespace perfbench {

using namespace ddpm;

namespace {

/// Consumes replay results so the optimizer cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

/// Runs `pass` (one sweep over the inputs, `ops` operations) inside span
/// `name`, at least three times and until `budget_s` has elapsed; returns
/// the median cost per operation in ns.
template <typename Pass>
double time_passes(SpanRecorder& spans, const std::string& name,
                   std::uint64_t ops, Pass&& pass, double budget_s = 0.05) {
  if (ops == 0) return 0;
  const int id = spans.name_id(name);
  std::vector<double> per_op;
  const auto start = Clock::now();
  while (per_op.size() < 3 ||
         (seconds_since(start) < budget_s && per_op.size() < 500)) {
    const std::int64_t t0 = now_ns();
    {
      const Span span(&spans, id);
      pass();
    }
    per_op.push_back(double(now_ns() - t0) / double(ops));
  }
  return median(per_op);
}

struct Hop {
  topo::NodeId cur;
  topo::NodeId dst;
  topo::NodeId next;
  topo::Port in;
  topo::Port out;
};

std::vector<Hop> hops_of(const topo::Topology& topo,
                         const std::vector<Route>& routes) {
  std::vector<Hop> hops;
  for (const Route& r : routes) {
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const auto out = topo.port_to(r.path[i], r.path[i + 1]);
      if (!out) continue;
      topo::Port in = route::kLocalPort;
      if (i > 0) in = topo.port_to(r.path[i], r.path[i - 1]).value_or(route::kLocalPort);
      hops.push_back({r.path[i], r.dst, r.path[i + 1], in, *out});
    }
  }
  return hops;
}

std::size_t hop_count(const std::vector<Route>& routes) {
  std::size_t n = 0;
  for (const Route& r : routes) n += r.path.empty() ? 0 : r.path.size() - 1;
  return n;
}

pkt::Packet fresh_packet(const pkt::AddressMap& addresses, topo::NodeId src,
                         topo::NodeId dst, std::uint8_t ttl) {
  pkt::Packet p;
  p.header = pkt::IpHeader(addresses.address_of(src), addresses.address_of(dst),
                           pkt::IpProto::kUdp, 64);
  p.header.set_ttl(ttl);
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = 64;
  p.traffic = pkt::TrafficClass::kAttackFlood;
  return p;
}

/// Marks `p` along `path` the way a switch chain does: per hop, TTL
/// decrement then on_forward(current, next).
void mark_along(mark::MarkingScheme& scheme, pkt::Packet& p,
                const std::vector<topo::NodeId>& path) {
  scheme.on_injection(p, path.front());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    p.header.decrement_ttl();
    scheme.on_forward(p, path[i], path[i + 1]);
  }
}

void measure_marking(const LayerInputs& inputs, const std::string& name,
                     SpanRecorder& spans, Outcome& out, LayerCosts& costs) {
  const auto topo = topo::make_topology(inputs.topology);
  const auto scheme = mark::make_scheme(name, *topo, inputs.ppm_probability, 7);
  const pkt::AddressMap addresses(topo->num_nodes());
  std::vector<pkt::Packet> templates;
  templates.reserve(inputs.routes.size());
  for (const Route& r : inputs.routes) {
    templates.push_back(fresh_packet(addresses, r.src, r.dst, inputs.initial_ttl));
  }
  const std::size_t hops = hop_count(inputs.routes);
  auto pass = [&](bool forward) {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < inputs.routes.size(); ++i) {
      const auto& path = inputs.routes[i].path;
      pkt::Packet p = templates[i];
      if (forward) {
        mark_along(*scheme, p, path);
      } else {
        scheme->on_injection(p, path.front());
      }
      sink += p.marking_field();
    }
    g_sink = g_sink + sink;
  };
  // The injection hook and packet copy are timed alone and subtracted, so
  // the figure is the per-hop on_forward cost.
  const double full = time_passes(spans, "marking.on_forward." + name, hops,
                                  [&] { pass(true); });
  const double base = time_passes(spans, "marking.on_injection." + name, hops,
                                  [&] { pass(false); });
  const double forward_ns = full - base;
  out.metric("marking.forward_ns." + name, forward_ns, "ns");
  costs.marking_forward_ns[name] = forward_ns;

  // Identification: the victim-bound paths, marked once, then observed.
  std::vector<pkt::Packet> marked;
  for (const Route& r : inputs.victim_routes) {
    pkt::Packet p = fresh_packet(addresses, r.src, r.dst, inputs.initial_ttl);
    mark_along(*scheme, p, r.path);
    marked.push_back(std::move(p));
  }
  auto identifier =
      core::make_identifier(name, *topo, inputs.victim, inputs.initial_ttl);
  const double identify_ns =
      time_passes(spans, "marking.identify." + name, marked.size(), [&] {
        std::uint64_t sink = 0;
        for (const pkt::Packet& p : marked) {
          sink += identifier->observe(p, inputs.victim).size();
        }
        g_sink = g_sink + sink;
      });
  out.metric("marking.identify_ns." + name, identify_ns, "ns");
}

}  // namespace

LayerCosts measure_fabric_layers(const LayerInputs& inputs, SpanRecorder& spans,
                                 Outcome& out) {
  LayerCosts costs;
  const auto topo = topo::make_topology(inputs.topology);
  const auto router = route::make_router(inputs.router, *topo);
  const route::StaticLinkState links(*topo);
  const std::vector<Hop> hops = hops_of(*topo, inputs.routes);

  // Topology and routing: every recorded hop through the public calls.
  const double neighbor_ns = time_passes(spans, "topology.neighbor", hops.size(), [&] {
    std::uint64_t sink = 0;
    for (const Hop& h : hops) sink += topo->neighbor(h.cur, h.out).value_or(0);
    g_sink = g_sink + sink;
  });
  const double coord_ns = time_passes(spans, "topology.coord_of", hops.size(), [&] {
    std::uint64_t sink = 0;
    for (const Hop& h : hops) sink += std::uint64_t(topo->coord_of(h.cur)[0]);
    g_sink = g_sink + sink;
  });
  netsim::Rng rng(11);
  costs.routing_select_ns = time_passes(spans, "routing.select_output", hops.size(), [&] {
    std::uint64_t sink = 0;
    for (const Hop& h : hops) {
      sink += std::uint64_t(router->select_output(h.cur, h.dst, h.in, links, rng).value_or(0));
    }
    g_sink = g_sink + sink;
  });
  const double candidates_ns = time_passes(spans, "routing.candidates", hops.size(), [&] {
    std::uint64_t sink = 0;
    for (const Hop& h : hops) sink += router->candidates(h.cur, h.dst, h.in).size();
    g_sink = g_sink + sink;
  });
  out.metric("topology.neighbor_ns", neighbor_ns, "ns");
  out.metric("topology.coord_of_ns", coord_ns, "ns");
  out.metric("routing.select_ns", costs.routing_select_ns, "ns");
  out.metric("routing.candidates_ns", candidates_ns, "ns");
  out.note("routing.replayed_hops", double(hops.size()), "count");

  for (const char* name : {"ddpm", "dpm", "ppm-full"}) {
    measure_marking(inputs, name, spans, out, costs);
  }

  // One store-and-forward hop on standalone switches: handle() routes,
  // decrements TTL, marks and enqueues (scheduling the transmission). The
  // kernel is drained between batches, outside the timed region. At most
  // 256 distinct switches are built, to bound memory on large fabrics.
  {
    const auto scheme = mark::make_scheme(inputs.scheme, *topo, inputs.ppm_probability, 7);
    netsim::Simulator sim;
    cluster::Metrics metrics;
    cluster::Switch::Env env;
    env.sim = &sim;
    env.topo = topo.get();
    env.router = router.get();
    env.scheme = scheme.get();
    env.links = &links;
    env.metrics = &metrics;
    env.deliver = [](pkt::Packet&&, topo::NodeId) {};
    env.arrive = [](pkt::Packet&&, topo::NodeId, topo::NodeId) {};
    std::unordered_map<topo::NodeId, std::unique_ptr<cluster::Switch>> switches;
    std::vector<std::pair<cluster::Switch*, const Hop*>> work;
    for (const Hop& h : hops) {
      auto it = switches.find(h.cur);
      if (it == switches.end()) {
        if (switches.size() >= 256) continue;
        it = switches.emplace(h.cur, std::make_unique<cluster::Switch>(
                                         h.cur, &env, netsim::Rng(h.cur + 1)))
                 .first;
      }
      work.emplace_back(it->second.get(), &h);
    }
    const pkt::AddressMap addresses(topo->num_nodes());
    std::vector<pkt::Packet> packets;
    packets.reserve(work.size());
    for (const auto& [sw, h] : work) {
      packets.push_back(fresh_packet(addresses, h->cur, h->dst, inputs.initial_ttl));
    }
    const int span_id = spans.name_id("cluster.Switch::handle");
    std::vector<double> per_op;
    const auto start = Clock::now();
    constexpr std::size_t kBatch = 8;
    while (!work.empty() && (per_op.size() < 3 || seconds_since(start) < 0.05)) {
      std::int64_t busy = 0;
      {
        const Span span(&spans, span_id);
        for (std::size_t i = 0; i < work.size(); i += kBatch) {
          const std::size_t end = std::min(work.size(), i + kBatch);
          std::vector<pkt::Packet> batch(packets.begin() + std::ptrdiff_t(i),
                                         packets.begin() + std::ptrdiff_t(end));
          const std::int64_t t0 = now_ns();
          for (std::size_t k = i; k < end; ++k) {
            work[k].first->handle(std::move(batch[k - i]), work[k].second->in);
          }
          busy += now_ns() - t0;
          sim.run();
        }
      }
      per_op.push_back(double(busy) / double(work.size()));
    }
    out.metric("cluster.handle_ns", median(per_op), "ns");
  }

  // Victim-side detection over the victim's deliveries, in order.
  {
    const auto detector = stream::make_detector(inputs.detector, inputs.detect_threshold,
                                                inputs.detect_half_life);
    const double observe_ns =
        time_passes(spans, "detect.observe", inputs.victim_packets.size(), [&] {
          detector->reset();
          for (const pkt::Packet& p : inputs.victim_packets) detector->observe(p, p.delivered_at);
          g_sink = g_sink + std::uint64_t(detector->alarmed());
        });
    out.metric("detect.observe_ns", observe_ns, "ns");
    out.note("detect.replayed_packets", double(inputs.victim_packets.size()), "count");
  }

  // Event wheel at the cluster cadence: a steady pending depth, each pop
  // rescheduling one serialization or serialization+latency later.
  {
    netsim::EventWheel wheel;
    const std::size_t depth = std::max<std::size_t>(inputs.wheel_depth, 1);
    wheel.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      wheel.schedule(netsim::SimTime(i % inputs.wheel_long), [] {});
    }
    std::uint64_t k = 0;
    const double op_ns = time_passes(spans, "netsim.EventWheel", 100'000, [&] {
      for (int i = 0; i < 100'000; ++i, ++k) {
        auto [when, action] = wheel.pop();
        action();
        wheel.schedule(when + ((k & 1) != 0 ? inputs.wheel_short : inputs.wheel_long),
                       [] {});
      }
    });
    costs.wheel_op_ns = op_ns;
    out.metric("netsim.wheel_op_ns", op_ns, "ns");
    out.metric("netsim.wheel_scheduled", double(wheel.wheel_scheduled()), "count");
    out.metric("netsim.heap_scheduled", double(wheel.heap_scheduled()), "count");
    out.note("netsim.wheel_depth", double(depth), "count");
  }
  return costs;
}

StreamTrace traced_stream_replay(
    const std::function<bool(flow::FlowRecord&)>& next,
    const stream::FlowAnalyzerConfig& config, SpanRecorder& spans) {
  constexpr std::size_t kKeyCap = 1 << 20;
  const int ingest_id = spans.name_id("stream.ingest");
  const int close_id = spans.name_id("stream.window_close");
  StreamTrace trace;
  trace.keys.reserve(kKeyCap);
  const auto start = Clock::now();
  stream::FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord record;
  std::uint64_t open_window = 0;
  while (next(record)) {
    const std::uint64_t w = record.first_ts / config.window;
    const bool closes = w > open_window;
    if (closes) open_window = w;
    {
      const Span span(&spans, closes ? close_id : ingest_id);
      analyzer.ingest(record);
    }
    if (trace.keys.size() < kKeyCap) trace.keys.push_back(record.src);
    ++trace.records;
  }
  trace.report = analyzer.finish();
  trace.run_s = seconds_since(start);
  return trace;
}

void report_stream_layers(const StreamTrace& trace,
                          const stream::FlowAnalyzerConfig& config,
                          const flow::TraceGenConfig& gen, SpanRecorder& spans,
                          Outcome& out) {
  out.metric("stream.ingest_ns", spans.per_call_ns("stream.ingest"), "ns");
  out.metric("stream.window_close_us", spans.per_call_ns("stream.window_close") / 1e3, "us");
  out.metric("stream.memory_bytes", double(trace.report.memory_bytes), "bytes");
  out.metric("stream.peak_buffer_bytes", double(trace.report.peak_buffer_bytes), "bytes");
  out.note("stream.window_closes", double(spans.aggregate("stream.window_close").calls), "count");

  stream::CountMinSketch sketch(config.cms_width, config.cms_depth, config.seed);
  const double update_ns =
      time_passes(spans, "stream.CountMinSketch::update", trace.keys.size(), [&] {
        std::uint64_t sink = 0;
        for (const std::uint32_t key : trace.keys) sink += sketch.update(key);
        g_sink = g_sink + sink;
      });
  out.metric("stream.sketch_update_ns", update_ns, "ns");

  // The generator drained alone.
  flow::TraceGenerator generator(gen);
  flow::FlowRecord record;
  std::uint64_t n = 0;
  const int next_id = spans.name_id("flow.TraceGenerator::next");
  const std::int64_t t0 = now_ns();
  {
    const Span span(&spans, next_id);
    while (generator.next(record)) ++n;
  }
  out.metric("flow.next_ns", n ? double(now_ns() - t0) / double(n) : 0, "ns");
}

}  // namespace perfbench
