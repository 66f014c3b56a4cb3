#include "workloads.hpp"

#include <sched.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "attack/attacker.hpp"
#include "attack/traffic.hpp"
#include "core/sis.hpp"
#include "flow/trace_gen.hpp"
#include "layers.hpp"
#include "marking/ddpm.hpp"
#include "marking/factory.hpp"
#include "routing/router.hpp"
#include "stream/flow_analyzer.hpp"
#include "telemetry/registry.hpp"
#include "topology/factory.hpp"
#include "wormhole/wormhole.hpp"

namespace perfbench {

using namespace ddpm;

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", 0, "s"},
      {"peak_rss_mib", 0, "MiB"},
      {"scenarios_per_s", 0, "1/s"},
      {"work_per_s", 0, "items/s"},
  };
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"netsim.events", 0, "count"},
      {"netsim.events_per_hop", 0, "ratio"},
      {"netsim.clamped_events", 0, "count"},
      {"netsim.pending_peak", 0, "count"},
      {"netsim.wheel_op_ns", 0, "ns"},
      {"netsim.wheel_scheduled", 0, "count"},
      {"netsim.heap_scheduled", 0, "count"},
      {"topology.neighbor_ns", 0, "ns"},
      {"topology.coord_of_ns", 0, "ns"},
      {"routing.select_ns", 0, "ns"},
      {"routing.candidates_ns", 0, "ns"},
      {"marking.forward_ns.ddpm", 0, "ns"},
      {"marking.forward_ns.dpm", 0, "ns"},
      {"marking.forward_ns.ppm-full", 0, "ns"},
      {"marking.identify_ns.ddpm", 0, "ns"},
      {"marking.identify_ns.dpm", 0, "ns"},
      {"marking.identify_ns.ppm-full", 0, "ns"},
      {"marking.identify_calls", 0, "count"},
      {"cluster.handle_ns", 0, "ns"},
      {"cluster.self_ns_per_hop", 0, "ns"},
      {"cluster.queue_drops", 0, "count"},
      {"cluster.ttl_drops", 0, "count"},
      {"detect.observe_ns", 0, "ns"},
      {"wormhole.step_ns", 0, "ns"},
      {"wormhole.inject_ns", 0, "ns"},
      {"wormhole.flits_in_flight", 0, "count"},
      {"wormhole.backlog_end", 0, "count"},
      {"flow.next_ns", 0, "ns"},
      {"stream.ingest_ns", 0, "ns"},
      {"stream.window_close_us", 0, "us"},
      {"stream.sketch_update_ns", 0, "ns"},
      {"stream.memory_bytes", 0, "bytes"},
      {"stream.peak_buffer_bytes", 0, "bytes"},
      {"telemetry.series", 0, "count"},
      {"telemetry.snapshot_s", 0, "s"},
      {"telemetry.on_off_ratio", 0, "ratio"},
      {"core.scenario_s.ddpm", 0, "s"},
      {"core.scenario_s.dpm", 0, "s"},
      {"core.scenario_s.ppm-full", 0, "s"},
      {"trace.overhead_ratio", 0, "ratio"},
  };
  return metrics;
}

namespace {

const std::vector<std::string> kSchemes = {"ddpm", "dpm", "ppm-full"};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Reports 0 for every per-layer metric whose name starts with one of
/// `prefixes`: the layers the workload does not run.
void zero_layers(Outcome& out, std::initializer_list<std::string_view> prefixes) {
  for (const Metric& m : per_layer_metrics()) {
    for (const std::string_view prefix : prefixes) {
      if (m.name.starts_with(prefix)) out.metric(m.name, 0, m.unit);
    }
  }
}

// ---------------------------------------------------------------------------
// The untraced measurement.

/// One untraced run of one input.
struct Sample {
  double setup_s = 0;
  double work = 0;  // delivered packet-hops, flit-hops or flow records
  /// The run's wall time cut into consecutive parts at fixed points of
  /// the work (every N deliveries, cycles or records), so the same part of
  /// the same input can be compared across passes.
  std::vector<double> parts;
};

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

/// Pins the process to one CPU after another of the set it may run on,
/// one per pass, and restores that set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::uint64_t pass) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pass % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  std::size_t cpus() const noexcept { return cpus_.size(); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Runs whole passes over a fixed set of `inputs` (made from the run's
/// seed) until `seconds` are spent, and at least two passes, so every
/// input has a warm run. `run_input(k, out)` runs input k once. Checks and
/// the output digest come from the first pass alone, so neither depends on
/// the machine's speed; every later pass must reproduce each input's digest.
///
/// A run's time is the sum, over every part of every input, of that part's
/// fastest time in any pass: on a shared machine other tenants only ever
/// slow the program down, in bursts shorter than a pass or on some CPUs
/// more than others, so the fastest time of each part is the steadiest
/// estimate of the program's own time. Each pass runs pinned to the next
/// CPU the process may use, so a run samples them all. Summing over the
/// fixed set keeps every input, cheap or expensive, in the figure. Set-up
/// is the median over every run. Returns the run time.
template <typename RunInput>
double timed_passes(std::size_t inputs, double seconds, const std::string& item,
                    RunInput&& run_input, Outcome& out) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const CpuRotation rotation;
  std::vector<double> best_setup(inputs, kNever);
  std::vector<std::vector<double>> best_parts(inputs);
  std::vector<std::uint64_t> digests(inputs, 0);
  std::vector<double> setups;
  double work = 0;
  double all_work = 0;
  double all_run_s = 0;
  std::uint64_t passes = 0;
  std::uint64_t diverged = 0;
  const auto start = Clock::now();
  do {
    rotation.pin(passes);
    for (std::size_t k = 0; k < inputs; ++k) {
      Outcome one;
      const Sample s = run_input(k, one);
      setups.push_back(s.setup_s);
      best_setup[k] = std::min(best_setup[k], s.setup_s);
      all_work += s.work;
      all_run_s += sum(s.parts);
      if (passes == 0) {
        out.absorb(one);
        digests[k] = one.digest_value();
        best_parts[k] = s.parts;
        work += s.work;
      } else if (one.digest_value() != digests[k] || s.parts.size() != best_parts[k].size()) {
        ++diverged;
      } else {
        for (std::size_t j = 0; j < s.parts.size(); ++j) {
          best_parts[k][j] = std::min(best_parts[k][j], s.parts[j]);
        }
      }
    }
    ++passes;
  } while (passes < 2 || seconds_since(start) < seconds);
  out.check(diverged == 0, "every pass reproduces the first pass's outputs");

  double run_s = 0;
  for (const auto& parts : best_parts) run_s += sum(parts);
  const double total_s = sum(best_setup) + run_s;
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  out.metric("scenarios_per_s", double(inputs) / total_s, "1/s");
  out.metric("work_per_s", work / run_s, "items/s");
  out.note(item + "_per_s", work / run_s, item + "/s");
  out.note(item + "_per_s.every_run", all_work / all_run_s, item + "/s");
  out.note("inputs", double(inputs), "count");
  out.note("passes", double(passes), "count");
  out.note("cpus", double(rotation.cpus()), "count");
  out.note("setup_samples", double(setups.size()), "count");
  return run_s;
}

// ---------------------------------------------------------------------------
// Cluster scenarios.

/// Ticks a cluster link is busy serializing one packet of `payload` bytes.
std::uint64_t serialization_ticks(std::uint32_t payload, double bandwidth) {
  return std::uint64_t(std::ceil(double(pkt::IpHeader::kWireSize + payload) / bandwidth));
}

/// Writes every field of a scenario config a cluster workload depends on.
void echo_scenario(const core::ScenarioConfig& c, Outcome& out) {
  const auto& k = c.cluster;
  out.config("cluster.topology", k.topology);
  out.config("cluster.router", k.router);
  out.config("cluster.scheme", k.scheme);
  out.config("cluster.pattern", k.pattern);
  out.config("cluster.benign_rate_per_node", k.benign_rate_per_node);
  out.config("cluster.benign_payload", double(k.benign_payload));
  out.config("cluster.link_bandwidth", k.link_bandwidth);
  out.config("cluster.link_latency", double(k.link_latency));
  out.config("cluster.queue_capacity", double(k.queue_capacity));
  out.config("cluster.ingress_filtering", k.ingress_filtering ? "true" : "false");
  out.config("cluster.initial_ttl", double(k.initial_ttl));
  out.config("cluster.ppm_probability", k.ppm_probability);
  out.config("cluster.telemetry", k.telemetry ? "true" : "false");
  out.config("identifier", c.identifier);
  out.config("detector", c.detector);
  out.config("detect_rate_threshold", c.detect_rate_threshold);
  out.config("detect_half_life", c.detect_half_life);
  out.config("classifier_false_positive_rate", c.classifier_false_positive_rate);
  out.config("auto_block", c.auto_block ? "true" : "false");
  out.config("duration", double(c.duration));
  out.config("attack.kind", attack::to_string(c.attack.kind));
  out.config("attack.spoof", attack::to_string(c.attack.spoof));
  out.config("attack.zombies", double(c.attack.zombies.size()));
  out.config("attack.victim", double(c.attack.victim));
  out.config("attack.start_time", double(c.attack.start_time));
  out.config("attack.payload_bytes", double(c.attack.payload_bytes));
}

/// Sets every ScenarioConfig field a cluster workload depends on, so a
/// change of library defaults cannot silently change the workload.
core::ScenarioConfig base_scenario(const std::string& topology, std::uint64_t seed) {
  core::ScenarioConfig c;
  auto& k = c.cluster;
  k.topology = topology;
  k.router = "adaptive";
  k.scheme = "ddpm";
  k.pattern = "uniform";
  k.benign_payload = 256;
  k.link_bandwidth = 1.0;
  k.link_latency = 50;
  k.queue_capacity = 16;
  k.ingress_filtering = false;
  k.seed = seed;
  k.rng_stream = 0;
  k.record_traces = false;
  k.ppm_probability = 0.04;
  k.telemetry = true;
  c.identifier = "ddpm";
  c.detector = "rate-threshold";
  c.detect_half_life = 2000;
  c.classifier_false_positive_rate = 0.0;
  c.auto_block = true;
  c.attack.kind = attack::AttackKind::kUdpFlood;
  c.attack.spoof = attack::SpoofStrategy::kRandomCluster;
  c.attack.stop_time = ~netsim::SimTime{0};
  c.attack.payload_bytes = 64;
  c.attack.pulse_period = 0;
  c.attack.pulse_duty = 0.5;
  return c;
}

/// One cell of the scheme mix: core::run_sweep's cell scenario. As in
/// run_sweep, the zombie set is fixed (drawn from seed 99) and the seed
/// and replication choose the traffic: where the zombies sit changes the
/// cost per hop by up to a third, which would make the figure depend on
/// the seed rather than on the program.
core::ScenarioConfig mix_config(std::uint64_t seed, const std::string& scheme, double rate,
                                std::uint64_t replication) {
  core::ScenarioConfig c = base_scenario("torus:8x8", seed);
  c.cluster.scheme = scheme;
  c.identifier = scheme;
  c.cluster.benign_rate_per_node = 0.0002;
  c.cluster.initial_ttl = 64;
  c.cluster.rng_stream = replication;
  c.detect_rate_threshold = 0.005;
  c.duration = 300'000;
  c.attack.rate_per_zombie = rate;
  c.attack.start_time = 20'000;
  const auto topo = topo::make_topology(c.cluster.topology);
  c.attack.victim = topo->num_nodes() - 1;
  netsim::Rng rng(99);
  c.attack.zombies = attack::pick_zombies(*topo, 4, c.attack.victim, rng);
  return c;
}

/// The scheme mix's fixed inputs: every (scheme, rate, replication)
/// scenario of core::run_sweep's grid for one seed.
std::vector<core::ScenarioConfig> mix_grid(std::uint64_t seed, std::size_t reps) {
  std::vector<core::ScenarioConfig> grid;
  for (const std::string& scheme : kSchemes) {
    for (const double rate : {0.005, 0.01}) {
      for (std::uint64_t r = 0; r < reps; ++r) grid.push_back(mix_config(seed, scheme, rate, r));
    }
  }
  return grid;
}

/// What a traced cluster scenario records through the delivery observer.
struct Capture {
  std::size_t route_stride = 4;
  std::size_t route_cap = 4000;
  std::size_t victim_route_cap = 2000;
  std::size_t victim_packet_cap = 50'000;
  std::vector<Route> routes;
  std::vector<Route> victim_routes;
  std::vector<pkt::Packet> victim_packets;
  std::size_t pending_peak = 0;
  std::uint64_t deliveries = 0;
};

struct ScenarioRun {
  core::ScenarioReport report;
  double setup_s = 0;
  double run_s = 0;
  double hops = 0;
  std::uint64_t events = 0;
  std::uint64_t clamped = 0;
  double snapshot_s = 0;
  std::vector<double> parts;  // run_s, cut every kDeliveriesPerPart deliveries
};

constexpr std::uint64_t kDeliveriesPerPart = 1024;

/// Builds and runs one SourceIdentificationSystem. With `spans`, the
/// construction, run and a telemetry snapshot are spans, and `capture`
/// (if any; traced runs only) samples paths, victim deliveries and the
/// kernel's pending depth. Without either, the delivery observer cuts the
/// run time into parts.
ScenarioRun run_scenario(const core::ScenarioConfig& config, SpanRecorder* spans,
                         Capture* capture) {
  ScenarioRun run;
  Clock::time_point run_start;
  const Span scenario(spans, spans ? spans->name_id("core.scenario." + config.cluster.scheme) : 0);
  std::unique_ptr<core::SourceIdentificationSystem> sys;
  auto t0 = Clock::now();
  {
    const Span span(spans, spans ? spans->name_id("core.setup") : 0);
    sys = std::make_unique<core::SourceIdentificationSystem>(config);
  }
  run.setup_s = seconds_since(t0);
  if (capture != nullptr && spans != nullptr) {
    const topo::NodeId victim = config.attack.victim;
    const int observer_id = spans->name_id("pipeline.observer");
    core::SourceIdentificationSystem* system = sys.get();
    sys->set_observer([capture, victim, observer_id, spans, system](
                          const pkt::Packet& p, topo::NodeId at) {
      const Span span(spans, observer_id);
      Capture& c = *capture;
      ++c.deliveries;
      if ((c.deliveries & 63) == 0) {
        c.pending_peak = std::max(c.pending_peak, system->network().sim().pending_count());
      }
      if (at == victim) {
        if (c.victim_routes.size() < c.victim_route_cap && p.trace.size() > 1) {
          c.victim_routes.push_back({p.true_source, at, p.trace});
        }
        if (c.victim_packets.size() < c.victim_packet_cap) {
          c.victim_packets.push_back(p);
          c.victim_packets.back().trace.clear();
          c.victim_packets.back().trace.shrink_to_fit();
        }
      } else if (c.deliveries % c.route_stride == 0 && c.routes.size() < c.route_cap &&
                 p.trace.size() > 1) {
        c.routes.push_back({p.true_source, at, p.trace});
      }
    });
  } else if (spans == nullptr) {
    sys->set_observer([&run, &run_start, n = std::uint64_t{0}](const pkt::Packet&,
                                                                topo::NodeId) mutable {
      if (++n % kDeliveriesPerPart == 0) run.parts.push_back(seconds_since(run_start));
    });
  }
  run_start = Clock::now();
  {
    const Span span(spans, spans ? spans->name_id("core.run") : 0);
    run.report = sys->run();
  }
  run.run_s = seconds_since(run_start);
  run.parts.push_back(run.run_s);
  for (std::size_t j = run.parts.size() - 1; j > 0; --j) run.parts[j] -= run.parts[j - 1];
  run.hops = run.report.metrics.hops.sum();
  run.events = sys->network().sim().events_executed();
  run.clamped = sys->network().sim().clamped_events();
  if (spans != nullptr) {
    t0 = Clock::now();
    {
      const Span span(spans, spans->name_id("telemetry.snapshot"));
      const auto snapshot = sys->network().telemetry_snapshot();
      run.snapshot_s = seconds_since(t0);
    }
  }
  return run;
}

/// Folds a scheme-mix run's outputs into the digest and checks run_sweep's
/// DDPM verdict: every DDPM cell has perfect_runs == seeds, so every DDPM
/// run names each zombie and no innocent.
void check_mix_run(const core::ScenarioConfig& c, const core::ScenarioReport& r,
                   bool expect_wrong, Outcome& out) {
  out.digest(r.detection_time.value_or(0));
  for (const topo::NodeId n : r.identified_sources) out.digest(n);
  out.digest(r.metrics.delivered());
  out.digest(std::uint64_t(r.metrics.hops.sum()));
  if (c.cluster.scheme != "ddpm") return;
  const bool perfect = r.true_positives == r.true_sources.size() && r.false_positives == 0;
  out.check(perfect != expect_wrong, "ddpm cell rate " + fmt(c.attack.rate_per_zombie) +
                                         " replication " +
                                         std::to_string(c.cluster.rng_stream) + ": perfect run");
}

/// Sums over one pass of cluster scenario runs.
struct ClusterRuns {
  double hops = 0;
  double run_s = 0;
  std::map<std::string, double> scheme_s;  // set-up plus run
  std::map<std::string, int> scheme_n;
  std::map<std::string, double> scheme_hops;
  std::uint64_t scenarios = 0;
  std::uint64_t events = 0;
  std::uint64_t clamped = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t ttl_drops = 0;
  std::uint64_t identify_calls = 0;
  std::size_t series = 0;
  double snapshot_s = 0;

  void add(const ScenarioRun& run, const std::string& scheme) {
    hops += run.hops;
    run_s += run.run_s;
    scheme_s[scheme] += run.setup_s + run.run_s;
    ++scheme_n[scheme];
    scheme_hops[scheme] += run.hops;
    ++scenarios;
    events += run.events;
    clamped += run.clamped;
    queue_drops += run.report.metrics.dropped_queue_full;
    ttl_drops += run.report.metrics.dropped_ttl;
    identify_calls += run.report.telemetry.counter_value("identify.attempts");
    series = std::max(series, run.report.telemetry.series());
    snapshot_s += run.snapshot_s;
  }
  double rate() const { return hops / run_s; }
};

/// One pass over `grid`; with spans, `capture` samples the DDPM cells'
/// deliveries.
ClusterRuns run_mix(const std::vector<core::ScenarioConfig>& grid, bool telemetry,
                    SpanRecorder* spans, Capture* capture, bool expect_wrong, Outcome& out) {
  ClusterRuns mix;
  for (core::ScenarioConfig config : grid) {
    Capture* cell_capture = config.cluster.scheme == "ddpm" ? capture : nullptr;
    config.cluster.telemetry = telemetry;
    config.cluster.record_traces = cell_capture != nullptr;
    const ScenarioRun run = run_scenario(config, spans, cell_capture);
    mix.add(run, config.cluster.scheme);
    check_mix_run(config, run.report, expect_wrong, out);
  }
  return mix;
}

/// Residue of the untraced runs' per-hop wall time once the separately
/// timed layers are taken out: routing, each scheme's marking weighted by
/// its share of the hops, and the kernel's events.
double cluster_self_ns_per_hop(const ClusterRuns& runs, const LayerCosts& costs) {
  if (runs.hops <= 0) return 0;
  double marking_ns = 0;
  for (const auto& [scheme, scheme_hops] : runs.scheme_hops) {
    marking_ns += scheme_hops * costs.marking_forward_ns.at(scheme);
  }
  return (runs.run_s * 1e9 - marking_ns) / runs.hops - costs.routing_select_ns -
         costs.wheel_op_ns * double(runs.events) / runs.hops;
}

/// Layer inputs recorded by a traced cluster run of `config`.
LayerInputs cluster_inputs(const core::ScenarioConfig& config, Capture& capture) {
  LayerInputs inputs;
  inputs.topology = config.cluster.topology;
  inputs.router = config.cluster.router;
  inputs.scheme = config.cluster.scheme;
  inputs.initial_ttl = config.cluster.initial_ttl;
  inputs.victim = config.attack.victim;
  inputs.routes = std::move(capture.routes);
  inputs.victim_routes = std::move(capture.victim_routes);
  inputs.victim_packets = std::move(capture.victim_packets);
  inputs.detect_threshold = config.detect_rate_threshold;
  inputs.detect_half_life = config.detect_half_life;
  inputs.wheel_depth = capture.pending_peak;
  inputs.wheel_short =
      serialization_ticks(config.cluster.benign_payload, config.cluster.link_bandwidth);
  inputs.wheel_long = inputs.wheel_short + config.cluster.link_latency;
  return inputs;
}

// ---------------------------------------------------------------------------
// Wormhole.

/// Times each on_forward/on_injection of the wrapped scheme as a span: the
/// network accepts any MarkingScheme*, so this is the one layer boundary
/// inside WormholeNetwork::step the benchmark can see from outside.
class TimedScheme final : public mark::MarkingScheme {
 public:
  TimedScheme(mark::MarkingScheme& inner, SpanRecorder& spans)
      : inner_(inner),
        spans_(spans),
        forward_id_(spans.name_id("marking.on_forward.wormhole")),
        inject_id_(spans.name_id("marking.on_injection.wormhole")) {}
  std::string name() const override { return inner_.name(); }
  void on_injection(pkt::Packet& p, topo::NodeId at) override {
    const Span span(&spans_, inject_id_);
    inner_.on_injection(p, at);
  }
  void on_forward(pkt::Packet& p, topo::NodeId current, topo::NodeId next) override {
    const Span span(&spans_, forward_id_);
    inner_.on_forward(p, current, next);
  }

 private:
  mark::MarkingScheme& inner_;
  SpanRecorder& spans_;
  int forward_id_;
  int inject_id_;
};

struct WormSettings {
  std::string topology = "torus:8x8";
  std::string router = "adaptive";
  double rate = 0.06;             // packets per node per cycle
  std::uint32_t payload = 44;     // 64 wire bytes = 4 flits
  std::uint64_t inject_cycles = 20'000;
  std::uint64_t drain_max = 200'000;
};

wormhole::WormholeConfig worm_config(std::uint64_t seed) {
  wormhole::WormholeConfig c;
  c.flit_bytes = 16;
  c.adaptive_vcs = 1;
  c.buffer_flits = 4;
  c.disable_escape = false;
  c.initial_ttl = 255;
  c.seed = seed;
  c.use_route_tables = true;
  c.route_table_max_nodes = 4096;
  c.use_soa_engine = true;
  return c;
}

void echo_worm(const WormSettings& s, Outcome& out) {
  const auto c = worm_config(0);
  out.config("topology", s.topology);
  out.config("router", s.router);
  out.config("scheme", "ddpm");
  out.config("pattern", "uniform");
  out.config("injection_rate", s.rate);
  out.config("payload_bytes", double(s.payload));
  out.config("inject_cycles", double(s.inject_cycles));
  out.config("drain_max_cycles", double(s.drain_max));
  out.config("flit_bytes", double(c.flit_bytes));
  out.config("adaptive_vcs", double(c.adaptive_vcs));
  out.config("buffer_flits", double(c.buffer_flits));
  out.config("disable_escape", c.disable_escape ? "true" : "false");
  out.config("initial_ttl", double(c.initial_ttl));
  out.config("use_route_tables", c.use_route_tables ? "true" : "false");
  out.config("route_table_max_nodes", double(c.route_table_max_nodes));
  out.config("use_soa_engine", c.use_soa_engine ? "true" : "false");
  out.config("telemetry", "false");
}

struct Delivered {
  std::uint16_t field;
  topo::NodeId source;
  topo::NodeId at;
};

struct WormRun {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t cycles = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  double flit_hops = 0;
  std::uint64_t backlog_end = 0;
  double flits_in_flight_mean = 0;
  std::size_t series = 0;
  double snapshot_s = 0;
  std::vector<double> parts;  // run_s, cut every kWormPartCycles and at the drain
};

constexpr std::uint64_t kWormPartCycles = 500;

/// One wormhole scenario: inject uniform traffic for inject_cycles, then
/// drain. `spans` adds per-step/per-inject spans and the marking decorator;
/// `telemetry` binds a registry. Checks go to `out`.
WormRun run_worm(const WormSettings& s, std::uint64_t seed, SpanRecorder* spans,
                 bool telemetry, bool expect_wrong, Outcome& out) {
  WormRun run;
  auto t0 = Clock::now();
  const auto topo = topo::make_topology(s.topology);
  const auto router = route::make_router(s.router, *topo);
  const auto scheme = mark::make_scheme("ddpm", *topo);
  std::unique_ptr<TimedScheme> timed;
  if (spans != nullptr) timed = std::make_unique<TimedScheme>(*scheme, *spans);
  mark::MarkingScheme* marking = timed ? static_cast<mark::MarkingScheme*>(timed.get())
                                       : scheme.get();
  telemetry::Registry registry;
  wormhole::WormholeNetwork net(*topo, *router, marking, worm_config(seed));
  if (telemetry) net.bind_telemetry(&registry);
  const attack::UniformPattern pattern(*topo);
  const pkt::AddressMap addresses(topo->num_nodes());
  const topo::NodeId nodes = topo->num_nodes();
  std::vector<Delivered> delivered;
  delivered.reserve(std::size_t(double(s.inject_cycles) * s.rate * double(nodes) * 1.2));
  const std::uint32_t flit_bytes = worm_config(seed).flit_bytes;
  net.set_delivery_hook([&](pkt::Packet&& p, topo::NodeId at) {
    delivered.push_back({p.marking_field(), p.true_source, at});
    run.flit_hops += double((p.wire_bytes() + flit_bytes - 1) / flit_bytes) * double(p.hops);
  });
  netsim::Rng rng(seed ^ 0xf1175ULL);
  run.setup_s = seconds_since(t0);

  const int step_id = spans ? spans->name_id("wormhole.step") : 0;
  const int inject_id = spans ? spans->name_id("wormhole.inject") : 0;
  double in_flight_sum = 0;
  std::uint64_t in_flight_samples = 0;
  t0 = Clock::now();
  for (std::uint64_t cycle = 0; cycle < s.inject_cycles; ++cycle) {
    for (topo::NodeId n = 0; n < nodes; ++n) {
      if (!rng.next_bool(s.rate)) continue;
      pkt::Packet p;
      const topo::NodeId dest = pattern.pick_dest(n, rng);
      p.header = pkt::IpHeader(addresses.address_of(n), addresses.address_of(dest),
                               pkt::IpProto::kUdp, std::uint16_t(s.payload));
      p.true_source = n;
      p.dest_node = dest;
      p.payload_bytes = s.payload;
      p.injected_at = net.cycle();
      const Span span(spans, inject_id);
      net.inject(std::move(p), n);
      ++run.injected;
    }
    {
      const Span span(spans, step_id);
      net.step();
    }
    if (spans != nullptr && (cycle & 15) == 0) {
      in_flight_sum += double(net.flits_in_flight());
      ++in_flight_samples;
    }
    if (cycle % kWormPartCycles == kWormPartCycles - 1) run.parts.push_back(seconds_since(t0));
  }
  run.backlog_end = net.injection_backlog();
  std::string why;
  const bool invariants_loaded = net.check_protocol_invariants(&why);
  const bool drained = net.drain(s.drain_max);
  run.run_s = seconds_since(t0);
  run.parts.push_back(run.run_s);
  for (std::size_t j = run.parts.size() - 1; j > 0; --j) run.parts[j] -= run.parts[j - 1];
  run.cycles = net.cycle();
  run.delivered = net.delivered();
  run.dropped_ttl = net.dropped_ttl();
  run.flits_in_flight_mean = in_flight_samples ? in_flight_sum / double(in_flight_samples) : 0;
  if (telemetry) {
    const auto t1 = Clock::now();
    run.series = registry.snapshot().series();
    run.snapshot_s = seconds_since(t1);
  }

  out.check(invariants_loaded, "wormhole protocol invariants under load: " + why);
  out.check(drained && !net.deadlocked(), "wormhole drains without deadlock");
  out.check(net.check_protocol_invariants(&why), "wormhole protocol invariants after drain: " + why);
  out.check(run.delivered == run.injected, "wormhole delivers every injected packet");
  out.check(run.dropped_ttl == 0, "wormhole drops nothing on TTL");
  // Single-packet identification (the paper's claim): the Marking Field
  // of every delivered packet names its true source.
  const mark::DdpmIdentifier identifier(*topo);
  std::uint64_t wrong = 0;
  for (const Delivered& d : delivered) {
    const auto named = identifier.identify(d.at, d.field);
    const topo::NodeId expected = expect_wrong ? (d.source + 1) % nodes : d.source;
    if (!named || *named != expected) ++wrong;
    out.digest(d.field);
  }
  out.check_many(delivered.size(), wrong, "DDPM identifies each delivered packet's source");
  out.digest(run.delivered);
  out.digest(run.cycles);
  return run;
}

// ---------------------------------------------------------------------------
// Trace replay.

flow::TraceGenConfig trace_gen_config(std::uint64_t seed, std::uint32_t sources) {
  flow::TraceGenConfig g;
  g.seed = seed;
  g.benign_sources = 10'000;
  g.zipf_s = 1.1;
  g.services = 32;
  g.benign_rate = 0.02;
  g.duration = 500'000;
  g.attack = flow::AttackShape::kFlood;
  g.attack_sources = sources;
  g.victim = 0xC0A8'0001;
  g.attack_start = 50'000;
  g.attack_duration = 400'000;
  g.attack_rate = 1.25 * double(sources) / double(g.attack_duration);
  return g;
}

stream::FlowAnalyzerConfig analyzer_config() {
  stream::FlowAnalyzerConfig a;
  a.window = 10'000;
  a.shards = 16;
  a.cms_width = 2048;
  a.cms_depth = 4;
  a.topk = 64;
  a.entropy_window = 4096;
  a.entropy_buckets = 4096;
  a.entropy_low_bits = 0.5;
  a.entropy_high_bits = 11.0;
  a.min_window_arrivals = 64;
  a.hh_share = 0.4;
  a.warmup_windows = 4;
  a.cusum_slack_frac = 1.0;
  a.cusum_threshold_frac = 8.0;
  a.seed = 0x5eed'f10eULL;
  a.jobs = 1;
  return a;
}

constexpr std::size_t kMaxSketchBytes = 4u << 20;

void check_stream(const stream::StreamReport& r, const flow::TraceGenConfig& g,
                  std::uint64_t emitted, bool expect_wrong, Outcome& out) {
  out.check(r.detection_time.has_value(), "trace flood detected");
  const std::uint32_t expected = expect_wrong ? g.victim + 1 : g.victim;
  out.check(r.victim_identified && r.victim == expected, "trace victim named");
  out.check(r.memory_bytes <= kMaxSketchBytes, "sketch memory within 4 MiB");
  out.check(r.records == emitted, "analyzer saw every generated record");
  out.digest(r.detection_time.value_or(0));
  out.digest(r.victim);
  out.digest(r.records);
  out.digest(r.packets);
}

// ---------------------------------------------------------------------------
// Workloads.

/// Fixed inputs per untraced run; each is one scenario (wormhole run,
/// trace) made from the run's seed. Each input is large enough that its
/// cost hardly depends on the seed, so few inputs suffice, and few inputs
/// give each part many passes to find its fastest time in.
constexpr std::size_t kWormInputs = 2;
constexpr std::size_t kTraceInputs = 2;

void scheme_mix_torus8(const Options& o, SpanRecorder& spans, Outcome& out) {
  const std::size_t reps = o.small ? 1 : 3;
  const std::vector<core::ScenarioConfig> grid = mix_grid(scenario_seed(o.seed, 0), reps);
  echo_scenario(grid.front(), out);
  out.config("grid.schemes", "ddpm,dpm,ppm-full");
  out.config("grid.rates", "0.005,0.01");
  out.config("grid.replications", double(reps));
  if (!o.trace) {
    // Every scenario is one input, so the sum over inputs keeps each
    // scheme's share: a best-of cannot pick the cheapest scheme.
    timed_passes(
        grid.size(), o.seconds, "hops",
        [&](std::size_t k, Outcome& one) {
          const ScenarioRun run = run_scenario(grid[k], nullptr, nullptr);
          check_mix_run(grid[k], run.report, o.expect_wrong, one);
          return Sample{run.setup_s, run.hops, run.parts};
        },
        out);
    return;
  }

  {
    Outcome warm;  // warm-up pass; its checks repeat the base pass's
    run_mix(mix_grid(scenario_seed(o.seed, 0), 1), true, nullptr, nullptr, false, warm);
  }
  const ClusterRuns base = run_mix(grid, true, nullptr, nullptr, o.expect_wrong, out);
  Capture capture;
  const ClusterRuns traced = run_mix(grid, true, &spans, &capture, o.expect_wrong, out);
  const ClusterRuns quiet = run_mix(grid, false, nullptr, nullptr, o.expect_wrong, out);

  const std::size_t pending_peak = capture.pending_peak;
  const LayerInputs inputs = cluster_inputs(grid.front(), capture);
  const LayerCosts costs = measure_fabric_layers(inputs, spans, out);
  // Counts come from the untraced pass; span times from the traced one.
  out.metric("netsim.events", double(base.events), "count");
  out.metric("netsim.events_per_hop", double(base.events) / base.hops, "ratio");
  out.metric("netsim.clamped_events", double(base.clamped), "count");
  out.metric("netsim.pending_peak", double(pending_peak), "count");
  out.metric("marking.identify_calls", double(base.identify_calls), "count");
  out.metric("cluster.self_ns_per_hop", cluster_self_ns_per_hop(base, costs), "ns");
  out.metric("cluster.queue_drops", double(base.queue_drops), "count");
  out.metric("cluster.ttl_drops", double(base.ttl_drops), "count");
  out.metric("telemetry.series", double(base.series), "count");
  out.metric("telemetry.snapshot_s", traced.snapshot_s / double(traced.scenarios), "s");
  out.metric("telemetry.on_off_ratio", quiet.rate() / base.rate(), "ratio");
  out.metric("trace.overhead_ratio", traced.rate() / base.rate(), "ratio");
  for (const std::string& scheme : kSchemes) {
    out.metric("core.scenario_s." + scheme,
               base.scheme_s.at(scheme) / double(base.scheme_n.at(scheme)), "s");
  }
  out.note("hops_per_s (untraced)", base.rate(), "hops/s");
  zero_layers(out, {"wormhole.", "flow.", "stream."});
}

void wormhole_torus8(const Options& o, SpanRecorder& spans, Outcome& out) {
  WormSettings s;
  if (o.small) s.inject_cycles = 2000;
  echo_worm(s, out);
  if (!o.trace) {
    std::vector<double> cycles(kWormInputs, 0);
    const double run_s = timed_passes(
        kWormInputs, o.seconds, "flit_hops",
        [&](std::size_t k, Outcome& one) {
          const WormRun run =
              run_worm(s, scenario_seed(o.seed, k), nullptr, false, o.expect_wrong, one);
          cycles[k] = double(run.cycles);
          return Sample{run.setup_s, run.flit_hops, run.parts};
        },
        out);
    out.note("cycles_per_s", std::accumulate(cycles.begin(), cycles.end(), 0.0) / run_s,
             "cycles/s");
    return;
  }

  const std::uint64_t seed = scenario_seed(o.seed, 0);
  {
    WormSettings warm = s;
    warm.inject_cycles = s.inject_cycles / 4;
    Outcome scratch;
    run_worm(warm, seed, nullptr, false, false, scratch);
  }
  const WormRun base = run_worm(s, seed, nullptr, false, o.expect_wrong, out);
  const WormRun traced = run_worm(s, seed, &spans, false, o.expect_wrong, out);
  const WormRun loud = run_worm(s, seed, nullptr, true, o.expect_wrong, out);

  const auto step = spans.aggregate("wormhole.step");
  out.metric("wormhole.step_ns", spans.per_call_ns("wormhole.step"), "ns");
  out.metric("wormhole.inject_ns", spans.per_call_ns("wormhole.inject"), "ns");
  out.metric("wormhole.flits_in_flight", traced.flits_in_flight_mean, "count");
  out.metric("wormhole.backlog_end", double(traced.backlog_end), "count");
  out.note("wormhole.step_self_ns", double(step.self_ns()) / double(step.calls), "ns");
  out.metric("marking.forward_ns.ddpm", spans.per_call_ns("marking.on_forward.wormhole"), "ns");
  out.metric("telemetry.series", double(loud.series), "count");
  out.metric("telemetry.snapshot_s", loud.snapshot_s, "s");
  out.metric("telemetry.on_off_ratio",
             (base.flit_hops / base.run_s) / (loud.flit_hops / loud.run_s), "ratio");
  out.metric("trace.overhead_ratio",
             (traced.flit_hops / traced.run_s) / (base.flit_hops / base.run_s), "ratio");
  out.note("cycles_per_s (untraced)", double(base.cycles) / base.run_s, "cycles/s");
  zero_layers(out, {"netsim.", "topology.", "routing.", "marking.forward_ns.dpm",
                    "marking.forward_ns.ppm-full", "marking.identify", "cluster.", "detect.",
                    "core.", "flow.", "stream."});
}

void trace_replay_1m(const Options& o, SpanRecorder& spans, Outcome& out) {
  const std::uint32_t sources = o.small ? 50'000 : 1'000'000;
  {
    const auto g = trace_gen_config(scenario_seed(o.seed, 0), sources);
    const auto a = analyzer_config();
    out.config("attack", "flood");
    out.config("attack_sources", double(g.attack_sources));
    out.config("attack_rate", g.attack_rate);
    out.config("attack_start", double(g.attack_start));
    out.config("attack_duration", double(g.attack_duration));
    out.config("duration", double(g.duration));
    out.config("benign_sources", double(g.benign_sources));
    out.config("benign_rate", g.benign_rate);
    out.config("zipf_s", g.zipf_s);
    out.config("services", double(g.services));
    out.config("victim", double(g.victim));
    out.config("window", double(a.window));
    out.config("shards", double(a.shards));
    out.config("cms", fmt(a.cms_width) + "x" + fmt(a.cms_depth));
    out.config("topk", double(a.topk));
    out.config("entropy_window", double(a.entropy_window));
    out.config("entropy_buckets", double(a.entropy_buckets));
    out.config("hh_share", a.hh_share);
    out.config("warmup_windows", double(a.warmup_windows));
    out.config("jobs", double(a.jobs));
  }

  // One trace, generated and streamed through the analyzer; the run time
  // is cut every 2^15 records and at finish().
  auto replay = [&](std::uint64_t seed, Outcome& checks) {
    const auto g = trace_gen_config(seed, sources);
    Sample s;
    auto t0 = Clock::now();
    flow::TraceGenerator gen(g);
    stream::FlowStreamAnalyzer analyzer(analyzer_config());
    s.setup_s = seconds_since(t0);
    t0 = Clock::now();
    flow::FlowRecord record;
    for (std::uint64_t n = 1; gen.next(record); ++n) {
      analyzer.ingest(record);
      if ((n & 0x7fff) == 0) s.parts.push_back(seconds_since(t0));
    }
    const stream::StreamReport report = analyzer.finish();
    s.parts.push_back(seconds_since(t0));
    for (std::size_t j = s.parts.size() - 1; j > 0; --j) s.parts[j] -= s.parts[j - 1];
    s.work = double(report.records);
    check_stream(report, g, gen.emitted(), o.expect_wrong, checks);
    return s;
  };

  if (!o.trace) {
    timed_passes(
        kTraceInputs, o.seconds, "records",
        [&](std::size_t k, Outcome& one) { return replay(scenario_seed(o.seed, k), one); },
        out);
    return;
  }

  const std::uint64_t seed = scenario_seed(o.seed, 0);
  {
    Outcome warm;
    replay(seed, warm);
  }
  const Sample base = replay(seed, out);
  const auto g = trace_gen_config(seed, sources);
  flow::TraceGenerator gen(g);
  const StreamTrace stream = traced_stream_replay(
      [&](flow::FlowRecord& r) { return gen.next(r); }, analyzer_config(), spans);
  check_stream(stream.report, g, gen.emitted(), o.expect_wrong, out);
  report_stream_layers(stream, analyzer_config(), g, spans, out);
  out.metric("trace.overhead_ratio",
             (double(stream.records) / stream.run_s) / (base.work / sum(base.parts)), "ratio");
  zero_layers(out, {"netsim.", "topology.", "routing.", "marking.", "cluster.", "detect.",
                    "wormhole.", "telemetry.", "core."});
}

}  // namespace

void Outcome::config(const std::string& key, double value) { config(key, fmt(value)); }

void run_workload(const Options& options, SpanRecorder& spans, Outcome& out) {
  out.config("workload", options.workload);
  out.config("seed", std::to_string(options.seed));
  out.config("seconds", options.seconds);
  out.config("small", options.small ? "true" : "false");
  if (options.workload == "scheme_mix_torus8") return scheme_mix_torus8(options, spans, out);
  if (options.workload == "wormhole_torus8") return wormhole_torus8(options, spans, out);
  if (options.workload == "trace_replay_1m") return trace_replay_1m(options, spans, out);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
