// ddpm_sim — command-line scenario driver for the whole library.
//
// Runs a configurable attack scenario end to end and prints the scenario
// report. Every knob of ScenarioConfig is reachable from the command line,
// making this the tool for parameter sweeps outside the fixed benches.
//
//   $ ./ddpm_sim --topology torus:8x8 --router adaptive --scheme ddpm
//       (continued:) --attack udp-flood --zombies 4 --victim 42 --attack-rate 0.01
//   $ ./ddpm_sim --help
#include <fstream>
#include <iostream>
#include <utility>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/report_json.hpp"
#include "core/sis.hpp"
#include "analysis/attack_graph.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/trace.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace ddpm;
  using attack::AttackKind;
  using attack::SpoofStrategy;
  core::ScenarioConfig config;
  config.cluster.topology = "torus:8x8";
  config.cluster.router = "adaptive";
  config.cluster.scheme = "ddpm";
  config.cluster.benign_rate_per_node = 0.0003;
  config.identifier = "ddpm";
  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.rate_per_zombie = 0.01;
  config.attack.start_time = 50000;
  config.detect_rate_threshold = 0.005;
  config.duration = 400000;

  std::size_t zombie_count = 4;
  std::optional<topo::NodeId> victim_arg;
  bool no_block = false;
  bool json_output = false;
  std::string trace_path;
  std::string metrics_path;
  std::string delivery_log_path;
  std::string dot_path;
  std::optional<std::size_t> repeat;

  core::Cli cli("ddpm_sim — run one DDoS source-identification scenario");
  cli.text("--topology", config.cluster.topology, "SPEC",
           "mesh:AxB[xC] | torus:AxB[xC] | hypercube:N");
  cli.text("--router", config.cluster.router, "NAME",
           "dor|xy|west-first|north-last|negative-first|adaptive|"
           "adaptive-misroute|oracle");
  cli.text("--scheme", config.cluster.scheme, "NAME",
           "ddpm|dpm|ppm-full|ppm-xor|ppm-bitdiff|ppm-fragment|none "
           "(also the identifier)");
  cli.text("--pattern", config.cluster.pattern, "NAME",
           "uniform|transpose|complement|bit-reverse|hotspot");
  cli.number("--benign-rate", config.cluster.benign_rate_per_node, "R",
             "benign packets/tick/node", 0);
  cli.number("--seed", config.cluster.seed, "N", "RNG seed");
  cli.toggle("--ingress-filter", config.cluster.ingress_filtering,
             "RFC 2267 filtering at source switches");
  cli.choice("--attack", config.attack.kind,
             {{"none", AttackKind::kNone}, {"udp-flood", AttackKind::kUdpFlood},
              {"syn-flood", AttackKind::kSynFlood}, {"worm", AttackKind::kWorm},
              {"reflector", AttackKind::kReflector}},
             "KIND", "attack kind");
  cli.number("--victim", victim_arg, "N",
             "victim node id (default: last node)");
  cli.number("--zombies", zombie_count, "N", "number of compromised nodes");
  cli.number("--attack-rate", config.attack.rate_per_zombie, "R",
             "attack packets/tick/zombie", 0);
  cli.choice("--spoof", config.attack.spoof,
             {{"none", SpoofStrategy::kNone},
              {"random-cluster", SpoofStrategy::kRandomCluster},
              {"random-any", SpoofStrategy::kRandomAny},
              {"victim-reflect", SpoofStrategy::kVictimReflect}},
             "NAME", "source spoofing");
  cli.number("--attack-start", config.attack.start_time, "T",
             "attack start tick");
  cli.text("--detector", config.detector, "NAME",
           "rate-threshold|entropy|cusum|syn-half-open|sketch-entropy|"
           "heavy-hitter|sketch-cusum (sketch-*: docs/STREAMING.md)");
  cli.number("--threshold", config.detect_rate_threshold, "R",
             "detection rate threshold", 0);
  cli.number("--pulse-period", config.attack.pulse_period, "T",
             "pulsing attack period (0 = continuous)");
  cli.number("--pulse-duty", config.attack.pulse_duty, "R",
             "on-fraction of each pulse period", 0, 1);
  cli.toggle("--no-block", no_block, "identify only, do not block");
  cli.number("--classifier-fp", config.classifier_false_positive_rate, "R",
             "classifier false-positive rate", 0, 1);
  cli.number("--duration", config.duration, "T", "simulated ticks", 1);
  cli.number("--repeat", repeat, "N", "run N seeds, report aggregates", 1);
  cli.toggle("--json", json_output, "emit the config+report as JSON");
  cli.text("--trace", trace_path, "FILE",
           "write a Chrome trace_event JSON (chrome://tracing, Perfetto)");
  cli.text("--metrics", metrics_path, "FILE",
           "write the telemetry snapshot as JSON (merged with --repeat)");
  cli.text("--delivery-log", delivery_log_path, "FILE",
           "write a CSV log of victim deliveries");
  cli.text("--dot", dot_path, "FILE", "write a Graphviz attack graph");

  try {
    if (!cli.parse(argc, argv, std::cout)) return 0;
    if (repeat) {
      // A repeated run prints aggregates only: the outputs of one run's
      // report, trace and deliveries have nothing to write.
      const std::pair<const char*, bool> single_run_flags[] = {
          {"--json", json_output},
          {"--trace", !trace_path.empty()},
          {"--delivery-log", !delivery_log_path.empty()},
          {"--dot", !dot_path.empty()}};
      for (const auto& [flag, given] : single_run_flags) {
        if (given) {
          throw std::invalid_argument(std::string(flag) +
                                      " needs a single run (drop --repeat)");
        }
      }
    }
    config.identifier = config.cluster.scheme;
    if (no_block) config.auto_block = false;

    // Late resolution: victim and zombies depend on the topology size.
    const auto probe = topo::make_topology(config.cluster.topology);
    config.attack.victim = victim_arg.value_or(probe->num_nodes() - 1);
    if (config.attack.kind != attack::AttackKind::kNone) {
      netsim::Rng rng(config.cluster.seed ^ 0x20b1e5ULL);
      config.attack.zombies =
          attack::pick_zombies(*probe, zombie_count, config.attack.victim, rng);
    }

    if (!json_output) {
      std::cout << "scenario: " << config.cluster.topology << ", router "
                << config.cluster.router << ", scheme "
                << config.cluster.scheme << ", attack "
                << attack::to_string(config.attack.kind) << " on node "
                << config.attack.victim << " by "
                << config.attack.zombies.size() << " zombies (spoof "
                << attack::to_string(config.attack.spoof) << ")\n\n";
    }

    auto open_output = [](const std::string& path) {
      std::ofstream file(path);
      if (!file) throw std::invalid_argument("cannot open file: " + path);
      return file;
    };
    auto write_metrics = [&](const telemetry::MetricsSnapshot& snapshot) {
      if (metrics_path.empty()) return;
      auto file = open_output(metrics_path);
      file << snapshot.to_json() << '\n';
      if (!json_output) {
        std::cout << "metrics: " << snapshot.series() << " series -> "
                  << metrics_path << '\n';
      }
    };

    if (repeat) {
      const auto summary = core::run_repeated_n(config, *repeat);
      write_metrics(summary.telemetry);
      std::cout << summary.to_string() << '\n';
      return 0;
    }

    core::SourceIdentificationSystem system(config);
    telemetry::Tracer chrome_tracer;
    if (!trace_path.empty()) {
      telemetry::name_standard_processes(chrome_tracer);
      system.set_tracer(&chrome_tracer);
    }
    std::ofstream delivery_log_file;
    std::unique_ptr<trace::TraceWriter> tracer;
    if (!delivery_log_path.empty()) {
      delivery_log_file = open_output(delivery_log_path);
      tracer = std::make_unique<trace::TraceWriter>(delivery_log_file);
      const auto victim = config.attack.victim;
      system.set_observer([&tracer, victim](const pkt::Packet& p,
                                            topo::NodeId at) {
        if (at == victim) tracer->record(p, at);
      });
    }
    const core::ScenarioReport report = system.run();
    if (!trace_path.empty()) {
      auto trace_file = open_output(trace_path);
      chrome_tracer.flush(trace_file);
      if (!json_output) {
        std::cout << "trace: " << chrome_tracer.retained() << " events ("
                  << chrome_tracer.dropped() << " dropped) -> " << trace_path
                  << '\n';
      }
    }
    write_metrics(report.telemetry);
    if (!dot_path.empty()) {
      analysis::AttackGraph graph(config.attack.victim);
      for (const auto& e : report.identifications) {
        graph.add_source(e.identified);
      }
      const auto topo = topo::make_topology(config.cluster.topology);
      std::ofstream dot_file(dot_path);
      if (!dot_file) {
        throw std::invalid_argument("cannot open dot file: " + dot_path);
      }
      dot_file << graph.to_dot(topo.get());
      if (!json_output) {
        std::cout << "attack graph (" << report.identifications.size()
                  << " verdicts) -> " << dot_path << "\n";
      }
    }
    if (tracer && !json_output) {
      std::cout << "delivery log: " << tracer->records_written()
                << " victim deliveries -> " << delivery_log_path << "\n\n";
    }
    if (json_output) {
      std::cout << core::to_json(config, report) << '\n';
      return 0;
    }
    std::cout << report.summary() << '\n';
    if (!report.identifications.empty()) {
      std::cout << "\nidentifications:\n";
      for (const auto& e : report.identifications) {
        std::cout << "  t=" << e.when << "  node " << e.identified
                  << (e.correct ? "" : "  (innocent!)") << '\n';
      }
    }
    // A missed attacker must not pass silently. Every switch that forwards
    // a packet decrements its TTL and drops it at zero, so a zombie
    // initial_ttl or more hops away can never reach the victim at all.
    const auto victim = config.attack.victim;
    const int ttl = config.cluster.initial_ttl;
    for (const topo::NodeId zombie : config.attack.zombies) {
      if (report.identified_sources.count(zombie) != 0) continue;
      const int hops = probe->min_hops(zombie, victim);
      std::cout << "warning: zombie " << zombie << " never identified: " << hops
                << (hops == 1 ? " hop" : " hops") << " from victim " << victim;
      if (hops >= ttl) std::cout << ", beyond the reach of initial TTL " << ttl;
      std::cout << '\n';
    }
    return 0;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
  }
}
