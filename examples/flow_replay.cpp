// flow_replay — stream a flow trace (CSV file or synthetic generator)
// through the bounded-memory sketch analyzer and report what it detected.
//
// The acceptance harness for the streaming subsystem: CI replays a
// million-distinct-source spoofed flood and asserts the analyzer detects
// it, names the victim, and stays under the sketch-memory budget:
//
//   $ ./flow_replay --generate --sources 1000000 --attack flood
//       --expect-detect --expect-victim --max-memory 4194304 --json
//
// Other uses:
//   $ ./flow_replay --trace flows.csv --json          # ingest a CSV trace
//   $ ./flow_replay --generate --write-csv flows.csv  # materialize a trace
//   $ ./flow_replay --generate --attack pulse --jobs 8
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "flow/csv.hpp"
#include "flow/trace_gen.hpp"
#include "stream/flow_analyzer.hpp"

namespace {

using namespace ddpm;

struct Options {
  std::string trace_path;    // --trace: ingest this CSV
  bool generate = false;     // --generate: synthesize instead
  std::string write_csv;     // also materialize the generated trace
  bool json = false;
  bool expect_detect = false;
  bool expect_victim = false;
  std::size_t max_memory = 0;  // 0 = unchecked
  flow::TraceGenConfig gen;
  stream::FlowAnalyzerConfig analyzer;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  core::Cli cli("flow_replay — flow-trace replay through the sketch analyzer");
  cli.text("--trace", opt.trace_path, "FILE", "ingest this CSV flow trace");
  cli.toggle("--generate", opt.generate, "synthesize the trace instead");
  cli.number("--sources", opt.gen.attack_sources, "N",
             "distinct spoofed attack sources");
  cli.number("--benign", opt.gen.benign_sources, "N", "benign sources");
  cli.choice("--attack", opt.gen.attack,
             {{"none", flow::AttackShape::kNone},
              {"flood", flow::AttackShape::kFlood},
              {"pulse", flow::AttackShape::kPulse},
              {"churn", flow::AttackShape::kChurn}},
             "KIND", "attack shape");
  cli.number("--victim", opt.gen.victim, "ADDR", "attack destination address");
  cli.number("--duration", opt.gen.duration, "TICKS", "trace length", 1);
  cli.number("--seed", opt.gen.seed, "N", "generator seed");
  cli.text("--write-csv", opt.write_csv, "FILE", "also write the trace as CSV");
  cli.number("--jobs", opt.analyzer.jobs, "N",
             "worker threads (output is identical for any N)", 1);
  cli.number("--window", opt.analyzer.window, "TICKS", "window length", 1);
  cli.number("--shards", opt.analyzer.shards, "N", "structural shard count", 1);
  cli.toggle("--json", opt.json, "print the full report as JSON");
  cli.toggle("--expect-detect", opt.expect_detect,
             "exit 1 unless an alarm fired");
  cli.toggle("--expect-victim", opt.expect_victim,
             "exit 1 unless the victim was named correctly");
  cli.number("--max-memory", opt.max_memory, "B",
             "exit 1 if sketch memory exceeds B bytes (0 = unchecked)");
  try {
    if (!cli.parse(argc, argv, std::cout)) return 0;
    if (opt.generate && !opt.trace_path.empty()) {
      throw std::invalid_argument("--trace and --generate are exclusive");
    }
    if (!opt.generate && opt.trace_path.empty()) {
      throw std::invalid_argument("pass either --trace FILE or --generate");
    }

    // An attack that should exhibit N distinct sources must emit at least
    // N attack flows: scale the rate so the flood covers its source pool
    // with ~25% headroom.
    if (opt.generate && opt.gen.attack != flow::AttackShape::kNone &&
        opt.gen.attack_duration > 0) {
      const double cover =
          1.25 * double(opt.gen.attack_sources) / double(opt.gen.attack_duration);
      if (opt.gen.attack_rate < cover) opt.gen.attack_rate = cover;
    }

    stream::StreamReport report;
    if (opt.generate) {
      flow::TraceGenerator gen(opt.gen);
      if (!opt.write_csv.empty()) {
        // Materialize (trace + analyzer see identical records).
        const std::vector<flow::FlowRecord> records =
            [&] { return flow::TraceGenerator(opt.gen).generate(); }();
        flow::write_csv_file(opt.write_csv, records);
        report = stream::replay(records, opt.analyzer);
      } else {
        report = stream::replay(gen, opt.analyzer);
      }
    } else {
      stream::FlowStreamAnalyzer analyzer(opt.analyzer);
      flow::CsvStats stats = flow::read_csv_file(
          opt.trace_path,
          [&](const flow::FlowRecord& r) { analyzer.ingest(r); });
      std::cerr << "read " << stats.records << " records (" << stats.malformed
                << " malformed lines skipped)\n";
      report = analyzer.finish();
    }

    if (opt.json) {
      std::cout << report.to_json();
    } else {
      std::cout << "records=" << report.records
                << " windows=" << report.windows << " detected="
                << (report.detection_time ? std::to_string(*report.detection_time)
                                          : std::string("never"))
                << " victim="
                << (report.victim_identified ? std::to_string(report.victim)
                                             : std::string("unknown"))
                << " sketch_memory=" << report.memory_bytes << "B\n";
    }

    int rc = 0;
    if (opt.expect_detect && !report.detection_time) {
      std::cerr << "FAIL: no alarm fired\n";
      rc = 1;
    }
    if (opt.expect_victim &&
        (!report.victim_identified || report.victim != opt.gen.victim)) {
      std::cerr << "FAIL: victim not identified (wanted " << opt.gen.victim
                << ")\n";
      rc = 1;
    }
    if (opt.max_memory > 0 && report.memory_bytes > opt.max_memory) {
      std::cerr << "FAIL: sketch memory " << report.memory_bytes
                << " B exceeds budget " << opt.max_memory << " B\n";
      rc = 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "flow_replay: " << e.what() << '\n';
    return 2;
  }
}
