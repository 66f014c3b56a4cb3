// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--expect-wrong] [--spans-out FILE]
//
// Prints a human-readable report (resolved config, metrics, correctness
// checks, output digest) and, as its last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics. See README.md; run.py builds and drives it.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      const std::string v = value();
      std::size_t used = 0;
      if (v.empty() || v[0] == '-') throw std::invalid_argument("--seed must be >= 0");
      o.seed = std::stoull(v, &used);
      if (used != v.size()) throw std::invalid_argument("bad --seed: " + v);
    } else if (arg == "--seconds") {
      const std::string v = value();
      std::size_t used = 0;
      o.seconds = std::stod(v, &used);
      if (used != v.size() || !std::isfinite(o.seconds) || o.seconds <= 0 || o.seconds > 600) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--expect-wrong") {
      o.expect_wrong = true;
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

/// The run must report exactly the metric set of its mode, with the
/// declared units and finite values; anything else is a benchmark bug.
bool metrics_complete(const Outcome& out, const std::vector<Metric>& expected) {
  bool ok = out.metrics().size() == expected.size();
  for (const Metric& want : expected) {
    bool found = false;
    for (const Metric& got : out.metrics()) {
      if (got.name != want.name) continue;
      found = true;
      if (got.unit != want.unit) {
        std::cerr << "metric " << got.name << " has unit " << got.unit << ", want "
                  << want.unit << '\n';
        ok = false;
      }
      if (!std::isfinite(got.value)) {
        std::cerr << "metric " << got.name << " is not finite\n";
        ok = false;
      }
    }
    if (!found) {
      std::cerr << "metric " << want.name << " was not reported\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  SpanRecorder spans;
  Outcome out;
  try {
    run_workload(options, spans, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << '\n';
    return 1;
  }

  std::cout << "perfbench " << options.workload << " seed " << options.seed << " trace "
            << int(options.trace) << '\n';
  std::cout << "config: {";
  for (std::size_t i = 0; i < out.config_echo().size(); ++i) {
    const auto& [key, value] = out.config_echo()[i];
    std::cout << (i ? ", " : "") << json_string(key) << ": " << json_string(value);
  }
  std::cout << "}\n";
  for (const Metric& m : out.metrics()) {
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';
  }
  for (const Metric& m : out.notes()) {
    std::cout << "note   " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';
  }
  const double fail_ratio =
      out.attempted() ? double(out.failed()) / double(out.attempted()) : 1.0;
  std::cout << "checks: attempted " << out.attempted() << ", failed " << out.failed()
            << ", fail_ratio " << number(fail_ratio) << '\n';
  for (const std::string& f : out.failures()) std::cout << "FAILED: " << f << '\n';
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.digest_value()));
  std::cout << "digest: " << digest << '\n';
  if (options.trace) {
    std::cout << "spans: " << spans.closed() << " closed, " << spans.recorded() << " recorded";
    if (!options.spans_out.empty()) {
      std::ofstream file(options.spans_out);
      if (!file) {
        std::cerr << "perfbench: cannot write " << options.spans_out << '\n';
        return 1;
      }
      spans.write_chrome_trace(file);
      std::cout << " -> " << options.spans_out;
    }
    std::cout << '\n';
  }

  if (!metrics_complete(out, options.trace ? per_layer_metrics() : end_to_end_metrics())) {
    return 3;
  }
  std::cout << "{\"correct\": " << (out.failed() == 0 && out.attempted() > 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted() << ", \"failed\": " << out.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics().size(); ++i) {
    const Metric& m = out.metrics()[i];
    std::cout << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
