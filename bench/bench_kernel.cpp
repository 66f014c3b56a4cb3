// Sweep-scaling check: the one speed property perfbench cannot measure.
//
// Runs one end-to-end sweep grid serially and with --jobs N workers,
// byte-compares the two CSVs and reports the speedup. Exits 1 when the
// outputs diverge, or (full runs) when the speedup falls below
// kSpeedupFloor. Both legs run in the same process on the same host, so the
// ratio means the same thing on every machine; absolute throughput is
// perfbench's job (tools/perf_ab.py compares two checkouts on one box). See
// docs/PERFORMANCE.md for how to read the output.
//
//   bench_kernel [--jobs N] [--smoke]    (--help lists flags)
//
// --smoke exists for the `perf`-labelled ctest, so sanitizer suites stay
// fast: its legs last milliseconds, too short to time, so it checks only
// that the outputs match.
#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/cli.hpp"
#include "core/sweep_grid.hpp"

namespace {

using namespace ddpm;
using Clock = std::chrono::steady_clock;

/// Serial time / parallel time must not fall below parity: a parallel leg
/// slower than the serial one means the runner costs more than it gives.
/// On one core both legs run the same inline loop and read about 1.0.
constexpr double kSpeedupFloor = 0.99;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::SweepSpec sweep_spec(std::size_t seeds, std::size_t jobs) {
  core::SweepSpec spec;
  spec.topologies = {"torus:8x8"};
  spec.schemes = {"ddpm", "dpm", "ppm-full"};
  spec.routers = {"adaptive"};
  spec.rates = {0.005, 0.01};
  spec.seeds = seeds;
  spec.jobs = jobs;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  core::Cli cli("bench_kernel — serial vs parallel sweep check");
  cli.number("--jobs", jobs, "N", "threads for the parallel sweep leg", 1);
  cli.toggle("--smoke", smoke, "drastically shrunk workload, no floor");
  try {
    if (!cli.parse(argc, argv, std::cout)) return 0;
  } catch (const std::invalid_argument& err) {
    std::cerr << err.what() << '\n';
    return 1;
  }

  // Each leg is timed three times in alternating order and the minimum
  // kept: with jobs=1 both legs run the identical inline loop, so a ratio
  // below 1.0 can only be drift (allocator or page-cache warm-up, a
  // neighbour's burst) landing on whichever leg ran second. Alternation
  // spreads it over both legs, and the minimum drops it.
  const std::size_t seeds = smoke ? 2 : 16;
  std::vector<core::SweepCell> serial, parallel;
  double serial_s = std::numeric_limits<double>::infinity();
  double par_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const bool serial_first = (pass % 2 == 0);
    for (int leg = 0; leg < 2; ++leg) {
      const bool time_serial = (leg == 0) == serial_first;
      const auto start = Clock::now();
      if (time_serial) {
        serial = core::run_sweep(sweep_spec(seeds, 1));
        serial_s = std::min(serial_s, seconds_since(start));
      } else {
        parallel = core::run_sweep(sweep_spec(seeds, jobs));
        par_s = std::min(par_s, seconds_since(start));
      }
    }
    if (core::sweep_csv(serial) != core::sweep_csv(parallel)) {
      std::cerr << "FATAL: sweep output diverged between jobs=1 and jobs="
                << jobs << '\n';
      return 1;
    }
  }
  const double speedup = serial_s / par_s;

  bench::banner(std::string("Sweep scaling (") + (smoke ? "smoke" : "full") +
                ", jobs=" + std::to_string(jobs) + ")");
  bench::Table t({"benchmark", "value", "unit"});
  t.row("sweep_serial", serial_s, "s");
  t.row("sweep_jobs" + std::to_string(jobs), par_s, "s");
  t.row("sweep_speedup", speedup, "x");
  t.print();

  if (!smoke && speedup < kSpeedupFloor) {
    std::cerr << "FAIL: sweep_speedup " << speedup << " is below the floor "
              << kSpeedupFloor << '\n';
    return 1;
  }
  return 0;
}
