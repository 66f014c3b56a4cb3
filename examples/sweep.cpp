// sweep — grid experiment driver emitting CSV for downstream analysis.
//
// Runs the detect→identify→block scenario over a cross product of
// topologies, schemes, routers and attack rates, each replicated over
// disjoint RNG streams, and prints one CSV row per cell with mean
// outcomes. Replications fan out across --jobs threads; the CSV is
// bit-identical for any --jobs value (asserted by the determinism suite).
// Pipe it into your plotting tool of choice:
//
//   $ ./sweep --jobs 8 > sweep.csv
//   $ ./sweep --topologies mesh:8x8,torus:8x8 --schemes ddpm,dpm
//       (continued:) --routers dor,adaptive --rates 0.002,0.01 --seeds 5
#include <fstream>
#include <iostream>

#include "core/cli.hpp"
#include "core/sweep_grid.hpp"

int main(int argc, char** argv) {
  using namespace ddpm;
  core::SweepSpec spec;
  std::string metrics_path;

  core::Cli cli("sweep — grid experiments, one CSV row per cell");
  cli.list("--topologies", spec.topologies, "A,B", "topology specs");
  cli.list("--schemes", spec.schemes, "A,B", "marking schemes");
  cli.list("--routers", spec.routers, "A,B", "routing algorithms");
  cli.list("--rates", spec.rates, "R1,R2", "attack packets/tick/zombie", 0);
  cli.number("--seeds", spec.seeds, "N", "replications per cell", 1);
  cli.number("--jobs", spec.jobs, "N", "worker threads", 1);
  cli.text("--metrics", metrics_path, "FILE",
           "write each cell's merged telemetry as JSON");

  try {
    if (!cli.parse(argc, argv, std::cout)) return 0;
    const auto cells = core::run_sweep(spec);
    std::cout << core::sweep_csv(cells);
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      if (!file) {
        throw std::invalid_argument("cannot open metrics file: " + metrics_path);
      }
      file << core::sweep_metrics_json(cells) << '\n';
    }
    return 0;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
  }
}
