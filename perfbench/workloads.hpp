// The three benchmark workloads (see README.md for why each exists).
//
// An untraced run makes whole passes over a fixed set of inputs until the
// time budget is spent and reports the end-to-end metrics; a traced run
// reports the per-layer metrics instead (and the tracing overhead against
// an untraced run of the same input).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Metric names (with units) every untraced / traced run must report.
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();

/// Runs one workload; throws std::invalid_argument for an unknown name.
void run_workload(const Options& options, SpanRecorder& spans, Outcome& out);

}  // namespace perfbench
