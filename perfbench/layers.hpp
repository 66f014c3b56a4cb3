// Per-layer measurements of the traced run.
//
// Each function replays a workload's recorded inputs (forwarding paths,
// victim deliveries, flow records) through one layer's public interface
// and times it from outside, inside a named span. Only the workload that
// runs a layer measures it; the others report that layer's metrics as 0.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "flow/record.hpp"
#include "flow/trace_gen.hpp"
#include "packet/packet.hpp"
#include "stream/flow_analyzer.hpp"
#include "topology/topology.hpp"

namespace perfbench {

/// One packet's forwarding path: visited switches from source to
/// destination, both included.
struct Route {
  ddpm::topo::NodeId src = 0;
  ddpm::topo::NodeId dst = 0;
  std::vector<ddpm::topo::NodeId> path;
};

struct LayerInputs {
  std::string topology = "torus:8x8";
  std::string router = "adaptive";
  std::string scheme = "ddpm";  // the scheme the switch replay marks with
  std::uint8_t initial_ttl = 64;
  ddpm::topo::NodeId victim = 0;
  double ppm_probability = 0.04;

  std::vector<Route> routes;         // any destination
  std::vector<Route> victim_routes;  // ending at `victim`
  /// Packets delivered at the victim, in delivery order.
  std::vector<ddpm::pkt::Packet> victim_packets;
  std::string detector = "rate-threshold";
  double detect_threshold = 0.005;
  double detect_half_life = 2000;

  /// Event-wheel replay: pending depth and the two cluster cadences
  /// (serialization alone, serialization plus link latency), in ticks.
  std::size_t wheel_depth = 1024;
  std::uint64_t wheel_short = 276;
  std::uint64_t wheel_long = 326;
};

/// Per-op costs the cluster self-time residue subtracts.
struct LayerCosts {
  double routing_select_ns = 0;
  std::map<std::string, double> marking_forward_ns;  // by scheme name
  double wheel_op_ns = 0;
};

/// topology.*, routing.*, marking.*, cluster.handle_ns, detect.observe_ns,
/// netsim.wheel_op_ns / wheel_scheduled / heap_scheduled.
LayerCosts measure_fabric_layers(const LayerInputs& inputs, SpanRecorder& spans,
                                 Outcome& out);

/// What a traced stream replay saw, besides the analyzer's own report.
struct StreamTrace {
  ddpm::stream::StreamReport report;
  std::uint64_t records = 0;
  double run_s = 0;
  std::vector<std::uint32_t> keys;  // a sample of ingested source keys
};

/// Streams records from `next` through a FlowStreamAnalyzer with a span
/// around every ingest call ("stream.ingest", or "stream.window_close"
/// when the record opens a new window).
StreamTrace traced_stream_replay(
    const std::function<bool(ddpm::flow::FlowRecord&)>& next,
    const ddpm::stream::FlowAnalyzerConfig& config, SpanRecorder& spans);

/// stream.* metrics from a traced replay, stream.sketch_update_ns on its
/// keys, and flow.next_ns draining a fresh generator built from `gen`.
void report_stream_layers(const StreamTrace& trace,
                          const ddpm::stream::FlowAnalyzerConfig& config,
                          const ddpm::flow::TraceGenConfig& gen,
                          SpanRecorder& spans, Outcome& out);

}  // namespace perfbench
