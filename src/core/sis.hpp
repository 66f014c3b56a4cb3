// SourceIdentificationSystem: the library's top-level API.
//
// Wires a simulated cluster, a DDoS attack, a victim-side detector, a
// marking-scheme identifier, and (optionally) automatic mitigation into one
// runnable scenario, and reports everything the paper's evaluation story
// needs: when the attack was detected, which sources were identified, how
// many packets that took, and what happened to attack/benign goodput.
//
// The pipeline mirrors the paper's architecture:
//   detect (assumed to exist, §6.1)  ->  identify (the contribution, §5)
//   ->  block at the source switch (§2).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/network.hpp"
#include "detect/detector.hpp"
#include "marking/scheme.hpp"
#include "stream/detectors.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/registry.hpp"

namespace ddpm::core {

struct ScenarioConfig {
  cluster::ClusterConfig cluster;
  attack::AttackConfig attack;

  /// Victim-side identifier; must match cluster.scheme ("ddpm", "dpm",
  /// "ppm-full", "ppm-xor", "ppm-bitdiff", or "none").
  std::string identifier = "ddpm";

  /// Victim-side detector (stream::make_detector): "rate-threshold",
  /// "syn-half-open", "cusum", "sketch-cusum", "heavy-hitter", or
  /// "entropy" / "sketch-entropy" (two names for one detector).
  std::string detector = "rate-threshold";

  /// Rate-threshold knobs: EWMA inbound rate (packets/tick) at the victim.
  double detect_rate_threshold = 0.02;
  double detect_half_life = 2000;

  /// Knobs for the non-default detectors.
  stream::SketchDetectorTuning detect_tuning;

  /// Classifier imperfection: probability a benign packet at the victim is
  /// handed to the identifier as if it were attack traffic (0 = the perfect
  /// classifier the paper implicitly assumes).
  double classifier_false_positive_rate = 0.0;

  /// Install a source-switch block as soon as the identifier names a
  /// single candidate (the paper's mitigation step).
  bool auto_block = true;

  netsim::SimTime duration = 2'000'000;
};

struct IdentificationEvent {
  netsim::SimTime when = 0;
  topo::NodeId identified = topo::kInvalidNode;
  topo::NodeId true_source = topo::kInvalidNode;  // of the triggering packet
  bool correct = false;
};

struct ScenarioReport {
  cluster::Metrics metrics;

  std::optional<netsim::SimTime> detection_time;
  std::vector<IdentificationEvent> identifications;

  /// Ground truth and outcome sets.
  std::set<topo::NodeId> true_sources;        // zombies
  std::set<topo::NodeId> identified_sources;  // unique single-candidate IDs
  std::set<topo::NodeId> blocked_sources;

  std::size_t true_positives = 0;   // identified & really attacking
  std::size_t false_positives = 0;  // identified but innocent

  /// Attack packets the victim absorbed before / after the first block.
  std::uint64_t attack_delivered_before_block = 0;
  std::uint64_t attack_delivered_after_block = 0;

  /// Packets the identifier consumed before its first correct answer.
  std::uint64_t packets_to_first_identification = 0;

  /// Every registered telemetry series at end of run (per-switch queue
  /// depths and deliveries, per-port link counters, marks, pipeline
  /// counters, kernel gauges, ...). Drop counts are in `metrics`. Empty
  /// when the cluster config disables telemetry or the build compiled it
  /// out.
  telemetry::MetricsSnapshot telemetry;

  std::string summary() const;
};

/// Builds and runs one scenario. The object owns the network; accessors
/// expose it for custom instrumentation between construction and run().
class SourceIdentificationSystem {
 public:
  explicit SourceIdentificationSystem(ScenarioConfig config);

  cluster::ClusterNetwork& network() noexcept { return *network_; }
  const ScenarioConfig& config() const noexcept { return config_; }

  /// Optional tap: sees every delivered packet (any node) alongside the
  /// pipeline. Used by benches to build timelines without displacing the
  /// detect/identify hook.
  using Observer = std::function<void(const pkt::Packet&, topo::NodeId)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Routes kernel, switch, and pipeline trace events into `tracer` (which
  /// must outlive run()). Call before run().
  void set_tracer(telemetry::Tracer* tracer);

  /// Runs the full scenario and returns the report. Call once.
  ScenarioReport run();

 private:
  void on_delivery(const pkt::Packet& packet, topo::NodeId at);

  ScenarioConfig config_;
  Observer observer_;
  std::unique_ptr<cluster::ClusterNetwork> network_;
  std::unique_ptr<mark::SourceIdentifier> identifier_;
  std::unique_ptr<detect::Detector> detector_;
  netsim::Rng rng_;
  telemetry::PipelineProbes probes_;
  ScenarioReport report_;
  std::uint64_t suspect_packets_ = 0;
  bool any_block_installed_ = false;
  bool ran_ = false;
};

/// Builds the victim-side identifier matching a scheme name; nullptr for
/// "none". For "dpm" the identifier trains against deterministic
/// dimension-order routes (the stable-route assumption DPM needs).
std::unique_ptr<mark::SourceIdentifier> make_identifier(
    const std::string& name, const topo::Topology& topo, topo::NodeId victim,
    std::uint8_t initial_ttl);

}  // namespace ddpm::core
