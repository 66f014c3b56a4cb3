// Probe layer: the compile-time half of telemetry gating.
//
// Domain code (the event kernel, switches, marking schemes, the wormhole
// substrate, the TCP workload, the detect→identify→block pipeline) holds
// these probe structs by value and calls their semantic hooks
// unconditionally. With DDPM_TELEMETRY_ENABLED=1 the hooks write through
// registry handles and the tracer; with 0 every struct is empty and every
// hook is an inline no-op, so a disabled probe compiles to nothing and the
// kernel stays at its un-instrumented speed. The two variants expose the
// same API — no #if ever appears at an instrumentation site.
//
// Trace pid map (process lanes in chrome://tracing):
//   0 = event kernel, 1 = cluster switches (tid = switch id),
//   2 = detect/identify/block pipeline, 3 = wormhole substrate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

#ifndef DDPM_TELEMETRY_ENABLED
#define DDPM_TELEMETRY_ENABLED 1
#endif

namespace ddpm::telemetry {

inline constexpr std::uint32_t kPidKernel = 0;
inline constexpr std::uint32_t kPidCluster = 1;
inline constexpr std::uint32_t kPidPipeline = 2;
inline constexpr std::uint32_t kPidWormhole = 3;

/// Registers the standard process-lane names on a tracer.
void name_standard_processes(Tracer& tracer);

#if DDPM_TELEMETRY_ENABLED

/// Event-kernel visibility: heap depth + executed-event counter tracks
/// (sampled every 2^12 pops) and clamped-schedule instants.
struct KernelProbes {
  static constexpr std::uint64_t kSampleMask = (1u << 12) - 1;

  void attach(Tracer* tracer) noexcept { tracer_ = tracer; }
  Tracer* tracer() const noexcept { return tracer_; }

  void on_pop(std::uint64_t executed, std::size_t pending) {
    if (tracer_ != nullptr && (executed & kSampleMask) == 0) {
      tracer_->counter("sim.pending_events", kPidKernel, double(pending));
      tracer_->counter("sim.events_executed", kPidKernel, double(executed));
    }
  }
  void on_clamp() {
    if (tracer_ != nullptr) {
      tracer_->instant("sim.clamped_schedule", kPidKernel, 0);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
};

/// Per-switch observability: local deliveries, a queue-depth histogram
/// sampled at every forward (its `total` is the switch's forward count),
/// per-port link counters (`switch=3,port=+x` labels), and drop instants on
/// the trace. The network-wide drop counts live in `cluster::Metrics`.
/// Each series is this switch's row of a dense family over the network's
/// `switches` ids, found or created by name.
struct SwitchProbes {
  void bind(Registry& registry, std::uint32_t switch_id,
            std::uint32_t switches,
            const std::vector<std::string>& port_labels);

  void on_local_delivery() { delivered_.inc(); }
  void on_forward(std::size_t queue_depth_after) {
    queue_depth_.add(queue_depth_after);
  }
  void on_drop_queue_full(Tracer* tracer, std::uint32_t switch_id) {
    if (tracer != nullptr) {
      tracer->instant("drop.queue_full", kPidCluster, switch_id);
    }
  }
  void on_drop_no_route(Tracer* tracer, std::uint32_t switch_id) {
    if (tracer != nullptr) {
      tracer->instant("drop.no_route", kPidCluster, switch_id);
    }
  }
  void on_drop_ttl(Tracer* tracer, std::uint32_t switch_id) {
    if (tracer != nullptr) {
      tracer->instant("drop.ttl", kPidCluster, switch_id);
    }
  }
  /// One link transmission: per-port counters plus a complete span covering
  /// [start, end] (serialization + propagation) on the switch's trace lane.
  void on_tx(Tracer* tracer, std::uint32_t switch_id, std::size_t port,
             std::uint64_t bytes, std::uint64_t busy_ticks,
             std::uint64_t start, std::uint64_t end) {
    if (port < ports_) {
      ++tx_packets_[port];
      tx_bytes_[port] += bytes;
      busy_ticks_[port] += busy_ticks;
    }
    if (tracer != nullptr) {
      tracer->complete("link.tx", kPidCluster, switch_id, start, end);
    }
  }

 private:
  Counter delivered_;
  HistogramHandle queue_depth_;
  /// This switch's per-port rows; ports_ is 0 while unbound.
  std::uint64_t* tx_packets_ = nullptr;
  std::uint64_t* tx_bytes_ = nullptr;
  std::uint64_t* busy_ticks_ = nullptr;
  std::size_t ports_ = 0;
};

/// Marking-scheme telemetry: marks applied and field saturations, labelled
/// with the scheme name.
struct MarkProbes {
  void bind(Registry* registry, const std::string& scheme_name);

  void on_mark() { marks_.inc(); }
  void on_saturation() { saturations_.inc(); }

 private:
  Counter marks_;
  Counter saturations_;
};

/// Detect→identify→block pipeline telemetry, owned by
/// `core::SourceIdentificationSystem`: the identifier's per-attempt
/// outcomes, the detector's footprint, and the alarm/identification/block
/// instants on the trace. What the pipeline detected, named and blocked is
/// `core::ScenarioReport`'s alone.
struct PipelineProbes {
  void bind(Registry& registry);
  void attach(Tracer* tracer) noexcept { tracer_ = tracer; }

  void on_detector_firing(std::uint32_t victim) {
    if (tracer_ != nullptr) {
      tracer_->instant("detect.alarm", kPidPipeline, 0, "victim",
                       double(victim));
    }
  }
  void on_identify(std::size_t candidates) {
    identify_attempts_.inc();
    if (candidates == 0) {
      identify_none_.inc();
    } else if (candidates == 1) {
      identify_unique_.inc();
    } else {
      identify_ambiguous_.inc();
    }
  }
  void on_identification(std::uint32_t named, bool correct) {
    if (tracer_ != nullptr) {
      tracer_->instant(correct ? "identify.source" : "identify.innocent",
                       kPidPipeline, 0, "node", double(named));
    }
  }
  void on_block(std::uint32_t named) {
    if (tracer_ != nullptr) {
      tracer_->instant("mitigate.block", kPidPipeline, 0, "node",
                       double(named));
    }
  }
  /// End-of-run gauge: the detector's state footprint.
  void on_run_end(double memory_bytes) { detect_memory_.set(memory_bytes); }

 private:
  Tracer* tracer_ = nullptr;
  Gauge detect_memory_;
  Counter identify_attempts_;
  Counter identify_unique_;
  Counter identify_ambiguous_;
  Counter identify_none_;
};

/// Wormhole substrate: VC allocation wins/stalls, credit stalls, a buffer-
/// occupancy histogram sampled at every flit forward (its `total` is the
/// flit-forward count), and a flits-in-flight counter track. Delivered
/// packets are `WormholeNetwork::delivered()`.
struct WormholeProbes {
  void bind(Registry* registry);
  void attach(Tracer* tracer) noexcept { tracer_ = tracer; }

  void on_vc_alloc() { vc_allocs_.inc(); }
  void on_alloc_stall() { alloc_stalls_.inc(); }
  void on_credit_stall() { credit_stalls_.inc(); }
  void on_buffer_sample(std::size_t depth) { buffer_occupancy_.add(depth); }
  void on_cycle(std::uint64_t cycle, std::uint64_t flits_in_flight) {
    if (tracer_ != nullptr && (cycle & 63) == 0) {
      tracer_->counter("wormhole.flits_in_flight", kPidWormhole,
                       double(flits_in_flight));
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  Counter vc_allocs_;
  Counter alloc_stalls_;
  Counter credit_stalls_;
  HistogramHandle buffer_occupancy_;
};

#else  // !DDPM_TELEMETRY_ENABLED — every probe is an inline no-op.

struct KernelProbes {
  void attach(Tracer*) noexcept {}
  Tracer* tracer() const noexcept { return nullptr; }
  void on_pop(std::uint64_t, std::size_t) noexcept {}
  void on_clamp() noexcept {}
};

struct SwitchProbes {
  void bind(Registry&, std::uint32_t, std::uint32_t,
            const std::vector<std::string>&) noexcept {}
  void on_local_delivery() noexcept {}
  void on_forward(std::size_t) noexcept {}
  void on_drop_queue_full(Tracer*, std::uint32_t) noexcept {}
  void on_drop_no_route(Tracer*, std::uint32_t) noexcept {}
  void on_drop_ttl(Tracer*, std::uint32_t) noexcept {}
  void on_tx(Tracer*, std::uint32_t, std::size_t, std::uint64_t, std::uint64_t,
             std::uint64_t, std::uint64_t) noexcept {}
};

struct MarkProbes {
  void bind(Registry*, const std::string&) noexcept {}
  void on_mark() noexcept {}
  void on_saturation() noexcept {}
};

struct PipelineProbes {
  void bind(Registry&) noexcept {}
  void attach(Tracer*) noexcept {}
  void on_detector_firing(std::uint32_t) noexcept {}
  void on_identify(std::size_t) noexcept {}
  void on_identification(std::uint32_t, bool) noexcept {}
  void on_block(std::uint32_t) noexcept {}
  void on_run_end(double) noexcept {}
};

struct WormholeProbes {
  void bind(Registry*) noexcept {}
  void attach(Tracer*) noexcept {}
  void on_vc_alloc() noexcept {}
  void on_alloc_stall() noexcept {}
  void on_credit_stall() noexcept {}
  void on_buffer_sample(std::size_t) noexcept {}
  void on_cycle(std::uint64_t, std::uint64_t) noexcept {}
};

#endif  // DDPM_TELEMETRY_ENABLED

}  // namespace ddpm::telemetry
