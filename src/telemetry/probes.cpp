#include "telemetry/probes.hpp"

namespace ddpm::telemetry {

void name_standard_processes(Tracer& tracer) {
  tracer.set_process_name(kPidKernel, "event kernel");
  tracer.set_process_name(kPidCluster, "cluster switches");
  tracer.set_process_name(kPidPipeline, "detect/identify/block");
  tracer.set_process_name(kPidWormhole, "wormhole substrate");
}

#if DDPM_TELEMETRY_ENABLED

void SwitchProbes::bind(Registry& registry, std::uint32_t switch_id,
                        const std::vector<std::string>& port_labels) {
  const std::string sw = "switch=" + std::to_string(switch_id);
  delivered_ = registry.counter("switch.delivered_local", sw);
  // Queue occupancy in packets; the upper edge tracks the deepest queue a
  // default config allows (capacity 16) with headroom for larger configs.
  queue_depth_ = registry.histogram("switch.queue_depth", sw, 0.0, 64.0, 64);
  port_tx_packets_.reserve(port_labels.size());
  port_tx_bytes_.reserve(port_labels.size());
  port_busy_ticks_.reserve(port_labels.size());
  for (const std::string& label : port_labels) {
    const std::string port = sw + ",port=" + label;
    port_tx_packets_.push_back(registry.counter("link.tx_packets", port));
    port_tx_bytes_.push_back(registry.counter("link.tx_bytes", port));
    port_busy_ticks_.push_back(registry.counter("link.busy_ticks", port));
  }
}

void MarkProbes::bind(Registry* registry, const std::string& scheme_name) {
  if (registry == nullptr) return;
  const std::string labels = "scheme=" + scheme_name;
  marks_ = registry->counter("mark.applied", labels);
  saturations_ = registry->counter("mark.field_saturations", labels);
}

void PipelineProbes::bind(Registry& registry) {
  identify_attempts_ = registry.counter("identify.attempts");
  identify_unique_ = registry.counter("identify.unique");
  identify_ambiguous_ = registry.counter("identify.ambiguous");
  identify_none_ = registry.counter("identify.none");
  detect_memory_ = registry.gauge("detect.memory_bytes");
}

void WormholeProbes::bind(Registry* registry) {
  if (registry == nullptr) return;
  vc_allocs_ = registry->counter("wormhole.vc_allocs");
  alloc_stalls_ = registry->counter("wormhole.alloc_stalls");
  credit_stalls_ = registry->counter("wormhole.credit_stalls");
  buffer_occupancy_ =
      registry->histogram("wormhole.buffer_occupancy", {}, 0.0, 32.0, 32);
}

#endif  // DDPM_TELEMETRY_ENABLED

}  // namespace ddpm::telemetry
