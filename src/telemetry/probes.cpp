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
                        std::uint32_t switches,
                        const std::vector<std::string>& port_labels) {
  delivered_ = Counter(
      registry.counter_family("switch.delivered_local", switches)
          .bind(switch_id));
  // Queue occupancy in packets; the upper edge tracks the deepest queue a
  // default config allows (capacity 16) with headroom for larger configs.
  queue_depth_ = registry.histogram_family("switch.queue_depth", switches, 64)
                     .bind(switch_id);
  tx_packets_ =
      registry.counter_family("link.tx_packets", switches, port_labels)
          .bind(switch_id);
  tx_bytes_ = registry.counter_family("link.tx_bytes", switches, port_labels)
                  .bind(switch_id);
  busy_ticks_ =
      registry.counter_family("link.busy_ticks", switches, port_labels)
          .bind(switch_id);
  ports_ = tx_packets_ == nullptr ? 0 : port_labels.size();
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
      registry->histogram("wormhole.buffer_occupancy", {}, 32);
}

#endif  // DDPM_TELEMETRY_ENABLED

}  // namespace ddpm::telemetry
