// Reference switch telemetry: the per-series SwitchProbes binding that the
// dense series families replaced. Every switch registers its own
// string-keyed series one by one (`switch=S` and `switch=S,port=L`
// labels formatted at bind time, one hash insert and one slot each), and
// the registry's snapshot sorts the keys. telemetry::SwitchProbes binds
// rows of dense families instead and builds the keys in order at
// snapshot; tests/test_switch_probes_differential.cpp drives both with one
// call stream and compares their snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace ddpm::reference {

class PerSeriesSwitchProbes {
 public:
  void bind(telemetry::Registry& registry, std::uint32_t switch_id,
            const std::vector<std::string>& port_labels) {
    const std::string sw = "switch=" + std::to_string(switch_id);
    delivered_ = registry.counter("switch.delivered_local", sw);
    queue_depth_ = registry.histogram("switch.queue_depth", sw, 64);
    for (const std::string& label : port_labels) {
      const std::string port = sw + ",port=" + label;
      tx_packets_.push_back(registry.counter("link.tx_packets", port));
      tx_bytes_.push_back(registry.counter("link.tx_bytes", port));
      busy_ticks_.push_back(registry.counter("link.busy_ticks", port));
    }
  }

  void on_local_delivery() { delivered_.inc(); }
  void on_forward(std::size_t queue_depth_after) {
    queue_depth_.add(queue_depth_after);
  }
  void on_tx(std::size_t port, std::uint64_t bytes, std::uint64_t busy_ticks) {
    if (port < tx_packets_.size()) {
      tx_packets_[port].inc();
      tx_bytes_[port].inc(bytes);
      busy_ticks_[port].inc(busy_ticks);
    }
  }

 private:
  telemetry::Counter delivered_;
  telemetry::HistogramHandle queue_depth_;
  std::vector<telemetry::Counter> tx_packets_;
  std::vector<telemetry::Counter> tx_bytes_;
  std::vector<telemetry::Counter> busy_ticks_;
};

}  // namespace ddpm::reference
