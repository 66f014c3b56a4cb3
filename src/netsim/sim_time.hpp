// The simulation clock's unit, shared by the event kernel, packets,
// attackers, detectors and flow records.
#pragma once

#include <cstdint>

namespace ddpm::netsim {

/// Simulation time in abstract ticks. One tick is whatever the model says it
/// is; the cluster model uses nanoseconds.
using SimTime = std::uint64_t;

}  // namespace ddpm::netsim
