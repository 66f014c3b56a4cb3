#include "netsim/simulator.hpp"

namespace ddpm::netsim {

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t count = 0;
  for (;;) {
    // Scoped to one event: the fired action, and whatever it captured, is
    // destroyed before the next event runs.
    EventWheel::Action action;
    SimTime when = 0;
    if (!queue_.pop_due(until, when, action)) break;
    now_ = when;
    action();
    ++executed_;
    ++count;
    probes_.on_pop(executed_, queue_.size());
  }
  // The queue is drained or its next event lies past the horizon: advance
  // the clock to the horizon so back-to-back run() calls with increasing
  // horizons behave like one continuous run.
  if (until != std::numeric_limits<SimTime>::max() && until > now_) {
    now_ = until;
  }
  return count;
}

bool Simulator::step() {
  EventWheel::Action action;
  SimTime when = 0;
  if (!queue_.pop_due(std::numeric_limits<SimTime>::max(), when, action)) {
    return false;
  }
  now_ = when;
  action();
  ++executed_;
  probes_.on_pop(executed_, queue_.size());
  return true;
}

}  // namespace ddpm::netsim
