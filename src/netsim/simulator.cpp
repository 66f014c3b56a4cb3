#include "netsim/simulator.hpp"

namespace ddpm::netsim {

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t count = 0;
  for (;;) {
    const EventWheel::Ticket due = queue_.take_due(until);
    if (due == EventWheel::kNoTicket) break;
    now_ = queue_.last_popped_time();
    // Runs in the event's slot, then destroys the action (and whatever it
    // captured) before the next event is taken.
    queue_.fire(due);
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
  const EventWheel::Ticket due =
      queue_.take_due(std::numeric_limits<SimTime>::max());
  if (due == EventWheel::kNoTicket) return false;
  now_ = queue_.last_popped_time();
  queue_.fire(due);
  ++executed_;
  probes_.on_pop(executed_, queue_.size());
  return true;
}

}  // namespace ddpm::netsim
