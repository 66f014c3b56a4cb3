// Simulation kernel: owns the clock and the event queue, and drives the
// model by firing events in timestamp order.
//
// The queue is the calendar wheel (netsim/event_wheel.hpp): the cluster
// Switch's forwarding events are a regular short-horizon cadence, which
// the wheel schedules and pops in O(1); irregular timers (attack onsets,
// TCP timeouts, long backoffs) overflow to its embedded 4-ary heap. Events
// are only ever scheduled and fired — a timer that may have become moot
// checks its state when it fires instead of being cancelled.
//
// schedule_in/schedule_at forward the callable to the wheel, which
// constructs it once in a slot that never moves; run/step take the due
// slot, run the action in place and free the slot, so an action is never
// copied or moved between scheduling and firing.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "netsim/event_wheel.hpp"
#include "telemetry/probes.hpp"

namespace ddpm::netsim {

class Simulator {
 public:
  /// Current simulation time. Monotonically non-decreasing.
  SimTime now() const noexcept { return now_; }

  /// Schedules `action` (a callable InlineAction accepts, or an
  /// EventWheel::Action rvalue) to fire `delay` ticks from now.
  template <typename F>
  void schedule_in(SimTime delay, F&& action) {
    queue_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `when`. `when` must not be in the
  /// past; a past timestamp is clamped to `now()` so the event still fires
  /// (in scheduling order) rather than corrupting the clock. Each clamp is
  /// counted (see clamped_events()): a model that relies on the clamp is
  /// usually mis-computing timestamps, and the counter makes that visible.
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    if (when < now_) {
      ++clamped_;
      probes_.on_clamp();
      when = now_;
    }
    queue_.schedule(when, std::forward<F>(action));
  }

  /// Runs until the queue drains or the clock passes `until`, whichever
  /// comes first. Events stamped exactly `until` still fire. Returns the
  /// number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Executes at most one pending event. Returns false if none was pending.
  bool step();

  /// Number of events executed since construction.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of schedule_at() calls whose timestamp was in the past and got
  /// clamped to now(). Zero in a healthy model; see schedule_at().
  std::uint64_t clamped_events() const noexcept { return clamped_; }

  bool pending() const noexcept { return !queue_.empty(); }
  std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Pre-sizes the event queue for `n` simultaneous pending events
  /// (grow-once for steady-state workloads).
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Drops all pending events; the clock is left where it is. An action
  /// may call this while it fires: it finishes normally.
  void clear_pending() { queue_.clear(); }

  /// Attaches an event tracer: the kernel samples heap depth and executed-
  /// event counter tracks into it and binds it to this clock, so RAII spans
  /// recorded anywhere in the model are stamped with simulation time.
  /// Compiled out entirely with DDPM_TELEMETRY=OFF.
  void attach_tracer(telemetry::Tracer* tracer) {
    probes_.attach(tracer);
    if (tracer != nullptr) tracer->set_clock(&now_);
  }
  telemetry::Tracer* tracer() const noexcept { return probes_.tracer(); }

 private:
  EventWheel queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_ = 0;
  telemetry::KernelProbes probes_;
};

}  // namespace ddpm::netsim
