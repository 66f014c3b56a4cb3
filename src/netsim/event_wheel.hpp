// Calendar-queue event wheel: the simulation kernel's one event queue.
// O(1) schedule/pop for the regular cadences that dominate a link-clocked
// simulation, with a 4-ary-heap overflow for irregular timers.
//
// A heap pays O(log n) sifts on every schedule and pop even when — as in
// steady-state switch forwarding — almost every event lands within a few
// hundred ticks of the clock. The wheel exploits that locality: timestamps
// inside the near-future window [cursor, cursor + W) go to a per-timestamp
// bucket (append = schedule, indexed read = pop; both O(1)), and only
// timestamps beyond the window fall back to the heap. The window slides as
// the clock advances, so a periodic event with period < W never touches
// the heap at all.
//
// The contract is schedule and pop; nothing in the model cancels an event
// (timeouts check state when they fire). Pop order is (time, scheduling
// order) — the differential stress tests (tests/test_event_wheel.cpp) pin
// it against a std::multimap keyed that way:
//   * FIFO among simultaneous events. Within a bucket, append order is
//     scheduling order. Across the bucket/heap split, every heap entry for
//     a time T was necessarily scheduled while T was still beyond the
//     window — strictly before any bucket entry for T existed (the window
//     only slides forward) — so popping heap-before-bucket on a time tie
//     replays global scheduling order.
//   * The monotonic-clock contract (schedule at or after the last popped
//     time, checked fatal) — which is also what keeps the window math
//     sound: `when - cursor` never underflows.
//
// Actions are InlineAction (48-byte small-buffer callables) parked in a
// pool of stable ticket slots, so buckets and heap entries carry a 4-byte
// ticket and nothing on the schedule/pop path allocates once the backing
// vectors reach steady-state size. The next-event scan walks an occupancy
// bitmap (one bit per bucket, W/64 words, circularly from the cursor), so
// a sparse queue costs a handful of word tests per pop rather than a
// bucket-array sweep.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/hot_path.hpp"
#include "netsim/inline_action.hpp"
#include "netsim/sim_time.hpp"

namespace ddpm::netsim {

class EventWheel {
 public:
  using Action = InlineAction;

  /// Bucket count (= window width in ticks). Must be a power of two. The
  /// default covers the cluster model's forwarding cadence (per-hop delays
  /// of a few hundred ns) and every per-tick link clock with headroom.
  static constexpr std::size_t kDefaultWindow = 1024;

  explicit EventWheel(std::size_t window = kDefaultWindow);

  EventWheel(const EventWheel&) = delete;
  EventWheel& operator=(const EventWheel&) = delete;

  /// Schedules `action` at absolute time `when`. Contract: `when` must not
  /// precede the time of the most recently popped event (checked, fatal).
  void schedule(SimTime when, Action action);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const noexcept;

  /// Time of the most recently popped event (0 before the first pop).
  SimTime last_popped_time() const noexcept { return cursor_; }

  /// Removes the earliest event and returns (time, action). Precondition:
  /// !empty(). The action is moved out; run it after popping so that it
  /// may itself schedule events.
  std::pair<SimTime, Action> pop();

  /// Removes the earliest event if it is due by `until`: its time goes to
  /// `when`, its action is moved into `action` (which must be empty), and
  /// the result is true. Returns false, changing nothing, when the wheel
  /// is empty or its earliest event is later than `until`. One occupancy
  /// scan and one move of the action per event: Simulator::run's form of
  /// next_time() followed by pop().
  bool pop_due(SimTime until, SimTime& when, Action& action);

  /// Discards all pending events and resets the clock watermark, so a
  /// cleared wheel may be reused from time zero.
  void clear();

  /// Pre-sizes the ticket pool and overflow heap for `n` simultaneous
  /// pending events.
  void reserve(std::size_t n);

  /// Window width in ticks (= bucket count).
  std::size_t window() const noexcept { return mask_ + 1; }

  /// Observability for tests and the crossover discussion in
  /// docs/PERFORMANCE.md: how many schedules took the O(1) bucket path vs
  /// the O(log n) overflow heap.
  std::uint64_t wheel_scheduled() const noexcept { return wheel_scheduled_; }
  std::uint64_t heap_scheduled() const noexcept { return heap_scheduled_; }

 private:
  /// Overflow-heap entry. Trivially copyable: sifts move three words,
  /// never an Action, and the layout certification pins the size.
  struct DDPM_HOT_STATE Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t ticket;
  };
  DDPM_HOT_LAYOUT(Entry, 24, 8);

  /// One near-future timestamp's events, in scheduling order. `head`
  /// advances on pop; storage is recycled (capacity retained) when the
  /// bucket drains, so steady-state cadences never allocate.
  struct Bucket {
    std::vector<std::uint32_t> tickets;
    std::uint32_t head = 0;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr SimTime kNoTime = ~SimTime{0};

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  std::uint32_t acquire_ticket();
  void release_ticket(std::uint32_t ticket) noexcept;

  /// Earliest bucketed timestamp, or kNoTime if no bucket is occupied.
  SimTime wheel_next() const noexcept;
  void reset_bucket(std::size_t b) noexcept;

  void remove_top() noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::size_t mask_;                  // window - 1
  std::vector<Bucket> buckets_;       // window buckets, one timestamp each
  std::vector<std::uint64_t> occ_;    // bit b: bucket b has pending events
  std::vector<Entry> heap_;           // beyond-window overflow
  std::vector<Action> tickets_;       // action slots, indexed by ticket
  std::vector<std::uint32_t> free_tickets_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  SimTime cursor_ = 0;                // last popped time = window base
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace ddpm::netsim
