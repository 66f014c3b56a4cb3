// Calendar-queue event wheel: the simulation kernel's one event queue.
// O(1) schedule/pop for the regular cadences that dominate a link-clocked
// simulation, with a 4-ary-heap overflow for irregular timers.
//
// A heap pays O(log n) sifts on every schedule and pop even when — as in
// steady-state switch forwarding — almost every event lands within a few
// hundred ticks of the clock. The wheel exploits that locality: timestamps
// inside the near-future window [cursor, cursor + W) go to a per-timestamp
// bucket (append = schedule, unlink the head = pop; both O(1)), and only
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
// Each event is parked once. Its action (an InlineAction) is constructed
// in a 64-byte slot of a slab that grows in fixed chunks, so a slot's
// address never changes; the slot's 4-byte link threads it onto its
// bucket's FIFO ({head, tail}, 8 bytes per bucket) or onto the free list,
// and heap entries carry the slot's number (its ticket). The Simulator
// unlinks the due slot (take_due), runs the action where it sits and frees
// the slot (fire): an action that schedules more events may grow the slab
// while it runs, because chunks never move. Only chunk growth allocates
// (out of line, off the steady path); after reserve() or warm-up, schedule
// and fire never do. The next-event scan walks an occupancy bitmap (one
// bit per bucket, W/64 words, circularly from the cursor), so a sparse
// queue costs a handful of word tests per pop rather than a bucket-array
// sweep.
#pragma once

#include <cstdint>
#include <type_traits>
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
  /// A pending or firing event's slot number.
  using Ticket = std::uint32_t;
  static constexpr Ticket kNoTicket = ~Ticket{0};

  /// Bucket count (= window width in ticks). Must be a power of two. The
  /// default covers the cluster model's forwarding cadence (per-hop delays
  /// of a few hundred ns) and every per-tick link clock with headroom.
  static constexpr std::size_t kDefaultWindow = 1024;

  /// Slots per slab chunk; the slab grows one chunk at a time.
  static constexpr std::size_t kChunkSlots = 256;

  explicit EventWheel(std::size_t window = kDefaultWindow);
  ~EventWheel();

  EventWheel(const EventWheel&) = delete;
  EventWheel& operator=(const EventWheel&) = delete;

  /// Schedules `action` (any callable InlineAction accepts, or an
  /// InlineAction rvalue) at absolute time `when`, constructing it in its
  /// slot. Contract: `when` must not precede the time of the most recently
  /// popped event (checked, fatal).
  template <typename F>
  DDPM_HOT void schedule(SimTime when, F&& action) {
    if constexpr (std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
      const Ticket t = acquire_slot();
      slot(t).action.emplace(std::forward<F>(action));
      enqueue(when, t);
    } else {
      // A construction that may throw happens before anything is parked.
      schedule(when, Action(std::forward<F>(action)));
    }
  }

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const noexcept;

  /// Time of the most recently popped event (0 before the first pop).
  SimTime last_popped_time() const noexcept { return cursor_; }

  /// Removes the earliest event and returns (time, action). Precondition:
  /// !empty(). The action is moved out of its slot; run it after popping
  /// so that it may itself schedule events.
  std::pair<SimTime, Action> pop();

  /// Unlinks the earliest event if it is due by `until` and returns its
  /// ticket; its time becomes last_popped_time(). Returns kNoTicket,
  /// changing nothing, when the wheel is empty or its earliest event is
  /// later than `until`. The unlinked event is no longer pending (size()
  /// and clear() do not see it) until fire() runs and frees it.
  Ticket take_due(SimTime until);

  /// Runs the action of an event unlinked by take_due() in its slot, then
  /// destroys it and frees the slot. The action may schedule events (the
  /// slab may grow; its slot stays put) and may clear() the wheel.
  void fire(Ticket ticket);

  /// Discards all pending events and resets the clock watermark, so a
  /// cleared wheel may be reused from time zero. An event taken by
  /// take_due() and not yet freed by fire() is left alone.
  void clear();

  /// Pre-sizes the slab and the overflow heap for `n` simultaneous
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
  /// One parked event: its action and the link of the bucket FIFO or free
  /// list it sits on. The link lands in the action's tail padding, so a
  /// slot is exactly one cache line.
  struct DDPM_HOT_STATE Slot {
    alignas(64) [[no_unique_address]] Action action;
    Ticket next = kNoTicket;
  };
  DDPM_HOT_LAYOUT(Slot, 64, 64);

  /// Overflow-heap entry. Trivially copyable: sifts move three words,
  /// never an Action, and the layout certification pins the size.
  struct DDPM_HOT_STATE Entry {
    SimTime when;
    std::uint64_t seq;
    Ticket ticket;
  };
  DDPM_HOT_LAYOUT(Entry, 24, 8);

  /// One near-future timestamp's events, in scheduling order: a FIFO
  /// through the slots' links. `tail` is meaningful only when `head` is
  /// not kNoTicket.
  struct DDPM_HOT_STATE Bucket {
    Ticket head = kNoTicket;
    Ticket tail = kNoTicket;
  };
  DDPM_HOT_LAYOUT(Bucket, 8, 4);

  static constexpr std::size_t kChunkShift = 8;
  static_assert(std::size_t{1} << kChunkShift == kChunkSlots);
  static constexpr std::size_t kArity = 4;
  static constexpr SimTime kNoTime = ~SimTime{0};

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  Slot& slot(Ticket t) noexcept {
    return chunks_[t >> kChunkShift][t & (kChunkSlots - 1)];
  }

  /// Pops the free list, adding a chunk first when it is empty.
  Ticket acquire_slot() {
    if (free_head_ == kNoTicket) add_chunk();
    const Ticket t = free_head_;
    free_head_ = slot(t).next;
    return t;
  }
  /// Destroys the slot's action, if it holds one, and pushes the slot
  /// onto the free list.
  void release_slot(Ticket t) noexcept {
    Slot& s = slot(t);
    s.action.reset();
    s.next = free_head_;
    free_head_ = t;
  }
  /// Allocates one chunk and threads its slots onto the free list. The one
  /// allocating step of the kernel.
  DDPM_COLD void add_chunk();

  /// Links slot `t`, holding an action, into the bucket or heap for `when`.
  void enqueue(SimTime when, Ticket t);

  /// Earliest bucketed timestamp, or kNoTime if no bucket is occupied.
  SimTime wheel_next() const noexcept;

  void remove_top() noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::size_t mask_;                  // window - 1
  std::vector<Bucket> buckets_;       // window buckets, one timestamp each
  std::vector<std::uint64_t> occ_;    // bit b: bucket b has pending events
  std::vector<Entry> heap_;           // beyond-window overflow
  std::vector<Slot*> chunks_;         // the slab: kChunkSlots slots each
  Ticket free_head_ = kNoTicket;      // free list through Slot::next
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  SimTime cursor_ = 0;                // last popped time = window base
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace ddpm::netsim
