#include "netsim/event_wheel.hpp"

namespace ddpm::netsim {

namespace {

constexpr bool is_pow2(std::size_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

EventWheel::EventWheel(std::size_t window) : mask_(window - 1) {
  // >= 64 keeps the occupancy bitmap's word count a power of two, so the
  // circular scan wraps with a mask instead of a modulo.
  DDPM_CHECK(is_pow2(window) && window >= 64,
             "event wheel window must be a power of two >= 64");
  buckets_.resize(window);
  occ_.assign(window / 64, 0);
}

DDPM_HOT void EventWheel::schedule(SimTime when, Action action) {
  DDPM_CHECK(when >= cursor_, "event scheduled in the simulated past");
  const std::uint32_t ticket = acquire_ticket();
  tickets_[ticket] = std::move(action);
  if (when - cursor_ <= mask_) {
    // Near future: O(1) append to the timestamp's bucket. No sequence
    // number is materialized — append order IS scheduling order, and heap
    // entries for the same instant always predate bucket ones (see the
    // ordering argument in the header).
    const std::size_t b = std::size_t(when) & mask_;
    // Bucket capacity is retained across drains (reset_bucket clears, never
    // shrinks), so this push allocates only when its bucket holds more
    // same-instant events than it ever has. That is rare but does not stop
    // after warm-up: each of the window's buckets keeps its own peak, and
    // bursts keep setting new ones. A counting-allocator probe on a warmed
    // torus:8x8 ClusterNetwork (benign rate 0.002, 200k-tick warm-up) saw
    // 488 allocations in 2.09M events, every one of them this push.
    buckets_[b].tickets.push_back(ticket);  // ddpm-analyze: allow(hot-no-alloc)
    occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++wheel_scheduled_;
  } else {
    heap_.push_back(Entry{when, next_seq_++, ticket});
    sift_up(heap_.size() - 1);
    ++heap_scheduled_;
  }
  ++live_;
}

DDPM_HOT SimTime EventWheel::wheel_next() const noexcept {
  const std::size_t words = occ_.size();
  const std::size_t b0 = std::size_t(cursor_) & mask_;
  const std::size_t w0 = b0 >> 6;
  const unsigned off = unsigned(b0 & 63);
  // Circular bitmap scan from the cursor's bucket: whole words in wrap
  // order, with the cursor word split so its below-cursor bits (times near
  // cursor + W) are visited last. Bit order within this traversal is
  // ascending time order, so the first set bit is the earliest bucket.
  std::uint64_t w = occ_[w0] & (~std::uint64_t{0} << off);
  std::size_t i = 0;
  while (w == 0) {
    if (++i > words) return kNoTime;
    w = (i == words) ? occ_[w0] & ~(~std::uint64_t{0} << off)
                     : occ_[(w0 + i) & (words - 1)];
  }
  const std::size_t wi = (w0 + i) & (words - 1);
  const std::size_t b = wi * 64 + std::size_t(__builtin_ctzll(w));
  return cursor_ + SimTime((b - b0) & mask_);
}

void EventWheel::reset_bucket(std::size_t b) noexcept {
  Bucket& bk = buckets_[b];
  bk.tickets.clear();  // capacity retained: steady cadences never allocate
  bk.head = 0;
  occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

SimTime EventWheel::next_time() const noexcept {
  DDPM_DCHECK(live_ != 0, "next_time on empty wheel");
  const SimTime tw = wheel_next();
  if (heap_.empty()) return tw;
  const SimTime th = heap_.front().when;
  return tw < th ? tw : th;  // kNoTime is the max SimTime
}

std::pair<SimTime, EventWheel::Action> EventWheel::pop() {
  DDPM_CHECK(live_ != 0, "pop on empty wheel");
  std::pair<SimTime, Action> out;
  pop_due(kNoTime, out.first, out.second);
  return out;
}

DDPM_HOT bool EventWheel::pop_due(SimTime until, SimTime& when,
                                  Action& action) {
  DDPM_DCHECK(!action, "pop_due into a non-empty action");
  if (live_ == 0) return false;
  const SimTime tw = wheel_next();
  // Heap wins ties: its entries for an instant were scheduled while that
  // instant was still out of window, i.e. before any bucket entry for it.
  if (!heap_.empty() && heap_.front().when <= tw) {
    const Entry top = heap_.front();
    if (top.when > until) return false;
    DDPM_DCHECK(top.when >= cursor_, "event time went backwards");
    cursor_ = top.when;
    action = std::move(tickets_[top.ticket]);
    release_ticket(top.ticket);
    remove_top();
    --live_;
    when = top.when;
    return true;
  }
  // Events are pending and the heap is empty or later: tw is a bucket's.
  if (tw > until) return false;
  const std::size_t b = std::size_t(tw) & mask_;
  Bucket& bk = buckets_[b];
  const std::uint32_t ticket = bk.tickets[bk.head];
  ++bk.head;
  cursor_ = tw;  // slides the window forward
  action = std::move(tickets_[ticket]);
  release_ticket(ticket);
  if (bk.head == bk.tickets.size()) reset_bucket(b);
  --live_;
  when = tw;
  return true;
}

void EventWheel::clear() {
  for (const Entry& e : heap_) release_ticket(e.ticket);
  heap_.clear();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bk = buckets_[b];
    for (std::size_t i = bk.head; i < bk.tickets.size(); ++i) {
      release_ticket(bk.tickets[i]);
    }
    reset_bucket(b);
  }
  live_ = 0;
  cursor_ = 0;  // a cleared wheel may be reused from time zero
}

void EventWheel::reserve(std::size_t n) {
  heap_.reserve(n);
  tickets_.reserve(n);
  free_tickets_.reserve(n);
}

std::uint32_t EventWheel::acquire_ticket() {
  if (!free_tickets_.empty()) {
    const std::uint32_t ticket = free_tickets_.back();
    free_tickets_.pop_back();
    return ticket;
  }
  DDPM_CHECK(tickets_.size() < (std::size_t(1) << 32),
             "event ticket space exhausted");
  tickets_.emplace_back();
  return std::uint32_t(tickets_.size() - 1);
}

void EventWheel::release_ticket(std::uint32_t ticket) noexcept {
  tickets_[ticket].reset();  // a no-op once pop() has moved the action out
  free_tickets_.push_back(ticket);
}

void EventWheel::remove_top() noexcept {
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_.front() = heap_[last];
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

void EventWheel::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventWheel::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t fence = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < fence; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace ddpm::netsim
