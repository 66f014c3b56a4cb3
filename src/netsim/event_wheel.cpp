#include "netsim/event_wheel.hpp"

#include <algorithm>
#include <memory>

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

EventWheel::~EventWheel() {
  for (Slot* chunk : chunks_) {
    std::destroy_n(chunk, kChunkSlots);  // pending actions drop captures
    std::allocator<Slot>{}.deallocate(chunk, kChunkSlots);
  }
}

DDPM_COLD void EventWheel::add_chunk() {
  // kNoTicket must stay out of range: at most 2^24 - 1 chunks.
  DDPM_CHECK(chunks_.size() + 1 < (std::size_t{1} << (32 - kChunkShift)),
             "event slot space exhausted");
  // Room for the pointer first, so that no step after the allocation can
  // throw and leak the chunk.
  if (chunks_.size() == chunks_.capacity()) {
    chunks_.reserve(2 * chunks_.size() + 1);
  }
  Slot* chunk = std::allocator<Slot>{}.allocate(kChunkSlots);
  std::uninitialized_default_construct_n(chunk, kChunkSlots);
  chunks_.push_back(chunk);
  const auto base = Ticket((chunks_.size() - 1) << kChunkShift);
  for (std::size_t i = kChunkSlots; i-- > 0;) release_slot(base + Ticket(i));
}

DDPM_HOT void EventWheel::enqueue(SimTime when, Ticket t) {
  DDPM_CHECK(when >= cursor_, "event scheduled in the simulated past");
  if (when - cursor_ <= mask_) {
    // Near future: O(1) append to the timestamp's bucket. No sequence
    // number is materialized — append order IS scheduling order, and heap
    // entries for the same instant always predate bucket ones (see the
    // ordering argument in the header).
    const std::size_t b = std::size_t(when) & mask_;
    Bucket& bk = buckets_[b];
    slot(t).next = kNoTicket;
    if (bk.head == kNoTicket) {
      bk.head = t;
      occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    } else {
      slot(bk.tail).next = t;
    }
    bk.tail = t;
    ++wheel_scheduled_;
  } else {
    heap_.push_back(Entry{when, next_seq_++, t});
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

SimTime EventWheel::next_time() const noexcept {
  DDPM_DCHECK(live_ != 0, "next_time on empty wheel");
  const SimTime tw = wheel_next();
  if (heap_.empty()) return tw;
  const SimTime th = heap_.front().when;
  return tw < th ? tw : th;  // kNoTime is the max SimTime
}

std::pair<SimTime, EventWheel::Action> EventWheel::pop() {
  DDPM_CHECK(live_ != 0, "pop on empty wheel");
  const Ticket t = take_due(kNoTime);
  std::pair<SimTime, Action> out{cursor_, std::move(slot(t).action)};
  release_slot(t);
  return out;
}

DDPM_HOT EventWheel::Ticket EventWheel::take_due(SimTime until) {
  if (live_ == 0) return kNoTicket;
  const SimTime tw = wheel_next();
  // Heap wins ties: its entries for an instant were scheduled while that
  // instant was still out of window, i.e. before any bucket entry for it.
  if (!heap_.empty() && heap_.front().when <= tw) {
    const Entry top = heap_.front();
    if (top.when > until) return kNoTicket;
    DDPM_DCHECK(top.when >= cursor_, "event time went backwards");
    cursor_ = top.when;
    remove_top();
    --live_;
    return top.ticket;
  }
  // Events are pending and the heap is empty or later: tw is a bucket's.
  if (tw > until) return kNoTicket;
  const std::size_t b = std::size_t(tw) & mask_;
  Bucket& bk = buckets_[b];
  const Ticket t = bk.head;
  bk.head = slot(t).next;
  if (bk.head == kNoTicket) occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  cursor_ = tw;  // slides the window forward
  --live_;
  return t;
}

DDPM_HOT void EventWheel::fire(Ticket ticket) {
  // The slot is on no list while its action runs, so nothing the action
  // schedules or clears can reuse or free it.
  slot(ticket).action();
  release_slot(ticket);
}

void EventWheel::clear() {
  for (const Entry& e : heap_) release_slot(e.ticket);
  heap_.clear();
  for (Bucket& bk : buckets_) {
    for (Ticket t = bk.head; t != kNoTicket;) {
      const Ticket next = slot(t).next;
      release_slot(t);
      t = next;
    }
    bk = Bucket{};
  }
  std::fill(occ_.begin(), occ_.end(), 0);
  live_ = 0;
  cursor_ = 0;  // a cleared wheel may be reused from time zero
}

void EventWheel::reserve(std::size_t n) {
  heap_.reserve(n);
  const std::size_t chunks = (n + kChunkSlots - 1) / kChunkSlots;
  chunks_.reserve(chunks);
  while (chunks_.size() < chunks) add_chunk();
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
