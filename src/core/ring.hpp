// Flat ring buffer: the allocation-free replacement for std::deque in
// per-port/per-VC queues.
//
// std::deque allocates a block map per queue plus a block per few dozen
// elements, and push/pop churn crosses block boundaries in steady state.
// A wormhole network has (P+1)*V input queues per node — thousands of
// deques on an 8x8 torus — so the hot loop paid scattered allocator
// traffic for buffers whose depth is bounded by credits anyway. RingBuffer
// keeps elements in one contiguous slab with head/count indices: pushes
// and pops in steady state touch no allocator, and a reserve() up front
// (credit depth for switch ports) makes the queue provably allocation-free
// — which is exactly what the hot-no-alloc analyzer rule and the
// zero-allocation ctest assert.
//
// Slots are raw storage: a push move-constructs the element into its slot
// and a pop destroys it there, so an element is constructed once and
// destroyed once however long it waits (a Packet is never default-built
// or move-assigned over a live slot), and whatever it owns (a shared_ptr,
// a vector's buffer) is released at the pop.
//
// Growth (unbounded injection queues only) doubles into a fresh slab with
// the elements rotated back to offset zero; amortized O(1), and never on
// the credit-bounded switch-port queues.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/check.hpp"
#include "core/hot_path.hpp"

namespace ddpm::core {

template <typename T>
class RingBuffer {
  // grow() relocates elements one by one; a throwing move would leave the
  // ring half moved.
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "RingBuffer elements must be nothrow move-constructible");

 public:
  RingBuffer() = default;

  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        count_(std::exchange(other.count_, 0)) {}

  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  ~RingBuffer() { release(); }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Pre-sizes the slab so pushes up to `n` outstanding elements never
  /// allocate. Call once at construction time (hot code must not grow).
  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  T& front() {
    DDPM_DCHECK(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }
  const T& front() const {
    DDPM_DCHECK(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }

  /// Element `i` places behind the front (i < size()).
  T& operator[](std::size_t i) {
    DDPM_DCHECK(i < count_, "ring index out of range");
    return slots_[slot(i)];
  }

  /// Move-constructs `value` into the slot behind the last element.
  void push_back(T&& value) {
    if (count_ == capacity_) grow(count_ == 0 ? 4 : count_ * 2);
    std::construct_at(slots_ + slot(count_), std::move(value));
    ++count_;
  }

  /// Destroys the front element in its slot.
  void pop_front() {
    DDPM_DCHECK(count_ > 0, "pop_front() on empty ring");
    std::destroy_at(slots_ + head_);
    ++head_;
    if (head_ == capacity_) head_ = 0;
    --count_;
  }

  /// Destroys every element; the slab stays.
  void clear() noexcept {
    for (std::size_t i = 0; i < count_; ++i) std::destroy_at(slots_ + slot(i));
    head_ = 0;
    count_ = 0;
  }

 private:
  /// Slab index of the element `i` places behind the front (i <= size()).
  std::size_t slot(std::size_t i) const noexcept {
    const std::size_t idx = head_ + i;
    return idx >= capacity_ ? idx - capacity_ : idx;
  }

  DDPM_COLD void grow(std::size_t target) {
    T* bigger = std::allocator<T>{}.allocate(target);
    for (std::size_t i = 0; i < count_; ++i) {
      T* from = slots_ + slot(i);
      std::construct_at(bigger + i, std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = bigger;
    capacity_ = target;
    head_ = 0;
  }

  void release() noexcept {
    clear();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
  }

  T* slots_ = nullptr;  // capacity_ slots; count_ live ones from head_ on
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ddpm::core
