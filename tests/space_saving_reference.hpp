// Reference Space-Saving summary for the differential tests.
//
// The plain form of stream::SpaceSavingTopK's heap: a 4-ary min-heap on
// count whose sink() scans the children with a loop and swaps one level at
// a time, where the production sink shifts children into a hole and picks
// the minimum with selects. Which monitored key is evicted, and so every
// count and error bound, follows from the heap's order alone, so the
// production class's probing index is replaced here by a linear search
// over the heap. It stays slow and obvious on purpose.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "stream/space_saving.hpp"

namespace ddpm::stream::reference {

class SpaceSavingTopK {
 public:
  using Item = stream::SpaceSavingTopK::Item;

  explicit SpaceSavingTopK(std::uint32_t capacity) : capacity_(capacity) {}

  void offer(std::uint32_t key, std::uint64_t w = 1) {
    total_ += w;
    for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
      if (heap_[pos].key == key) {
        heap_[pos].count += w;
        sink(pos);  // count grew: it can only move away from the min root
        return;
      }
    }
    if (heap_.size() < capacity_) {
      heap_.push_back(Item{key, w, 0});
      swim(std::uint32_t(heap_.size() - 1));
      return;
    }
    // Full: evict the minimum, inherit its count as the new key's error.
    Item& root = heap_[0];
    root.error = root.count;
    root.count += w;
    root.key = key;
    sink(0);
  }

  std::vector<Item> top(std::size_t k) const {
    std::vector<Item> items = heap_;
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    });
    if (items.size() > k) items.resize(k);
    return items;
  }

  std::uint64_t estimate(std::uint32_t key) const {
    for (const Item& it : heap_) {
      if (it.key == key) return it.count;
    }
    return 0;
  }

  std::uint64_t min_count() const {
    if (heap_.size() < capacity_) return 0;
    return heap_[0].count;
  }

  std::uint64_t total() const { return total_; }

 private:
  static constexpr std::uint32_t kArity = 4;

  void sink(std::uint32_t pos) {
    const auto n = std::uint32_t(heap_.size());
    for (;;) {
      const std::uint32_t first_child = pos * kArity + 1;
      if (first_child >= n) return;
      std::uint32_t smallest = pos;
      const std::uint32_t last_child = std::min(first_child + kArity, n);
      for (std::uint32_t c = first_child; c < last_child; ++c) {
        if (heap_[c].count < heap_[smallest].count) smallest = c;
      }
      if (smallest == pos) return;
      std::swap(heap_[pos], heap_[smallest]);
      pos = smallest;
    }
  }

  void swim(std::uint32_t pos) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / kArity;
      if (heap_[parent].count <= heap_[pos].count) return;
      std::swap(heap_[pos], heap_[parent]);
      pos = parent;
    }
  }

  std::uint32_t capacity_;
  std::uint64_t total_ = 0;
  std::vector<Item> heap_;  // min-heap on count
};

}  // namespace ddpm::stream::reference
