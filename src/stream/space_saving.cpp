#include "stream/space_saving.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "stream/sketch.hpp"

namespace ddpm::stream {

SpaceSavingTopK::SpaceSavingTopK(std::uint32_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed) {
  DDPM_CHECK(capacity_ > 0, "SpaceSavingTopK: capacity must be positive");
  // 4x headroom keeps linear-probe chains short at full occupancy.
  DDPM_CHECK(capacity_ <= kMaxPow2 / 4,
             "SpaceSavingTopK: capacity above 2^29 (4x table past 2^31)");
  const std::uint32_t table_size = next_pow2(std::max(capacity_ * 4, 8u));
  table_mask_ = table_size - 1;
  heap_.reserve(capacity_);
  table_.assign(table_size, SsIndexSlot{});
}

DDPM_HOT std::uint32_t SpaceSavingTopK::home(
    std::uint32_t key) const noexcept {
  return std::uint32_t(mix64(seed_ ^ key)) & table_mask_;
}

DDPM_HOT std::int32_t SpaceSavingTopK::find(std::uint32_t key) const noexcept {
  std::uint32_t i = home(key);
  while (table_[i].heap_pos >= 0) {
    if (table_[i].key == key) return std::int32_t(i);
    i = (i + 1) & table_mask_;
  }
  return -1;
}

DDPM_HOT std::uint32_t SpaceSavingTopK::claim(std::uint32_t key) noexcept {
  std::uint32_t i = home(key);
  while (table_[i].heap_pos >= 0) i = (i + 1) & table_mask_;
  table_[i].key = key;
  return i;
}

DDPM_HOT void SpaceSavingTopK::vacate(std::uint32_t t) noexcept {
  // Backward-shift deletion: pull every displaced successor of the probe
  // chain one hole earlier so find() never needs tombstones.
  table_[t].heap_pos = -1;
  std::uint32_t hole = t;
  std::uint32_t i = (t + 1) & table_mask_;
  while (table_[i].heap_pos >= 0) {
    const std::uint32_t h = home(table_[i].key);
    // Move i into the hole iff the hole lies cyclically in [h, i).
    if (((i - h) & table_mask_) >= ((i - hole) & table_mask_)) {
      table_[hole] = table_[i];
      heap_[std::uint32_t(table_[hole].heap_pos)].idx_slot = hole;
      table_[i].heap_pos = -1;
      hole = i;
    }
    i = (i + 1) & table_mask_;
  }
}

DDPM_HOT void SpaceSavingTopK::place(std::uint32_t pos,
                                     const SsSlot& slot) noexcept {
  heap_[pos] = slot;
  table_[slot.idx_slot].heap_pos = std::int32_t(pos);
}

DDPM_HOT void SpaceSavingTopK::sink(std::uint32_t pos) noexcept {
  // Holds the moving slot aside, shifts each smaller child up into the
  // hole, and writes the slot once where it stops. The child that moves up
  // is the first one with the smallest count, so ties go to the leftmost.
  const auto n = std::uint32_t(heap_.size());
  const SsSlot moving = heap_[pos];
  for (;;) {
    const std::uint32_t first = pos * kArity + 1;
    if (first >= n) break;
    std::uint32_t child = first;
    if (first + kArity <= n) {
      // Full family: a tournament of selects, no data-dependent branch.
      static_assert(kArity == 4, "the tournament compares four children");
      // Each pair keeps its left slot unless the right one is strictly
      // smaller, and the final keeps the left pair on a tie.
      const std::uint64_t c0 = heap_[first].count;
      const std::uint64_t c1 = heap_[first + 1].count;
      const std::uint64_t c2 = heap_[first + 2].count;
      const std::uint64_t c3 = heap_[first + 3].count;
      const std::uint32_t left = c1 < c0 ? first + 1 : first;
      const std::uint64_t left_min = c1 < c0 ? c1 : c0;
      const std::uint32_t right = c3 < c2 ? first + 3 : first + 2;
      const std::uint64_t right_min = c3 < c2 ? c3 : c2;
      child = right_min < left_min ? right : left;
    } else {
      for (std::uint32_t c = first + 1; c < n; ++c) {
        if (heap_[c].count < heap_[child].count) child = c;
      }
    }
    if (heap_[child].count >= moving.count) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, moving);
}

DDPM_HOT void SpaceSavingTopK::swim(std::uint32_t pos) noexcept {
  const SsSlot moving = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (heap_[parent].count <= moving.count) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

DDPM_HOT void SpaceSavingTopK::offer(std::uint32_t key,
                                     std::uint64_t w) noexcept {
  total_ += w;
  const std::int32_t found = find(key);
  if (found >= 0) {
    const auto pos = std::uint32_t(table_[std::uint32_t(found)].heap_pos);
    heap_[pos].count += w;
    sink(pos);  // count grew: it can only move away from the min root
    return;
  }
  if (heap_.size() < capacity_) {
    const std::uint32_t t = claim(key);
    SsSlot slot;
    slot.count = w;
    slot.error = 0;
    slot.key = key;
    slot.idx_slot = t;
    heap_.push_back(slot);
    const auto pos = std::uint32_t(heap_.size() - 1);
    table_[t].heap_pos = std::int32_t(pos);
    swim(pos);
    return;
  }
  // Summary full: the classic Space-Saving step. Evict the minimum,
  // inherit its count as the new key's error bound.
  SsSlot& root = heap_[0];
  vacate(root.idx_slot);
  const std::uint32_t t = claim(key);
  table_[t].heap_pos = 0;
  root.error = root.count;
  root.count += w;
  root.key = key;
  root.idx_slot = t;
  sink(0);
}

std::vector<SpaceSavingTopK::Item> SpaceSavingTopK::top(std::size_t k) const {
  std::vector<Item> items;
  items.reserve(heap_.size());
  for (const SsSlot& s : heap_) {
    items.push_back(Item{s.key, s.count, s.error});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (items.size() > k) items.resize(k);
  return items;
}

SpaceSavingTopK::Item SpaceSavingTopK::top1() const noexcept {
  Item best;
  for (const SsSlot& s : heap_) {
    if (s.count > best.count || (s.count == best.count && s.key < best.key)) {
      best = Item{s.key, s.count, s.error};
    }
  }
  return best;
}

std::uint64_t SpaceSavingTopK::estimate(std::uint32_t key) const noexcept {
  const std::int32_t found = find(key);
  if (found < 0) return 0;
  return heap_[std::uint32_t(table_[std::uint32_t(found)].heap_pos)].count;
}

std::uint64_t SpaceSavingTopK::min_count() const noexcept {
  if (heap_.size() < capacity_) return 0;
  return heap_[0].count;
}

void SpaceSavingTopK::clear() noexcept {
  heap_.clear();
  std::fill(table_.begin(), table_.end(), SsIndexSlot{});
  total_ = 0;
}

}  // namespace ddpm::stream
