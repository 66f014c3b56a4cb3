#include "stream/space_saving.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "core/check.hpp"
#include "stream/sketch.hpp"

namespace ddpm::stream {

namespace {

/// Max-count sentinel of every count position past size(): never the
/// smallest child that moves up, so a sink needs no partial-family case.
constexpr std::uint64_t kVacantCount =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

SpaceSavingTopK::SpaceSavingTopK(std::uint32_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed) {
  DDPM_CHECK(capacity_ > 0, "SpaceSavingTopK: capacity must be positive");
  // 4x headroom keeps linear-probe chains short at full occupancy.
  DDPM_CHECK(capacity_ <= kMaxPow2 / 4,
             "SpaceSavingTopK: capacity above 2^29 (4x table past 2^31)");
  const std::uint32_t table_size = next_pow2(std::max(capacity_ * 4, 8u));
  table_mask_ = table_size - 1;
  // The lead slots, the root, and whole families up to the one holding
  // position capacity - 1: a multiple of kArity slots.
  const std::uint32_t count_slots =
      kCountLead + 1 + kArity * ((capacity_ + kArity - 2) / kArity);
  // One block: counts, then the table, then the records. Each part's size
  // is a multiple of the next part's alignment.
  const std::size_t count_bytes = count_slots * sizeof(std::uint64_t);
  const std::size_t table_bytes = table_size * sizeof(SsIndexSlot);
  block_bytes_ = count_bytes + table_bytes + capacity_ * sizeof(SsRecord);
  static_assert(alignof(SsIndexSlot) <= kBlockAlign &&
                8 * sizeof(SsIndexSlot) % alignof(SsRecord) == 0);
  // kBlockAlign bytes of slack, so the start rounds up to kBlockAlign.
  std::size_t space = block_bytes_ + kBlockAlign;
  block_ = std::make_unique_for_overwrite<std::byte[]>(space);
  void* start = block_.get();
  auto* const base = static_cast<std::byte*>(
      std::align(kBlockAlign, block_bytes_, start, space));
  counts_ = reinterpret_cast<std::uint64_t*>(base) + kCountLead;
  table_ = reinterpret_cast<SsIndexSlot*>(base + count_bytes);
  records_ = reinterpret_cast<SsRecord*>(base + count_bytes + table_bytes);
  // All-ones bytes are both the vacant count and an empty slot
  // (heap_pos -1). Records are written before they are read.
  static_assert(kVacantCount == ~std::uint64_t{0});
  std::memset(base, 0xff, count_bytes + table_bytes);
}

DDPM_HOT std::uint32_t SpaceSavingTopK::home(
    std::uint32_t key) const noexcept {
  return std::uint32_t(mix64(seed_ ^ key)) & table_mask_;
}

DDPM_HOT std::int32_t SpaceSavingTopK::locate(std::uint32_t key,
                                              std::uint32_t h) const noexcept {
  std::uint32_t i = h;
  while (table_[i].heap_pos >= 0) {
    const std::int32_t pos = table_[i].heap_pos;
    if (records_[std::uint32_t(pos)].key == key) return pos;
    i = (i + 1) & table_mask_;
  }
  return -1;
}

DDPM_HOT std::uint32_t SpaceSavingTopK::claim(std::uint32_t h) noexcept {
  std::uint32_t i = h;
  while (table_[i].heap_pos >= 0) i = (i + 1) & table_mask_;
  table_[i].home = h;
  return i;
}

DDPM_HOT void SpaceSavingTopK::vacate(std::uint32_t t) noexcept {
  // Backward-shift deletion: pull every displaced successor of the probe
  // chain one hole earlier so locate() never needs tombstones.
  table_[t].heap_pos = -1;
  std::uint32_t hole = t;
  std::uint32_t i = (t + 1) & table_mask_;
  while (table_[i].heap_pos >= 0) {
    const std::uint32_t h = table_[i].home;
    // Move i into the hole iff the hole lies cyclically in [h, i).
    if (((i - h) & table_mask_) >= ((i - hole) & table_mask_)) {
      table_[hole] = table_[i];
      records_[std::uint32_t(table_[hole].heap_pos)].idx_slot = hole;
      table_[i].heap_pos = -1;
      hole = i;
    }
    i = (i + 1) & table_mask_;
  }
}

DDPM_HOT void SpaceSavingTopK::place(std::uint32_t pos,
                                     const SsRecord& rec) noexcept {
  records_[pos] = rec;
  table_[rec.idx_slot].heap_pos = std::int32_t(pos);
}

DDPM_HOT void SpaceSavingTopK::sink(std::uint32_t pos,
                                    std::uint64_t count) noexcept {
  // Shifts each smaller child up into the hole and writes the moving entry
  // once where it stops. The child that moves up is the first one with the
  // smallest count, so ties go to the leftmost; a sentinel past size()
  // never moves up, since no count exceeds it.
  static_assert(kArity == 4, "the tournament compares four children");
  const std::uint32_t start = pos;
  const SsRecord moving = records_[pos];
  for (;;) {
    const std::uint32_t first = pos * kArity + 1;
    if (first >= size_) break;
    // A tournament of selects, no data-dependent branch. Each pair keeps
    // its left slot unless the right one is strictly smaller, and the
    // final keeps the left pair on a tie.
    const std::uint64_t* family = counts_ + first;
    const std::uint64_t c0 = family[0];
    const std::uint64_t c1 = family[1];
    const std::uint64_t c2 = family[2];
    const std::uint64_t c3 = family[3];
    const std::uint32_t left = c1 < c0 ? first + 1 : first;
    const std::uint64_t left_min = c1 < c0 ? c1 : c0;
    const std::uint32_t right = c3 < c2 ? first + 3 : first + 2;
    const std::uint64_t right_min = c3 < c2 ? c3 : c2;
    const std::uint32_t child = right_min < left_min ? right : left;
    const std::uint64_t child_min = right_min < left_min ? right_min : left_min;
    if (child_min >= count) break;
    counts_[pos] = child_min;
    place(pos, records_[child]);
    pos = child;
  }
  counts_[pos] = count;
  if (pos != start) place(pos, moving);
}

DDPM_HOT void SpaceSavingTopK::swim(std::uint32_t pos,
                                    std::uint64_t count) noexcept {
  const std::uint32_t start = pos;
  const SsRecord moving = records_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (counts_[parent] <= count) break;
    counts_[pos] = counts_[parent];
    place(pos, records_[parent]);
    pos = parent;
  }
  counts_[pos] = count;
  if (pos != start) place(pos, moving);
}

DDPM_HOT void SpaceSavingTopK::offer(std::uint32_t key,
                                     std::uint64_t w) noexcept {
  // A zero weight would still evict a monitored key from a full summary.
  DDPM_DCHECK(w >= 1, "SpaceSavingTopK::offer: weight must be >= 1");
  total_ += w;
  const std::uint32_t h = home(key);
  const std::int32_t found = locate(key, h);
  if (found >= 0) {
    const auto pos = std::uint32_t(found);
    sink(pos, counts_[pos] + w);  // count grew: it can only move away
    return;
  }
  if (size_ < capacity_) {
    const std::uint32_t pos = size_++;
    place(pos, SsRecord{0, key, claim(h)});
    swim(pos, w);
    return;
  }
  // Summary full: the classic Space-Saving step. Evict the minimum,
  // inherit its count as the new key's error bound.
  vacate(records_[0].idx_slot);
  const std::uint64_t min = counts_[0];
  place(0, SsRecord{min, key, claim(h)});
  sink(0, min + w);
}

std::vector<SpaceSavingTopK::Item> SpaceSavingTopK::top(std::size_t k) const {
  std::vector<Item> items;
  items.reserve(size_);
  for (std::uint32_t pos = 0; pos < size_; ++pos) {
    items.push_back(Item{records_[pos].key, counts_[pos], records_[pos].error});
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
  for (std::uint32_t pos = 0; pos < size_; ++pos) {
    const std::uint64_t count = counts_[pos];
    const std::uint32_t key = records_[pos].key;
    if (count > best.count || (count == best.count && key < best.key)) {
      best = Item{key, count, records_[pos].error};
    }
  }
  return best;
}

std::uint64_t SpaceSavingTopK::estimate(std::uint32_t key) const noexcept {
  const std::int32_t found = locate(key, home(key));
  return found < 0 ? 0 : counts_[std::uint32_t(found)];
}

std::uint64_t SpaceSavingTopK::min_count() const noexcept {
  if (size_ < capacity_) return 0;
  return counts_[0];
}

void SpaceSavingTopK::clear() noexcept {
  // Only the occupied positions and slots: the rest are already vacant.
  for (std::uint32_t pos = 0; pos < size_; ++pos) {
    counts_[pos] = kVacantCount;
    table_[records_[pos].idx_slot].heap_pos = -1;
  }
  size_ = 0;
  total_ = 0;
}

}  // namespace ddpm::stream
