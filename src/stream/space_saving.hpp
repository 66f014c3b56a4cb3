// Space-Saving top-K heavy-hitter summary (Metwally, Agrawal & El Abbadi).
//
// Tracks at most `capacity` candidate keys with guaranteed bounds:
//
//   count(k) - error(k) <= true count(k) <= count(k)      (monitored keys)
//   any key with true count > N / capacity is monitored    (N = stream weight)
//
// Implementation: a 4-ary min-heap over the monitored counts plus a
// linear-probing open-addressing index with backward-shift deletion, all in
// one preallocated block. offer() is DDPM_HOT: zero allocation, no virtual
// dispatch, no locking, no hardware division (power-of-two table masks,
// constant heap arity).
//
// The heap is split: counts live in their own array, laid out so that each
// family of four children is one aligned 32-byte group, and every position
// past size() holds a max-count sentinel, so a sink compares whole families
// with one select tournament. Key, error bound and index slot live in a
// parallel 16-byte record that a heap move copies only when the entry
// actually moves. Records and index slots carry reciprocal positions, so
// every heap move, eviction and backward shift is O(1) pointer maintenance.
// An index slot holds the heap position and the key's home slot (a probe
// compares the key in the record): offer() hashes once, and the backward
// shift of an eviction never rehashes.
//
// Query-side helpers (top(), estimate()) are cold and may allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hot_path.hpp"

namespace ddpm::stream {

/// A monitored key's record, parallel to its heap count. `idx_slot` is the
/// key's slot in the probing table (kept in sync by heap moves), so
/// evictions never search.
struct DDPM_HOT_STATE SsRecord {
  std::uint64_t error = 0;
  std::uint32_t key = 0;
  std::uint32_t idx_slot = 0;
};
DDPM_HOT_LAYOUT(SsRecord, 16, 8);

/// One probing-table slot; heap_pos < 0 means empty. The key itself is in
/// the record at heap_pos. `home` is the slot the key hashes to, where its
/// probe chain starts.
struct DDPM_HOT_STATE SsIndexSlot {
  std::int32_t heap_pos = -1;
  std::uint32_t home = 0;
};
DDPM_HOT_LAYOUT(SsIndexSlot, 8, 4);

class SpaceSavingTopK {
 public:
  struct Item {
    std::uint32_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  SpaceSavingTopK(std::uint32_t capacity, std::uint64_t seed);

  /// Feeds `w` >= 1 occurrences of `key` into the summary.
  DDPM_HOT void offer(std::uint32_t key, std::uint64_t w = 1) noexcept;

  /// The k heaviest monitored keys, sorted by count descending (key
  /// ascending on ties — deterministic output for reports).
  std::vector<Item> top(std::size_t k) const;

  /// The single heaviest monitored key without allocating (linear scan of
  /// the summary); a zero-count Item while the summary is empty.
  Item top1() const noexcept;

  /// Monitored count for `key`; 0 when the key is not monitored. An upper
  /// bound on the true count (true >= estimate - error of that entry).
  std::uint64_t estimate(std::uint32_t key) const noexcept;

  /// Smallest monitored count — the eviction threshold; also the maximum
  /// undercount of any UNmonitored key. 0 while the summary has room.
  std::uint64_t min_count() const noexcept;

  std::uint64_t total() const noexcept { return total_; }
  std::size_t size() const noexcept { return size_; }
  std::uint32_t capacity() const noexcept { return capacity_; }

  /// The arrays in the block: padded counts, probing table and records.
  std::size_t memory_bytes() const noexcept { return block_bytes_; }

  void clear() noexcept;

 private:
  static constexpr std::uint32_t kArity = 4;
  /// Counts sit this many slots into the block, so the family of position
  /// p (4p + 1 .. 4p + 4) starts on a 32-byte boundary.
  static constexpr std::uint32_t kCountLead = kArity - 1;
  static constexpr std::size_t kBlockAlign = kArity * sizeof(std::uint64_t);

  DDPM_HOT std::uint32_t home(std::uint32_t key) const noexcept;
  /// The heap position of `key`, probing from its home `h`; -1 if absent.
  DDPM_HOT std::int32_t locate(std::uint32_t key,
                               std::uint32_t h) const noexcept;
  /// Claims a table slot for a key with home `h`; place() then fills it.
  DDPM_HOT std::uint32_t claim(std::uint32_t h) noexcept;
  /// Removes table slot `t` with backward-shift compaction.
  DDPM_HOT void vacate(std::uint32_t t) noexcept;
  /// Moves the entry at `pos`, whose count is now `count`, down/up to where
  /// heap order holds. Its record stays at `pos` until the entry moves.
  DDPM_HOT void sink(std::uint32_t pos, std::uint64_t count) noexcept;
  DDPM_HOT void swim(std::uint32_t pos, std::uint64_t count) noexcept;
  /// Writes `rec` at heap position `pos` and points its index slot there.
  DDPM_HOT void place(std::uint32_t pos, const SsRecord& rec) noexcept;

  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  std::uint32_t table_mask_;  // table size - 1 (power of two)
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  std::size_t block_bytes_ = 0;
  std::unique_ptr<std::byte[]> block_;  // kBlockAlign bytes of slack
  std::uint64_t* counts_ = nullptr;  // heap position p at counts_[p]
  SsRecord* records_ = nullptr;      // heap position p at records_[p]
  SsIndexSlot* table_ = nullptr;     // linear probing, backward-shift delete
};

/// Feeds `entries` (each with a `key` and a `weight`) to `top` in order,
/// as at most two offers per maximal run of equal keys. The first may
/// insert or evict; after it the key is monitored, so the second, carrying
/// the rest of the run's weight, is a hit. Merging the run's hits is exact:
/// a hit's sink follows the first-minimum child at each level, a path that
/// does not depend on the moving count, so two sinks stop where one sink
/// with the summed count stops. (Merging the whole run into the first
/// offer is not exact: an insert swims up less far with a larger count.)
template <class Entry>
void offer_runs(SpaceSavingTopK& top,
                const std::vector<Entry>& entries) noexcept {
  for (std::size_t i = 0; i < entries.size();) {
    const std::uint32_t key = entries[i].key;
    top.offer(key, entries[i].weight);
    std::uint64_t rest = 0;
    for (++i; i < entries.size() && entries[i].key == key; ++i) {
      rest += entries[i].weight;
    }
    if (rest > 0) top.offer(key, rest);
  }
}

}  // namespace ddpm::stream
