// core::RingBuffer element lifetime: slots are raw storage, so a push
// move-constructs the element once, a pop destroys it once, and nothing
// is ever default-constructed or assigned over a live slot.
#include "core/ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace ddpm::core {
namespace {

struct Counts {
  int constructed = 0;  // value and move constructions
  int destroyed = 0;
  int assigned = 0;
  int live() const { return constructed - destroyed; }
};

/// Counts its constructions, destructions and assignments; has no default
/// constructor, so a ring that default-builds slots does not compile.
class Counted {
 public:
  Counted(int value, Counts* counts) : value_(value), counts_(counts) {
    ++counts_->constructed;
  }
  Counted(Counted&& other) noexcept
      : value_(other.value_), counts_(other.counts_) {
    ++counts_->constructed;
    other.value_ = -1;
  }
  Counted& operator=(Counted&& other) noexcept {
    ++counts_->assigned;
    value_ = other.value_;
    return *this;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++counts_->destroyed; }

  int value() const { return value_; }

 private:
  int value_;
  Counts* counts_;
};

TEST(RingBuffer, PushConstructsOnceAndPopDestroysOnce) {
  Counts counts;
  RingBuffer<Counted> ring;
  ring.reserve(4);
  Counted item(7, &counts);
  counts = Counts{};
  ring.push_back(std::move(item));
  EXPECT_EQ(counts.constructed, 1);
  EXPECT_EQ(counts.destroyed, 0);
  EXPECT_EQ(counts.assigned, 0);
  EXPECT_EQ(ring.front().value(), 7);

  counts = Counts{};
  ring.pop_front();
  EXPECT_EQ(counts.constructed, 0);
  EXPECT_EQ(counts.destroyed, 1);
  EXPECT_EQ(counts.assigned, 0);
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, PopReleasesWhatTheElementOwns) {
  RingBuffer<std::shared_ptr<int>> ring;
  auto owned = std::make_shared<int>(3);
  const std::weak_ptr<int> watch = owned;
  ring.push_back(std::move(owned));
  ring.push_back(std::make_shared<int>(4));
  EXPECT_FALSE(watch.expired());
  ring.pop_front();
  EXPECT_TRUE(watch.expired());  // at the pop, not when the slot is reused
  EXPECT_EQ(*ring.front(), 4);
}

TEST(RingBuffer, GrowthAcrossTheWrapKeepsOrder) {
  Counts counts;
  RingBuffer<Counted> ring;
  ring.reserve(4);
  int next = 0;
  // Advance the head so the live elements straddle the end of the slab.
  for (int i = 0; i < 3; ++i) ring.push_back(Counted(next++, &counts));
  ring.pop_front();
  ring.pop_front();
  int expect = 2;  // the oldest live element
  for (int i = 0; i < 3; ++i) ring.push_back(Counted(next++, &counts));
  EXPECT_EQ(ring.capacity(), 4u);  // full, wrapped
  ring.push_back(Counted(next++, &counts));  // grows
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 6; ++i) ring.push_back(Counted(next++, &counts));
  EXPECT_EQ(ring.size(), std::size_t(next - expect));
  EXPECT_EQ(counts.live(), int(ring.size()));
  EXPECT_EQ(counts.assigned, 0);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].value(), expect + int(i));
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.front().value(), expect++);
    ring.pop_front();
  }
  EXPECT_EQ(counts.live(), 0);
}

TEST(RingBuffer, ClearAndTheDestructorDestroyWhatRemains) {
  Counts counts;
  {
    RingBuffer<Counted> ring;
    for (int i = 0; i < 5; ++i) ring.push_back(Counted(i, &counts));
    ring.pop_front();
    ring.clear();
    EXPECT_EQ(counts.live(), 0);
    EXPECT_TRUE(ring.empty());
    EXPECT_GE(ring.capacity(), 5u);  // the slab stays
    for (int i = 0; i < 3; ++i) ring.push_back(Counted(i, &counts));
    EXPECT_EQ(ring.front().value(), 0);
    EXPECT_EQ(counts.live(), 3);
  }
  EXPECT_EQ(counts.live(), 0);
  EXPECT_EQ(counts.assigned, 0);
}

TEST(RingBuffer, MoveOnlyElementsAndMovingTheRing) {
  RingBuffer<std::unique_ptr<int>> ring;
  for (int i = 0; i < 6; ++i) ring.push_back(std::make_unique<int>(i));
  ring.pop_front();
  RingBuffer<std::unique_ptr<int>> moved(std::move(ring));
  EXPECT_TRUE(ring.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.size(), 5u);
  std::vector<RingBuffer<std::unique_ptr<int>>> rings;
  rings.push_back(std::move(moved));
  rings.emplace_back();  // relocates the first ring
  std::vector<int> seen;
  while (!rings[0].empty()) {
    seen.push_back(*rings[0].front());
    rings[0].pop_front();
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace ddpm::core
