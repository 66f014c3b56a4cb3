// ddpm_analyze fixture: hot-no-alloc MUST-PASS case.
// Growth calls whose receiver is reserve()d in the same file are
// slab-backed in steady state (the reserve-dominates heuristic), and
// allocation in functions outside the hot closure is free to stay: a
// function that is never called from hot code, and a DDPM_COLD growth
// step that hot code calls only past its reservation. Placement new
// constructs in storage that already exists, and a `bool(n)` cast is not
// a call of some class's `operator bool`.
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#define DDPM_HOT
#define DDPM_COLD

namespace fx {

void warm_up(std::vector<int>& xs) {
  // Not reachable from any DDPM_HOT function: allocation is fine here.
  int* scratch = new int(7);
  xs.push_back(*scratch);
  delete scratch;
}

struct Pool {
  int* slots = nullptr;
  std::size_t used = 0;
  std::size_t capacity = 0;
};

DDPM_COLD void grow(Pool& pool) {
  // Cold: out of the hot closure, with everything only it calls.
  const std::size_t bigger = 2 * pool.capacity + 4;
  int* fresh = std::allocator<int>{}.allocate(bigger);
  for (std::size_t i = 0; i < pool.used; ++i) fresh[i] = pool.slots[i];
  if (pool.slots != nullptr) {
    std::allocator<int>{}.deallocate(pool.slots, pool.capacity);
  }
  pool.slots = fresh;
  pool.capacity = bigger;
}

class Slot {
 public:
  template <typename T>
  void emplace(T&& value) noexcept(
      std::is_nothrow_constructible_v<std::decay_t<T>, T&&>) {
    using V = std::decay_t<T>;
    static_assert(sizeof(V) <= sizeof(buf_));
    ::new (static_cast<void*>(buf_)) V(std::forward<T>(value));
    used_ = true;
  }

  explicit operator bool() const noexcept {
    // Never reached from hot code: a conversion operator is not named
    // `bool`, so the cast in hot_tick() does not pull it in.
    static int* debug_copy = new int(0);
    return used_ && debug_copy != nullptr;
  }

 private:
  alignas(8) unsigned char buf_[16];
  bool used_ = false;
};

DDPM_HOT int hot_tick(std::vector<int>& xs, Pool& pool, Slot& slot) {
  xs.reserve(16);
  xs.push_back(1);  // reserve() above dominates: no finding
  if (pool.used == pool.capacity) grow(pool);
  pool.slots[pool.used++] = 1;
  slot.emplace(pool.used);  // placement new into the slot's buffer
  return int(xs.size()) + bool(pool.used);
}

}  // namespace fx
