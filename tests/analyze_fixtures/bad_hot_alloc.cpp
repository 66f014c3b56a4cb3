// ddpm_analyze fixture: hot-no-alloc MUST-FLAG case.
// A DDPM_HOT function (and its call-graph closure) may not allocate:
// operator new (`new (std::nothrow)` included) and allocator allocate
// calls are flagged directly, and container growth is flagged when no
// dominating reserve() for that receiver appears in the file. A member
// whose head ends in `noexcept(expr)` and whose body branches with
// `if constexpr` is still a function the hot rules reach.
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#define DDPM_HOT

namespace fx {

void fill(std::vector<int>& xs) {
  xs.push_back(1);  // ddpm-analyze: expect(hot-no-alloc)
}

int* slab(std::size_t n) {
  int* p = std::allocator<int>{}.allocate(n);  // ddpm-analyze: expect(hot-no-alloc)
  return p;
}

class Slot {
 public:
  template <typename T>
  void emplace(T&& value) noexcept(
      std::is_nothrow_constructible_v<std::decay_t<T>, T&&>) {
    using V = std::decay_t<T>;
    if constexpr (sizeof(V) <= sizeof(buf_)) {
      ::new (static_cast<void*>(buf_)) V(std::forward<T>(value));
    } else {
      spill_ = new V(std::forward<T>(value));  // ddpm-analyze: expect(hot-no-alloc)
    }
  }

 private:
  void* spill_ = nullptr;
  alignas(8) unsigned char buf_[16];
};

DDPM_HOT int hot_tick(std::vector<int>& xs, Slot& slot) {
  fill(xs);  // pulls fill() into the hot closure
  slot.emplace(xs.size());  // pulls Slot::emplace in
  int* spare = new (std::nothrow) int(5);  // ddpm-analyze: expect(hot-no-alloc)
  delete spare;
  int* scratch = new int(3);  // ddpm-analyze: expect(hot-no-alloc)
  int* block = slab(4);
  const int v = *scratch + int(xs.size()) + (block != nullptr);
  std::allocator<int>{}.deallocate(block, 4);
  delete scratch;
  return v;
}

}  // namespace fx
