// ddpm_analyze fixture: hot-no-alloc MUST-FLAG case.
// A DDPM_HOT function (and its call-graph closure) may not allocate:
// operator new and allocator allocate calls are flagged directly,
// and container growth is flagged when no dominating reserve() for that
// receiver appears in the file.
#include <memory>
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

DDPM_HOT int hot_tick(std::vector<int>& xs) {
  fill(xs);  // pulls fill() into the hot closure
  int* scratch = new int(3);  // ddpm-analyze: expect(hot-no-alloc)
  int* block = slab(4);
  const int v = *scratch + int(xs.size()) + (block != nullptr);
  std::allocator<int>{}.deallocate(block, 4);
  delete scratch;
  return v;
}

}  // namespace fx
