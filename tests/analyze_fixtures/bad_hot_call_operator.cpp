// ddpm_analyze fixture: hot rules through call operators, MUST-FLAG case.
// No call site spells `operator()`: a call `x(...)` reaches `T::operator()`
// when `x` is a parameter, a local or a member whose declared type is T or
// an alias of T. Each path below leads to one allocating operator body.
#include <memory>
#include <vector>

#define DDPM_HOT

namespace fx {

class Appender {
 public:
  void operator()(int v) {
    log_.push_back(v);  // ddpm-analyze: expect(hot-no-alloc)
  }

 private:
  std::vector<int> log_;
};

class Boxer {
 public:
  int* operator()(int v) const {
    return new int(v);  // ddpm-analyze: expect(hot-no-alloc)
  }
};

class Pusher {
 public:
  std::unique_ptr<int> operator()(int v) const {
    return std::make_unique<int>(v);  // ddpm-analyze: expect(hot-no-alloc)
  }
};

using Sink = Pusher;

// The member is reached through `.`, behind an attribute and an alias.
struct Cell {
  alignas(16) [[no_unique_address]] Sink sink;
};

DDPM_HOT int hot_emit(Cell& cell, Appender& append, int v) {
  append(v);           // a parameter
  const Boxer box;
  int* boxed = box(v);  // a local
  auto pushed = cell.sink(v);  // a member, through `.`
  const int out = *boxed + *pushed;
  delete boxed;
  return out;
}

}  // namespace fx
