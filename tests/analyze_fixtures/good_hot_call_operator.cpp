// ddpm_analyze fixture: call operators the hot closure does not reach,
// MUST-PASS case. A bare `x(...)` inside a member function resolves `x` in
// that function and its own class only: `Fast::tick` calls its `Clean`
// member, not `Slow`'s allocating one of the same name. An allocating
// callable that hot code declares but never calls, or that only cold code
// calls, stays outside the closure.
#include <memory>

#define DDPM_HOT

namespace fx {

class Clean {
 public:
  int operator()(int v) const { return v + 1; }
};

class Allocating {
 public:
  std::unique_ptr<int> operator()(int v) const {
    return std::make_unique<int>(v);
  }
};

class Fast {
 public:
  DDPM_HOT int tick(int v) const { return step(v); }

 private:
  Clean step;
};

class Slow {
 public:
  int tick(int v) const { return *step(v); }

 private:
  Allocating step;
};

DDPM_HOT int hot_declares_only(int v) {
  const Allocating unused;
  (void)unused;
  const Clean inc;
  return inc(v);
}

}  // namespace fx
