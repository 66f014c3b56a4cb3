// Allocation-free type-erased callable: the payload of every kernel event.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which put one malloc/free pair on every
// scheduled event. InlineAction stores the callable in a fixed 48-byte
// inline buffer — large enough for every scheduling site in the simulator
// (`this` plus a few scalars) — and *refuses to compile* anything bigger,
// so an accidental fat capture is a build error at the offending call
// site, not a silent allocation. Callables only need to be movable, so
// move-only captures (unique_ptr, Rng by value) work where std::function
// would reject them.
//
// An action moves by an indirect `relocate` (move-construct, then destroy
// the source). A trivially destructible callable (every production
// capture: `this` plus scalars) has a null `destroy`, so dropping it calls
// nothing. The event wheel constructs each action once, in a slot that
// never moves, and invokes it there (netsim/event_wheel.hpp), so relocation
// happens only when a caller takes an action out with EventWheel::pop().
//
// The contract the event queue relies on:
//   * construction, move, destruction never allocate and never throw;
//   * a moved-from InlineAction is empty (operator bool == false);
//   * invoking an empty action is a DCHECK failure, not UB.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "core/check.hpp"

namespace ddpm::netsim {

class InlineAction {
 public:
  /// Inline capture budget. 48 bytes = `this` + five 64-bit scalars, with
  /// headroom; with the ops pointer an action is 56 bytes, so an event
  /// slot (action plus a 4-byte link) fills one 64-byte cache line.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when F can be stored inline (and therefore scheduled at all).
  /// Exposed so call sites and tests can static_assert their captures fit.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  /// True when dropping an F calls nothing (its `destroy` op is null).
  template <typename F>
  static constexpr bool trivially_destructible =
      std::is_trivially_destructible_v<std::decay_t<F>>;

  constexpr InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& f) noexcept(  // NOLINT(google-explicit-constructor)
      std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
    emplace(std::forward<F>(f));
  }

  InlineAction(InlineAction&& other) noexcept { take(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  /// Constructs `f` in this (empty) action's buffer. An InlineAction
  /// rvalue is taken over instead: its callable moves here.
  template <typename F>
  void emplace(F&& f) noexcept(
      std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
    using Fn = std::decay_t<F>;
    DDPM_DCHECK(ops_ == nullptr, "emplace into a non-empty InlineAction");
    if constexpr (std::is_same_v<Fn, InlineAction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "pass an InlineAction by rvalue: it is move-only");
      take(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&>,
                    "InlineAction requires a nullary void() callable");
      static_assert(sizeof(Fn) <= kInlineSize,
                    "capture exceeds InlineAction's 48-byte inline buffer; "
                    "park bulky state (e.g. a Packet) in the owning object "
                    "and capture a handle to it instead");
      static_assert(alignof(Fn) <= kInlineAlign,
                    "capture alignment exceeds InlineAction's buffer");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "InlineAction callables must be nothrow-movable");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kOpsFor<Fn>;
    }
  }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    DDPM_DCHECK(ops_ != nullptr, "invoking an empty InlineAction");
    ops_->invoke(storage_);
  }

 private:
  /// `destroy` is null for trivially destructible callables.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct, then
                                                      // destroy the source
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static Fn* as(void* p) noexcept {
    return std::launder(reinterpret_cast<Fn*>(p));
  }

  template <typename Fn>
  static void do_invoke(void* p) {
    (*as<Fn>(p))();
  }
  template <typename Fn>
  static void do_relocate(void* dst, void* src) noexcept {
    Fn* s = as<Fn>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void do_destroy(void* p) noexcept {
    as<Fn>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOpsFor{
      &do_invoke<Fn>, &do_relocate<Fn>,
      trivially_destructible<Fn> ? nullptr : &do_destroy<Fn>};

  void take(InlineAction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ddpm::netsim
