// Runtime contract macros for hot invariants.
//
// The DDPM reproduction's headline claim — one marked packet identifies the
// true source — rests on bit-exact 16-bit field arithmetic and deterministic
// event ordering. A silently corrupted invariant does not crash; it quietly
// skews Tables 1-3. These macros make invariant violations loud:
//
//   DDPM_CHECK(cond)         always on, including Release. For invariants
//                            whose violation corrupts results (time going
//                            backwards, out-of-range coordinates) and whose
//                            cost is negligible relative to the operation.
//   DDPM_DCHECK(cond)        debug/sanitizer builds only; compiled out under
//                            NDEBUG (overridable with DDPM_ENABLE_DCHECKS).
//                            For per-element checks on hot paths.
//   DDPM_CHECK_MSG(cond, m)  DDPM_CHECK with a message built at run time
//                            (`m.c_str()`), for cold registration checks.
//   DDPM_UNREACHABLE(msg)    marks impossible control flow; always fatal.
//
// Both CHECK forms accept an optional string-literal message:
//   DDPM_CHECK(when >= last, "event scheduled in the simulated past");
//
// On failure the macro prints `<kind> failure: <expr> (<message>) at
// file:line` to stderr and aborts, which gtest death tests and sanitizer
// log scrapers both recognise. The header is dependency-free and
// header-only so every layer (netsim upward) can include it without a link
// edge to ddpm_core.
#pragma once

#include <cstdio>  // ddpm-lint: allow(header-io) — the abort path must not allocate
#include <cstdlib>

namespace ddpm::core::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* message, const char* file,
                                          int line) noexcept {
  if (message != nullptr && message[0] != '\0') {
    std::fprintf(stderr,  // ddpm-lint: allow(src-no-console) — abort path
                 "%s failure: %s (%s) at %s:%d\n", kind, expr, message,
                 file, line);
  } else {
    std::fprintf(stderr,  // ddpm-lint: allow(src-no-console) — abort path
                 "%s failure: %s at %s:%d\n", kind, expr, file, line);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace ddpm::core::detail

// `"" __VA_ARGS__` concatenates the optional message literal with an empty
// literal, so both DDPM_CHECK(x) and DDPM_CHECK(x, "msg") compile; it also
// rejects non-literal messages at compile time, keeping the failure path
// allocation-free.
#define DDPM_CHECK(cond, ...)                                            \
  (static_cast<bool>(cond)                                               \
       ? static_cast<void>(0)                                            \
       : ::ddpm::core::detail::contract_failure(                         \
             "DDPM_CHECK", #cond, "" __VA_ARGS__, __FILE__, __LINE__))

// DDPM_CHECK_MSG(cond, message) is the form for a cold check whose message
// must name run-time values (a key, a shape): `message` is any expression
// with `.c_str()`, such as a std::string, and is built only on failure, so
// this form may allocate on its way to the abort.
#define DDPM_CHECK_MSG(cond, message)                                    \
  (static_cast<bool>(cond)                                               \
       ? static_cast<void>(0)                                            \
       : ::ddpm::core::detail::contract_failure(                         \
             "DDPM_CHECK", #cond, (message).c_str(), __FILE__, __LINE__))

#ifndef DDPM_ENABLE_DCHECKS
#ifdef NDEBUG
#define DDPM_ENABLE_DCHECKS 0
#else
#define DDPM_ENABLE_DCHECKS 1
#endif
#endif

#if DDPM_ENABLE_DCHECKS
#define DDPM_DCHECK(cond, ...)                                           \
  (static_cast<bool>(cond)                                               \
       ? static_cast<void>(0)                                            \
       : ::ddpm::core::detail::contract_failure(                         \
             "DDPM_DCHECK", #cond, "" __VA_ARGS__, __FILE__, __LINE__))
#else
// Unevaluated sizeof keeps `cond`'s variables odr-used (no -Wunused fallout)
// while generating no code.
#define DDPM_DCHECK(cond, ...) \
  (static_cast<void>(sizeof(static_cast<bool>(cond) ? 1 : 0)))
#endif

#define DDPM_UNREACHABLE(msg)                                            \
  ::ddpm::core::detail::contract_failure("DDPM_UNREACHABLE", "reached",  \
                                         msg, __FILE__, __LINE__)
