// Hot-path annotations for the static performance auditor.
//
// `tools/ddpm_analyze.py` builds a call graph over the tree and treats
// every function marked DDPM_HOT — plus everything reachable from it —
// as flit-critical: the hot-no-alloc / hot-no-virtual / hot-no-lock /
// hot-no-throw-io rules then prove (statically) that the steady-state
// loop performs no heap allocation, no per-flit virtual dispatch, no
// locking, and no throwing or console I/O. The macros are deliberately
// lexical tokens: the analyzer's textual frontend recognizes them without
// preprocessing or a compiler.
//
// DDPM_HOT            annotates a function *definition* as a hot-path
//                     root (place it before the return type).
// DDPM_COLD           annotates a function *definition* that steady state
//                     never reaches: slab growth past a reservation. The
//                     analyzer leaves it (and what only it calls) out of
//                     the DDPM_HOT closure; the compiler keeps it out of
//                     line and lays out its calls as unlikely. That
//                     steady state never reaches it is checked at run time
//                     by the zero-allocation tests
//                     (tests/test_wormhole_steady_alloc.cpp), not
//                     statically.
// DDPM_HOT_STATE      annotates a struct/class whose layout is
//                     flit-critical (per-flit or per-VC state). Every
//                     DDPM_HOT_STATE type must carry a matching
//                     DDPM_HOT_LAYOUT declaration or the layout-certified
//                     rule fails.
// DDPM_HOT_LAYOUT(T, size, align)
//                     certifies the expected size/alignment of T on the
//                     LP64 reference platform. Expands to a static_assert,
//                     so silent layout drift breaks every build.
//
// Contract-macro interaction: DDPM_CHECK/DDPM_DCHECK bodies live behind
// their macros, so the hot rules never see the (cold, allocation-free)
// abort path — contract checks stay legal in hot code by construction.
#pragma once

#include <cstddef>

#if defined(__clang__)
#define DDPM_HOT __attribute__((annotate("ddpm_hot")))
#define DDPM_HOT_STATE __attribute__((annotate("ddpm_hot_state")))
#define DDPM_COLD [[gnu::cold, gnu::noinline]]
#elif defined(__GNUC__)
#define DDPM_HOT
#define DDPM_HOT_STATE
#define DDPM_COLD [[gnu::cold, gnu::noinline]]
#else
#define DDPM_HOT
#define DDPM_HOT_STATE
#define DDPM_COLD
#endif

// Layout certification only binds on LP64 (the reference platform CI
// runs); other ABIs compile the assertion away rather than fail builds
// the numbers were never written for.
#define DDPM_HOT_LAYOUT(TYPE, SIZE, ALIGN)                                   \
  static_assert(sizeof(void*) != 8 ||                                        \
                    (sizeof(TYPE) == (SIZE) && alignof(TYPE) == (ALIGN)),    \
                "hot-path layout drifted: " #TYPE " (update the "            \
                "DDPM_HOT_LAYOUT declaration deliberately)")
