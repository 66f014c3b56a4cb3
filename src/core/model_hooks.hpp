// Model-checker annotations and the compile-time mutation hook.
//
// DDPM_MODEL marks the cold, side-effect-free surface the bounded protocol
// model checker (src/verify/model, docs/VERIFICATION.md) relies on: state
// snapshot accessors and invariant probes on the production WormholeNetwork
// that the witness-replay harness calls between cycles. The annotation is a
// lexical token (like DDPM_HOT) so the contract is greppable and the
// analyzer can see it without preprocessing; it expands to
// nothing — annotated members are ordinary cold methods.
//
// DDPM_MODEL_MUTATION(kind) is the negative-control hook: it seeds known
// protocol bugs (a dropped credit return, an off-by-one buffer bound, a
// skipped escape-VC fallback) at the exact points in the wormhole engine
// where the real bug class would live. In ordinary builds the macro is the
// constant `false`, so the hot path compiles byte-identically to a tree
// without the hook (the wormhole_steps floor in BENCH_kernel.json pins
// this). Only a translation unit compiled with -DDDPM_MODEL_MUTATIONS
// (tests/test_model_mutations.cpp builds its own copy of wormhole.cpp that
// way) pays the runtime check, selected through set_model_mutation().
//
// The same ModelMutation enum parameterizes the abstract stepping model
// (verify::model::ModelOptions::mutation), which is how the ctest proves
// the loop closes: seed the bug in both the model and the real network,
// model-check to a conviction + witness, replay the witness on the real
// network, and require the real failure to reproduce.
#pragma once

namespace ddpm::core {

/// Seeded protocol bugs for the model checker's negative controls.
enum class ModelMutation {
  kNone = 0,
  /// return_credit becomes a no-op: the downstream pop never refills the
  /// upstream output VC (violates credit conservation, then wedges).
  kDropCreditReturn,
  /// Switch traversal treats zero credits as "one more slot" — the classic
  /// off-by-one in the stall comparison — overflowing the downstream
  /// buffer past its depth.
  kBufferOffByOne,
  /// VC allocation gives up when the adaptive candidates are exhausted
  /// instead of falling back to the escape VC (reintroduces the
  /// hold-and-wait deadlock the escape layer exists to break).
  kSkipEscapeFallback,
};

#if defined(DDPM_MODEL_MUTATIONS)

/// Process-wide selected mutation (mutation-enabled builds only; the test
/// binary is single-threaded by construction).
inline ModelMutation g_model_mutation = ModelMutation::kNone;

inline void set_model_mutation(ModelMutation m) noexcept {
  g_model_mutation = m;
}
inline ModelMutation active_model_mutation() noexcept {
  return g_model_mutation;
}

#define DDPM_MODEL_MUTATION(kind) \
  (::ddpm::core::active_model_mutation() == ::ddpm::core::ModelMutation::kind)

#else

#define DDPM_MODEL_MUTATION(kind) false

#endif

}  // namespace ddpm::core

/// Marks a cold method as part of the model checker's snapshot/replay
/// contract. Annotation only — expands to nothing on every compiler.
#define DDPM_MODEL
