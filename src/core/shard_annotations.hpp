// Shard-safety and determinism annotations for the static taint analyzer.
//
// Sharding one run across worker threads with a deterministic cross-shard
// merge (parked on ROADMAP; `--jobs` parallelizes whole replications
// instead) would need its central invariant — sharded output
// byte-identical to serial — proven before the engine exists.
// `tools/ddpm_analyze.py` builds an interprocedural call
// graph over the tree and uses these annotations as the taint vocabulary
// for four rules (det-taint, shard-isolation, rng-stream-discipline,
// tick-domain; see docs/STATIC_ANALYSIS.md). Like DDPM_HOT, the macros
// are deliberately lexical tokens: the analyzer's textual frontend
// recognizes them without preprocessing or a compiler.
//
// DDPM_DET_SOURCE     annotates a function whose result (or scheduling
//                     effect) depends on the execution environment —
//                     thread count, thread identity, address layout —
//                     rather than on the seeded simulation state. Calls
//                     to it from any determinism-sink closure are
//                     det-taint findings unless explicitly allowed.
// DDPM_DET_SINK       annotates a function whose output must be
//                     byte-reproducible (snapshot/merge/report/JSON/
//                     digest emitters). Result-path-named functions
//                     (to_json, snapshot, merge, ...) are sinks by
//                     naming convention already; the annotation extends
//                     the sink set to names the convention cannot see.
// DDPM_SHARD_MERGE    annotates the function that folds per-shard state
//                     into the global answer. It is the only sanctioned
//                     crossing point for DDPM_SHARD_STATE on a sink
//                     path, and its own call-graph closure must be
//                     det-taint-clean.
// DDPM_SHARD_STATE    annotates a data member that is logically
//                     partitioned per worker shard. The analyzer flags
//                     (a) any touch from outside the owning class and
//                     (b) any sink-path touch outside a DDPM_SHARD_MERGE
//                     closure.
//
// WindowIndex is the integer domain for "which aggregation window",
// distinct from netsim::SimTime ("which tick"). The tick-domain rule
// flags additive/comparison arithmetic mixing the two; explicit
// SimTime(...)/WindowIndex(...) construction is the sanctioned
// conversion.
#pragma once

#include <cstdint>

#if defined(__clang__)
#define DDPM_SHARD_STATE __attribute__((annotate("ddpm_shard_state")))
#define DDPM_SHARD_MERGE __attribute__((annotate("ddpm_shard_merge")))
#define DDPM_DET_SOURCE __attribute__((annotate("ddpm_det_source")))
#define DDPM_DET_SINK __attribute__((annotate("ddpm_det_sink")))
#elif defined(__GNUC__)
#define DDPM_SHARD_STATE
#define DDPM_SHARD_MERGE
#define DDPM_DET_SOURCE
#define DDPM_DET_SINK
#else
#define DDPM_SHARD_STATE
#define DDPM_SHARD_MERGE
#define DDPM_DET_SOURCE
#define DDPM_DET_SINK
#endif

namespace ddpm::core {

// Window ordinal within a streaming run: record.first_ts / window_len.
// A distinct alias (not a strong type yet) so the tick-domain rule can
// tell window arithmetic from tick arithmetic by declared type.
using WindowIndex = std::uint64_t;

}  // namespace ddpm::core
