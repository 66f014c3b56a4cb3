// Mutation-seeded soundness check for the bounded model checker.
//
// This binary links its OWN build of the wormhole engine, compiled with
// DDPM_MODEL_MUTATIONS so the three seeded protocol bugs
// (src/core/model_hooks.hpp) are live at runtime. For each bug the model
// checker must (a) convict the corresponding abstract configuration with a
// concrete witness, and (b) that witness must replay to a real failure on
// the mutated WormholeNetwork. The unmutated control
// must stay clean. A checker that cannot convict a seeded bug, or a
// witness that does not reproduce, is the failure mode this test exists to
// catch (ISSUE satellite: mutation-seeded bug injection).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/model_hooks.hpp"
#include "verify/model/explore.hpp"
#include "verify/model/replay.hpp"
#include "verify/model/witness.hpp"

#ifndef DDPM_MODEL_MUTATIONS
#error "test_model_mutations must be built with DDPM_MODEL_MUTATIONS"
#endif

namespace {

using namespace ddpm;
using namespace ddpm::verify::model;
using core::ModelMutation;

/// A small mesh with the full injection alphabet: the credit-path bugs
/// surface within a couple of cycles of any adjacent flow.
ModelOptions mesh_config(ModelMutation m) {
  ModelOptions opt;
  opt.topology = "mesh:2x2";
  opt.router = "adaptive";
  opt.packets = 2;
  opt.mutation = m;
  return opt;
}

/// Four ring flows on a wrap torus, every packet two hops: the
/// configuration where skipping the escape fallback wedges the network in
/// the textbook hold-and-wait cycle.
ModelOptions ring_config(ModelMutation m) {
  ModelOptions opt;
  opt.topology = "torus:4";
  opt.router = "dor";
  opt.packets = 4;
  opt.allowed_pairs = {{0, 2}, {1, 3}, {2, 0}, {3, 1}};
  opt.mutation = m;
  return opt;
}

void expect_convicted_and_reproduced(const ModelOptions& opt,
                                     const std::string& property,
                                     const std::string& expected_mutation) {
  const ModelCheckResult r = check_model(opt);
  EXPECT_FALSE(r.all_ok()) << "seeded bug escaped the model checker";
  EXPECT_EQ(r.violated, property) << r.detail;
  ASSERT_TRUE(r.has_witness);
  EXPECT_EQ(r.witness.mutation, expected_mutation);
  EXPECT_EQ(r.witness.property, property);
  ASSERT_FALSE(r.witness.events.empty());
  const ReplayResult replay = replay_witness(r.witness);
  ASSERT_TRUE(replay.ran) << replay.detail;
  EXPECT_TRUE(replay.reproduced)
      << "witness did not reproduce on the real mutated network: "
      << replay.detail;
}

TEST(ModelMutations, ControlWithoutMutationStaysClean) {
  const ModelCheckResult mesh = check_model(mesh_config(ModelMutation::kNone));
  EXPECT_TRUE(mesh.complete);
  EXPECT_TRUE(mesh.all_ok()) << mesh.violated << ": " << mesh.detail;
  const ModelCheckResult ring = check_model(ring_config(ModelMutation::kNone));
  EXPECT_TRUE(ring.complete);
  EXPECT_TRUE(ring.all_ok()) << ring.violated << ": " << ring.detail;
}

TEST(ModelMutations, DroppedCreditReturnConvictsCreditConservation) {
  expect_convicted_and_reproduced(
      mesh_config(ModelMutation::kDropCreditReturn), "credit-conservation",
      "drop-credit-return");
}

TEST(ModelMutations, BufferOffByOneConvictsTheCreditLedger) {
  // The off-by-one sender believes in one buffer slot that does not exist.
  // The shortest reachable symptom is a conservation break (the phantom
  // credit is restored on ejection before occupancy can exceed the bound),
  // which is exactly what the exhaustive search convicts first.
  expect_convicted_and_reproduced(mesh_config(ModelMutation::kBufferOffByOne),
                                  "credit-conservation", "buffer-off-by-one");
}

TEST(ModelMutations, SkippedEscapeFallbackConvictsDeadlock) {
  const ModelOptions opt = ring_config(ModelMutation::kSkipEscapeFallback);
  const ModelCheckResult r = check_model(opt);
  EXPECT_FALSE(r.ok_progress);
  EXPECT_EQ(r.violated, "bounded-progress");
  EXPECT_EQ(r.progress_kind, "deadlock");
  ASSERT_TRUE(r.has_witness);
  EXPECT_EQ(r.witness.mutation, "skip-escape-fallback");
  const ReplayResult replay = replay_witness(r.witness);
  ASSERT_TRUE(replay.ran) << replay.detail;
  EXPECT_TRUE(replay.reproduced) << replay.detail;
  // The same ring with the escape fallback intact drains (the mutation —
  // not the configuration — is what the checker convicts).
  const ModelCheckResult healthy = check_model(ring_config(ModelMutation::kNone));
  EXPECT_TRUE(healthy.all_ok());
}

TEST(ModelMutations, WitnessNamesTheMutationInJson) {
  const ModelCheckResult r =
      check_model(mesh_config(ModelMutation::kDropCreditReturn));
  ASSERT_TRUE(r.has_witness);
  EXPECT_NE(r.witness.to_json().find("\"mutation\": \"drop-credit-return\""),
            std::string::npos);
}

}  // namespace
