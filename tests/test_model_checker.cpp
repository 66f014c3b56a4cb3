// Bounded protocol model checker (src/verify/model): suite proofs, the
// lockstep fidelity contract against the real WormholeNetwork, symmetry
// on/off parity, and the disable-escape negative control whose deadlock
// witness must replay on the production engine.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "packet/packet.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"
#include "verify/model/explore.hpp"
#include "verify/model/proto_model.hpp"
#include "verify/model/replay.hpp"
#include "verify/model/suite.hpp"
#include "verify/model/witness.hpp"
#include "wormhole/wormhole.hpp"

namespace {

using namespace ddpm;
using namespace ddpm::verify::model;

TEST(ModelSuite, GridCoversTheRequiredDesignSpace) {
  const auto grid = model_suite_configs();
  ASSERT_GE(grid.size(), 8u);
  bool mesh = false, torus = false, cube = false;
  bool dor = false, adaptive = false, turn = false;
  for (const ModelOptions& opt : grid) {
    mesh |= opt.topology.rfind("mesh:", 0) == 0;
    torus |= opt.topology.rfind("torus:", 0) == 0;
    cube |= opt.topology.rfind("hypercube:", 0) == 0;
    dor |= opt.router == "dor";
    adaptive |= opt.router == "adaptive";
    turn |= opt.router == "west-first" || opt.router == "north-last";
  }
  EXPECT_TRUE(mesh && torus && cube);
  EXPECT_TRUE(dor && adaptive && turn);
}

TEST(ModelSuite, EveryConfigProvesAllFiveProperties) {
  const auto verdicts = run_model_suite();
  ASSERT_GE(verdicts.size(), 8u);
  for (const verify::ModelVerdict& v : verdicts) {
    SCOPED_TRACE(v.topology + " x " + v.router);
    EXPECT_TRUE(v.complete) << "state space truncated at " << v.states;
    EXPECT_TRUE(v.credit_conservation);
    EXPECT_TRUE(v.no_overflow);
    EXPECT_TRUE(v.no_loss);
    EXPECT_TRUE(v.escape_reachable);
    EXPECT_TRUE(v.bounded_progress);
    EXPECT_TRUE(v.pass) << v.note;
    EXPECT_GT(v.states, 0u);
  }
}

// ---------------------------------------------------------------------------
// Fidelity: the abstract model and the real network must agree on the
// protocol projection after EVERY event of a shared schedule. This is the
// contract that entitles model verdicts to speak about the engine.

std::vector<std::string> interleaved_schedule(const ProtoModel& model,
                                              int steps_between) {
  std::vector<std::string> events;
  int pair_index = 0;
  for (std::size_t k = 0; k < model.pairs().size() && k < 4; ++k) {
    const auto [src, dst] = model.pairs()[std::size_t(pair_index)];
    pair_index = (pair_index + 3) % int(model.pairs().size());
    std::ostringstream ev;
    ev << "inject " << src << ' ' << dst;
    events.push_back(ev.str());
    for (int s = 0; s < steps_between; ++s) events.push_back("step");
  }
  for (int s = 0; s < 24; ++s) events.push_back("step");
  return events;
}

void expect_lockstep(const ModelOptions& opt) {
  ProtoModel model(opt);
  const auto topo = topo::make_topology(opt.topology);
  const auto router = route::make_router(opt.router, *topo);
  wormhole::WormholeConfig config;
  config.adaptive_vcs = opt.adaptive_vcs;
  config.buffer_flits = opt.buffer_flits;
  config.disable_escape = opt.disable_escape;
  wormhole::WormholeNetwork net(*topo, *router, nullptr, config);

  const std::uint32_t payload =
      16u * std::uint32_t(opt.flits_per_packet) -
      std::uint32_t(pkt::IpHeader::kWireSize);

  ModelState s = model.initial();
  const auto events = interleaved_schedule(model, 2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& event = events[i];
    if (event == "step") {
      model.step(s);
      net.step();
    } else {
      std::istringstream is(event.substr(7));
      int src = 0, dst = 0;
      is >> src >> dst;
      model.inject(s, src, dst);
      pkt::Packet packet;
      packet.dest_node = topo::NodeId(dst);
      packet.true_source = topo::NodeId(src);
      packet.payload_bytes = payload;
      net.inject(std::move(packet), topo::NodeId(src));
    }
    const ModelProjection want = model.project(s);
    const wormhole::ProtocolSnapshot got = net.snapshot_protocol();
    SCOPED_TRACE("event " + std::to_string(i) + " (" + event + ")");
    ASSERT_EQ(want.occupancy.size(), got.occupancy.size());
    ASSERT_EQ(want.credits.size(), got.credits.size());
    ASSERT_EQ(want.allocated.size(), got.allocated.size());
    EXPECT_EQ(want.occupancy, got.occupancy);
    EXPECT_EQ(want.credits, got.credits);
    EXPECT_EQ(want.allocated, got.allocated);
    EXPECT_EQ(want.flits_in_flight, got.flits_in_flight);
    EXPECT_EQ(want.delivered, got.delivered);
  }
  // The schedule is long enough to drain the whole load: end-to-end
  // agreement, not just prefix agreement.
  EXPECT_EQ(model.project(s).flits_in_flight, 0u);
}

TEST(ModelFidelity, LockstepWithTheEngineAcrossTheSuiteGrid) {
  for (const ModelOptions& opt : model_suite_configs()) {
    SCOPED_TRACE(opt.topology + " x " + opt.router);
    expect_lockstep(opt);
  }
}

// ---------------------------------------------------------------------------
// Symmetry reduction: the quotient is a heuristic speedup and must not
// change any verdict, only the stored-state count.

TEST(ModelSymmetry, QuotientAgreesWithFullSpaceOnVerdicts) {
  for (ModelOptions opt : model_suite_configs()) {
    if (!opt.use_symmetry) continue;
    SCOPED_TRACE(opt.topology + " x " + opt.router);
    ModelOptions full = opt;
    full.use_symmetry = false;
    const ModelCheckResult with = check_model(opt);
    const ModelCheckResult without = check_model(full);
    EXPECT_EQ(with.complete, without.complete);
    EXPECT_EQ(with.all_ok(), without.all_ok());
    EXPECT_EQ(with.violated, without.violated);
    EXPECT_LE(with.states, without.states);
  }
}

// ---------------------------------------------------------------------------
// Negative control: strip the escape layer and ring traffic on a wrap
// torus wedges in the textbook hold-and-wait cycle. The model must convict
// bounded-progress with a deadlock witness, and that witness must replay
// to a real wedged WormholeNetwork (no mutation build needed: the escape
// layer is dropped through the public disable_escape knob).

ModelOptions ring_config() {
  ModelOptions opt;
  opt.topology = "torus:4";
  opt.router = "dor";
  opt.packets = 4;
  opt.allowed_pairs = {{0, 2}, {1, 3}, {2, 0}, {3, 1}};
  return opt;
}

TEST(ModelNegativeControl, EscapeLayerKeepsTheRingLive) {
  const ModelCheckResult healthy = check_model(ring_config());
  EXPECT_TRUE(healthy.complete);
  EXPECT_TRUE(healthy.all_ok()) << healthy.violated << ": " << healthy.detail;
}

TEST(ModelNegativeControl, DisableEscapeConvictsDeadlockAndReplays) {
  ModelOptions opt = ring_config();
  opt.disable_escape = true;
  const ModelCheckResult r = check_model(opt);
  ASSERT_TRUE(r.complete);
  EXPECT_FALSE(r.ok_progress);
  EXPECT_EQ(r.violated, "bounded-progress");
  EXPECT_EQ(r.progress_kind, "deadlock");
  ASSERT_TRUE(r.has_witness);
  EXPECT_EQ(r.witness.property, "bounded-progress");
  EXPECT_FALSE(r.witness.events.empty());
  // The witness JSON is the CI failure artifact; it must carry the full
  // configuration and the event script.
  const std::string json = r.witness.to_json();
  EXPECT_NE(json.find("\"topology\": \"torus:4\""), std::string::npos);
  EXPECT_NE(json.find("\"property\": \"bounded-progress\""), std::string::npos);
  EXPECT_NE(json.find("inject"), std::string::npos);

  const ReplayResult replay = replay_witness(r.witness);
  ASSERT_TRUE(replay.ran) << replay.detail;
  EXPECT_TRUE(replay.reproduced) << replay.detail;
}

// A conviction found under the symmetry quotient still ships an exact
// full-space witness (the wrapper re-explores before building the path).
TEST(ModelNegativeControl, SymmetryConvictionStillYieldsExactWitness) {
  ModelOptions opt = ring_config();
  opt.disable_escape = true;
  opt.use_symmetry = true;
  const ModelCheckResult r = check_model(opt);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.violated, "bounded-progress");
  ASSERT_TRUE(r.has_witness);
  EXPECT_NE(r.note.find("re-explored"), std::string::npos);
  const ReplayResult replay = replay_witness(r.witness);
  ASSERT_TRUE(replay.ran) << replay.detail;
  EXPECT_TRUE(replay.reproduced) << replay.detail;
}

// ---------------------------------------------------------------------------
// Encoding: canonical bytes round-trip the dedup-relevant state exactly.

TEST(ModelEncoding, EncodeDecodeRoundTripsMidFlight) {
  ModelOptions opt;
  opt.topology = "mesh:2x2";
  opt.router = "adaptive";
  opt.packets = 3;
  ProtoModel model(opt);
  ModelState s = model.initial();
  model.inject(s, 0, 3);
  model.step(s);
  model.inject(s, 3, 0);
  model.step(s);
  const std::string bytes = model.encode_state(s);
  const ModelState back = model.decode_state(bytes);
  EXPECT_EQ(model.encode_state(back), bytes);
  const ModelProjection a = model.project(s);
  const ModelProjection b = model.project(back);
  EXPECT_EQ(a.occupancy, b.occupancy);
  EXPECT_EQ(a.credits, b.credits);
  EXPECT_EQ(a.allocated, b.allocated);
  EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
}

TEST(ModelOptionsValidation, RejectsDegenerateBounds) {
  ModelOptions opt;
  opt.flits_per_packet = 1;  // a packet must have a head and a tail flit
  EXPECT_THROW(ProtoModel m(opt), std::invalid_argument);
  opt = ModelOptions{};
  opt.buffer_flits = 0;
  EXPECT_THROW(ProtoModel m(opt), std::invalid_argument);
  opt = ModelOptions{};
  opt.allowed_pairs = {{0, 99}};  // outside the fabric
  EXPECT_THROW(ProtoModel m(opt), std::invalid_argument);
}

}  // namespace
