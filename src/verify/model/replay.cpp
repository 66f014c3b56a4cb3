#include "verify/model/replay.hpp"

#include <cstring>
#include <sstream>
#include <string>

#include "core/model_hooks.hpp"
#include "packet/packet.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"
#include "wormhole/wormhole.hpp"

namespace ddpm::verify::model {

namespace {

/// Extra cycles run past the witness prefix when validating a
/// bounded-progress claim, and the stall threshold that then counts as a
/// real deadlock. Generous against the model's exact cycle counts: a real
/// stuck state stays stuck.
constexpr std::uint64_t kProgressProbeCycles = 1500;
constexpr std::uint64_t kDeadlockStallThreshold = 1000;

int mutation_from_name(const std::string& name) {
  for (int m = 0; m < 4; ++m) {
    if (name == mutation_name(m)) return m;
  }
  return -1;
}

}  // namespace

ReplayResult replay_witness(const ModelWitness& w) {
  ReplayResult result;
  const int mutation = mutation_from_name(w.mutation);
  if (mutation < 0) {
    result.detail = "unknown mutation '" + w.mutation + "'";
    return result;
  }
  if (mutation != int(core::ModelMutation::kNone)) {
#if defined(DDPM_MODEL_MUTATIONS)
    core::set_model_mutation(core::ModelMutation(mutation));
#else
    result.detail =
        "witness names a seeded mutation but this binary was built without "
        "DDPM_MODEL_MUTATIONS";
    return result;
#endif
  }
  if (w.property == "escape-reachability") {
    // Structural property of the routing tables; there is no event
    // sequence to execute.
    result.detail = "escape-reachability is structural; nothing to replay";
    return result;
  }

  const auto topo = topo::make_topology(w.topology);
  const auto router = route::make_router(w.router, *topo);
  wormhole::WormholeConfig config;
  config.adaptive_vcs = w.adaptive_vcs;
  config.buffer_flits = w.buffer_flits;
  config.disable_escape = w.disable_escape;
  wormhole::WormholeNetwork net(*topo, *router, nullptr, config);

  // A packet of exactly flits_per_packet flits: wire bytes are the 20-byte
  // header plus payload, at 16 bytes per flit.
  const std::uint32_t payload = 16u * std::uint32_t(w.flits_per_packet) -
                                std::uint32_t(pkt::IpHeader::kWireSize);

  const bool progress_claim = w.property == "bounded-progress";
  bool violated = false;
  std::string why;
  for (const std::string& event : w.events) {
    if (event == "step") {
      net.step();
    } else if (event.rfind("inject ", 0) == 0) {
      std::istringstream is(event.substr(7));
      int src = -1, dst = -1;
      is >> src >> dst;
      if (src < 0 || dst < 0 || topo::NodeId(src) >= topo->num_nodes() ||
          topo::NodeId(dst) >= topo->num_nodes()) {
        result.detail = "malformed witness event '" + event + "'";
        violated = false;
        break;
      }
      pkt::Packet packet;
      packet.dest_node = topo::NodeId(dst);
      packet.true_source = topo::NodeId(src);
      packet.payload_bytes = payload;
      net.inject(std::move(packet), topo::NodeId(src));
    } else {
      result.detail = "malformed witness event '" + event + "'";
      break;
    }
    if (!progress_claim && !net.check_protocol_invariants(&why)) {
      violated = true;
      break;
    }
  }

  result.ran = true;
  if (progress_claim) {
    const std::uint64_t delivered_before = net.delivered();
    for (std::uint64_t i = 0; i < kProgressProbeCycles; ++i) net.step();
    const bool frozen = net.delivered() == delivered_before;
    const bool wedged =
        net.flits_in_flight() > 0 || net.dropped_ttl() > 0;
    if (w.progress_kind == "deadlock") {
      result.reproduced =
          frozen && net.deadlocked(kDeadlockStallThreshold);
      result.detail = result.reproduced
                          ? "real network deadlocked (no movement, flits "
                            "wedged in flight)"
                          : "real network kept making progress";
    } else {
      result.reproduced = frozen && wedged;
      result.detail = result.reproduced
                          ? "real network livelocked (flits moving, none "
                            "delivered)"
                          : "real network kept making progress";
    }
  } else if (violated) {
    result.reproduced = true;
    result.detail = "real invariant violation: " + why;
  } else if (result.detail.empty()) {
    result.detail = "protocol invariants held on the real network";
  }

#if defined(DDPM_MODEL_MUTATIONS)
  core::set_model_mutation(core::ModelMutation::kNone);
#endif
  return result;
}

}  // namespace ddpm::verify::model
