// Witness replay on the production WormholeNetwork.
//
// The model checker's convictions are claims about an ABSTRACTION; this
// harness closes the loop by executing the witness event sequence on the
// real engine and checking that the claimed failure actually occurs there
// (safety claims via the DDPM_MODEL check_protocol_invariants probe after
// every event, progress claims by running the network on past the prefix
// and observing frozen delivery). A conviction whose witness does not
// reproduce is reported as an unsound abstraction, not as a protocol bug —
// the distinction the suite and the mutation ctests assert on
// (docs/VERIFICATION.md, "witness replay contract").
#pragma once

#include <string>

#include "verify/model/witness.hpp"

namespace ddpm::verify::model {

struct ReplayResult {
  /// False when the witness could not be executed at all (e.g. it names a
  /// seeded mutation and this binary was built without the
  /// DDPM_MODEL_MUTATIONS hooks).
  bool ran = false;
  /// True when the real network exhibited the claimed failure.
  bool reproduced = false;
  std::string detail;
};

/// Replays `w` on a fresh WormholeNetwork built from the witness's own
/// configuration.
ReplayResult replay_witness(const ModelWitness& w);

}  // namespace ddpm::verify::model
