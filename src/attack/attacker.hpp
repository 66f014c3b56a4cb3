// DDoS attack scenario descriptions (paper §1).
//
// First-generation attacks (trinoo / Tribe Flood Network style): a set of
// compromised "zombie" nodes floods a victim with spoofed packets — either
// raw UDP volume or TCP SYNs that pin half-open connections. Second-
// generation attacks (Code Red / Nimda style worms): infection spreads by
// random scanning and traffic grows exponentially with the infected
// population. The cluster model executes these configs; this header only
// describes them.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/spoof.hpp"
#include "netsim/rng.hpp"
#include "netsim/sim_time.hpp"
#include "packet/packet.hpp"
#include "topology/topology.hpp"

namespace ddpm::attack {

enum class AttackKind {
  kNone,
  kUdpFlood,   // volumetric flood at the victim
  kSynFlood,   // TCP SYN half-open flood at the victim
  kWorm,       // random-scanning worm; no single victim
  kReflector,  // SYNs to random nodes with the victim's spoofed address:
               // the reflectors' SYN+ACK backscatter converges on the
               // victim, and marking identifies reflectors, not zombies
};

std::string to_string(AttackKind kind);

struct AttackConfig {
  AttackKind kind = AttackKind::kNone;

  /// Initially compromised nodes (zombies; for the worm, patient zero(s)).
  std::vector<topo::NodeId> zombies;

  /// Flood target (ignored by the worm).
  topo::NodeId victim = topo::kInvalidNode;

  /// Mean attack packets per tick per attacking node (Poisson process).
  double rate_per_zombie = 0.01;

  SpoofStrategy spoof = SpoofStrategy::kRandomCluster;

  /// Attack window; the worm keeps spreading after start until stopped.
  netsim::SimTime start_time = 0;
  netsim::SimTime stop_time = ~netsim::SimTime{0};

  std::uint32_t payload_bytes = 64;

  /// Pulsing (shrew-style) attack: when pulse_period > 0 the zombies only
  /// inject during the first pulse_duty fraction of each period, dodging
  /// rate detectors tuned to sustained floods (ablation A7).
  netsim::SimTime pulse_period = 0;
  double pulse_duty = 0.5;

  /// Worm only: scans per tick per infected node, and the time a hit takes
  /// to turn a clean node into a scanner (infection latency).
  double worm_scan_rate = 0.005;
  netsim::SimTime worm_incubation = 500;
};

/// Picks `count` distinct zombies uniformly, excluding the victim.
std::vector<topo::NodeId> pick_zombies(const topo::Topology& topo,
                                       std::size_t count, topo::NodeId victim,
                                       netsim::Rng& rng);

}  // namespace ddpm::attack
