// The unit of traffic in the simulator.
//
// A Packet carries a real IPv4-style header (whose source address may be
// spoofed and whose identification field is the Marking Field) plus
// simulation-side bookkeeping. The bookkeeping is split deliberately:
//   * `true_source` is ground truth used ONLY by the evaluation harness to
//     score identification accuracy — no marking scheme or switch reads it.
//   * everything a scheme may legally see is in the header.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/sim_time.hpp"
#include "packet/ip_header.hpp"
#include "topology/topology.hpp"

namespace ddpm::pkt {

/// Traffic classes for the attack/benign models.
enum class TrafficClass : std::uint8_t {
  kBenign,
  kAttackFlood,   // first-generation volumetric DDoS (trinoo/TFN style)
  kAttackSyn,     // TCP SYN half-open flood
  kAttackWorm,    // second-generation worm propagation traffic
};

/// TCP flag bits for the transport model (src/transport). Stored on the
/// packet rather than in a parsed TCP header: the simulator models the
/// handshake, not the byte layout.
namespace tcpflags {
inline constexpr std::uint8_t kSyn = 0x1;
inline constexpr std::uint8_t kAck = 0x2;
inline constexpr std::uint8_t kFin = 0x4;
inline constexpr std::uint8_t kRst = 0x8;
}  // namespace tcpflags

struct Packet {
  IpHeader header;

  /// Simulator-assigned unique id.
  std::uint64_t id = 0;
  /// Flow identifier (generator-assigned); packets of one flow share it.
  std::uint64_t flow = 0;

  /// Ground truth for evaluation only — never consulted by schemes.
  topo::NodeId true_source = topo::kInvalidNode;
  /// Destination node index (switches route on this; paper §4.1 says
  /// switches look up the index for the destination address once).
  topo::NodeId dest_node = topo::kInvalidNode;

  TrafficClass traffic = TrafficClass::kBenign;

  /// tcpflags bits; meaningful only when header.protocol() == kTcp.
  std::uint8_t tcp_flags = 0;

  std::uint32_t payload_bytes = 0;
  netsim::SimTime injected_at = 0;
  netsim::SimTime delivered_at = 0;
  std::uint32_t hops = 0;

  /// Optional per-hop trace of visited nodes, recorded only when a scenario
  /// enables tracing (used by the Figure 3 walk-through bench and tests).
  std::vector<topo::NodeId> trace;

  /// IPv4 record-route option slots (paper §4.2 discusses and dismisses
  /// storing edge information "in the IP additional option"). Each entry
  /// costs 4 wire bytes, capped by the 40-byte IPv4 option space at 9
  /// addresses (RFC 791); see marking/record_route.hpp.
  std::vector<topo::NodeId> route_option;

  std::uint16_t marking_field() const noexcept { return header.identification(); }
  void set_marking_field(std::uint16_t v) noexcept { header.set_identification(v); }

  std::uint32_t wire_bytes() const noexcept {
    // Option bytes ride on the wire: record-route grows the packet by 4
    // bytes per recorded hop (the overhead the paper objects to).
    return std::uint32_t(IpHeader::kWireSize) + payload_bytes +
           4 * std::uint32_t(route_option.size());
  }

  bool is_attack() const noexcept { return traffic != TrafficClass::kBenign; }
};

}  // namespace ddpm::pkt
