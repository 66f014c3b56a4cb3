// Flow-record model for trace-driven workloads.
//
// A FlowRecord is the unit the streaming detectors consume: one aggregated
// flow (CIC-DDoS2019 style) rather than one packet. The record deliberately
// carries only integers so a generate → write-CSV → parse round trip is
// byte-exact (no float formatting ambiguity), and it is a DDPM_HOT_STATE
// record: millions of them stream through the sketch update paths per
// replay, so the layout is pinned against silent growth.
//
// `attack` is ground truth for evaluation only — the analyzer in
// src/stream never reads it, mirroring Packet::true_source.
#pragma once

#include <cstdint>

#include "core/hot_path.hpp"
#include "netsim/sim_time.hpp"

namespace ddpm::flow {

struct DDPM_HOT_STATE FlowRecord {
  std::uint32_t src = 0;            // claimed (possibly spoofed) source
  std::uint32_t dst = 0;            // destination address
  std::uint64_t bytes = 0;          // payload volume of the flow
  netsim::SimTime first_ts = 0;     // first packet timestamp (ticks)
  netsim::SimTime last_ts = 0;      // last packet timestamp (ticks)
  // Packet count of the flow: at least 1 in every record streamed to
  // FlowStreamAnalyzer::ingest, which aborts on 0 (the CSV reader rejects
  // such lines). The default 0 marks a record not yet filled in.
  std::uint32_t packets = 0;
  std::uint8_t proto = 17;          // IP protocol number (17 = UDP, 6 = TCP)
  bool attack = false;              // ground truth label (evaluation only)

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};
DDPM_HOT_LAYOUT(FlowRecord, 40, 8);

}  // namespace ddpm::flow
