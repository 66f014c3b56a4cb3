// FNV-1a fingerprints for the golden tests: one hash for every pinned text,
// and the masked scenario-report digest the pipeline goldens pin.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/report_json.hpp"
#include "core/sis.hpp"

namespace ddpm::golden {

/// 64-bit FNV-1a of `text`: a compact fingerprint that makes failures easy
/// to report and compare across machines.
inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of `to_json(config, report)` with the telemetry snapshot cleared,
/// so the JSON reads `"telemetry_series": 0`. It pins what the pipeline did
/// (routes, marks, what was named and when) and holds with the probes
/// compiled in or out; the series count is asserted on its own.
inline std::uint64_t masked_report_digest(const core::ScenarioConfig& config,
                                          core::ScenarioReport report) {
  report.telemetry = {};
  return fnv1a(core::to_json(config, report));
}

}  // namespace ddpm::golden
