// Differential test of the dense switch telemetry: telemetry::SwitchProbes
// (rows of counter and histogram families whose keys are built in key
// order at snapshot) against the per-series binding it replaced
// (tests/per_series_switch_probes.hpp), driven by one random stream of
// on_forward, on_tx and on_local_delivery calls. The two registries'
// snapshots must render the same JSON and CSV:
//   * over 1,005 switch ids, so ids past 9, 99 and 999 meet both key
//     terminators (`}` after a switch-only label, `,` before a port);
//   * with the port labels of torus:4x4, mesh:3x3x3 and hypercube:11
//     (`d0`…`d10`, where `d10}` sorts before `d1}`);
//   * with queue depths 0, 63, 64 (the first overflow) and 10^6;
//   * with every switch bound and with a random subset bound;
//   * after reset(), and after MetricsSnapshot::merge of two runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/switch.hpp"
#include "netsim/rng.hpp"
#include "per_series_switch_probes.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/registry.hpp"
#include "topology/factory.hpp"

#if DDPM_TELEMETRY_ENABLED

namespace ddpm {
namespace {

constexpr std::uint32_t kSwitches = 1005;

/// The first line where `a` and `b` differ, for a readable failure.
std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t line_start = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      const auto line = [&](const std::string& s) {
        return s.substr(line_start, s.find('\n', i) - line_start);
      };
      return "\n  families: " + line(a) + "\n  reference: " + line(b);
    }
    if (a[i] == '\n') line_start = i + 1;
  }
  return "\n  one rendering is a prefix of the other (" +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " bytes)";
}

void expect_same(const telemetry::MetricsSnapshot& families,
                 const telemetry::MetricsSnapshot& reference,
                 const char* when) {
  EXPECT_EQ(families.series(), reference.series()) << when;
  const std::string fj = families.to_json();
  const std::string rj = reference.to_json();
  EXPECT_TRUE(fj == rj) << when << " (JSON)" << first_difference(fj, rj);
  const std::string fc = families.to_csv();
  const std::string rc = reference.to_csv();
  EXPECT_TRUE(fc == rc) << when << " (CSV)" << first_difference(fc, rc);
}

/// One registry per binding, each switch bound on both, fed the same calls.
struct Pair {
  telemetry::Registry families;
  telemetry::Registry reference;
  std::vector<std::uint32_t> ids;
  std::vector<telemetry::SwitchProbes> probes;
  std::vector<reference::PerSeriesSwitchProbes> oracles;

  Pair(const std::vector<std::string>& labels, std::vector<std::uint32_t> bound)
      : ids(std::move(bound)), probes(ids.size()), oracles(ids.size()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      probes[i].bind(families, ids[i], kSwitches, labels);
      oracles[i].bind(reference, ids[i], labels);
    }
  }

  /// `calls` random probe calls; a port one past the last is ignored by
  /// both.
  void drive(netsim::Rng& rng, std::size_t ports, int calls) {
    static constexpr std::size_t kDepths[] = {0, 63, 64, 1000000};
    for (int c = 0; c < calls; ++c) {
      const std::size_t i = rng.next_below(ids.size());
      switch (rng.next_below(3)) {
        case 0:
          probes[i].on_local_delivery();
          oracles[i].on_local_delivery();
          break;
        case 1: {
          const std::size_t depth = rng.next_bool(0.25)
                                        ? kDepths[rng.next_below(4)]
                                        : rng.next_below(70);
          probes[i].on_forward(depth);
          oracles[i].on_forward(depth);
          break;
        }
        default: {
          const std::size_t port = rng.next_below(ports + 1);
          const std::uint64_t bytes = 20 + rng.next_below(1500);
          const std::uint64_t busy = rng.next_below(2000);
          probes[i].on_tx(nullptr, ids[i], port, bytes, busy, 0, 0);
          oracles[i].on_tx(port, bytes, busy);
          break;
        }
      }
    }
  }
};

std::vector<std::uint32_t> shuffled_ids(netsim::Rng& rng, bool subset) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < kSwitches; ++id) {
    if (!subset || rng.next_bool(0.4)) ids.push_back(id);
  }
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  return ids;
}

class SwitchProbesDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SwitchProbesDifferential, SnapshotsMatchThePerSeriesBinding) {
  const auto topo = topo::make_topology(GetParam());
  const std::vector<std::string> labels = cluster::telemetry_port_labels(*topo);
  netsim::Rng rng(0x5eed0f5eULL ^ labels.size());

  Pair all(labels, shuffled_ids(rng, false));
  expect_same(all.families.snapshot(), all.reference.snapshot(), "bound");
  EXPECT_EQ(all.families.size(), all.reference.size());

  all.drive(rng, labels.size(), 40000);
  const telemetry::MetricsSnapshot first = all.families.snapshot();
  const telemetry::MetricsSnapshot first_ref = all.reference.snapshot();
  expect_same(first, first_ref, "driven");

  all.families.reset();
  all.reference.reset();
  expect_same(all.families.snapshot(), all.reference.snapshot(), "reset");

  all.drive(rng, labels.size(), 40000);
  const telemetry::MetricsSnapshot second = all.families.snapshot();
  expect_same(second, all.reference.snapshot(), "driven after reset");

  Pair some(labels, shuffled_ids(rng, true));
  some.drive(rng, labels.size(), 20000);
  const telemetry::MetricsSnapshot partial = some.families.snapshot();
  const telemetry::MetricsSnapshot partial_ref = some.reference.snapshot();
  expect_same(partial, partial_ref, "a subset bound");

  // Same shapes merge element-wise; a subset merges key by key.
  telemetry::MetricsSnapshot merged = first;
  merged.merge(second);
  merged.merge(partial);
  telemetry::MetricsSnapshot merged_ref = first_ref;
  merged_ref.merge(all.reference.snapshot());
  merged_ref.merge(partial_ref);
  expect_same(merged, merged_ref, "merged");
}

INSTANTIATE_TEST_SUITE_P(PortLabels, SwitchProbesDifferential,
                         ::testing::Values("torus:4x4", "mesh:3x3x3",
                                           "hypercube:11"));

}  // namespace
}  // namespace ddpm

#endif  // DDPM_TELEMETRY_ENABLED
