// Ablation A3 — the detection stage the paper assumes (§6.1).
//
// Identification is only as fast as detection. This bench sweeps attack
// intensity and compares the detectors' time-to-alarm and their benign
// false-alarm behavior: the EWMA rate detector, the source-entropy
// detector (spoofing makes entropy spike), and the SYN half-open counter.
#include <optional>

#include "bench_util.hpp"
#include "cluster/network.hpp"
#include "detect/detector.hpp"
#include "stream/detectors.hpp"

namespace {

using namespace ddpm;

struct AlarmTimes {
  std::optional<netsim::SimTime> rate, entropy, syn;
};

AlarmTimes run(double attack_rate, attack::AttackKind kind) {
  cluster::ClusterConfig config;
  config.topology = "mesh:8x8";
  config.router = "adaptive";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0003;
  config.seed = 31337;
  cluster::ClusterNetwork net(config);

  attack::AttackConfig attack;
  attack.kind = kind;
  attack.victim = 27;
  attack.zombies = {1, 14, 40, 62};
  attack.rate_per_zombie = attack_rate;
  attack.spoof = attack::SpoofStrategy::kRandomAny;
  attack.start_time = 150000;
  net.set_attack(attack);

  detect::RateThresholdDetector rate(0.005, 2000);
  // Benign baseline: ~63 distinct sources over a 256-packet window gives
  // ~5.9 bits; random-any spoofing drives the window toward 8 bits.
  stream::SketchDetectorTuning entropy_tuning;
  entropy_tuning.entropy_window = 256;
  entropy_tuning.entropy_low_bits = 0.5;
  entropy_tuning.entropy_high_bits = 6.8;
  stream::SketchEntropyDetector entropy(entropy_tuning);
  detect::SynHalfOpenDetector syn(64, 50000);
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    if (at != attack.victim) return;
    const auto now = net.sim().now();
    rate.observe(p, now);
    entropy.observe(p, now);
    syn.observe(p, now);
  });
  net.start();
  net.run_until(500000);
  return {rate.alarm_time(), entropy.alarm_time(), syn.alarm_time()};
}

std::string latency(std::optional<netsim::SimTime> alarm,
                    netsim::SimTime start) {
  if (!alarm) return "no alarm";
  if (*alarm < start) return "FALSE ALARM (pre-attack)";
  std::string out = "+";
  out += std::to_string(*alarm - start);
  out += " ticks";
  return out;
}

}  // namespace

int main() {
  constexpr netsim::SimTime kStart = 150000;

  bench::banner("A3: detection latency vs UDP-flood intensity (alarm after attack start)");
  {
    bench::Table t({"rate/zombie", "EWMA rate", "source entropy",
                    "SYN half-open"});
    for (const double rate : {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02}) {
      const auto a = run(rate, attack::AttackKind::kUdpFlood);
      t.row(rate, latency(a.rate, kStart), latency(a.entropy, kStart),
            latency(a.syn, kStart));
    }
    t.print();
    std::cout << "SYN counter stays silent on UDP floods (by design);\n"
                 "entropy fires when spoofed-source diversity floods the\n"
                 "window; EWMA needs the rate to clear its threshold.\n";
  }

  bench::banner("A3b: SYN flood — the half-open counter's home turf");
  {
    bench::Table t({"rate/zombie", "EWMA rate", "source entropy",
                    "SYN half-open"});
    for (const double rate : {0.0005, 0.002, 0.01}) {
      const auto a = run(rate, attack::AttackKind::kSynFlood);
      t.row(rate, latency(a.rate, kStart), latency(a.entropy, kStart),
            latency(a.syn, kStart));
    }
    t.print();
  }

  bench::banner("A3c: benign-only run (false-alarm check, 500k ticks)");
  {
    const auto a = run(0.0, attack::AttackKind::kNone);
    bench::Table t({"EWMA rate", "source entropy", "SYN half-open"});
    t.row(a.rate ? "FALSE ALARM" : "quiet",
          a.entropy ? "FALSE ALARM" : "quiet",
          a.syn ? "FALSE ALARM" : "quiet");
    t.print();
  }
  return 0;
}
