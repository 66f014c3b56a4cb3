// Ablation A7 — adversaries that outflank source identification.
//
// Two attacks the paper's threat model does not cover, measured against
// the full pipeline:
//   (a) Reflection: zombies SYN random servers with the victim's spoofed
//       address; the SYN+ACK backscatter floods the victim. Marking
//       truthfully names the REFLECTORS — blocking them is whack-a-mole
//       against innocents while the zombies rotate to fresh reflectors.
//   (b) Pulsing (shrew): on/off bursts tuned against the EWMA detector's
//       half-life delay or fully evade detection while still delivering
//       most of the flood.
#include <algorithm>
#include <set>

#include "bench_util.hpp"
#include "detect/detector.hpp"
#include "marking/ddpm.hpp"
#include "stream/detectors.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace ddpm;

void reflector() {
  bench::banner("A7a: reflector attack — whack-a-mole against innocents");
  cluster::ClusterConfig config;
  config.topology = "mesh:8x8";
  config.router = "adaptive";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0;
  config.seed = 2;
  cluster::ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kReflector;
  attack.victim = 27;
  attack.zombies = {3, 40, 59};
  attack.rate_per_zombie = 0.002;
  attack.start_time = 0;
  net.set_attack(attack);
  transport::TcpConfig tcp;
  tcp.connection_rate_per_node = 0.0;
  transport::TcpWorkload workload(net, tcp);

  // Naive mitigation: block whatever DDPM names on backscatter packets.
  mark::DdpmIdentifier identifier(net.topology());
  std::set<topo::NodeId> blocked;
  std::uint64_t backscatter_at_victim = 0;
  workload.set_tap([&](const pkt::Packet& p, topo::NodeId at) {
    if (at != attack.victim || !(p.tcp_flags & pkt::tcpflags::kAck)) return;
    ++backscatter_at_victim;
    const auto named = identifier.observe(p, at);
    if (named.size() == 1 && !blocked.count(named.front())) {
      net.filter().block_source_node(named.front());
      blocked.insert(named.front());
    }
  });
  net.start();
  workload.start();

  bench::Table t({"time", "backscatter at victim", "nodes blocked",
                  "innocents blocked", "zombies blocked"});
  for (netsim::SimTime when = 100000; when <= 600000; when += 100000) {
    net.run_until(when);
    std::size_t innocents = 0, zombies = 0;
    for (auto n : blocked) {
      if (std::count(attack.zombies.begin(), attack.zombies.end(), n)) {
        ++zombies;
      } else {
        ++innocents;
      }
    }
    t.row(when, backscatter_at_victim, blocked.size(), innocents, zombies);
  }
  t.print();
  std::cout << "Marking is telling the truth — each SYN+ACK really came\n"
               "from the reflector it names — but the blocking policy ends\n"
               "up quarantining essentially the whole cluster (60 innocents\n"
               "here) while the orchestrating zombies never send the victim\n"
               "a byte under their own address. The attacker has weaponized\n"
               "the mitigation. Tracing the zombies requires correlating at\n"
               "the REFLECTORS, whose DDPM marks on the incoming SYNs do\n"
               "name them.\n";
}

void pulsing() {
  bench::banner("A7b: pulsing flood vs the EWMA rate detector");
  auto run = [](netsim::SimTime period, double duty) {
    cluster::ClusterConfig config;
    config.topology = "mesh:8x8";
    config.benign_rate_per_node = 0.0002;
    config.seed = 9;
    cluster::ClusterNetwork net(config);
    attack::AttackConfig attack;
    attack.kind = attack::AttackKind::kUdpFlood;
    attack.victim = 27;
    attack.zombies = {3, 40, 59};
    attack.rate_per_zombie = 0.004;
    attack.start_time = 50000;
    attack.pulse_period = period;
    attack.pulse_duty = duty;
    net.set_attack(attack);
    detect::RateThresholdDetector ewma(0.006, 4000);
    stream::CusumDetector cusum(/*window=*/2000, /*benign_mean=*/0.45,
                                /*slack=*/1.0, /*threshold=*/25.0);
    net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
      if (at != 27) return;
      ewma.observe(p, net.sim().now());
      cusum.observe(p, net.sim().now());
    });
    net.start();
    net.run_until(600000);
    return std::make_tuple(ewma.alarm_time(), cusum.alarm_time(),
                           net.metrics().delivered_attack);
  };
  bench::Table t({"pulse period", "duty", "attack delivered",
                  "EWMA detects", "CUSUM detects"});
  struct Case { netsim::SimTime period; double duty; };
  for (const Case c : {Case{0, 1.0}, Case{40000, 0.5}, Case{16000, 0.25},
                       Case{8000, 0.1}, Case{4000, 0.05}}) {
    const auto [ewma_alarm, cusum_alarm, delivered] = run(c.period, c.duty);
    auto show = [](const std::optional<netsim::SimTime>& alarm) {
      if (!alarm) return std::string("NEVER (evaded)");
      std::string out = "+";
      out += std::to_string(*alarm - 50000);
      out += " ticks";
      return out;
    };
    t.row(c.period == 0 ? "continuous" : std::to_string(c.period),
          c.duty, delivered, show(ewma_alarm), show(cusum_alarm));
  }
  t.print();
  std::cout << "Short low-duty bursts deliver a thinner flood but stay\n"
               "under the EWMA threshold — the §6.1 detection assumption\n"
               "is where this pipeline is attackable, not identification.\n"
               "The classic fix, also implemented: CUSUM ratchets across\n"
               "bursts instead of decaying between them.\n";
}

void two_stage() {
  bench::banner("A7c: two-stage reflection tracing (the constructive fix)");
  cluster::ClusterConfig config;
  config.topology = "mesh:8x8";
  config.router = "adaptive";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0;
  config.seed = 2;
  cluster::ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kReflector;
  attack.victim = 27;
  attack.zombies = {3, 40, 59};
  attack.rate_per_zombie = 0.002;
  attack.start_time = 0;
  net.set_attack(attack);
  transport::TcpConfig tcp;
  tcp.connection_rate_per_node = 0.00002;
  transport::TcpWorkload workload(net, tcp);
  mark::DdpmIdentifier identifier(net.topology());
  workload.enable_reflection_tracing(&identifier);
  net.start();
  workload.start();

  bench::Table t({"time", "zombies traced", "innocents accused"});
  for (netsim::SimTime when = 20000; when <= 100000; when += 20000) {
    net.run_until(when);
    const auto traced = workload.trace_reflection(attack.victim);
    std::size_t zombies = 0, innocents = 0;
    for (auto n : traced) {
      if (std::count(attack.zombies.begin(), attack.zombies.end(), n)) {
        ++zombies;
      } else {
        ++innocents;
      }
    }
    t.row(when, std::to_string(zombies) + "/" +
                    std::to_string(attack.zombies.size()),
          innocents);
  }
  t.print();
  std::cout << "Every server records the DDPM-identified origin of each\n"
               "incoming SYN keyed by its CLAIMED source. Asking 'who has\n"
               "been impersonating the victim?' names exactly the zombies —\n"
               "within the first seconds of the attack, zero innocents.\n"
               "Marking is sufficient for reflection attacks too, provided\n"
               "the correlation happens where the forged packets land.\n";
}

}  // namespace

int main() {
  reflector();
  two_stage();
  pulsing();
  return 0;
}
