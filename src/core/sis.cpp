#include "core/sis.hpp"

#include <sstream>
#include <stdexcept>

#include "marking/ddpm.hpp"
#include "marking/dpm.hpp"
#include "marking/ppm.hpp"
#include "marking/ppm_fragment.hpp"
#include "marking/ppm_reconstruct.hpp"
#include "routing/dor.hpp"

namespace ddpm::core {

std::unique_ptr<mark::SourceIdentifier> make_identifier(
    const std::string& name, const topo::Topology& topo, topo::NodeId victim,
    std::uint8_t initial_ttl) {
  if (name == "none") return nullptr;
  if (name == "ddpm") return std::make_unique<mark::DdpmIdentifier>(topo);
  if (name == "dpm") {
    // DPM's victim trains against the deterministic routes it assumes the
    // network uses (paper §4.3).
    const route::DimensionOrderRouter trained(topo);
    const mark::DpmScheme scheme;
    return std::make_unique<mark::DpmIdentifier>(topo, trained, victim, scheme,
                                                 initial_ttl);
  }
  if (name == "ppm-full") {
    return std::make_unique<mark::PpmIdentifier>(topo, mark::PpmVariant::kFullEdge);
  }
  if (name == "ppm-xor") {
    return std::make_unique<mark::PpmIdentifier>(topo, mark::PpmVariant::kXor);
  }
  if (name == "ppm-bitdiff") {
    return std::make_unique<mark::PpmIdentifier>(topo, mark::PpmVariant::kBitDiff);
  }
  if (name == "ppm-fragment") {
    return std::make_unique<mark::FragmentPpmIdentifier>(topo);
  }
  throw std::invalid_argument("make_identifier: unknown identifier '" + name + "'");
}

SourceIdentificationSystem::SourceIdentificationSystem(ScenarioConfig config)
    : config_(std::move(config)),
      network_(std::make_unique<cluster::ClusterNetwork>(config_.cluster)),
      detector_(stream::make_detector(config_.detector,
                                      config_.detect_rate_threshold,
                                      config_.detect_half_life,
                                      config_.detect_tuning)),
      rng_(config_.cluster.seed ^ 0xdddd5ULL) {
  if (config_.attack.kind != attack::AttackKind::kNone &&
      config_.attack.kind != attack::AttackKind::kWorm &&
      config_.attack.victim >= network_->topology().num_nodes()) {
    throw std::invalid_argument("SourceIdentificationSystem: bad victim");
  }
  identifier_ = make_identifier(config_.identifier, network_->topology(),
                                config_.attack.victim,
                                config_.cluster.initial_ttl);
  report_.true_sources.insert(config_.attack.zombies.begin(),
                              config_.attack.zombies.end());
  probes_.bind(network_->registry());
  network_->set_attack(config_.attack);
  network_->set_delivery_hook(
      [this](const pkt::Packet& p, topo::NodeId at) { on_delivery(p, at); });
}

void SourceIdentificationSystem::set_tracer(telemetry::Tracer* tracer) {
  network_->set_tracer(tracer);
  probes_.attach(tracer);
}

void SourceIdentificationSystem::on_delivery(const pkt::Packet& packet,
                                             topo::NodeId at) {
  if (observer_) observer_(packet, at);
  if (at != config_.attack.victim) return;
  const netsim::SimTime now = network_->sim().now();

  detector_->observe(packet, now);
  if (!detector_->alarmed()) return;
  if (!report_.detection_time) {
    report_.detection_time = detector_->alarm_time();
    probes_.on_detector_firing(config_.attack.victim);
  }

  // Post-detection classification: which delivered packets get traced. A
  // perfect classifier hands over exactly the attack packets; the
  // false-positive knob hands over some benign ones too (ablation).
  const bool suspect =
      packet.is_attack() ||
      (config_.classifier_false_positive_rate > 0.0 &&
       rng_.next_bool(config_.classifier_false_positive_rate));
  if (!suspect || identifier_ == nullptr) return;

  if (packet.is_attack()) {
    if (any_block_installed_) {
      ++report_.attack_delivered_after_block;
    } else {
      ++report_.attack_delivered_before_block;
    }
  }

  ++suspect_packets_;
  const std::vector<topo::NodeId> candidates = identifier_->observe(packet, at);
  probes_.on_identify(candidates.size());
  if (candidates.size() != 1) return;  // ambiguous or not yet known
  const topo::NodeId named = candidates.front();

  IdentificationEvent event;
  event.when = now;
  event.identified = named;
  event.true_source = packet.true_source;
  event.correct = report_.true_sources.count(named) != 0;
  const bool fresh = report_.identified_sources.insert(named).second;
  if (fresh) {
    report_.identifications.push_back(event);
    probes_.on_identification(named, event.correct);
    if (event.correct) {
      ++report_.true_positives;
      if (report_.packets_to_first_identification == 0) {
        report_.packets_to_first_identification = suspect_packets_;
      }
    } else {
      ++report_.false_positives;
    }
    if (config_.auto_block) {
      network_->filter().block_source_node(named);
      report_.blocked_sources.insert(named);
      any_block_installed_ = true;
      probes_.on_block(named);
    }
  }
}

ScenarioReport SourceIdentificationSystem::run() {
  if (ran_) throw std::logic_error("SourceIdentificationSystem::run: called twice");
  ran_ = true;
  network_->start();
  network_->run_until(config_.duration);
  probes_.on_run_end(double(detector_->memory_bytes()));
  report_.metrics = network_->metrics();
  report_.telemetry = network_->telemetry_snapshot();
  return report_;
}

std::string ScenarioReport::summary() const {
  std::ostringstream os;
  os << metrics.summary() << '\n';
  os << "detection: "
     << (detection_time ? std::to_string(*detection_time) + " ticks" : "never")
     << '\n';
  os << "identified " << identified_sources.size() << "/"
     << true_sources.size() << " sources (" << true_positives
     << " correct, " << false_positives << " innocent); first correct after "
     << packets_to_first_identification << " traced packets\n";
  os << "attack packets at victim: " << attack_delivered_before_block
     << " before first block, " << attack_delivered_after_block << " after";
  return os.str();
}

}  // namespace ddpm::core
