#include "cluster/switch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/check.hpp"

namespace ddpm::cluster {

std::vector<std::string> telemetry_port_labels(const topo::Topology& topo) {
  std::vector<std::string> labels;
  labels.reserve(std::size_t(topo.num_ports()));
  for (int p = 0; p < topo.num_ports(); ++p) {
    // Built with += (not operator+) to dodge a GCC 12 -O3 -Wrestrict
    // false positive in the const char* + string&& overload.
    std::string label;
    if (topo.kind() == topo::TopologyKind::kHypercube) {
      label += 'd';
      label += std::to_string(p);
    } else {
      const int dim = p / 2;
      label += (p % 2 == 0) ? '-' : '+';
      if (dim < 4) {
        label += "xyzw"[dim];
      } else {
        label += "dim";
        label += std::to_string(dim);
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

/// This switch's ports as the routers' link state: a port is usable when
/// its link exists and has not failed, and its congestion is the packets
/// waiting for it. Another node's links (the oracle's BFS) are answered
/// from the topology and the failure set; no router asks another node's
/// congestion.
class Switch::PortLinks final : public route::LinkStateView {
 public:
  explicit PortLinks(const Switch& sw) : sw_(sw) {}

  bool link_usable(NodeId node, Port port) const override {
    if (node == sw_.id_) {
      return port >= 0 && std::size_t(port) < sw_.ports_.size() &&
             sw_.usable(sw_.ports_[std::size_t(port)]);
    }
    const auto next = sw_.env_->topo->neighbor(node, port);
    return next && (sw_.env_->failures == nullptr ||
                    !sw_.env_->failures->is_failed(node, *next));
  }
  double congestion(NodeId node, Port port) const override {
    DDPM_DCHECK(node == sw_.id_, "congestion asked of another switch");
    return double(sw_.queue_length(port));
  }

 private:
  const Switch& sw_;
};

Switch::Switch(NodeId id, Env* env, netsim::Rng rng)
    : id_(id),
      env_(env),
      rng_(rng),
      rule_(env->router->productive_rule()),
      ports_(std::size_t(env->topo->num_ports())) {
  // Every packet is at least a bare header, so a link starts one at most
  // every min_tx ticks, and each lands link_latency after its
  // serialization ends: at most latency / min_tx + 2 are on it at once.
  const double min_tx = std::max(
      1.0, std::ceil(double(pkt::IpHeader::kWireSize) / env_->link_bandwidth));
  const auto on_link = std::size_t(double(env_->link_latency) / min_tx) + 2;
  for (Port p = 0; p < Port(ports_.size()); ++p) {
    OutputPort& port = ports_[std::size_t(p)];
    port.fifo.reserve(env_->queue_capacity + on_link);
    port.neighbor = env_->topo->neighbor(id_, p).value_or(topo::kInvalidNode);
  }
  // A standalone switch (no registry) has no series to bind.
  if (env_->registry != nullptr) {
    DDPM_CHECK(env_->port_labels != nullptr,
               "a switch with a registry needs the network's port labels");
    probes_.bind(*env_->registry, id_, env_->topo->num_nodes(),
                 *env_->port_labels);
  }
}

void Switch::inject(pkt::Packet&& packet) {
  if (env_->scheme != nullptr) env_->scheme->on_injection(packet, id_);
  handle(std::move(packet), route::kLocalPort);
}

DDPM_HOT void Switch::handle(pkt::Packet&& packet, Port arrived_on) {
  if (packet.dest_node == id_) {
    packet.delivered_at = env_->sim->now();
    probes_.on_local_delivery();
    env_->deliver(std::move(packet), id_);
    return;
  }
  const Port port = select_output(packet.dest_node, arrived_on);
  if (port == kNoPort) {
    ++env_->metrics->dropped_no_route;
    probes_.on_drop_no_route(env_->tracer, id_);
    return;
  }
  if (packet.header.decrement_ttl() == 0) {
    ++env_->metrics->dropped_ttl;
    probes_.on_drop_ttl(env_->tracer, id_);
    return;
  }
  OutputPort& out = ports_[std::size_t(port)];
  if (out.fifo.size() - out.sent >= env_->queue_capacity) {
    ++env_->metrics->dropped_queue_full;
    probes_.on_drop_queue_full(env_->tracer, id_);
    return;
  }
  const NodeId next = out.neighbor;
  if (env_->scheme != nullptr) env_->scheme->on_forward(packet, id_, next);
  ++packet.hops;
  if (!packet.trace.empty()) packet.trace.push_back(next);
  out.fifo.push_back(std::move(packet));
  probes_.on_forward(out.fifo.size() - out.sent);
  start_transmission(port);
}

DDPM_HOT Port Switch::select_output(NodeId dest, Port arrived_on) {
  if (rule_.coords == nullptr) return select_by_router(dest, arrived_on);
  std::uint32_t mask = route::productive_mask(*rule_.coords, id_, dest);
  if (rule_.lowest_only) mask &= ~mask + 1;  // the lowest set bit
  // route::pick over the switch's own ports: ascending, least waiting
  // packets first, and one draw only among several tied ports.
  std::size_t best = 0;
  std::uint32_t tied = 0;
  std::uint64_t ties = 0;
  for (; mask != 0; mask &= mask - 1) {
    const int p = std::countr_zero(mask);
    const OutputPort& out = ports_[std::size_t(p)];
    if (!usable(out)) continue;
    const std::size_t waiting = out.fifo.size() - out.sent;
    if (ties == 0 || waiting < best) {
      best = waiting;
      tied = 0;
      ties = 0;
    }
    if (waiting == best) {
      tied |= std::uint32_t{1} << p;
      ++ties;
    }
  }
  // No usable candidate: the router misroutes (adaptive-misroute) or
  // blocks; its pick draws nothing when nothing is usable.
  if (ties == 0) return select_by_router(dest, arrived_on);
  if (ties > 1) {
    for (std::uint64_t k = rng_.next_below(ties); k != 0; --k) {
      tied &= tied - 1;
    }
  }
  return Port(std::countr_zero(tied));
}

Port Switch::select_by_router(NodeId dest, Port arrived_on) {
  const PortLinks links(*this);
  return env_->router->select_output(id_, dest, arrived_on, links, rng_)
      .value_or(kNoPort);
}

DDPM_HOT void Switch::start_transmission(Port port) {
  OutputPort& out = ports_[std::size_t(port)];
  const netsim::SimTime now = env_->sim->now();
  if (now >= out.free_at) {
    const pkt::Packet& packet = out.fifo[out.sent++];
    const auto tx_ticks = netsim::SimTime(
        // Floating-point divide (bandwidth scaling), not an integer one;
        // the textual frontend cannot type-check the operands.
        std::ceil(double(packet.wire_bytes()) / env_->link_bandwidth));  // ddpm-analyze: allow(hot-no-div)
    out.free_at = now + tx_ticks;
    // The span covers serialization + propagation; both durations are known
    // at schedule time, so one complete event suffices (no open/close pair).
    probes_.on_tx(env_->tracer, id_, std::size_t(port), packet.wire_bytes(),
                  tx_ticks, now, out.free_at + env_->link_latency);
    // The front is the oldest packet on the link. arrive() hands it to the
    // neighbor switch, which never pushes onto this port, so the slot stays
    // put until the pop.
    auto arrival = [this, port]() {
      OutputPort& p = ports_[std::size_t(port)];
      env_->arrive(std::move(p.fifo.front()), id_, p.neighbor);
      p.fifo.pop_front();
      --p.sent;
    };
    static_assert(
        netsim::InlineAction::trivially_destructible<decltype(arrival)>,
        "a fired arrival must free its slot without a destroy call");
    env_->sim->schedule_in(tx_ticks + env_->link_latency, arrival);
  }
  // Packets still wait for the link: one wake at free_at starts the next.
  if (out.sent != out.fifo.size() && !out.wake_pending) {
    out.wake_pending = true;
    auto wake = [this, port]() {
      OutputPort& p = ports_[std::size_t(port)];
      p.wake_pending = false;
      if (p.sent != p.fifo.size()) start_transmission(port);
    };
    static_assert(
        netsim::InlineAction::trivially_destructible<decltype(wake)>,
        "a fired wake must free its slot without a destroy call");
    env_->sim->schedule_at(out.free_at, wake);
  }
}

}  // namespace ddpm::cluster
