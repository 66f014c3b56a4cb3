#include "transport/tcp.hpp"

namespace ddpm::transport {

using pkt::tcpflags::kAck;
using pkt::tcpflags::kFin;
using pkt::tcpflags::kSyn;

TcpWorkload::TcpWorkload(cluster::ClusterNetwork& net, TcpConfig config)
    : net_(net), config_(config), rng_(config.seed ^ 0x7c9ULL) {
  net_.set_delivery_hook([this](const pkt::Packet& p, NodeId at) {
    on_delivery(p, at);
  });
}

void TcpWorkload::start() {
  if (config_.connection_rate_per_node <= 0.0) return;
  for (NodeId n = 0; n < net_.topology().num_nodes(); ++n) {
    schedule_client(n);
  }
}

void TcpWorkload::schedule_client(NodeId client) {
  const auto wait = netsim::SimTime(rng_.next_exponential(
                        config_.connection_rate_per_node)) + 1;
  net_.sim().schedule_in(wait, [this, client]() {
    open_connection(client);
    schedule_client(client);
  });
}

pkt::Packet TcpWorkload::make_segment(NodeId from, NodeId to,
                                      std::uint8_t flags, std::uint64_t conn,
                                      std::uint32_t payload) {
  pkt::Packet p;
  p.header = pkt::IpHeader(net_.addresses().address_of(from),
                           net_.addresses().address_of(to), pkt::IpProto::kTcp,
                           std::uint16_t(payload));
  p.header.set_ttl(net_.config().initial_ttl);
  p.true_source = from;
  p.dest_node = to;
  p.traffic = pkt::TrafficClass::kBenign;
  p.tcp_flags = flags;
  p.flow = conn;
  p.payload_bytes = payload;
  p.injected_at = net_.sim().now();
  return p;
}

void TcpWorkload::open_connection(NodeId client) {
  NodeId server;
  if (config_.fixed_server != topo::kInvalidNode) {
    server = config_.fixed_server;
    if (server == client) return;  // the service node dials nobody
  } else {
    // Pick a server other than ourselves.
    const NodeId n = net_.topology().num_nodes();
    server = NodeId(rng_.next_below(n - 1));
    if (server >= client) ++server;
  }
  const std::uint64_t conn = next_conn_++;
  clients_[conn] = ClientConn{server, config_.data_packets, false};
  ++stats_.attempted;
  net_.inject(make_segment(client, server, kSyn, conn, 40), client);
  // Client-side give-up timer.
  net_.sim().schedule_in(config_.client_timeout, [this, conn]() {
    auto it = clients_.find(conn);
    if (it != clients_.end() && !it->second.done) {
      ++stats_.client_timeouts;
      clients_.erase(it);
    }
  });
}

void TcpWorkload::expire_half_open(NodeId server, netsim::SimTime now) {
  auto& table = servers_[server];
  for (auto it = table.begin(); it != table.end();) {
    if (!it->second.established &&
        it->second.opened + config_.handshake_timeout <= now) {
      ++stats_.half_open_expired;
      it = table.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpWorkload::on_delivery(const pkt::Packet& packet, NodeId at) {
  if (tap_) tap_(packet, at);
  if (packet.header.protocol() != pkt::IpProto::kTcp) return;
  if (packet.tcp_flags & kSyn) {
    if (packet.tcp_flags & kAck) {
      handle_client(packet, at);
    } else {
      handle_server(packet, at);
    }
    return;
  }
  // ACK / data / FIN all land at the server.
  handle_server(packet, at);
}

void TcpWorkload::handle_server(const pkt::Packet& packet, NodeId at) {
  const netsim::SimTime now = net_.sim().now();
  auto& table = servers_[at];
  if (packet.tcp_flags == kSyn) {
    expire_half_open(at, now);
    const bool attack = packet.is_attack();
    if (attack) ++stats_.attack_syns;
    // Reflection tracing: remember who actually sent this SYN, keyed by
    // whoever it claims to be. If that claimed node later reports a
    // backscatter flood, the recorded origins are the attackers.
    if (syn_tracer_ != nullptr) {
      const auto claimed_node =
          net_.addresses().node_of(packet.header.source());
      const auto origins = syn_tracer_->observe(packet, at);
      if (claimed_node && origins.size() == 1) {
        syn_origins_by_claimed_[*claimed_node].insert(origins.front());
      }
    }
    if (table.size() >= config_.server_backlog) {
      // Listen queue full: silently refuse (no RST in this model).
      if (!attack) ++stats_.refused;
      return;
    }
    // The server answers whatever source the SYN *claims*. For spoofed
    // SYNs that is backscatter to an innocent (or unroutable) address.
    const auto claimed = net_.addresses().node_of(packet.header.source());
    ServerConn conn;
    conn.client_node = claimed.value_or(topo::kInvalidNode);
    conn.opened = now;
    table[packet.flow] = conn;
    if (!claimed.has_value()) {
      ++stats_.backscatter;  // unroutable spoof: nothing to send
      return;
    }
    if (attack) ++stats_.backscatter;
    net_.inject(make_segment(at, *claimed, kSyn | kAck, packet.flow, 40), at);
    return;
  }
  const auto it = table.find(packet.flow);
  if (it == table.end()) return;  // late segment for a reclaimed slot
  if (packet.tcp_flags == kAck && !it->second.established) {
    it->second.established = true;
    ++stats_.established;
    return;
  }
  if (packet.tcp_flags & kFin) {
    if (it->second.established) ++stats_.completed;
    table.erase(it);
  }
  // Bare data segments need no server action in this model.
}

void TcpWorkload::handle_client(const pkt::Packet& packet, NodeId at) {
  // SYN+ACK. Backscatter from spoofed attack SYNs arrives at innocent
  // nodes that never opened the connection: they ignore it.
  const auto it = clients_.find(packet.flow);
  if (it == clients_.end() || it->second.done) return;
  ClientConn& conn = it->second;
  // Accept only the server we dialed (by its honest header address).
  if (net_.addresses().node_of(packet.header.source()) != conn.server) return;
  // Complete the handshake, stream the data, close.
  net_.inject(make_segment(at, conn.server, kAck, packet.flow, 40), at);
  for (std::uint32_t i = 0; i < conn.data_left; ++i) {
    net_.inject(make_segment(at, conn.server, 0, packet.flow,
                             config_.data_payload),
                at);
  }
  net_.inject(make_segment(at, conn.server, kFin, packet.flow, 40), at);
  conn.done = true;
}

std::vector<NodeId> TcpWorkload::trace_reflection(NodeId victim) const {
  const auto it = syn_origins_by_claimed_.find(victim);
  if (it == syn_origins_by_claimed_.end()) return {};
  std::vector<NodeId> out;
  for (const NodeId origin : it->second) {
    // A SYN whose marking-identified origin matches its claimed source is
    // honest traffic (the victim's own connections), not impersonation.
    if (origin != victim) out.push_back(origin);
  }
  return out;
}

std::size_t TcpWorkload::half_open(NodeId server) const {
  const auto it = servers_.find(server);
  if (it == servers_.end()) return 0;
  std::size_t count = 0;
  for (const auto& [conn, slot] : it->second) count += !slot.established;
  return count;
}

}  // namespace ddpm::transport
