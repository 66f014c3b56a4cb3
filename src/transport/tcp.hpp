// Connection-level TCP model: three-way handshake, data, FIN — enough to
// turn the SYN flood from a traffic statistic into an actual denial of
// service.
//
// The paper's §1 example: "TCP SYN flooding attack makes as many TCP
// half-open connections as the victim host is limited to receive" — the
// damage is REFUSED BENIGN CONNECTIONS, not link load. This workload
// module drives real handshakes over a ClusterNetwork:
//
//   client:  SYN  ->            server: backlog slot or refuse (RST-less
//            <- SYN+ACK                  drop, like a listen queue)
//            ACK, data x N ->
//            FIN ->                      completed
//
// Attack SYNs occupy backlog slots; their SYN+ACKs go to the spoofed
// address (backscatter — delivered to an innocent node or unroutable) and
// the slot holds until the handshake timeout. When the backlog is full,
// benign SYNs are refused: the paper's DoS condition, measurable as a
// service-level success rate.
//
// TcpWorkload owns the network's delivery hook; victim-side analyses
// (detectors, identifiers) attach through set_tap.
#pragma once

#include <map>
#include <set>
#include <optional>
#include <unordered_map>

#include "cluster/network.hpp"
#include "marking/scheme.hpp"

namespace ddpm::transport {

using topo::NodeId;

struct TcpConfig {
  /// New benign connections per tick per node (Poisson).
  double connection_rate_per_node = 0.00002;
  std::uint32_t data_packets = 4;
  std::uint32_t data_payload = 512;
  netsim::SimTime handshake_timeout = 50000;
  /// Per-server listen-backlog capacity (half-open slots). The knob the
  /// SYN flood exhausts.
  std::size_t server_backlog = 64;
  /// Client gives up waiting for SYN+ACK after this long.
  netsim::SimTime client_timeout = 100000;
  /// If set, every client dials this server (a cluster service node) —
  /// the configuration where a SYN flood against it is a full outage.
  /// kInvalidNode means clients pick servers uniformly.
  topo::NodeId fixed_server = topo::kInvalidNode;
  std::uint64_t seed = 1;
};

struct TcpStats {
  std::uint64_t attempted = 0;       // benign SYNs sent by clients
  std::uint64_t refused = 0;         // benign SYNs dropped: backlog full
  std::uint64_t established = 0;     // handshakes completed (benign)
  std::uint64_t completed = 0;       // full connections (data + FIN)
  std::uint64_t client_timeouts = 0; // clients that gave up
  std::uint64_t half_open_expired = 0;  // server slots reclaimed by timeout
  std::uint64_t attack_syns = 0;     // attack SYNs absorbed by servers
  std::uint64_t backscatter = 0;     // SYN+ACKs sent to spoofed addresses

  double benign_success_rate() const {
    return attempted ? double(completed) / double(attempted) : 0.0;
  }
};

class TcpWorkload {
 public:
  /// Claims `net`'s delivery hook. Call before net.start().
  TcpWorkload(cluster::ClusterNetwork& net, TcpConfig config);

  /// Schedules the client processes. Call once, before or after
  /// net.start() but before running.
  void start();

  /// Forwarded copy of every delivered packet (for detectors/identifiers).
  void set_tap(cluster::ClusterNetwork::DeliveryHook tap) {
    tap_ = std::move(tap);
  }

  const TcpStats& stats() const noexcept { return stats_; }

  /// Currently pending half-open slots at one server.
  std::size_t half_open(NodeId server) const;

  /// Two-stage reflection tracing (the constructive answer to ablation
  /// A7a). Reflector attacks bounce off innocent servers, so the marks on
  /// the backscatter name reflectors, not attackers — but each reflector
  /// DID receive the triggering SYN, whose own Marking Field names the
  /// zombie. With tracing enabled, every server records the identified
  /// origin of each incoming SYN, keyed by the node the SYN *claimed* to
  /// come from; `trace_reflection(victim)` then returns the true origins
  /// of all SYNs that impersonated the victim — the zombies.
  void enable_reflection_tracing(mark::SourceIdentifier* identifier) {
    syn_tracer_ = identifier;
  }
  std::vector<NodeId> trace_reflection(NodeId victim) const;

 private:
  struct ServerConn {
    NodeId client_node;  // where SYN+ACK goes (claimed source)
    netsim::SimTime opened;
    bool established = false;
  };
  struct ClientConn {
    NodeId server;
    std::uint32_t data_left;
    bool done = false;
  };

  void on_delivery(const pkt::Packet& packet, NodeId at);
  void handle_server(const pkt::Packet& packet, NodeId at);
  void handle_client(const pkt::Packet& packet, NodeId at);
  void open_connection(NodeId client);
  void schedule_client(NodeId client);
  void expire_half_open(NodeId server, netsim::SimTime now);

  pkt::Packet make_segment(NodeId from, NodeId to, std::uint8_t flags,
                           std::uint64_t conn, std::uint32_t payload);

  cluster::ClusterNetwork& net_;
  TcpConfig config_;
  netsim::Rng rng_;
  cluster::ClusterNetwork::DeliveryHook tap_;
  TcpStats stats_;
  std::uint64_t next_conn_ = 1;
  // server -> (connection id -> slot)
  std::unordered_map<NodeId, std::map<std::uint64_t, ServerConn>> servers_;
  // connection id -> client state
  std::unordered_map<std::uint64_t, ClientConn> clients_;
  // reflection tracing: claimed-source node -> true SYN origins seen
  mark::SourceIdentifier* syn_tracer_ = nullptr;
  std::unordered_map<NodeId, std::set<NodeId>> syn_origins_by_claimed_;
};

}  // namespace ddpm::transport
