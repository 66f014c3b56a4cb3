#include "trace/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/parse_number.hpp"

namespace ddpm::trace {

TraceRecord TraceRecord::from_packet(const pkt::Packet& packet,
                                     topo::NodeId at) {
  TraceRecord r;
  r.time = packet.delivered_at;
  r.delivered_at = at;
  r.claimed_source = packet.header.source();
  r.dest_address = packet.header.destination();
  r.marking_field = packet.marking_field();
  r.protocol = std::uint8_t(packet.header.protocol());
  r.tcp_flags = packet.tcp_flags;
  r.traffic_class = std::uint8_t(packet.traffic);
  r.hops = packet.hops;
  r.flow = packet.flow;
  r.true_source = packet.true_source;
  return r;
}

const char* TraceWriter::header() {
  return "time,delivered_at,claimed_source,dest_address,marking_field,"
         "protocol,tcp_flags,traffic_class,hops,flow,true_source";
}

TraceWriter::TraceWriter(std::ostream& out) : out_(out) {
  out_ << header() << '\n';
}

void TraceWriter::record(const pkt::Packet& packet, topo::NodeId at) {
  record(TraceRecord::from_packet(packet, at));
}

void TraceWriter::record(const TraceRecord& r) {
  out_ << r.time << ',' << r.delivered_at << ',' << r.claimed_source << ','
       << r.dest_address << ',' << r.marking_field << ','
       << unsigned(r.protocol) << ',' << unsigned(r.tcp_flags) << ','
       << unsigned(r.traffic_class) << ',' << r.hops << ',' << r.flow << ','
       << r.true_source << '\n';
  ++count_;
}

namespace {

std::vector<std::uint64_t> parse_row(const std::string& line) {
  std::vector<std::uint64_t> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t comma = line.find(',', start);
    const std::size_t end = comma == std::string::npos ? line.size() : comma;
    std::uint64_t value = 0;
    if (!core::parse_number(
            std::string_view(line).substr(start, end - start), value)) {
      throw std::invalid_argument("trace: malformed field in row: " + line);
    }
    fields.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return fields;
}

}  // namespace

std::vector<TraceRecord> read_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != TraceWriter::header()) {
    throw std::invalid_argument("trace: missing or unknown header");
  }
  std::vector<TraceRecord> records;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = parse_row(line);
    if (f.size() != 11) {
      throw std::invalid_argument("trace: wrong field count in row: " + line);
    }
    TraceRecord r;
    r.time = f[0];
    r.delivered_at = topo::NodeId(f[1]);
    r.claimed_source = std::uint32_t(f[2]);
    r.dest_address = std::uint32_t(f[3]);
    r.marking_field = std::uint16_t(f[4]);
    r.protocol = std::uint8_t(f[5]);
    r.tcp_flags = std::uint8_t(f[6]);
    r.traffic_class = std::uint8_t(f[7]);
    r.hops = std::uint32_t(f[8]);
    r.flow = f[9];
    r.true_source = topo::NodeId(f[10]);
    records.push_back(r);
  }
  return records;
}

ReplayResult replay(const std::vector<TraceRecord>& records,
                    mark::SourceIdentifier& identifier, topo::NodeId victim) {
  ReplayResult result;
  for (const TraceRecord& r : records) {
    if (r.delivered_at != victim) continue;
    ++result.packets;
    // Rebuild the packet view the identifier is entitled to see.
    pkt::Packet p;
    p.header = pkt::IpHeader(r.claimed_source, r.dest_address,
                             pkt::IpProto(r.protocol), 0);
    p.set_marking_field(r.marking_field);
    p.tcp_flags = r.tcp_flags;
    p.flow = r.flow;
    p.hops = r.hops;
    const auto candidates = identifier.observe(p, victim);
    if (candidates.size() != 1) continue;
    ++result.identified;
    if (candidates.front() == r.true_source) {
      ++result.correct;
    } else {
      ++result.misattributed;
    }
    if (std::find(result.named.begin(), result.named.end(),
                  candidates.front()) == result.named.end()) {
      result.named.push_back(candidates.front());
    }
  }
  return result;
}

}  // namespace ddpm::trace
