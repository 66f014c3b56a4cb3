#include "marking/ddpm.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "core/check.hpp"
#include "core/hot_path.hpp"

namespace ddpm::mark {

namespace {

int ceil_log2(unsigned v) {
  // Smallest w with 2^w >= v (v >= 1).
  return v <= 1 ? 0 : std::bit_width(v - 1);
}

}  // namespace

DdpmCodec::DdpmCodec(const topo::Topology& topo)
    : hypercube_(topo.kind() == topo::TopologyKind::kHypercube) {
  const int total = required_bits(topo);
  if (total > 16) {
    throw std::invalid_argument(
        "DdpmCodec: displacement vector needs " + std::to_string(total) +
        " bits, Marking Field has 16 (" + topo.spec() + ")");
  }
  unsigned offset = 0;
  slices_.reserve(topo.num_dims());
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    const unsigned width =
        hypercube_ ? 1u
                   : unsigned(ceil_log2(unsigned(topo.dim_size(d))) + 1);
    slices_.push_back({offset, width});
    mask_ = std::uint16_t(mask_ | slices_.back().mask());
    offset += width;
  }
}

int DdpmCodec::required_bits(const topo::Topology& topo) {
  if (topo.kind() == topo::TopologyKind::kHypercube) {
    return int(topo.num_dims());
  }
  int total = 0;
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    total += ceil_log2(unsigned(topo.dim_size(d))) + 1;
  }
  return total;
}

bool DdpmCodec::fits(const topo::Topology& topo) {
  return required_bits(topo) <= 16;
}

std::uint16_t DdpmCodec::encode(const topo::Coord& v) const {
  if (v.size() != slices_.size()) {
    throw std::invalid_argument("DdpmCodec::encode: dimensionality mismatch");
  }
  std::uint16_t field = 0;
  for (std::size_t d = 0; d < slices_.size(); ++d) {
    DDPM_DCHECK(slices_[d].valid(), "codec slice escaped the 16-bit field");
    if (hypercube_) {
      field = pkt::write_unsigned(field, slices_[d],
                                  static_cast<std::uint16_t>(v[d] & 1));
    } else {
      field = pkt::write_signed(field, slices_[d], v[d]);
    }
  }
  return field;
}

topo::Coord DdpmCodec::decode(std::uint16_t field) const {
  topo::Coord v(slices_.size());
  for (std::size_t d = 0; d < slices_.size(); ++d) {
    v[d] = static_cast<topo::Coord::value_type>(
        hypercube_ ? int(pkt::read_unsigned(field, slices_[d]))
                   : pkt::read_signed(field, slices_[d]));
  }
  return v;
}

DdpmScheme::DdpmScheme(const topo::Topology& topo)
    : codec_(topo), coords_(topo) {
  for (std::size_t d = 0; d < codec_.num_dims(); ++d) {
    const pkt::FieldSlice slice = codec_.slice(d);
    lanes_[d] = {slice, slice.mask(), std::int16_t(coords_.radix(d) - 1)};
  }
}

void DdpmScheme::on_injection(pkt::Packet& packet, NodeId /*at*/) {
  packet.set_marking_field(0);  // the zero vector encodes as all-zero bits
}

DDPM_HOT void DdpmScheme::on_forward(pkt::Packet& packet, NodeId current,
                                     NodeId next) {
  const std::uint16_t in = packet.marking_field();
  if (coords_.hypercube()) {
    // Coordinate d is id bit d and slice d is field bit d, so the per-hop
    // delta and the accumulation are one XOR of the ids.
    packet.set_marking_field(
        std::uint16_t((in & codec_.mask()) ^ (current ^ next)));
    probes_.on_mark();
    return;
  }
  const auto* from = coords_.row(current);
  const auto* to = coords_.row(next);
  // Built up from zero, slice by slice, so bits outside the slices end up
  // clear, as a full re-encode leaves them.
  std::uint16_t out = 0;
  for (std::size_t d = 0; d < coords_.num_dims(); ++d) {
    const Lane& lane = lanes_[d];
    int v = pkt::read_signed(in, lane.slice) + (int(to[d]) - int(from[d]));
    // Honest fields can never leave the codec's range (telescoping bounds
    // every component by the coordinate span), but a compromised switch or
    // an un-reset attacker seed can push the sum to the slice boundary. A
    // switch must not fault on hostile input: saturate instead. A saturated
    // vector decodes to an out-of-range source at the victim, i.e. the
    // tampering is detected rather than silently misattributed.
    if (v > lane.span || v < -lane.span) [[unlikely]] {
      probes_.on_saturation();
      v = v > lane.span ? lane.span : -lane.span;
    }
    // Post-saturation, v fits the slice: it holds [-2^(w-1), 2^(w-1)-1]
    // with 2^(w-1) >= dim_size > span. So its low w bits, two's
    // complement, go straight into the slice.
    out = std::uint16_t(out | ((unsigned(v) << lane.slice.offset) & lane.mask));
  }
  packet.set_marking_field(out);
  probes_.on_mark();
}

std::vector<NodeId> DdpmIdentifier::observe(const pkt::Packet& packet,
                                            NodeId victim) {
  if (auto src = identify(victim, packet.marking_field())) return {*src};
  return {};
}

std::optional<NodeId> DdpmIdentifier::identify(NodeId victim,
                                               std::uint16_t field) const {
  if (victim >= coords_.num_nodes()) {
    throw std::out_of_range("DdpmIdentifier::identify: bad victim id");
  }
  if (coords_.hypercube()) return victim ^ NodeId(field & codec_.mask());
  const auto* d = coords_.row(victim);
  std::array<topo::Coord::value_type, topo::Coord::kMaxDims> s{};
  for (std::size_t dim = 0; dim < coords_.num_dims(); ++dim) {
    const int c = int(d[dim]) - pkt::read_signed(field, codec_.slice(dim));
    if (c < 0 || c >= coords_.radix(dim)) return std::nullopt;
    s[dim] = topo::Coord::value_type(c);
  }
  return coords_.id_of(s.data());
}

}  // namespace ddpm::mark
