#include "routing/valiant.hpp"

namespace ddpm::route {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

NodeId ValiantRouter::intermediate_for(NodeId dest) const {
  return NodeId(mix((std::uint64_t(dest) << 32) ^ salt_ ^
                    0xda3e39cb94b95bdbULL) %
                topo_.num_nodes());
}

PortList ValiantRouter::candidates(NodeId current, NodeId dest,
                                   Port /*arrived_on*/) const {
  if (current == dest) return {};
  const NodeId mid = intermediate_for(dest);
  const bool phase_two =
      current == mid ||
      topo_.min_hops(current, dest) < topo_.min_hops(mid, dest);
  return productive_ports(coords_, current, phase_two ? dest : mid);
}

}  // namespace ddpm::route
