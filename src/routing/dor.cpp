#include "routing/dor.hpp"

namespace ddpm::route {

PortList DimensionOrderRouter::candidates(NodeId current, NodeId dest,
                                          Port /*arrived_on*/) const {
  // The lowest productive port: the lowest unaligned dimension, or on the
  // hypercube the lowest differing bit (e-cube).
  const PortList all = productive_ports(coords_, current, dest);
  if (all.empty()) return {};
  return {all.front()};
}

}  // namespace ddpm::route
