#include "routing/adaptive.hpp"

#include <algorithm>

namespace ddpm::route {

PortList AdaptiveRouter::candidates(NodeId current, NodeId dest,
                                    Port /*arrived_on*/) const {
  return productive_ports(coords_, current, dest);
}

PortList MisroutingAdaptiveRouter::fallback_candidates(NodeId current,
                                                       NodeId dest,
                                                       Port arrived_on) const {
  const auto productive = candidates(current, dest, arrived_on);
  PortList out;
  for (Port p = 0; p < topo_.num_ports(); ++p) {
    if (p == arrived_on) continue;  // no 180-degree reversal
    if (std::find(productive.begin(), productive.end(), p) != productive.end()) {
      continue;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace ddpm::route
