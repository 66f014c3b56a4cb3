#include "routing/turn_model.hpp"

#include <stdexcept>

namespace ddpm::route {

std::string to_string(TurnModel model) {
  switch (model) {
    case TurnModel::kWestFirst: return "west-first";
    case TurnModel::kNorthLast: return "north-last";
    case TurnModel::kNegativeFirst: return "negative-first";
  }
  return "unknown";
}

TurnModelRouter::TurnModelRouter(const topo::Topology& topo, TurnModel model)
    : Router(topo), model_(model), coords_(topo) {
  if (topo.kind() != topo::TopologyKind::kMesh || topo.num_dims() != 2) {
    throw std::invalid_argument("TurnModelRouter requires a 2-D mesh");
  }
}

namespace {

struct Delta {
  int dx;  // >0: east needed, <0: west needed
  int dy;  // >0: south needed, <0: north needed
};

Delta delta_of(const topo::CoordTable& coords, NodeId current, NodeId dest) {
  const auto* a = coords.row(current);
  const auto* b = coords.row(dest);
  return {int(b[0]) - int(a[0]), int(b[1]) - int(a[1])};
}

void drop(PortList& ports, Port banned) { ports.erase_value(banned); }

}  // namespace

PortList TurnModelRouter::candidates(NodeId current, NodeId dest,
                                     Port arrived_on) const {
  if (current == dest) return {};
  const auto [dx, dy] = delta_of(coords_, current, dest);
  PortList out;
  switch (model_) {
    case TurnModel::kWestFirst:
      // Westward leg is mandatory and exclusive while dx < 0.
      if (dx < 0) return {kWest};
      if (dx > 0) out.push_back(kEast);
      if (dy < 0) out.push_back(kNorth);
      if (dy > 0) out.push_back(kSouth);
      break;
    case TurnModel::kNorthLast:
      // Once heading north (we arrived through our south port), turning is
      // prohibited: keep going north.
      if (arrived_on == kSouth) return {kNorth};
      if (dx < 0) out.push_back(kWest);
      if (dx > 0) out.push_back(kEast);
      if (dy > 0) out.push_back(kSouth);
      // North is allowed only when no east/west correction remains, making
      // it the final leg.
      if (dy < 0 && dx == 0) out.push_back(kNorth);
      break;
    case TurnModel::kNegativeFirst:
      // Negative (west/north) hops first, adaptively between themselves.
      if (dx < 0 || dy < 0) {
        if (dx < 0) out.push_back(kWest);
        if (dy < 0) out.push_back(kNorth);
        return out;
      }
      if (dx > 0) out.push_back(kEast);
      if (dy > 0) out.push_back(kSouth);
      break;
  }
  // 180-degree reversal is prohibited by every model. Minimal routing can
  // never produce one, but after a fallback misroute the minimal set DOES
  // contain the port straight back — the reachable-state CDG verifier
  // (src/verify/cdg.cpp) convicts the resulting south->north/north->south
  // dependency cycle, so the ban must live here, not only in the fallback.
  if (arrived_on != kLocalPort) drop(out, arrived_on);
  return out;
}

PortList TurnModelRouter::fallback_candidates(NodeId current, NodeId dest,
                                              Port arrived_on) const {
  if (current == dest) return {};
  const auto [dx, dy] = delta_of(coords_, current, dest);
  PortList out;
  switch (model_) {
    case TurnModel::kWestFirst:
      // While westbound no other direction is permitted at all.
      if (dx < 0) return {};
      // North/south are free directions under west-first (turns into them
      // are always legal), so non-minimal detours are allowed — this is the
      // escape route in Figure 2(b). East when dx == 0 would force a later
      // (prohibited) turn into west, so it is not offered.
      if (dy >= 0) out.push_back(kNorth);
      if (dy <= 0) out.push_back(kSouth);
      break;
    case TurnModel::kNorthLast:
      if (arrived_on == kSouth) return {};  // committed to north
      // East/west/south turn freely among themselves; misrouting on them is
      // legal. Misrouting north is not offered: it would commit the packet.
      if (dx >= 0) out.push_back(kWest);
      if (dx <= 0) out.push_back(kEast);
      if (dy <= 0) out.push_back(kSouth);
      break;
    case TurnModel::kNegativeFirst:
      // In the negative phase, extra west/north hops keep the packet in the
      // negative phase, so they are legal detours.
      if (dx < 0 || dy < 0) {
        if (dx >= 0) out.push_back(kWest);
        if (dy >= 0) out.push_back(kNorth);
      }
      // In the positive phase any extra east/south hop would require a
      // prohibited positive->negative turn to undo; no fallback exists.
      break;
  }
  // 180-degree reversal is never legal.
  if (arrived_on != kLocalPort) drop(out, arrived_on);
  return out;
}

}  // namespace ddpm::route
