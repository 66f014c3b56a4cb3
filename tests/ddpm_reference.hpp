// Reference DDPM hop and identification on whole coordinate vectors: the
// decode → add (XOR on the hypercube) → saturate → encode formulation of
// Figure 4, straight from the virtual Topology. DdpmScheme::on_forward and
// DdpmIdentifier::identify compute the same answers slice by slice from a
// topo::CoordTable; tests/test_coord_table.cpp checks them against these
// after every call.
#pragma once

#include <cstdint>
#include <optional>

#include "marking/ddpm.hpp"
#include "topology/topology.hpp"

namespace ddpm::reference {

/// The field after one hop current → next. Adds the number of components
/// clamped at the dimension's span to `saturations`.
inline std::uint16_t ddpm_forward(const topo::Topology& topo,
                                  const mark::DdpmCodec& codec,
                                  std::uint16_t field, topo::NodeId current,
                                  topo::NodeId next,
                                  std::uint64_t& saturations) {
  const topo::Coord v = codec.decode(field);
  topo::Coord updated =
      codec.is_hypercube()
          ? (v ^ (topo.coord_of(next) ^ topo.coord_of(current)))
          : (v + (topo.coord_of(next) - topo.coord_of(current)));
  if (!codec.is_hypercube()) {
    for (std::size_t d = 0; d < topo.num_dims(); ++d) {
      const int span = topo.dim_size(d) - 1;
      if (updated[d] > span || updated[d] < -span) ++saturations;
      if (updated[d] > span) updated[d] = topo::Coord::value_type(span);
      if (updated[d] < -span) updated[d] = topo::Coord::value_type(-span);
    }
  }
  return codec.encode(updated);
}

/// S = D − V (D ⊕ V on the hypercube), or nullopt when S leaves the
/// coordinate space.
inline std::optional<topo::NodeId> ddpm_identify(
    const topo::Topology& topo, const mark::DdpmCodec& codec,
    topo::NodeId victim, std::uint16_t field) {
  const topo::Coord v = codec.decode(field);
  const topo::Coord d = topo.coord_of(victim);
  const topo::Coord s = codec.is_hypercube() ? (d ^ v) : (d - v);
  for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
    if (s[dim] < 0 || s[dim] >= topo.dim_size(dim)) return std::nullopt;
  }
  return topo.id_of(s);
}

}  // namespace ddpm::reference
