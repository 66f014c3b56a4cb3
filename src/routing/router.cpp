#include "routing/router.hpp"

#include <bit>
#include <limits>

#include "core/check.hpp"

namespace ddpm::route {

namespace {

/// Least-congested usable port from `ports`, random tie-break; nullopt if
/// none is usable.
std::optional<Port> pick(const PortList& ports, NodeId current,
                         const LinkStateView& links, netsim::Rng& rng) {
  double best = std::numeric_limits<double>::infinity();
  PortList best_ports;
  for (Port p : ports) {
    if (!links.link_usable(current, p)) continue;
    const double c = links.congestion(current, p);
    if (c < best) {
      best = c;
      best_ports.assign(1, p);
    } else if (c == best) {
      best_ports.push_back(p);
    }
  }
  if (best_ports.empty()) return std::nullopt;
  if (best_ports.size() == 1) return best_ports.front();
  return best_ports[rng.next_below(best_ports.size())];
}

}  // namespace

PortList productive_ports(const topo::CoordTable& coords, NodeId current,
                          NodeId target) {
  PortList out;
  for (std::uint32_t m = productive_mask(coords, current, target); m != 0;
       m &= m - 1) {
    out.push_back(std::countr_zero(m));
  }
  return out;
}

std::optional<Port> Router::select_output(NodeId current, NodeId dest,
                                          Port arrived_on,
                                          const LinkStateView& links,
                                          netsim::Rng& rng) const {
  DDPM_DCHECK(topo_.contains(current) && topo_.contains(dest),
              "select_output: node id outside topology");
  auto valid_out = [this, current](std::optional<Port> p) {
    // Every emitted port must exist at `current` and lead somewhere: a
    // routing policy that fabricates ports would make the cluster model
    // dereference a nonexistent link.
    DDPM_DCHECK(!p || (*p >= 0 && *p < topo_.num_ports()),
                "select_output: port index out of range");
    DDPM_DCHECK(!p || topo_.neighbor(current, *p).has_value(),
                "select_output: port has no neighbor");
    return p;
  };
  if (auto p = pick(candidates(current, dest, arrived_on), current, links, rng)) {
    return valid_out(p);
  }
  return valid_out(
      pick(fallback_candidates(current, dest, arrived_on), current, links, rng));
}

}  // namespace ddpm::route
