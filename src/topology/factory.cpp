#include "topology/factory.hpp"

#include <stdexcept>
#include <vector>

#include "core/parse_number.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace ddpm::topo {

namespace {

int parse_int(std::string_view text) {
  int value = 0;
  if (!core::parse_number(text, value)) {
    throw std::invalid_argument("make_topology: bad integer in spec");
  }
  return value;
}

std::vector<int> parse_dims(std::string_view text) {
  std::vector<int> dims;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t sep = text.find('x', start);
    const std::string_view part =
        text.substr(start, sep == std::string_view::npos ? sep : sep - start);
    if (part.empty()) throw std::invalid_argument("make_topology: empty dimension");
    dims.push_back(parse_int(part));
    if (sep == std::string_view::npos) break;
    start = sep + 1;
  }
  return dims;
}

}  // namespace

std::unique_ptr<Topology> make_topology(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("make_topology: expected '<kind>:<params>'");
  }
  const std::string_view kind(spec.data(), colon);
  const std::string_view params(spec.data() + colon + 1, spec.size() - colon - 1);
  if (kind == "mesh") {
    return std::make_unique<Mesh>(parse_dims(params));
  }
  if (kind == "torus") {
    return std::make_unique<Torus>(parse_dims(params));
  }
  if (kind == "hypercube") {
    return std::make_unique<Hypercube>(parse_int(params));
  }
  throw std::invalid_argument("make_topology: unknown kind '" + std::string(kind) + "'");
}

}  // namespace ddpm::topo
