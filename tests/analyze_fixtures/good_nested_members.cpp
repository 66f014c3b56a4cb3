// ddpm_analyze fixture: member lookup through nested classes, MUST-PASS.
// The twin of bad_nested_members.cpp with the declaration order swapped:
// `SortedTable::Slot::to_json` walks its own vector `cells`, and the
// unordered `cells` of `HashedTable::Slot`, declared later, must not be
// read as its type. Keyed by the simple name `Slot`, the later
// declaration would win and the ordered walk would be flagged.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fx {

class SortedTable {
 public:
  struct Slot {
    std::vector<std::uint64_t> cells;
    std::string to_json() const;  // result-path seed by name
  };
};

class HashedTable {
 public:
  struct Slot {
    std::unordered_map<std::uint32_t, std::uint64_t> cells;
    std::uint64_t weight = 0;
  };
};

std::string SortedTable::Slot::to_json() const {
  std::string out = "{";
  for (const std::uint64_t count : cells) {  // std::vector: ordered
    out += std::to_string(count);
  }
  return out + "}";
}

}  // namespace fx
