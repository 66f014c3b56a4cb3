// ddpm_analyze fixture: member lookup through nested classes, MUST-FLAG.
// Two classes each nest a `struct Slot` whose `cells` member has a
// different type. The member table is keyed by the qualified class name,
// so `HashedTable::Slot::to_json` resolves `cells` to its own unordered
// map even though `SortedTable::Slot`, declared later, names a vector
// `cells`. Keyed by the simple name `Slot`, the later declaration would
// win and the hash-order walk would go unflagged.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fx {

class HashedTable {
 public:
  struct Slot {
    std::unordered_map<std::uint32_t, std::uint64_t> cells;
    std::string to_json() const;  // result-path seed by name
  };
};

class SortedTable {
 public:
  struct Slot {
    std::vector<std::uint64_t> cells;
    std::uint64_t weight = 0;
  };
};

std::string HashedTable::Slot::to_json() const {
  std::string out = "{";
  for (const auto& [id, count] : cells) {  // ddpm-analyze: expect(ordered-iteration)
    out += std::to_string(id + count);
  }
  return out + "}";
}

}  // namespace fx
