// ddpm_analyze fixture: layout-certified MUST-PASS case.
// The record carries a DDPM_HOT_LAYOUT pin matching its real LP64 layout
// (two ints: 8 bytes, 4-byte alignment), so the presence check comes out
// clean.
#define DDPM_HOT_STATE
#define DDPM_HOT_LAYOUT(TYPE, SIZE, ALIGN)

namespace fx {

struct DDPM_HOT_STATE Slot {
  int credits;
  int occupancy;
};
DDPM_HOT_LAYOUT(Slot, 8, 4);

inline int peek(const Slot& s) { return s.credits + s.occupancy; }

}  // namespace fx
