#include "packet/marking_field.hpp"

#include <gtest/gtest.h>

namespace ddpm::pkt {
namespace {

TEST(MarkingField, UnsignedRoundTrip) {
  const FieldSlice s{4, 6};
  std::uint16_t f = 0xffff;
  f = write_unsigned(f, s, 42);
  EXPECT_EQ(read_unsigned(f, s), 42);
  // Bits outside the slice untouched.
  EXPECT_EQ(f & 0x000f, 0x000f);
  EXPECT_EQ(f & 0xfc00, 0xfc00);
}

TEST(MarkingField, UnsignedRangeChecked) {
  const FieldSlice s{0, 4};
  EXPECT_NO_THROW(write_unsigned(0, s, 15));
  EXPECT_THROW(write_unsigned(0, s, 16), std::range_error);
}

TEST(MarkingField, SignedRoundTripAllValues) {
  const FieldSlice s{3, 5};  // holds [-16, 15]
  for (int v = -16; v <= 15; ++v) {
    const std::uint16_t f = write_signed(0, s, v);
    EXPECT_EQ(read_signed(f, s), v) << v;
  }
}

TEST(MarkingField, ReadSignedIsTheSignBitRuleOnEverySliceAndField) {
  // read_signed sign-extends by shifting; the rule it must match: the
  // unsigned slice value, minus 2^w when its top bit is set.
  for (unsigned width = 1; width <= 16; ++width) {
    for (unsigned offset = 0; offset + width <= 16; ++offset) {
      const FieldSlice s{offset, width};
      for (unsigned f = 0; f <= 0xffff; ++f) {
        const int raw = read_unsigned(std::uint16_t(f), s);
        const int want = (raw >> (width - 1)) != 0 ? raw - (1 << width) : raw;
        ASSERT_EQ(read_signed(std::uint16_t(f), s), want)
            << "offset " << offset << " width " << width << " field " << f;
      }
    }
  }
}

TEST(MarkingField, SignedRangeChecked) {
  const FieldSlice s{0, 5};
  EXPECT_NO_THROW(write_signed(0, s, -16));
  EXPECT_NO_THROW(write_signed(0, s, 15));
  EXPECT_THROW(write_signed(0, s, -17), std::range_error);
  EXPECT_THROW(write_signed(0, s, 16), std::range_error);
}

TEST(MarkingField, SignedPreservesNeighborSlices) {
  const FieldSlice lo{0, 8};
  const FieldSlice hi{8, 8};
  std::uint16_t f = 0;
  f = write_signed(f, lo, -3);
  f = write_signed(f, hi, 100);
  EXPECT_EQ(read_signed(f, lo), -3);
  EXPECT_EQ(read_signed(f, hi), 100);
  f = write_signed(f, lo, 77);
  EXPECT_EQ(read_signed(f, hi), 100);  // untouched by the lo rewrite
}

TEST(MarkingField, Bits) {
  std::uint16_t f = 0;
  f = write_bit(f, 0, true);
  f = write_bit(f, 15, true);
  EXPECT_TRUE(read_bit(f, 0));
  EXPECT_TRUE(read_bit(f, 15));
  EXPECT_FALSE(read_bit(f, 7));
  f = write_bit(f, 15, false);
  EXPECT_FALSE(read_bit(f, 15));
  EXPECT_TRUE(read_bit(f, 0));
}

TEST(MarkingField, MaskMatchesSlice) {
  EXPECT_EQ((FieldSlice{0, 16}).mask(), 0xffff);
  EXPECT_EQ((FieldSlice{8, 8}).mask(), 0xff00);
  EXPECT_EQ((FieldSlice{4, 1}).mask(), 0x0010);
}

TEST(MarkingField, FullWidthSigned) {
  const FieldSlice s{0, 16};
  EXPECT_EQ(read_signed(write_signed(0, s, -32768), s), -32768);
  EXPECT_EQ(read_signed(write_signed(0, s, 32767), s), 32767);
}

}  // namespace
}  // namespace ddpm::pkt
