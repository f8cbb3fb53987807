/** @file Unit tests for bit-manipulation helpers. */

#include <gtest/gtest.h>

#include "common/bitutils.hh"

namespace turbofuzz
{
namespace
{

TEST(BitUtils, BitsExtract)
{
    EXPECT_EQ(bits(0xDEADBEEF, 31, 16), 0xDEADu);
    EXPECT_EQ(bits(0xDEADBEEF, 15, 0), 0xBEEFu);
    EXPECT_EQ(bits(0xFF, 3, 0), 0xFu);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
    EXPECT_EQ(bits(0b1010, 3, 3), 1u);
}

TEST(BitUtils, SingleBit)
{
    EXPECT_EQ(bit(0x8000000000000000ull, 63), 1u);
    EXPECT_EQ(bit(0x8000000000000000ull, 62), 0u);
    EXPECT_EQ(bit(1, 0), 1u);
}

TEST(BitUtils, InsertBits)
{
    EXPECT_EQ(insertBits(0, 15, 8, 0xAB), 0xAB00u);
    EXPECT_EQ(insertBits(0xFFFF, 7, 4, 0), 0xFF0Fu);
    // Field wider than value is masked.
    EXPECT_EQ(insertBits(0, 3, 0, 0x1F), 0xFu);
}

TEST(BitUtils, InsertThenExtractRoundTrip)
{
    for (unsigned lo = 0; lo < 60; lo += 7) {
        const unsigned hi = lo + 4;
        const uint64_t v = insertBits(0x1234567890ABCDEFull, hi, lo, 0x15);
        EXPECT_EQ(bits(v, hi, lo), 0x15u);
    }
}

TEST(BitUtils, SignExtend)
{
    EXPECT_EQ(sext(0xFFF, 12), -1);
    EXPECT_EQ(sext(0x7FF, 12), 0x7FF);
    EXPECT_EQ(sext(0x800, 12), -2048);
    EXPECT_EQ(sext(0x80000000ull, 32), INT64_C(-2147483648));
    EXPECT_EQ(sext(0, 1), 0);
    EXPECT_EQ(sext(1, 1), -1);
}

TEST(BitUtils, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(12), 0xFFFu);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(BitUtils, RoundUpAndAlignment)
{
    EXPECT_EQ(roundUp(0, 4), 0u);
    EXPECT_EQ(roundUp(1, 4), 4u);
    EXPECT_EQ(roundUp(4, 4), 4u);
    EXPECT_EQ(roundUp(4097, 4096), 8192u);
    EXPECT_TRUE(isAligned(64, 8));
    EXPECT_FALSE(isAligned(65, 8));
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, Popcount64)
{
    static_assert(popcount64(0) == 0);
    static_assert(popcount64(~uint64_t{0}) == 64);
    EXPECT_EQ(popcount64(uint64_t{1} << 63), 1u);
    EXPECT_EQ(popcount64(0x8000000000000001ull), 2u);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        EXPECT_EQ(popcount64(x),
                  static_cast<unsigned>(__builtin_popcountll(x)));
    }
}

} // namespace
} // namespace turbofuzz
