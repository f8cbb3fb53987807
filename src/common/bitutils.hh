/**
 * @file
 * Bit-manipulation helpers shared by the ISA and coverage layers.
 */

#ifndef TURBOFUZZ_COMMON_BITUTILS_HH
#define TURBOFUZZ_COMMON_BITUTILS_HH

#include <cstdint>
#include <type_traits>

namespace turbofuzz
{

/** Extract bits [hi:lo] (inclusive) of value. */
constexpr uint64_t
bits(uint64_t value, unsigned hi, unsigned lo)
{
    const unsigned width = hi - lo + 1;
    if (width >= 64)
        return value >> lo;
    return (value >> lo) & ((uint64_t{1} << width) - 1);
}

/** Extract a single bit. */
constexpr uint64_t
bit(uint64_t value, unsigned pos)
{
    return (value >> pos) & 1;
}

/** Insert @p field into bits [hi:lo] of @p value, returning the result. */
constexpr uint64_t
insertBits(uint64_t value, unsigned hi, unsigned lo, uint64_t field)
{
    const unsigned width = hi - lo + 1;
    const uint64_t mask =
        (width >= 64) ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
    return (value & ~(mask << lo)) | ((field & mask) << lo);
}

/** Sign-extend the low @p width bits of @p value to 64 bits. */
constexpr int64_t
sext(uint64_t value, unsigned width)
{
    if (width == 0 || width >= 64)
        return static_cast<int64_t>(value);
    const uint64_t sign = uint64_t{1} << (width - 1);
    return static_cast<int64_t>((value ^ sign) - sign);
}

/** A bitmask with the low @p width bits set. */
constexpr uint64_t
mask(unsigned width)
{
    return (width >= 64) ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr uint64_t
roundUp(uint64_t value, uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** True if @p value is aligned to @p align (a power of two). */
constexpr bool
isAligned(uint64_t value, uint64_t align)
{
    return (value & (align - 1)) == 0;
}

/**
 * Population count, inline SWAR. The default build targets baseline
 * x86-64 (no POPCNT), where __builtin_popcountll is an out-of-line
 * libgcc call; this stays in registers on every target.
 */
constexpr unsigned
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/** Number of bits needed to represent values in [0, n). */
constexpr unsigned
ceilLog2(uint64_t n)
{
    unsigned w = 0;
    uint64_t v = 1;
    while (v < n) {
        v <<= 1;
        ++w;
    }
    return w;
}

} // namespace turbofuzz

#endif // TURBOFUZZ_COMMON_BITUTILS_HH
