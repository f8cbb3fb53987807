#include "core/fp_ops.hh"

#include <cfenv>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "isa/csr.hh"

namespace turbofuzz::core::fp
{

namespace
{

using isa::csr::flagDZ;
using isa::csr::flagNV;
using isa::csr::flagNX;
using isa::csr::flagOF;
using isa::csr::flagUF;

float
asFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

uint32_t
floatBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

double
asDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
doubleBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

int
hostRound(uint8_t rm)
{
    switch (rm) {
      case isa::csr::rmRNE: return FE_TONEAREST;
      case isa::csr::rmRTZ: return FE_TOWARDZERO;
      case isa::csr::rmRDN: return FE_DOWNWARD;
      case isa::csr::rmRUP: return FE_UPWARD;
      // RMM (round to max magnitude) has no host equivalent; RNE is
      // the closest approximation and differs only on exact ties.
      case isa::csr::rmRMM: return FE_TONEAREST;
      default:
        panic("unresolved rounding mode %u reached fp backend", rm);
    }
}

/**
 * RAII scope that clears host FP flags, applies a rounding mode, and
 * translates raised host exceptions back to RISC-V fflags.
 *
 * Host flags are cleared on entry only: every scope clears before its
 * operation and nothing outside a scope reads them, so a clear on exit
 * would be dead work (glibc's feclearexcept saves and reloads the
 * whole x87 environment). The rounding mode is written only when it
 * differs from the host's and restored only when it was written, so
 * the host mode after the scope is the one before it.
 */
class FpEnvScope
{
  public:
    explicit FpEnvScope(uint8_t rm)
        : savedRound(fegetround()), wantRound(hostRound(rm))
    {
        if (wantRound != savedRound)
            fesetround(wantRound);
        if (fetestexcept(FE_ALL_EXCEPT))
            feclearexcept(FE_ALL_EXCEPT);
    }

    uint8_t
    flags() const
    {
        const int raised = fetestexcept(FE_ALL_EXCEPT);
        uint8_t f = 0;
        if (raised & FE_INEXACT)
            f |= flagNX;
        if (raised & FE_UNDERFLOW)
            f |= flagUF;
        if (raised & FE_OVERFLOW)
            f |= flagOF;
        if (raised & FE_DIVBYZERO)
            f |= flagDZ;
        if (raised & FE_INVALID)
            f |= flagNV;
        return f;
    }

    ~FpEnvScope()
    {
        if (wantRound != savedRound)
            fesetround(savedRound);
    }

  private:
    int savedRound;
    int wantRound;
};

/** Min/max with RISC-V NaN and signed-zero rules (shared S/D body). */
template <typename T, typename Bits>
FpResult
minMax(bool want_min, T a, T b, Bits a_bits, Bits b_bits, bool a_nan,
       bool b_nan, bool a_snan, bool b_snan, uint64_t canonical,
       Bits sign_mask, auto pack)
{
    uint8_t flags = 0;
    if (a_snan || b_snan)
        flags |= flagNV;
    if (a_nan && b_nan)
        return {canonical, flags};
    if (a_nan)
        return {pack(b_bits), flags};
    if (b_nan)
        return {pack(a_bits), flags};
    // -0 orders below +0 for min/max purposes.
    if (a == b && ((a_bits ^ b_bits) & sign_mask)) {
        const bool a_neg = (a_bits & sign_mask) != 0;
        const Bits chosen = (want_min == a_neg) ? a_bits : b_bits;
        return {pack(chosen), flags};
    }
    const bool pick_a = want_min ? (a < b) : (a > b);
    return {pack(pick_a ? a_bits : b_bits), flags};
}

} // namespace

// --- NaN boxing ------------------------------------------------------

bool
isBoxedS(uint64_t raw)
{
    return (raw >> 32) == 0xFFFFFFFFull;
}

uint32_t
unboxS(uint64_t raw)
{
    return isBoxedS(raw) ? static_cast<uint32_t>(raw) : canonicalNanS;
}

uint64_t
boxS(uint32_t bits)
{
    return 0xFFFFFFFF00000000ull | bits;
}

// --- classification ---------------------------------------------------

bool
isNanS(uint32_t b)
{
    return (b & 0x7F800000u) == 0x7F800000u && (b & 0x007FFFFFu) != 0;
}

bool
isNanD(uint64_t b)
{
    return (b & 0x7FF0000000000000ull) == 0x7FF0000000000000ull &&
           (b & 0x000FFFFFFFFFFFFFull) != 0;
}

bool
isSignalingNanS(uint32_t b)
{
    return isNanS(b) && (b & 0x00400000u) == 0;
}

bool
isSignalingNanD(uint64_t b)
{
    return isNanD(b) && (b & 0x0008000000000000ull) == 0;
}

bool
isInfS(uint32_t b)
{
    return (b & 0x7FFFFFFFu) == 0x7F800000u;
}

bool
isInfD(uint64_t b)
{
    return (b & 0x7FFFFFFFFFFFFFFFull) == 0x7FF0000000000000ull;
}

bool
isZeroS(uint32_t b)
{
    return (b & 0x7FFFFFFFu) == 0;
}

bool
isZeroD(uint64_t b)
{
    return (b & 0x7FFFFFFFFFFFFFFFull) == 0;
}

namespace
{
/** Shared fclass body. */
template <typename Bits>
uint64_t
classifyBits(Bits b, Bits exp_mask, Bits frac_mask, Bits sign_mask,
             Bits quiet_bit)
{
    const bool neg = (b & sign_mask) != 0;
    const Bits exp = b & exp_mask;
    const Bits frac = b & frac_mask;

    if (exp == exp_mask) {
        if (frac == 0)
            return neg ? (1 << 0) : (1 << 7); // +-inf
        return (frac & quiet_bit) ? (1 << 9) : (1 << 8); // qNaN / sNaN
    }
    if (exp == 0) {
        if (frac == 0)
            return neg ? (1 << 3) : (1 << 4); // +-0
        return neg ? (1 << 2) : (1 << 5);     // +-subnormal
    }
    return neg ? (1 << 1) : (1 << 6); // +-normal
}
} // namespace

uint64_t
classifyS(uint32_t b)
{
    return classifyBits<uint32_t>(b, 0x7F800000u, 0x007FFFFFu,
                                  0x80000000u, 0x00400000u);
}

uint64_t
classifyD(uint64_t b)
{
    return classifyBits<uint64_t>(b, 0x7FF0000000000000ull,
                                  0x000FFFFFFFFFFFFFull,
                                  0x8000000000000000ull,
                                  0x0008000000000000ull);
}

// --- arithmetic --------------------------------------------------------

FpResult
arithS(ArithOp op, uint32_t a, uint32_t b, uint8_t rm)
{
    if (op == ArithOp::Min || op == ArithOp::Max) {
        return minMax<float, uint32_t>(
            op == ArithOp::Min, asFloat(a), asFloat(b), a, b, isNanS(a),
            isNanS(b), isSignalingNanS(a), isSignalingNanS(b),
            boxS(canonicalNanS), 0x80000000u,
            [](uint32_t bits) { return boxS(bits); });
    }

    FpEnvScope env(rm);
    float r;
    switch (op) {
      case ArithOp::Add: r = asFloat(a) + asFloat(b); break;
      case ArithOp::Sub: r = asFloat(a) - asFloat(b); break;
      case ArithOp::Mul: r = asFloat(a) * asFloat(b); break;
      case ArithOp::Div: r = asFloat(a) / asFloat(b); break;
      case ArithOp::Sqrt: r = std::sqrt(asFloat(a)); break;
      default: panic("bad ArithOp");
    }
    const uint8_t flags = env.flags();
    uint32_t bits = floatBits(r);
    if (isNanS(bits))
        bits = canonicalNanS;
    return {boxS(bits), flags};
}

FpResult
arithD(ArithOp op, uint64_t a, uint64_t b, uint8_t rm)
{
    if (op == ArithOp::Min || op == ArithOp::Max) {
        return minMax<double, uint64_t>(
            op == ArithOp::Min, asDouble(a), asDouble(b), a, b,
            isNanD(a), isNanD(b), isSignalingNanD(a), isSignalingNanD(b),
            canonicalNanD, 0x8000000000000000ull,
            [](uint64_t bits) { return bits; });
    }

    FpEnvScope env(rm);
    double r;
    switch (op) {
      case ArithOp::Add: r = asDouble(a) + asDouble(b); break;
      case ArithOp::Sub: r = asDouble(a) - asDouble(b); break;
      case ArithOp::Mul: r = asDouble(a) * asDouble(b); break;
      case ArithOp::Div: r = asDouble(a) / asDouble(b); break;
      case ArithOp::Sqrt: r = std::sqrt(asDouble(a)); break;
      default: panic("bad ArithOp");
    }
    const uint8_t flags = env.flags();
    uint64_t bits = doubleBits(r);
    if (isNanD(bits))
        bits = canonicalNanD;
    return {bits, flags};
}

FpResult
fmaS(uint32_t a, uint32_t b, uint32_t c, bool neg_prod, bool neg_addend,
     uint8_t rm)
{
    FpEnvScope env(rm);
    float fa = asFloat(a);
    float fb = asFloat(b);
    float fc = asFloat(c);
    if (neg_prod)
        fa = -fa;
    if (neg_addend)
        fc = -fc;
    // -(a*b) via -a keeps the product's magnitude rounding identical;
    // fma rounds once at the end as required.
    float r = std::fmaf(fa, fb, fc);
    // fma(inf, 0, c) must raise NV even if c is NaN-free on some hosts.
    uint8_t flags = env.flags();
    const bool prod_invalid =
        (isInfS(a) && isZeroS(b)) || (isZeroS(a) && isInfS(b));
    if (prod_invalid)
        flags |= flagNV;
    uint32_t bits = floatBits(r);
    if (isNanS(bits))
        bits = canonicalNanS;
    return {boxS(bits), flags};
}

FpResult
fmaD(uint64_t a, uint64_t b, uint64_t c, bool neg_prod, bool neg_addend,
     uint8_t rm)
{
    FpEnvScope env(rm);
    double fa = asDouble(a);
    double fb = asDouble(b);
    double fc = asDouble(c);
    if (neg_prod)
        fa = -fa;
    if (neg_addend)
        fc = -fc;
    double r = std::fma(fa, fb, fc);
    uint8_t flags = env.flags();
    const bool prod_invalid =
        (isInfD(a) && isZeroD(b)) || (isZeroD(a) && isInfD(b));
    if (prod_invalid)
        flags |= flagNV;
    uint64_t bits = doubleBits(r);
    if (isNanD(bits))
        bits = canonicalNanD;
    return {bits, flags};
}

// --- comparisons --------------------------------------------------------

namespace
{
template <typename T>
FpResult
cmpBody(CmpOp op, T a, T b, bool a_nan, bool b_nan, bool any_snan)
{
    uint8_t flags = 0;
    const bool any_nan = a_nan || b_nan;
    if (op == CmpOp::Eq) {
        if (any_snan)
            flags |= flagNV;
        return {static_cast<uint64_t>(!any_nan && a == b), flags};
    }
    if (any_nan) {
        flags |= flagNV; // flt/fle signal on any NaN
        return {0, flags};
    }
    const bool r = (op == CmpOp::Lt) ? (a < b) : (a <= b);
    return {static_cast<uint64_t>(r), flags};
}
} // namespace

FpResult
cmpS(CmpOp op, uint32_t a, uint32_t b)
{
    return cmpBody<float>(op, asFloat(a), asFloat(b), isNanS(a),
                          isNanS(b),
                          isSignalingNanS(a) || isSignalingNanS(b));
}

FpResult
cmpD(CmpOp op, uint64_t a, uint64_t b)
{
    return cmpBody<double>(op, asDouble(a), asDouble(b), isNanD(a),
                           isNanD(b),
                           isSignalingNanD(a) || isSignalingNanD(b));
}

// --- conversions ----------------------------------------------------------

namespace
{

/** Float-to-int conversion core with saturation. */
FpResult
f2iBody(double x, bool is_nan, bool is_signed, bool is_64bit, uint8_t rm)
{
    // Saturation values.
    const uint64_t pos_sat =
        is_signed ? (is_64bit ? 0x7FFFFFFFFFFFFFFFull : 0x7FFFFFFFull)
                  : ~uint64_t{0};
    const uint64_t neg_sat =
        is_signed ? (is_64bit ? 0x8000000000000000ull
                              : 0xFFFFFFFF80000000ull)
                  : 0;

    if (is_nan)
        return {pos_sat, flagNV};

    double rounded;
    uint8_t flags;
    {
        FpEnvScope env(rm);
        rounded = std::rint(x);
        flags = env.flags() & flagNX;
    }

    // Exact bounds as doubles: 2^31, 2^63, 2^32, 2^64.
    const double s32_hi = 2147483648.0;
    const double s64_hi = 9223372036854775808.0;
    const double u32_hi = 4294967296.0;
    const double u64_hi = 18446744073709551616.0;

    bool over = false;
    bool under = false;
    if (is_signed) {
        const double hi = is_64bit ? s64_hi : s32_hi;
        over = rounded >= hi;
        under = rounded < -hi;
    } else {
        const double hi = is_64bit ? u64_hi : u32_hi;
        over = rounded >= hi;
        under = rounded <= -1.0;
    }
    if (over)
        return {pos_sat, flagNV};
    if (under)
        return {neg_sat, flagNV};

    uint64_t result;
    if (is_signed) {
        const int64_t v = static_cast<int64_t>(rounded);
        result = is_64bit
                     ? static_cast<uint64_t>(v)
                     : static_cast<uint64_t>(static_cast<int64_t>(
                           static_cast<int32_t>(v)));
    } else {
        const uint64_t v = static_cast<uint64_t>(rounded);
        result = is_64bit ? v
                          : static_cast<uint64_t>(static_cast<int64_t>(
                                static_cast<int32_t>(
                                    static_cast<uint32_t>(v))));
    }
    return {result, flags};
}

} // namespace

FpResult
cvtSToI(uint32_t a, bool is_signed, bool is_64bit, uint8_t rm)
{
    return f2iBody(static_cast<double>(asFloat(a)), isNanS(a), is_signed,
                   is_64bit, rm);
}

FpResult
cvtDToI(uint64_t a, bool is_signed, bool is_64bit, uint8_t rm)
{
    return f2iBody(asDouble(a), isNanD(a), is_signed, is_64bit, rm);
}

FpResult
cvtIToS(uint64_t v, bool is_signed, bool is_64bit, uint8_t rm)
{
    FpEnvScope env(rm);
    float r;
    if (is_signed) {
        const int64_t s =
            is_64bit ? static_cast<int64_t>(v)
                     : static_cast<int64_t>(static_cast<int32_t>(v));
        r = static_cast<float>(s);
    } else {
        const uint64_t u = is_64bit ? v : (v & 0xFFFFFFFFull);
        r = static_cast<float>(u);
    }
    return {boxS(floatBits(r)), env.flags()};
}

FpResult
cvtIToD(uint64_t v, bool is_signed, bool is_64bit, uint8_t rm)
{
    FpEnvScope env(rm);
    double r;
    if (is_signed) {
        const int64_t s =
            is_64bit ? static_cast<int64_t>(v)
                     : static_cast<int64_t>(static_cast<int32_t>(v));
        r = static_cast<double>(s);
    } else {
        const uint64_t u = is_64bit ? v : (v & 0xFFFFFFFFull);
        r = static_cast<double>(u);
    }
    return {doubleBits(r), env.flags()};
}

FpResult
cvtSToD(uint32_t a)
{
    uint8_t flags = 0;
    if (isSignalingNanS(a))
        flags |= flagNV;
    if (isNanS(a))
        return {canonicalNanD, flags};
    return {doubleBits(static_cast<double>(asFloat(a))), flags};
}

FpResult
cvtDToS(uint64_t a, uint8_t rm)
{
    uint8_t flags = 0;
    if (isSignalingNanD(a))
        flags |= flagNV;
    if (isNanD(a))
        return {boxS(canonicalNanS), flags};
    FpEnvScope env(rm);
    const float r = static_cast<float>(asDouble(a));
    flags |= env.flags();
    uint32_t bits = floatBits(r);
    if (isNanS(bits))
        bits = canonicalNanS;
    return {boxS(bits), flags};
}

// --- sign injection --------------------------------------------------------

uint32_t
sgnjS(SgnOp op, uint32_t a, uint32_t b)
{
    const uint32_t sign = 0x80000000u;
    switch (op) {
      case SgnOp::Copy: return (a & ~sign) | (b & sign);
      case SgnOp::Negate: return (a & ~sign) | (~b & sign);
      case SgnOp::XorSign: return a ^ (b & sign);
      default: panic("bad SgnOp");
    }
}

uint64_t
sgnjD(SgnOp op, uint64_t a, uint64_t b)
{
    const uint64_t sign = 0x8000000000000000ull;
    switch (op) {
      case SgnOp::Copy: return (a & ~sign) | (b & sign);
      case SgnOp::Negate: return (a & ~sign) | (~b & sign);
      case SgnOp::XorSign: return a ^ (b & sign);
      default: panic("bad SgnOp");
    }
}

} // namespace turbofuzz::core::fp
