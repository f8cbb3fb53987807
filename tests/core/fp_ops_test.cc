/** @file FP helper-layer semantics tests. */

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cmath>
#include <cstring>

#include "core/fp_ops.hh"
#include "isa/csr.hh"

namespace turbofuzz::core::fp
{
namespace
{

namespace csr = isa::csr;

uint32_t
f32(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

uint64_t
f64(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, 8);
    return b;
}

float
toF32(uint64_t boxed)
{
    float f;
    const uint32_t b = static_cast<uint32_t>(boxed);
    std::memcpy(&f, &b, 4);
    return f;
}

double
toF64(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
}

TEST(FpBoxing, BoxUnboxRoundTrip)
{
    const uint32_t v = f32(1.5f);
    EXPECT_TRUE(isBoxedS(boxS(v)));
    EXPECT_EQ(unboxS(boxS(v)), v);
}

TEST(FpBoxing, ImproperBoxReadsAsCanonicalNan)
{
    // A double bit pattern is not a valid boxed single.
    const uint64_t raw = f64(1.5);
    EXPECT_FALSE(isBoxedS(raw));
    EXPECT_EQ(unboxS(raw), canonicalNanS);
}

TEST(FpClassify, AllClasses)
{
    EXPECT_EQ(classifyS(f32(-INFINITY)), 1u << 0);
    EXPECT_EQ(classifyS(f32(-1.0f)), 1u << 1);
    EXPECT_EQ(classifyS(0x80000001u), 1u << 2); // -subnormal
    EXPECT_EQ(classifyS(0x80000000u), 1u << 3); // -0
    EXPECT_EQ(classifyS(0x00000000u), 1u << 4); // +0
    EXPECT_EQ(classifyS(0x00000001u), 1u << 5); // +subnormal
    EXPECT_EQ(classifyS(f32(2.0f)), 1u << 6);
    EXPECT_EQ(classifyS(f32(INFINITY)), 1u << 7);
    EXPECT_EQ(classifyS(0x7F800001u), 1u << 8); // sNaN
    EXPECT_EQ(classifyS(canonicalNanS), 1u << 9);

    EXPECT_EQ(classifyD(f64(-0.0)), 1u << 3);
    EXPECT_EQ(classifyD(canonicalNanD), 1u << 9);
}

TEST(FpArith, BasicSingle)
{
    const FpResult r =
        arithS(ArithOp::Add, f32(1.5f), f32(2.25f), csr::rmRNE);
    EXPECT_FLOAT_EQ(toF32(r.bits), 3.75f);
    EXPECT_EQ(r.flags, 0u);
    EXPECT_TRUE(isBoxedS(r.bits));
}

TEST(FpArith, DivideByZeroSetsDZ)
{
    const FpResult r =
        arithS(ArithOp::Div, f32(1.0f), f32(0.0f), csr::rmRNE);
    EXPECT_TRUE(std::isinf(toF32(r.bits)));
    EXPECT_EQ(r.flags, csr::flagDZ);
}

TEST(FpArith, ZeroOverZeroSetsNVOnly)
{
    const FpResult r =
        arithS(ArithOp::Div, f32(0.0f), f32(0.0f), csr::rmRNE);
    EXPECT_EQ(static_cast<uint32_t>(r.bits), canonicalNanS);
    EXPECT_EQ(r.flags, csr::flagNV);
}

TEST(FpArith, DivByInfinityIsExactZero)
{
    const FpResult r =
        arithS(ArithOp::Div, f32(3.0f), f32(INFINITY), csr::rmRNE);
    EXPECT_EQ(toF32(r.bits), 0.0f);
    EXPECT_EQ(r.flags, 0u);
}

TEST(FpArith, InexactSetsNX)
{
    const FpResult r =
        arithS(ArithOp::Div, f32(1.0f), f32(3.0f), csr::rmRNE);
    EXPECT_NE(r.flags & csr::flagNX, 0u);
}

TEST(FpArith, OverflowSetsOFNX)
{
    const FpResult r = arithS(ArithOp::Mul, f32(3.0e38f), f32(3.0e38f),
                              csr::rmRNE);
    EXPECT_TRUE(std::isinf(toF32(r.bits)));
    EXPECT_NE(r.flags & csr::flagOF, 0u);
    EXPECT_NE(r.flags & csr::flagNX, 0u);
}

TEST(FpArith, UnderflowSetsUFNX)
{
    const FpResult r = arithD(ArithOp::Mul, f64(1e-300), f64(1e-300),
                              csr::rmRNE);
    EXPECT_NE(r.flags & csr::flagUF, 0u);
    EXPECT_NE(r.flags & csr::flagNX, 0u);
}

TEST(FpArith, RoundingModesDiffer)
{
    // 1/3 rounds differently under RDN and RUP.
    const FpResult dn =
        arithD(ArithOp::Div, f64(1.0), f64(3.0), csr::rmRDN);
    const FpResult up =
        arithD(ArithOp::Div, f64(1.0), f64(3.0), csr::rmRUP);
    EXPECT_LT(toF64(dn.bits), toF64(up.bits));
    // RTZ equals RDN for positive results.
    const FpResult tz =
        arithD(ArithOp::Div, f64(1.0), f64(3.0), csr::rmRTZ);
    EXPECT_EQ(tz.bits, dn.bits);
}

TEST(FpArith, NanResultIsCanonical)
{
    const FpResult r = arithD(ArithOp::Sub, f64(INFINITY),
                              f64(INFINITY), csr::rmRNE);
    EXPECT_EQ(r.bits, canonicalNanD);
    EXPECT_EQ(r.flags, csr::flagNV);
}

TEST(FpArith, SqrtNegativeIsInvalid)
{
    const FpResult r = arithS(ArithOp::Sqrt, f32(-4.0f), 0, csr::rmRNE);
    EXPECT_EQ(static_cast<uint32_t>(r.bits), canonicalNanS);
    EXPECT_EQ(r.flags, csr::flagNV);
}

TEST(FpMinMax, SignedZeroOrdering)
{
    const FpResult mn =
        arithS(ArithOp::Min, f32(-0.0f), f32(0.0f), csr::rmRNE);
    EXPECT_EQ(static_cast<uint32_t>(mn.bits), 0x80000000u);
    const FpResult mx =
        arithS(ArithOp::Max, f32(-0.0f), f32(0.0f), csr::rmRNE);
    EXPECT_EQ(static_cast<uint32_t>(mx.bits), 0x00000000u);
}

TEST(FpMinMax, NanHandling)
{
    // One NaN: return the other operand, quietly for qNaN.
    const FpResult r = arithD(ArithOp::Min, canonicalNanD, f64(2.0),
                              csr::rmRNE);
    EXPECT_EQ(toF64(r.bits), 2.0);
    EXPECT_EQ(r.flags, 0u);
    // Signaling NaN input raises NV.
    const FpResult rs = arithD(ArithOp::Min, 0x7FF0000000000001ull,
                               f64(2.0), csr::rmRNE);
    EXPECT_EQ(toF64(rs.bits), 2.0);
    EXPECT_EQ(rs.flags, csr::flagNV);
    // Both NaN: canonical NaN.
    const FpResult rb = arithD(ArithOp::Max, canonicalNanD,
                               canonicalNanD, csr::rmRNE);
    EXPECT_EQ(rb.bits, canonicalNanD);
}

TEST(FpFma, BasicAndNegations)
{
    // fmadd: 2*3+1 = 7
    FpResult r = fmaD(f64(2.0), f64(3.0), f64(1.0), false, false,
                      csr::rmRNE);
    EXPECT_EQ(toF64(r.bits), 7.0);
    // fmsub: 2*3-1 = 5
    r = fmaD(f64(2.0), f64(3.0), f64(1.0), false, true, csr::rmRNE);
    EXPECT_EQ(toF64(r.bits), 5.0);
    // fnmsub: -(2*3)+1 = -5
    r = fmaD(f64(2.0), f64(3.0), f64(1.0), true, false, csr::rmRNE);
    EXPECT_EQ(toF64(r.bits), -5.0);
    // fnmadd: -(2*3)-1 = -7
    r = fmaD(f64(2.0), f64(3.0), f64(1.0), true, true, csr::rmRNE);
    EXPECT_EQ(toF64(r.bits), -7.0);
}

TEST(FpFma, InfTimesZeroIsInvalid)
{
    const FpResult r = fmaS(f32(INFINITY), f32(0.0f), f32(1.0f), false,
                            false, csr::rmRNE);
    EXPECT_NE(r.flags & csr::flagNV, 0u);
}

TEST(FpCmp, OrderedComparisons)
{
    EXPECT_EQ(cmpD(CmpOp::Lt, f64(1.0), f64(2.0)).bits, 1u);
    EXPECT_EQ(cmpD(CmpOp::Lt, f64(2.0), f64(1.0)).bits, 0u);
    EXPECT_EQ(cmpD(CmpOp::Le, f64(2.0), f64(2.0)).bits, 1u);
    EXPECT_EQ(cmpD(CmpOp::Eq, f64(2.0), f64(2.0)).bits, 1u);
    EXPECT_EQ(cmpD(CmpOp::Eq, f64(-0.0), f64(0.0)).bits, 1u);
}

TEST(FpCmp, NanSignaling)
{
    // feq with qNaN: false, no NV.
    FpResult r = cmpD(CmpOp::Eq, canonicalNanD, f64(1.0));
    EXPECT_EQ(r.bits, 0u);
    EXPECT_EQ(r.flags, 0u);
    // feq with sNaN: NV.
    r = cmpD(CmpOp::Eq, 0x7FF0000000000001ull, f64(1.0));
    EXPECT_EQ(r.flags, csr::flagNV);
    // flt with any NaN: NV.
    r = cmpD(CmpOp::Lt, canonicalNanD, f64(1.0));
    EXPECT_EQ(r.flags, csr::flagNV);
}

TEST(FpCvt, FloatToIntSaturation)
{
    // NaN -> positive saturation + NV.
    FpResult r = cvtSToI(canonicalNanS, true, false, csr::rmRNE);
    EXPECT_EQ(r.bits, 0x7FFFFFFFull);
    EXPECT_EQ(r.flags, csr::flagNV);
    // Large positive -> saturate.
    r = cvtSToI(f32(3e9f), true, false, csr::rmRNE);
    EXPECT_EQ(r.bits, 0x7FFFFFFFull);
    EXPECT_EQ(r.flags, csr::flagNV);
    // Negative to unsigned -> 0 + NV.
    r = cvtSToI(f32(-2.0f), false, true, csr::rmRNE);
    EXPECT_EQ(r.bits, 0u);
    EXPECT_EQ(r.flags, csr::flagNV);
    // -0.4 to unsigned rounds to 0 without NV under RTZ.
    r = cvtSToI(f32(-0.4f), false, true, csr::rmRTZ);
    EXPECT_EQ(r.bits, 0u);
    EXPECT_EQ(r.flags, csr::flagNX);
}

TEST(FpCvt, FloatToIntRounding)
{
    FpResult r = cvtDToI(f64(2.5), true, true, csr::rmRNE);
    EXPECT_EQ(r.bits, 2u); // ties to even
    r = cvtDToI(f64(2.5), true, true, csr::rmRUP);
    EXPECT_EQ(r.bits, 3u);
    r = cvtDToI(f64(-2.5), true, true, csr::rmRDN);
    EXPECT_EQ(r.bits, static_cast<uint64_t>(-3));
    r = cvtDToI(f64(-2.5), true, true, csr::rmRTZ);
    EXPECT_EQ(r.bits, static_cast<uint64_t>(-2));
}

TEST(FpCvt, Wordresult32BitSignExtended)
{
    const FpResult r = cvtDToI(f64(-5.0), true, false, csr::rmRNE);
    EXPECT_EQ(r.bits, static_cast<uint64_t>(-5));
}

TEST(FpCvt, IntToFloatInexact)
{
    // 2^53+1 is not representable in double.
    const uint64_t v = (1ull << 53) + 1;
    const FpResult r = cvtIToD(v, false, true, csr::rmRNE);
    EXPECT_EQ(r.flags, csr::flagNX);
}

TEST(FpCvt, PrecisionConversions)
{
    const FpResult up = cvtSToD(f32(1.5f));
    EXPECT_EQ(toF64(up.bits), 1.5);
    EXPECT_EQ(up.flags, 0u);

    const FpResult down = cvtDToS(f64(1e60), csr::rmRNE);
    EXPECT_TRUE(std::isinf(toF32(down.bits)));
    EXPECT_NE(down.flags & csr::flagOF, 0u);

    const FpResult nan = cvtDToS(canonicalNanD, csr::rmRNE);
    EXPECT_EQ(static_cast<uint32_t>(nan.bits), canonicalNanS);
}

TEST(FpSgnj, AllThreeOps)
{
    const uint32_t pos = f32(2.5f);
    const uint32_t neg = f32(-1.0f);
    EXPECT_EQ(sgnjS(SgnOp::Copy, pos, neg), f32(-2.5f));
    EXPECT_EQ(sgnjS(SgnOp::Negate, pos, pos), f32(-2.5f));
    EXPECT_EQ(sgnjS(SgnOp::XorSign, neg, neg), f32(1.0f));
    EXPECT_EQ(sgnjD(SgnOp::Copy, f64(3.0), f64(-0.0)), f64(-3.0));
}

/**
 * The host FP environment around every scoped operation: the host
 * rounding mode after an op is the one before it, and host flags
 * raised before an op (by an earlier op, an unscoped comparison or
 * anyone else) never show up in its fflags. Known answers for every
 * RISC-V rm pin result bits and flags.
 */
TEST(FpEnv, HostStateRestoredAndFlagsDoNotLeak)
{
    ASSERT_EQ(fegetround(), FE_TONEAREST);
    const auto ops = std::to_array<FpResult (*)(uint8_t)>({
        [](uint8_t rm) {
            return arithS(ArithOp::Add, f32(1.0f), f32(1e-8f * 3.3f), rm);
        },
        [](uint8_t rm) {
            return arithD(ArithOp::Div, f64(-1.0), f64(3.0), rm);
        },
        [](uint8_t rm) {
            return arithS(ArithOp::Sqrt, f32(2.0f), 0, rm);
        },
        [](uint8_t rm) {
            return fmaD(f64(0.1), f64(-0.3), f64(1e-17), false, true, rm);
        },
        [](uint8_t rm) {
            return fmaS(f32(1e30f), f32(1e30f), f32(1.0f), true, false,
                        rm);
        },
        [](uint8_t rm) { return cvtDToI(f64(-2.5), true, false, rm); },
        [](uint8_t rm) { return cvtSToI(f32(7.5f), false, true, rm); },
        [](uint8_t rm) {
            return cvtIToS(0x7fffffffffffffffull, true, true, rm);
        },
        [](uint8_t rm) {
            return cvtIToD(0xffffffffffffffffull, false, true, rm);
        },
        [](uint8_t rm) { return cvtDToS(f64(1e-40), rm); },
    });
    // {bits, flags} per op and rm (RNE, RTZ, RDN, RUP, RMM).
    const FpResult known[10][5] = {
        {{0xffffffff3f800000ull, 0x01}, {0xffffffff3f800000ull, 0x01},
         {0xffffffff3f800000ull, 0x01}, {0xffffffff3f800001ull, 0x01},
         {0xffffffff3f800000ull, 0x01}},
        {{0xbfd5555555555555ull, 0x01}, {0xbfd5555555555555ull, 0x01},
         {0xbfd5555555555556ull, 0x01}, {0xbfd5555555555555ull, 0x01},
         {0xbfd5555555555555ull, 0x01}},
        {{0xffffffff3fb504f3ull, 0x01}, {0xffffffff3fb504f3ull, 0x01},
         {0xffffffff3fb504f3ull, 0x01}, {0xffffffff3fb504f4ull, 0x01},
         {0xffffffff3fb504f3ull, 0x01}},
        {{0xbf9eb851eb851ebbull, 0x01}, {0xbf9eb851eb851ebbull, 0x01},
         {0xbf9eb851eb851ebcull, 0x01}, {0xbf9eb851eb851ebbull, 0x01},
         {0xbf9eb851eb851ebbull, 0x01}},
        {{0xffffffffff800000ull, 0x05}, {0xffffffffff7fffffull, 0x05},
         {0xffffffffff800000ull, 0x05}, {0xffffffffff7fffffull, 0x05},
         {0xffffffffff800000ull, 0x05}},
        {{0xfffffffffffffffeull, 0x01}, {0xfffffffffffffffeull, 0x01},
         {0xfffffffffffffffdull, 0x01}, {0xfffffffffffffffeull, 0x01},
         {0xfffffffffffffffeull, 0x01}},
        {{0x0000000000000008ull, 0x01}, {0x0000000000000007ull, 0x01},
         {0x0000000000000007ull, 0x01}, {0x0000000000000008ull, 0x01},
         {0x0000000000000008ull, 0x01}},
        {{0xffffffff5f000000ull, 0x01}, {0xffffffff5effffffull, 0x01},
         {0xffffffff5effffffull, 0x01}, {0xffffffff5f000000ull, 0x01},
         {0xffffffff5f000000ull, 0x01}},
        {{0x43f0000000000000ull, 0x01}, {0x43efffffffffffffull, 0x01},
         {0x43efffffffffffffull, 0x01}, {0x43f0000000000000ull, 0x01},
         {0x43f0000000000000ull, 0x01}},
        {{0xffffffff000116c2ull, 0x03}, {0xffffffff000116c2ull, 0x03},
         {0xffffffff000116c2ull, 0x03}, {0xffffffff000116c3ull, 0x03},
         {0xffffffff000116c2ull, 0x03}},
    };
    // Exact operations of the same kinds: no flag may be reported.
    const auto exact = std::to_array<FpResult (*)()>({
        [] { return arithS(ArithOp::Add, f32(1.0f), f32(2.0f), 0); },
        [] { return arithD(ArithOp::Mul, f64(1.5), f64(4.0), 0); },
        [] { return fmaD(f64(2.0), f64(3.0), f64(1.0), false, false, 0); },
        [] { return cvtDToI(f64(-3.0), true, true, 0); },
        [] { return cvtIToS(42, true, false, 0); },
        [] { return cvtDToS(f64(0.5), 0); },
    });

    for (size_t i = 0; i < ops.size(); ++i) {
        for (uint8_t rm = 0; rm < 5; ++rm) {
            SCOPED_TRACE(testing::Message() << "op " << i << " rm "
                                            << unsigned{rm});
            const FpResult r = ops[i](rm);
            EXPECT_EQ(r.bits, known[i][rm].bits);
            EXPECT_EQ(r.flags, known[i][rm].flags);
            EXPECT_EQ(fegetround(), FE_TONEAREST);
            // Every known-answer op raises flags; none may leak.
            for (const auto &e : exact)
                EXPECT_EQ(e().flags, 0u);
        }
    }

    // Flags raised outside any scope do not leak either.
    std::feraiseexcept(FE_ALL_EXCEPT);
    for (const auto &e : exact) {
        EXPECT_EQ(e().flags, 0u);
        std::feraiseexcept(FE_INEXACT | FE_INVALID);
    }
    std::feclearexcept(FE_ALL_EXCEPT);

    // A non-default host mode survives scoped ops of every rm.
    ASSERT_EQ(fesetround(FE_UPWARD), 0);
    for (uint8_t rm = 0; rm < 5; ++rm) {
        ops[1](rm);
        EXPECT_EQ(fegetround(), FE_UPWARD) << "rm " << unsigned{rm};
    }
    EXPECT_EQ(ops[1](isa::csr::rmRDN).bits, known[1][2].bits);
    fesetround(FE_TONEAREST);
}

} // namespace
} // namespace turbofuzz::core::fp
