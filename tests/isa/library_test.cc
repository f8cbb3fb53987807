/** @file Instruction-library configuration tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "isa/instruction_library.hh"

namespace turbofuzz::isa
{
namespace
{

/** Undo one SplitMix64 xorshift step y = x ^ (x >> s). */
uint64_t
unXorShift(uint64_t y, unsigned s)
{
    uint64_t x = y;
    for (unsigned i = 0; i <= 64 / s; ++i)
        x = y ^ (x >> s);
    return x;
}

/** Multiplicative inverse of an odd constant modulo 2^64. */
uint64_t
inverseOdd(uint64_t a)
{
    uint64_t x = a; // correct to 3 bits; each Newton step doubles
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

/** An Rng whose next draw is exactly @p out (SplitMix64 inverted). */
Rng
rngEmitting(uint64_t out)
{
    uint64_t z = unXorShift(out, 31);
    z *= inverseOdd(0x94d049bb133111ebull);
    z = unXorShift(z, 27);
    z *= inverseOdd(0xbf58476d1ce4e5b9ull);
    z = unXorShift(z, 30);
    Rng rng;
    rng.setRawState(z - 0x9e3779b97f4a7c15ull);
    return rng;
}

/** A library plus the per-category weights it was configured with. */
struct WeightedLibrary
{
    const char *name;
    InstructionLibrary lib;
    std::array<double, static_cast<size_t>(Ext::NumExts)> weights;
};

/** The cumulative weights pick() bisects, rebuilt independently. */
std::vector<double>
cumulativeWeights(const WeightedLibrary &wl)
{
    std::vector<double> cum;
    double acc = 0.0;
    for (const Opcode op : wl.lib.active()) {
        acc += wl.weights[static_cast<size_t>(descOf(op).ext)];
        cum.push_back(acc);
    }
    return cum;
}

/** The reference pick: upper_bound of uniform() * total. */
Opcode
oraclePick(const WeightedLibrary &wl, const std::vector<double> &cum,
           Rng &rng)
{
    const double r = rng.uniform() * cum.back();
    const size_t idx = static_cast<size_t>(
        std::upper_bound(cum.begin(), cum.end(), r) - cum.begin());
    return wl.lib.active()[std::min(idx, cum.size() - 1)];
}

std::vector<WeightedLibrary>
oracleLibraries()
{
    std::vector<WeightedLibrary> libs;
    auto add = [&](const char *name) -> WeightedLibrary & {
        WeightedLibrary &wl = libs.emplace_back();
        wl.name = name;
        wl.weights.fill(1.0);
        return wl;
    };
    auto weigh = [](WeightedLibrary &wl, Ext ext, double w) {
        wl.lib.setExtWeight(ext, w);
        wl.weights[static_cast<size_t>(ext)] = w;
    };
    add("default");
    {
        WeightedLibrary &wl = add("campaign");
        wl.lib.exclude(Opcode::Mret);
        weigh(wl, Ext::System, 0.1);
    }
    {
        WeightedLibrary &wl = add("single-extension");
        for (size_t e = 0; e < static_cast<size_t>(Ext::NumExts); ++e)
            wl.lib.setExtEnabled(static_cast<Ext>(e), false);
        wl.lib.setExtEnabled(Ext::M, true);
    }
    {
        WeightedLibrary &wl = add("zero-weight");
        weigh(wl, Ext::F, 0.0);
        weigh(wl, Ext::D, 0.0);
        weigh(wl, Ext::A, 3.7);
        weigh(wl, Ext::System, 0.013);
    }
    {
        WeightedLibrary &wl = add("excluded");
        wl.lib.exclude(Opcode::Ecall);
        wl.lib.exclude(Opcode::Ebreak);
        wl.lib.exclude(Opcode::Add);
        wl.lib.exclude(Opcode::FaddD);
        weigh(wl, Ext::M, 0.37);
    }
    return libs;
}

/**
 * pick() against its oracle, upper_bound over the cumulative weights
 * of a cloned Rng's uniform(): random draws, the draws on and next to
 * every guide-bucket edge, and the draws on either side of every
 * cumulative-weight boundary. Both sides must also consume the same
 * RNG stream.
 */
TEST(Library, PickMatchesUpperBoundOracle)
{
    ASSERT_EQ(rngEmitting(0x0123456789ABCDEFull).next(),
              0x0123456789ABCDEFull);
    constexpr uint64_t maxK = (uint64_t{1} << 53) - 1;
    auto compareAt = [](const WeightedLibrary &wl,
                        const std::vector<double> &cum, uint64_t k) {
        Rng fast = rngEmitting(k << 11);
        Rng ref = fast;
        const Opcode got = wl.lib.pick(fast);
        const Opcode want = oraclePick(wl, cum, ref);
        EXPECT_EQ(got, want) << wl.name << " k=" << k;
        EXPECT_EQ(fast.rawState(), ref.rawState()) << wl.name;
        return got == want;
    };
    for (const WeightedLibrary &wl : oracleLibraries()) {
        const std::vector<double> cum = cumulativeWeights(wl);
        ASSERT_FALSE(cum.empty()) << wl.name;
        ASSERT_EQ(cum.size(), wl.lib.activeCount());

        Rng fast(77);
        Rng ref = fast;
        for (int i = 0; i < 200000; ++i)
            ASSERT_EQ(wl.lib.pick(fast), oraclePick(wl, cum, ref))
                << wl.name << " draw " << i;
        EXPECT_EQ(fast.rawState(), ref.rawState());

        // Guide-bucket edges: the first draw of every bucket and its
        // neighbours on either side.
        constexpr unsigned shift =
            53 - InstructionLibrary::pickGuideBits;
        for (uint64_t b = 0;
             b <= (uint64_t{1} << InstructionLibrary::pickGuideBits);
             ++b) {
            const uint64_t edge = b << shift;
            for (const uint64_t k : {edge - 1, edge, edge + 1})
                if (k <= maxK)
                    ASSERT_TRUE(compareAt(wl, cum, k));
        }
        ASSERT_TRUE(compareAt(wl, cum, maxK));

        // Cumulative-weight boundaries: the smallest draw whose
        // product exceeds cum[i], and the draws around it.
        const double total = cum.back();
        for (const double c : cum) {
            uint64_t lo = 0, hi = maxK + 1;
            while (lo < hi) {
                const uint64_t mid = lo + (hi - lo) / 2;
                const double r =
                    static_cast<double>(mid) * 0x1.0p-53 * total;
                if (r > c)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            for (const uint64_t k : {lo - 1, lo, lo + 1})
                if (k <= maxK)
                    ASSERT_TRUE(compareAt(wl, cum, k));
        }
    }
}

TEST(InstructionLibrary, DefaultsToFullSet)
{
    InstructionLibrary lib;
    EXPECT_EQ(lib.activeCount(), numOpcodes());
}

TEST(InstructionLibrary, DisableCategoryRemovesItsOpcodes)
{
    InstructionLibrary lib;
    lib.setExtEnabled(Ext::F, false);
    lib.setExtEnabled(Ext::D, false);
    for (const auto &d : allDescs()) {
        const bool fp_ext = d.ext == Ext::F || d.ext == Ext::D;
        EXPECT_EQ(lib.contains(d.op), !fp_ext) << d.mnemonic;
    }
    EXPECT_FALSE(lib.extEnabled(Ext::F));
    lib.setExtEnabled(Ext::F, true);
    EXPECT_TRUE(lib.contains(Opcode::FaddS));
}

TEST(InstructionLibrary, ExcludeSingleOpcode)
{
    InstructionLibrary lib;
    lib.exclude(Opcode::Ecall);
    lib.exclude(Opcode::Ebreak);
    EXPECT_FALSE(lib.contains(Opcode::Ecall));
    EXPECT_TRUE(lib.contains(Opcode::Fence));
    lib.include(Opcode::Ecall);
    EXPECT_TRUE(lib.contains(Opcode::Ecall));
}

TEST(InstructionLibrary, PickHonorsFiltering)
{
    InstructionLibrary lib;
    lib.setExtEnabled(Ext::F, false);
    lib.setExtEnabled(Ext::D, false);
    lib.setExtEnabled(Ext::A, false);
    lib.setExtEnabled(Ext::M, false);
    lib.setExtEnabled(Ext::Zicsr, false);
    lib.setExtEnabled(Ext::System, false);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const Opcode op = lib.pick(rng);
        EXPECT_EQ(descOf(op).ext, Ext::I);
    }
}

TEST(InstructionLibrary, WeightsBiasSelection)
{
    InstructionLibrary lib;
    lib.setExtWeight(Ext::M, 10.0);
    lib.setExtWeight(Ext::I, 0.1);
    lib.setExtEnabled(Ext::A, false);
    lib.setExtEnabled(Ext::F, false);
    lib.setExtEnabled(Ext::D, false);
    lib.setExtEnabled(Ext::Zicsr, false);
    lib.setExtEnabled(Ext::System, false);

    Rng rng(2);
    std::map<Ext, int> hits;
    for (int i = 0; i < 20000; ++i)
        hits[descOf(lib.pick(rng)).ext]++;
    // M has 13 ops at weight 10 = 130; I has 52 ops at 0.1 = 5.2.
    EXPECT_GT(hits[Ext::M], hits[Ext::I] * 10);
}

TEST(InstructionLibrary, ZeroWeightActsAsDisable)
{
    InstructionLibrary lib;
    lib.setExtWeight(Ext::A, 0.0);
    EXPECT_FALSE(lib.contains(Opcode::AmoaddW));
}

TEST(InstructionLibrary, PickCoversActiveSet)
{
    InstructionLibrary lib;
    lib.setExtEnabled(Ext::I, false);
    lib.setExtEnabled(Ext::M, false);
    lib.setExtEnabled(Ext::A, false);
    lib.setExtEnabled(Ext::F, false);
    lib.setExtEnabled(Ext::D, false);
    lib.setExtEnabled(Ext::System, false);
    // Only Zicsr's 6 opcodes remain; a modest sample hits them all.
    Rng rng(3);
    std::set<Opcode> seen;
    for (int i = 0; i < 600; ++i)
        seen.insert(lib.pick(rng));
    EXPECT_EQ(seen.size(), 6u);
}

} // namespace
} // namespace turbofuzz::isa
