/** @file Direct-mode block construction and mutation tests. */

#include <gtest/gtest.h>

#include "fuzzer/block_builder.hh"
#include "harness/campaign.hh"
#include "isa/disasm.hh"

namespace turbofuzz::fuzzer
{
namespace
{

class BlockBuilderTest : public ::testing::Test
{
  protected:
    BlockBuilderTest()
        : lib(isa::InstructionLibrary{}),
          builder(layout, &lib, GenProbs{}), rng(7)
    {
        lib.exclude(isa::Opcode::Mret);
    }

    MemoryLayout layout;
    isa::InstructionLibrary lib;
    BlockBuilder builder;
    Rng rng;
};

TEST_F(BlockBuilderTest, EveryBlockDecodesCompletely)
{
    for (int i = 0; i < 2000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        ASSERT_FALSE(b.insns.empty());
        ASSERT_LT(b.primeIdx, b.insns.size());
        for (uint32_t w : b.insns)
            EXPECT_TRUE(isa::decode(w).valid)
                << isa::disassemble(w);
    }
}

TEST_F(BlockBuilderTest, ControlFlowFlagMatchesPrime)
{
    int cf_blocks = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded d = isa::decode(b.insns[b.primeIdx]);
        EXPECT_EQ(b.isControlFlow, d.desc->isControlFlow());
        cf_blocks += b.isControlFlow;
    }
    // The control-flow share steers toward the paper's 1:5-ish mix.
    const double share = static_cast<double>(cf_blocks) / n;
    EXPECT_GT(share, 0.30);
    EXPECT_LT(share, 0.55);
}

TEST_F(BlockBuilderTest, MemoryBlocksStageTheirOwnAddress)
{
    // Memory primes must use the scratch register staged inside the
    // block (never rely on live-in register state).
    for (int i = 0; i < 3000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded d = isa::decode(b.insns[b.primeIdx]);
        if (!d.desc->isMemAccess())
            continue;
        EXPECT_EQ(d.ops.rs1, MemoryLayout::regScratch)
            << isa::disassemble(b.insns[b.primeIdx]);
        // A staging instruction writing x30 precedes the prime.
        bool staged = false;
        for (uint32_t k = 0; k < b.primeIdx; ++k) {
            const isa::Decoded s = isa::decode(b.insns[k]);
            staged |= s.valid &&
                      s.ops.rd == MemoryLayout::regScratch &&
                      s.desc->has(isa::FlagWritesRd);
        }
        EXPECT_TRUE(staged);
    }
}

TEST_F(BlockBuilderTest, AtomicsAreAlignmentMasked)
{
    for (int i = 0; i < 4000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded d = isa::decode(b.insns[b.primeIdx]);
        if (!d.desc->has(isa::FlagAtomic))
            continue;
        // An andi x30, x30, -size precedes the prime.
        bool masked = false;
        for (uint32_t k = 0; k < b.primeIdx; ++k) {
            const isa::Decoded s = isa::decode(b.insns[k]);
            masked |= s.valid && s.op == isa::Opcode::Andi &&
                      s.ops.rd == MemoryLayout::regScratch &&
                      (s.ops.imm == -4 || s.ops.imm == -8);
        }
        EXPECT_TRUE(masked)
            << isa::disassemble(b.insns[b.primeIdx]);
        EXPECT_EQ(d.ops.imm, 0);
    }
}

TEST_F(BlockBuilderTest, CsrPrimesAvoidMtvec)
{
    for (int i = 0; i < 4000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded d = isa::decode(b.insns[b.primeIdx]);
        if (d.valid && d.desc->has(isa::FlagCsr))
            EXPECT_NE(d.ops.csr, isa::csr::mtvec);
    }
}

TEST_F(BlockBuilderTest, MutationPreservesOpcodeAndValidity)
{
    for (int i = 0; i < 2000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Opcode before =
            isa::decode(b.insns[b.primeIdx]).op;
        builder.mutateOperands(b, rng);
        const isa::Decoded after = isa::decode(b.insns[b.primeIdx]);
        ASSERT_TRUE(after.valid);
        EXPECT_EQ(after.op, before);
    }
}

TEST_F(BlockBuilderTest, MutationKeepsMemoryAddressingBound)
{
    for (int i = 0; i < 4000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded before = isa::decode(b.insns[b.primeIdx]);
        if (!before.desc->isMemAccess())
            continue;
        for (int m = 0; m < 8; ++m)
            builder.mutateOperands(b, rng);
        const isa::Decoded after = isa::decode(b.insns[b.primeIdx]);
        EXPECT_EQ(after.ops.rs1, MemoryLayout::regScratch);
        EXPECT_EQ(after.ops.imm, before.ops.imm);
    }
}

/**
 * patchBlockTarget's immediate splice against its oracle, a decode
 * and re-encode with the new immediate: every branch and jal prime,
 * random registers, random in-range deltas in both directions.
 */
TEST(BlockBuilder, PatchBlockTargetMatchesReencode)
{
    Rng rng(11);
    for (const auto &d : isa::allDescs()) {
        const bool branch = d.has(isa::FlagBranch);
        if (!branch && !d.has(isa::FlagJal))
            continue;
        const int64_t reach = branch ? 2048 : 1 << 19;
        for (int i = 0; i < 5000; ++i) {
            isa::Operands o;
            o.rd = static_cast<uint8_t>(rng.range(32));
            o.rs1 = static_cast<uint8_t>(rng.range(32));
            o.rs2 = static_cast<uint8_t>(rng.range(32));
            o.imm = 2 * (static_cast<int64_t>(rng.range(2 * reach)) -
                         reach);
            SeedBlock b;
            b.insns.push_back(isa::encode(d.op, o));
            b.primeIdx = 0;
            b.isControlFlow = true;
            const uint32_t old_word = b.insns[0];

            const int64_t delta =
                2 * (static_cast<int64_t>(rng.range(2 * reach)) - reach);
            const uint64_t src = 0x10000000ull + (1ull << 21);
            const uint64_t addrs[] = {src,
                                      src + static_cast<uint64_t>(delta)};
            ASSERT_EQ(patchBlockTarget(b, 0, 1, addrs), 1);

            isa::Decoded dec = isa::decode(old_word);
            ASSERT_TRUE(dec.valid);
            dec.ops.imm = delta;
            ASSERT_EQ(b.insns[0], isa::encode(dec.op, dec.ops))
                << d.mnemonic << " delta " << delta;
            EXPECT_EQ(b.targetBlock, 1);
        }
    }
}

TEST(PcrelHiLo, SplitsCorrectly)
{
    for (int64_t delta : {0l, 4l, -4l, 2047l, 2048l, -2048l, -2049l,
                          0x12345l, -0x54321l, (1l << 30)}) {
        int64_t hi, lo;
        pcrelHiLo(delta, hi, lo);
        EXPECT_EQ((hi << 12) + lo, delta) << delta;
        EXPECT_GE(lo, -2048);
        EXPECT_LE(lo, 2047);
    }
}

TEST(GenProbsTest, ValidRmOnlyProducesNoReservedModes)
{
    isa::InstructionLibrary lib;
    lib.exclude(isa::Opcode::Mret);
    GenProbs probs;
    probs.validRmOnly = true;
    MemoryLayout layout;
    BlockBuilder builder(layout, &lib, probs);
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        const isa::Decoded d = isa::decode(b.insns[b.primeIdx]);
        if (d.desc->has(isa::FlagHasRm))
            EXPECT_LT(d.ops.rm, 5);
    }
}

} // namespace
} // namespace turbofuzz::fuzzer
