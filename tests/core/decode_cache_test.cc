/**
 * @file
 * Decode-cache correctness tests: invalidation on writes to fetchable
 * addresses (including self-modifying stimulus) and bit-equivalence
 * of the cached and uncached step paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/iss.hh"
#include "isa/encoding.hh"

namespace turbofuzz::core
{
namespace
{

using isa::Opcode;
using isa::Operands;

constexpr uint64_t base = 0x80000000ull;

Operands
opsRdRs1Imm(unsigned rd, unsigned rs1, int64_t imm)
{
    Operands o;
    o.rd = static_cast<uint8_t>(rd);
    o.rs1 = static_cast<uint8_t>(rs1);
    o.imm = imm;
    return o;
}

/**
 * RAII: pin TURBOFUZZ_DECODE_CACHE for the guard's lifetime (nullptr
 * unsets it, i.e. cache on), restoring the ambient value after — the
 * CI off-leg exports the variable globally, and these tests must
 * control it regardless.
 */
class ScopedDecodeCacheEnv
{
  public:
    explicit ScopedDecodeCacheEnv(const char *value)
    {
        if (const char *old = getenv("TURBOFUZZ_DECODE_CACHE")) {
            saved = old;
            hadOld = true;
        }
        if (value)
            setenv("TURBOFUZZ_DECODE_CACHE", value, 1);
        else
            unsetenv("TURBOFUZZ_DECODE_CACHE");
    }
    ~ScopedDecodeCacheEnv()
    {
        if (hadOld)
            setenv("TURBOFUZZ_DECODE_CACHE", saved.c_str(), 1);
        else
            unsetenv("TURBOFUZZ_DECODE_CACHE");
    }

  private:
    std::string saved;
    bool hadOld = false;
};

TEST(DecodeCache, RepeatedFetchHitsCache)
{
    ScopedDecodeCacheEnv on(nullptr);
    soc::Memory mem;
    // addi x1, x0, 7 ; jal x0, -4 (spin on the addi forever).
    mem.write32(base, isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 7)));
    Operands j;
    j.rd = 0;
    j.imm = -4;
    mem.write32(base + 4, isa::encode(Opcode::Jal, j));

    Iss iss(&mem);
    iss.reset(base);
    ASSERT_TRUE(iss.decodeCacheEnabled());
    for (int i = 0; i < 20; ++i)
        iss.step();

    const Iss::DecodeStats &st = iss.decodeStats();
    // Two cold misses, everything after that reuses the cache.
    EXPECT_EQ(st.miss, 2u);
    EXPECT_GE(st.hit, 18u);
    EXPECT_EQ(st.invalidate, 0u);
}

TEST(DecodeCache, ExternalStoreToCachedAddressRedecodes)
{
    ScopedDecodeCacheEnv on(nullptr);
    soc::Memory mem;
    mem.write32(base, isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 7)));

    Iss iss(&mem);
    iss.reset(base);
    CommitInfo ci = iss.step();
    ASSERT_TRUE(ci.rdWritten);
    EXPECT_EQ(ci.rdValue, 7u);

    // Overwrite the already-cached word, then execute it again: the
    // cache must notice the write (fetch-epoch protocol) and
    // re-decode rather than replay the stale instruction.
    mem.write32(base, isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 9)));
    iss.reset(base);
    ci = iss.step();
    EXPECT_EQ(ci.rdValue, 9u);
    EXPECT_GE(iss.decodeStats().invalidate, 1u);
}

/**
 * A bulk rewrite (Memory::writeWords, as iteration materialization
 * uses) bumps the fetch epoch once per page chunk; a cached line over
 * a rewritten word must still re-decode, and one over an unchanged
 * word must still hit.
 */
TEST(DecodeCache, BulkWriteInvalidatesCachedLine)
{
    ScopedDecodeCacheEnv on(nullptr);
    soc::Memory mem;
    mem.addFetchWatch(base, 0x10000);
    std::vector<uint32_t> code = {
        isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 7)),
        isa::encode(Opcode::Addi, opsRdRs1Imm(2, 0, 5)),
    };
    mem.writeWords(base, code.data(), code.size());

    Iss iss(&mem);
    iss.reset(base);
    EXPECT_EQ(iss.step().rdValue, 7u);
    EXPECT_EQ(iss.step().rdValue, 5u);

    code[0] = isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 9));
    mem.writeWords(base, code.data(), code.size());
    const Iss::DecodeStats before = iss.decodeStats();
    iss.reset(base);
    EXPECT_EQ(iss.step().rdValue, 9u);
    EXPECT_EQ(iss.step().rdValue, 5u);
    EXPECT_EQ(iss.decodeStats().invalidate, before.invalidate + 1);
    EXPECT_EQ(iss.decodeStats().hit, before.hit + 1);
}

/**
 * Self-modifying regression: a program overwrites an instruction it
 * already executed (and therefore cached), loops back, and must
 * observe its own store.
 */
TEST(DecodeCache, SelfModifyingLoopExecutesNewInstruction)
{
    ScopedDecodeCacheEnv on(nullptr);
    soc::Memory mem;
    unsigned slot = 0;
    auto emit = [&](uint32_t word) { mem.write32(base + 4 * slot++, word); };

    const uint32_t victim_new =
        isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 22));

    // 0: auipc x20, 0            x20 = base
    Operands au;
    au.rd = 20;
    au.imm = 0;
    emit(isa::encode(Opcode::Auipc, au));
    // 1: addi x24, x0, 1         loop-once flag
    emit(isa::encode(Opcode::Addi, opsRdRs1Imm(24, 0, 1)));
    // 2: addi x21, x0, 0         iteration counter
    emit(isa::encode(Opcode::Addi, opsRdRs1Imm(21, 0, 0)));
    // 3: LOOP (victim): addi x1, x0, 11
    const unsigned victim_slot = slot;
    emit(isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 11)));
    // 4: lw x7, 36(x20)          x7 = stashed replacement word
    emit(isa::encode(Opcode::Lw, opsRdRs1Imm(7, 20, 9 * 4)));
    // 5: sw x7, 12(x20)          overwrite the victim
    Operands sw;
    sw.rs1 = 20;
    sw.rs2 = 7;
    sw.imm = static_cast<int64_t>(victim_slot) * 4;
    emit(isa::encode(Opcode::Sw, sw));
    // 6: addi x21, x21, 1
    emit(isa::encode(Opcode::Addi, opsRdRs1Imm(21, 21, 1)));
    // 7: beq x21, x24, LOOP      taken exactly once (first pass)
    Operands beq;
    beq.rs1 = 21;
    beq.rs2 = 24;
    beq.imm = (static_cast<int64_t>(victim_slot) - 7) * 4;
    emit(isa::encode(Opcode::Beq, beq));
    // 8: addi x31, x0, 99        sentinel
    emit(isa::encode(Opcode::Addi, opsRdRs1Imm(31, 0, 99)));
    // 9: stashed replacement instruction word (data, never executed)
    emit(victim_new);

    Iss iss(&mem);
    iss.reset(base);

    // First pass: slots 0..7; the victim still holds addi x1,x0,11.
    CommitInfo last;
    for (int i = 0; i < 8; ++i)
        last = iss.step();
    EXPECT_TRUE(last.branchTaken);
    EXPECT_EQ(iss.state().x(1), 11u);

    // Second pass: slots 3..7 with the victim REWRITTEN by slot 5's
    // store. The cached decode of slot 3 must be invalidated.
    for (int i = 0; i < 5; ++i)
        last = iss.step();
    EXPECT_FALSE(last.branchTaken);
    EXPECT_EQ(iss.state().x(1), 22u)
        << "stale decode executed: self-modifying store was not "
           "observed by the fetch path";
    EXPECT_GE(iss.decodeStats().invalidate, 1u);

    // Sentinel confirms control flow fell through after pass two.
    last = iss.step();
    EXPECT_EQ(iss.state().x(31), 99u);
}

TEST(DecodeCache, EnvGateForcesCacheOff)
{
    soc::Memory mem;
    mem.write32(base, isa::encode(Opcode::Addi, opsRdRs1Imm(1, 0, 7)));

    ScopedDecodeCacheEnv off("off");
    Iss iss(&mem);
    iss.reset(base);
    EXPECT_FALSE(iss.decodeCacheEnabled());
    for (int i = 0; i < 3; ++i) {
        iss.reset(base);
        iss.step();
    }
    const Iss::DecodeStats &st = iss.decodeStats();
    EXPECT_EQ(st.hit, 0u);
    EXPECT_EQ(st.miss, 0u);
    EXPECT_EQ(st.invalidate, 0u);
}

/** Cached and uncached execution of one program, commit-for-commit. */
TEST(DecodeCache, OnOffTracesBitIdentical)
{
    // A program mixing ALU, memory, branches and self-modification.
    std::vector<uint32_t> words;
    {
        soc::Memory scratch;
        unsigned slot = 0;
        auto emit = [&](uint32_t w) {
            scratch.write32(base + 4 * slot++, w);
            words.push_back(w);
        };
        Operands au;
        au.rd = 20;
        au.imm = 0;
        emit(isa::encode(Opcode::Auipc, au));
        emit(isa::encode(Opcode::Addi, opsRdRs1Imm(24, 0, 2)));
        emit(isa::encode(Opcode::Addi, opsRdRs1Imm(21, 0, 0)));
        emit(isa::encode(Opcode::Addi, opsRdRs1Imm(1, 21, 5)));
        emit(isa::encode(Opcode::Lw, opsRdRs1Imm(7, 20, 0)));
        Operands sw;
        sw.rs1 = 20;
        sw.rs2 = 1;
        sw.imm = 3 * 4;
        emit(isa::encode(Opcode::Sw, sw));
        emit(isa::encode(Opcode::Addi, opsRdRs1Imm(21, 21, 1)));
        Operands blt;
        blt.rs1 = 21;
        blt.rs2 = 24;
        blt.imm = (3 - 7) * 4;
        emit(isa::encode(Opcode::Blt, blt));
        emit(isa::encode(Opcode::Addi, opsRdRs1Imm(31, 0, 1)));
    }

    auto run = [&](bool cached) {
        ScopedDecodeCacheEnv env(cached ? nullptr : "off");
        soc::Memory mem;
        for (size_t i = 0; i < words.size(); ++i)
            mem.write32(base + 4 * i, words[i]);
        Iss iss(&mem);
        EXPECT_EQ(iss.decodeCacheEnabled(), cached);
        iss.reset(base);
        std::vector<CommitInfo> trace;
        for (int i = 0; i < 24; ++i)
            trace.push_back(iss.step());
        return trace;
    };

    const std::vector<CommitInfo> on = run(true);
    const std::vector<CommitInfo> off = run(false);
    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < on.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(on[i].pc, off[i].pc);
        EXPECT_EQ(on[i].nextPc, off[i].nextPc);
        EXPECT_EQ(on[i].insn, off[i].insn);
        EXPECT_EQ(on[i].op, off[i].op);
        EXPECT_EQ(on[i].rdWritten, off[i].rdWritten);
        EXPECT_EQ(on[i].rdValue, off[i].rdValue);
        EXPECT_EQ(on[i].branchTaken, off[i].branchTaken);
        EXPECT_EQ(on[i].memAccess, off[i].memAccess);
        EXPECT_EQ(on[i].memAddr, off[i].memAddr);
        EXPECT_EQ(on[i].trapped, off[i].trapped);
        EXPECT_EQ(on[i].minstretAfter, off[i].minstretAfter);
    }
}

} // namespace
} // namespace turbofuzz::core
