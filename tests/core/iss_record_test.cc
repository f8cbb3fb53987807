/**
 * @file
 * Commit-record reset tests: a step must fully overwrite the record
 * it is handed, whatever bytes the slot held before. The engine's
 * trace buffers hand out reused slots, so a field a step forgot to
 * reset would leak the previous batch's values into the checker and
 * the sweep.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "core/commit_trace.hh"
#include "core/iss.hh"
#include "isa/encoding.hh"

namespace turbofuzz::core
{
namespace
{

using isa::Opcode;
using isa::Operands;

constexpr uint64_t base = 0x80000000ull;
constexpr uint64_t dataAddr = base + 0x800;
constexpr uint64_t outsideAddr = base + 0x10000; ///< not accessible

void
fillStale(CommitInfo &ci)
{
    std::memset(static_cast<void *>(&ci), 0xA5, sizeof(ci));
}

void
expectSameRecord(const CommitInfo &a, const CommitInfo &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_EQ(a.insn, b.insn);
    EXPECT_EQ(a.decodeValid, b.decodeValid);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.desc, b.desc);
    EXPECT_EQ(a.ops.rd, b.ops.rd);
    EXPECT_EQ(a.ops.rs1, b.ops.rs1);
    EXPECT_EQ(a.ops.rs2, b.ops.rs2);
    EXPECT_EQ(a.ops.rs3, b.ops.rs3);
    EXPECT_EQ(a.ops.imm, b.ops.imm);
    EXPECT_EQ(a.ops.rm, b.ops.rm);
    EXPECT_EQ(a.ops.csr, b.ops.csr);
    EXPECT_EQ(a.ops.aq, b.ops.aq);
    EXPECT_EQ(a.ops.rl, b.ops.rl);
    EXPECT_EQ(a.rdWritten, b.rdWritten);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.rdValue, b.rdValue);
    EXPECT_EQ(a.frdWritten, b.frdWritten);
    EXPECT_EQ(a.frd, b.frd);
    EXPECT_EQ(a.frdValue, b.frdValue);
    EXPECT_EQ(a.branchTaken, b.branchTaken);
    EXPECT_EQ(a.memAccess, b.memAccess);
    EXPECT_EQ(a.memWrite, b.memWrite);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.memSize, b.memSize);
    EXPECT_EQ(a.trapped, b.trapped);
    EXPECT_EQ(a.trapCause, b.trapCause);
    EXPECT_EQ(a.trapValue, b.trapValue);
    EXPECT_EQ(a.csrWritten, b.csrWritten);
    EXPECT_EQ(a.csrAddr, b.csrAddr);
    EXPECT_EQ(a.csrNewValue, b.csrNewValue);
    EXPECT_EQ(a.fflagsAccrued, b.fflagsAccrued);
    EXPECT_EQ(a.fpClassRs1, b.fpClassRs1);
    EXPECT_EQ(a.fpClassRs2, b.fpClassRs2);
    EXPECT_EQ(a.minstretAfter, b.minstretAfter);
}

/**
 * One hart over its own memory, running a program with a load, a
 * store, an FP op, an integer op, a load that faults and an illegal
 * word — all but the last are superblock (stepStraight) material.
 */
struct Hart
{
    Hart() : iss(&mem)
    {
        Operands ld;
        ld.rd = 2;
        ld.rs1 = 1;
        Operands sd;
        sd.rs1 = 1;
        sd.rs2 = 2;
        sd.imm = 8;
        Operands fadd;
        fadd.rd = 3;
        fadd.rs1 = 1;
        fadd.rs2 = 2;
        Operands addi;
        addi.rd = 4;
        addi.rs1 = 4;
        addi.imm = 1;
        Operands bad_ld;
        bad_ld.rd = 5;
        bad_ld.rs1 = 6;
        const uint32_t words[] = {
            isa::encode(Opcode::Ld, ld),
            isa::encode(Opcode::Sd, sd),
            isa::encode(Opcode::FaddD, fadd),
            isa::encode(Opcode::Addi, addi),
            isa::encode(Opcode::Ld, bad_ld),
            0x00000000u, // illegal
        };
        for (size_t i = 0; i < std::size(words); ++i)
            mem.write32(base + 4 * i, words[i]);
        mem.write64(dataAddr, 0x0123456789abcdefull);
        // The store then leaves the cached code words current.
        mem.addFetchWatch(base, 0x100);
        iss.addAccessRange(base, 0x1000);
        restart();
    }

    /** Back to the program's first word with fixed register inputs
     *  (the decode cache stays warm). */
    void
    restart()
    {
        iss.state().pc = base;
        iss.state().setX(1, dataAddr);
        iss.state().setX(6, outsideAddr);
        iss.state().setF(1, 0x3fb999999999999aull); // 0.1
        iss.state().setF(2, 0x3fd3333333333333ull); // 0.3
    }

    soc::Memory mem;
    Iss iss;
};

TEST(IssRecord, StepOverwritesStaleRecord)
{
    // stepInto: every program word, the illegal one included.
    {
        Hart stale_hart;
        Hart fresh_hart;
        for (int i = 0; i < 6; ++i) {
            SCOPED_TRACE(i);
            stale_hart.restart();
            fresh_hart.restart();
            stale_hart.iss.state().pc = base + 4 * i;
            fresh_hart.iss.state().pc = base + 4 * i;
            CommitInfo stale;
            fillStale(stale);
            CommitInfo fresh{};
            stale_hart.iss.stepInto(stale);
            fresh_hart.iss.stepInto(fresh);
            expectSameRecord(stale, fresh);
            if (i == 5) { // the illegal word
                EXPECT_TRUE(fresh.trapped);
                EXPECT_FALSE(fresh.decodeValid);
            }
        }
    }

    // stepStraight: a warm superblock run into reused trace slots.
    Hart stale_hart;
    Hart fresh_hart;
    if (!stale_hart.iss.decodeCacheEnabled())
        GTEST_SKIP() << "decode cache forced off in this environment";
    for (Hart *h : {&stale_hart, &fresh_hart}) {
        for (int i = 0; i < 5; ++i)
            h->iss.step(); // fill the decode cache
        h->restart();
    }
    CommitTrace stale_trace;
    for (int i = 0; i < 8; ++i)
        fillStale(stale_trace.append());
    stale_trace.clear(); // slots keep their 0xA5 bytes
    CommitTrace fresh_trace;

    const uint64_t n = stale_hart.iss.stepStraight(stale_trace, 8);
    ASSERT_EQ(fresh_hart.iss.stepStraight(fresh_trace, 8), n);
    ASSERT_EQ(n, 5u); // ld, sd, fadd.d, addi, faulting ld
    EXPECT_TRUE(stale_trace[0].memAccess);
    EXPECT_TRUE(stale_trace[1].memWrite);
    EXPECT_TRUE(stale_trace[2].frdWritten);
    EXPECT_TRUE(stale_trace[4].trapped);
    for (uint64_t i = 0; i < n; ++i) {
        SCOPED_TRACE(i);
        expectSameRecord(stale_trace[i], fresh_trace[i]);
    }
}

} // namespace
} // namespace turbofuzz::core
