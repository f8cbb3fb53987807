/** @file TurboFuzzer end-to-end generation tests. */

#include <gtest/gtest.h>

#include <set>

#include "core/iss.hh"
#include "fuzzer/turbofuzzer.hh"
#include "harness/campaign.hh"
#include "isa/encoding.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{
namespace
{

isa::InstructionLibrary &
testLibrary()
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    return lib;
}

TEST(TurboFuzzer, GeneratesTargetInstructionCount)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 1000;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo info = fz.generateIteration(mem);
    EXPECT_GE(info.generatedInstrs, 1000u);
    EXPECT_LT(info.generatedInstrs, 1100u); // last block overshoot only
    EXPECT_GT(info.blocks.size(), 200u);
    EXPECT_EQ(info.entryPc, opts.layout.instrBase);
    EXPECT_GT(info.codeBoundary, info.firstBlockPc);
}

TEST(TurboFuzzer, EveryEmittedWordDecodes)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 2000;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo info = fz.generateIteration(mem);
    for (uint64_t a = info.entryPc; a < info.codeBoundary; a += 4) {
        EXPECT_TRUE(isa::decode(mem.read32(a)).valid)
            << "at 0x" << std::hex << a;
    }
}

TEST(TurboFuzzer, ControlFlowTargetsLandOnBlockBoundaries)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 1500;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo info = fz.generateIteration(mem);

    // Reconstruct block base addresses.
    std::set<uint64_t> bases;
    uint64_t addr = info.firstBlockPc;
    for (const SeedBlock &b : info.blocks) {
        bases.insert(addr);
        addr += 4ull * b.instrCount();
    }
    bases.insert(info.codeBoundary);

    // Every branch/jal target must be a block base.
    addr = info.firstBlockPc;
    for (const SeedBlock &b : info.blocks) {
        const uint64_t prime_addr = addr + 4ull * b.primeIdx;
        const isa::Decoded d =
            isa::decode(mem.read32(prime_addr));
        if (d.valid && (d.desc->has(isa::FlagBranch) ||
                        d.desc->has(isa::FlagJal))) {
            const uint64_t target =
                prime_addr + static_cast<uint64_t>(d.ops.imm);
            EXPECT_TRUE(bases.count(target))
                << "target 0x" << std::hex << target;
        }
        addr += 4ull * b.instrCount();
    }
}

TEST(TurboFuzzer, JumpRangeLimitRespected)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 2000;
    opts.jumpRangeBlocks = 8;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo info = fz.generateIteration(mem);
    const auto n = static_cast<int64_t>(info.blocks.size());
    for (int64_t i = 0; i < n; ++i) {
        const SeedBlock &b = info.blocks[i];
        if (!b.isControlFlow || b.targetBlock < 0)
            continue;
        // Freshly generated targets stay within the window (retained
        // seed targets are exempt, but iteration 0 has no seeds).
        EXPECT_LE(std::abs(b.targetBlock - i), 8) << "block " << i;
    }
}

TEST(TurboFuzzer, DeterministicForSameSeed)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 500;
    opts.seed = 99;
    TurboFuzzer a(opts, &testLibrary());
    TurboFuzzer b(opts, &testLibrary());
    soc::Memory ma, mb;
    const IterationInfo ia = a.generateIteration(ma);
    const IterationInfo ib = b.generateIteration(mb);
    ASSERT_EQ(ia.generatedInstrs, ib.generatedInstrs);
    for (uint64_t addr = ia.entryPc; addr < ia.codeBoundary; addr += 4)
        ASSERT_EQ(ma.read32(addr), mb.read32(addr));
}

TEST(TurboFuzzer, SeedsChangeOutput)
{
    FuzzerOptions a_opts;
    a_opts.seed = 1;
    FuzzerOptions b_opts;
    b_opts.seed = 2;
    TurboFuzzer a(a_opts, &testLibrary());
    TurboFuzzer b(b_opts, &testLibrary());
    soc::Memory ma, mb;
    a.generateIteration(ma);
    b.generateIteration(mb);
    int diffs = 0;
    for (uint64_t off = 0; off < 4096; off += 4)
        diffs += ma.read32(a.options().layout.instrBase + off) !=
                 mb.read32(b.options().layout.instrBase + off);
    EXPECT_GT(diffs, 100);
}

TEST(TurboFuzzer, ReportResultArchivesImprovingSeeds)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 300;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo i1 = fz.generateIteration(mem);
    fz.reportResult(i1, 50); // improving: admitted
    EXPECT_EQ(fz.corpus().size(), 1u);
    const IterationInfo i2 = fz.generateIteration(mem);
    fz.reportResult(i2, 0); // not improving: rejected
    EXPECT_EQ(fz.corpus().size(), 1u);
}

TEST(TurboFuzzer, MutationModeReusesSeedBlocks)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 400;
    opts.mutationMode = {16, 16}; // always mutate
    opts.mutGenSixteenths = 0;    // never generate fresh
    opts.mutDelSixteenths = 0;    // never delete -> pure retention
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo first = fz.generateIteration(mem);
    fz.reportResult(first, 10);

    const IterationInfo second = fz.generateIteration(mem);
    ASSERT_GT(second.parentSeedId, 0u);
    // With pure retention, the second iteration's block instruction
    // words come from the seed (operand mutation may tweak them, so
    // compare block sizes which retention preserves).
    ASSERT_GE(second.blocks.size(), first.blocks.size() - 1);
    size_t matching = 0;
    for (size_t i = 0;
         i < std::min(first.blocks.size(), second.blocks.size());
         ++i) {
        matching += first.blocks[i].insns.size() ==
                    second.blocks[i].insns.size();
    }
    EXPECT_GT(matching, first.blocks.size() / 2);
}

TEST(TurboFuzzer, IterationRunsToBoundaryOnIss)
{
    FuzzerOptions opts;
    opts.instrsPerIteration = 800;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    const IterationInfo info = fz.generateIteration(mem);

    core::Iss::Options iopts;
    iopts.resetPc = info.entryPc;
    core::Iss hart(&mem, iopts);
    const MemoryLayout &lay = fz.options().layout;
    hart.addAccessRange(lay.instrBase, lay.instrSize);
    hart.addAccessRange(lay.dataBase, lay.dataSize);
    hart.addAccessRange(lay.handlerBase, 4096);

    const uint64_t cap = 2 * info.generatedInstrs + 512;
    uint64_t steps = 0;
    while (steps < cap) {
        hart.step();
        ++steps;
        const uint64_t pc = hart.state().pc;
        if (pc >= info.codeBoundary && pc < lay.handlerBase)
            break;
    }
    // Either a clean exit or a bounded loop; never a stray escape.
    const uint64_t pc = hart.state().pc;
    EXPECT_TRUE((pc >= lay.instrBase &&
                 pc < lay.instrBase + lay.instrSize) ||
                (pc >= lay.handlerBase && pc < lay.handlerBase + 4096))
        << std::hex << pc;
}

/** FNV-1a over raw bytes, chained through @p h. */
uint64_t
fnv(uint64_t h, const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
uint64_t
fnvOf(uint64_t h, const T &v)
{
    return fnv(h, &v, sizeof(v));
}

/**
 * Generation is pinned word for word: 200 seed-1 iterations at the
 * default size, with a deterministic feedback signal so seed
 * selection, retention, deletion and operand mutation all run. The
 * hash covers every block's fields, every resident memory page after
 * each iteration (templates, data fill, preamble, blocks and any
 * residue) and the final fuzzer state (RNG stream and corpus). Any
 * change to a generated word, a memory byte or the order of RNG
 * draws changes it.
 */
TEST(TurboFuzzer, GeneratedImageGolden)
{
    FuzzerOptions opts;
    opts.seed = 1;
    TurboFuzzer fz(opts, &testLibrary());
    soc::Memory mem;
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t it = 0; it < 200; ++it) {
        const IterationInfo info = fz.generateIteration(mem);
        h = fnvOf(h, info.iterationIndex);
        h = fnvOf(h, info.parentSeedId);
        h = fnvOf(h, info.generatedInstrs);
        h = fnvOf(h, info.firstBlockPc);
        h = fnvOf(h, info.codeBoundary);
        for (const SeedBlock &b : info.blocks) {
            h = fnv(h, b.insns.data(), 4 * b.insns.size());
            h = fnvOf(h, b.primeIdx);
            h = fnvOf(h, b.isControlFlow);
            h = fnvOf(h, b.targetBlock);
            h = fnvOf(h, b.position);
        }
        soc::SnapshotWriter image;
        mem.saveState(image);
        h = fnv(h, image.buffer().data(), image.buffer().size());
        fz.reportResult(info, (it * 7 + info.generatedInstrs) % 5 == 0
                                  ? 1 + it % 13
                                  : 0);
    }
    soc::SnapshotWriter state;
    fz.saveState(state);
    h = fnv(h, state.buffer().data(), state.buffer().size());
    EXPECT_EQ(h, 0x085909587a9ecbb4ull) << std::hex << "0x" << h;
}

} // namespace
} // namespace turbofuzz::fuzzer
