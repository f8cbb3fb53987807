/**
 * @file
 * The batched execution engine's golden equivalence suite.
 *
 * The engine contract (docs/engine.md): for ANY batch size, a
 * campaign produces bit-identical observable results to batch=1 —
 * which is the classic per-commit lockstep loop. These property tests
 * run full campaigns at batch sizes {1, 7, 64, 4096} across the bug
 * catalog's core families and both checking modes, and require
 * byte-equality of everything a campaign can report: coverage totals,
 * counters, the first mismatch (kind / PC / insn / values / commit
 * index), every captured reproducer's serialized bytes, and the full
 * mismatch snapshot (both harts + DUT memory) — the last one is what
 * proves the mid-batch rewind restores machine state exactly.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/execution_engine.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"

namespace turbofuzz::harness
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = makeDefaultLibrary();
    return l;
}

struct RunConfig
{
    core::CoreKind coreKind = core::CoreKind::Rocket;
    core::BugSet bugs;
    bool rv64aEnabled = true;
    checker::DiffChecker::Mode mode =
        checker::DiffChecker::Mode::PerInstruction;
    uint64_t seed = 1;
    double budgetSec = 6.0;
    bool warmStart = true;
    bool decodeCache = true;
};

/** Everything observable about a finished campaign. */
struct RunSummary
{
    uint64_t coverage;
    uint64_t iterations;
    uint64_t executed;
    uint64_t generated;
    uint64_t mismatchedIters;
    double simTime;
    std::vector<Sample> series;

    bool hasMismatch;
    checker::MismatchKind kind;
    uint64_t pc, dutValue, refValue, instrIndex;
    uint32_t insn;

    std::string snapTrigger;
    double snapTime;
    std::vector<uint8_t> snapDutArch, snapRefArch, snapDutMem;

    std::vector<std::vector<uint8_t>> reproducers;
};

RunSummary
runCampaign(const RunConfig &cfg, uint64_t batch)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    opts.coreKind = cfg.coreKind;
    opts.bugs = cfg.bugs;
    opts.rv64aEnabled = cfg.rv64aEnabled;
    opts.checkMode = cfg.mode;
    opts.batchSize = batch;
    opts.warmStart = cfg.warmStart;
    opts.decodeCache = cfg.decodeCache;
    fuzzer::FuzzerOptions fopts;
    fopts.seed = cfg.seed;
    fopts.instrsPerIteration = 1000;
    Campaign c(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                         fopts, &lib()));
    const TimeSeries series = c.run(cfg.budgetSec);

    RunSummary s{};
    s.coverage = c.coverageMap().totalCovered();
    s.iterations = c.iterations();
    s.executed = c.executedInstructions();
    s.generated = c.generatedInstructions();
    s.mismatchedIters = c.mismatchedIterations();
    s.simTime = c.nowSec();
    s.series = series.samples();

    s.hasMismatch = c.firstMismatch().has_value();
    if (s.hasMismatch) {
        const checker::Mismatch &mm = *c.firstMismatch();
        s.kind = mm.kind;
        s.pc = mm.pc;
        s.insn = mm.insn;
        s.dutValue = mm.dutValue;
        s.refValue = mm.refValue;
        s.instrIndex = mm.instrIndex;

        const soc::Snapshot &snap = c.mismatchSnapshot();
        s.snapTrigger = snap.trigger();
        s.snapTime = snap.captureTime();
        s.snapDutArch = snap.section("dut.arch");
        s.snapRefArch = snap.section("ref.arch");
        s.snapDutMem = snap.section("dut.mem");
    }
    for (const triage::Reproducer &r : c.reproducers())
        s.reproducers.push_back(r.serialize());
    return s;
}

void
expectIdentical(const RunSummary &a, const RunSummary &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.mismatchedIters, b.mismatchedIters);
    EXPECT_DOUBLE_EQ(a.simTime, b.simTime);

    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.series[i].timeSec, b.series[i].timeSec);
        EXPECT_DOUBLE_EQ(a.series[i].value, b.series[i].value);
    }

    ASSERT_EQ(a.hasMismatch, b.hasMismatch);
    if (a.hasMismatch) {
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.insn, b.insn);
        EXPECT_EQ(a.dutValue, b.dutValue);
        EXPECT_EQ(a.refValue, b.refValue);
        EXPECT_EQ(a.instrIndex, b.instrIndex);
        EXPECT_EQ(a.snapTrigger, b.snapTrigger);
        EXPECT_DOUBLE_EQ(a.snapTime, b.snapTime);
        EXPECT_EQ(a.snapDutArch, b.snapDutArch);
        EXPECT_EQ(a.snapRefArch, b.snapRefArch);
        EXPECT_EQ(a.snapDutMem, b.snapDutMem);
    }
    ASSERT_EQ(a.reproducers.size(), b.reproducers.size());
    for (size_t i = 0; i < a.reproducers.size(); ++i)
        EXPECT_EQ(a.reproducers[i], b.reproducers[i]) << "repro " << i;
}

/**
 * Batched runs must be bit-identical to the lockstep (batch=1) run,
 * with the ISS decode cache on (superblock dispatch) and off (every
 * commit through the slow step path).
 */
void
expectBatchInvariant(RunConfig cfg, bool expect_mismatch)
{
    const RunSummary lockstep = runCampaign(cfg, 1);
    EXPECT_EQ(lockstep.hasMismatch, expect_mismatch);
    for (const bool cached : {true, false}) {
        cfg.decodeCache = cached;
        for (const uint64_t batch : {uint64_t{7}, uint64_t{64},
                                     uint64_t{4096}}) {
            const RunSummary batched = runCampaign(cfg, batch);
            expectIdentical(lockstep, batched,
                            ("batch=" + std::to_string(batch) +
                             (cached ? " cached" : " uncached"))
                                .c_str());
        }
    }
}

TEST(EngineEquivalence, CleanCampaignRocket)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Rocket;
    cfg.seed = 11;
    cfg.budgetSec = 4.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/false);
}

TEST(EngineEquivalence, MinstretMismatchRocket)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Rocket;
    cfg.bugs = core::BugSet::single(core::BugId::R1);
    cfg.seed = 3;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, FrdMismatchBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B1);
    cfg.seed = 4;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, TrapMismatchBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B2);
    cfg.seed = 5;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, FflagsMismatchCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs = core::BugSet::single(core::BugId::C1);
    cfg.seed = 6;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, CsrReadMismatchCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs = core::BugSet::single(core::BugId::C7);
    cfg.seed = 7;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, AtomicTrapMismatchCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs = core::BugSet::single(core::BugId::C8);
    cfg.rv64aEnabled = false;
    cfg.seed = 8;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, MultiBugCampaignCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs.enable(core::BugId::C1);
    cfg.bugs.enable(core::BugId::C5);
    cfg.bugs.enable(core::BugId::C9);
    cfg.seed = 9;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

TEST(EngineEquivalence, EndOfIterationModeBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B1);
    cfg.mode = checker::DiffChecker::Mode::EndOfIteration;
    cfg.seed = 10;
    cfg.budgetSec = 8.0;
    expectBatchInvariant(cfg, /*expect_mismatch=*/true);
}

/**
 * The warm-start equivalence property suite: a warm-started campaign
 * (post-prefix snapshot restore instead of cold reset + preamble
 * re-execution) must be bit-identical to the cold campaign in
 * everything a campaign can report — coverage, counters, time
 * series, the first mismatch, the full mismatch snapshot (both harts
 * + DUT memory) and every reproducer's serialized bytes. Runs across
 * the bug catalog's core families, both checking modes, multiple
 * batch sizes and the decode cache on and off.
 */
void
expectWarmColdIdentical(RunConfig cfg, bool expect_mismatch)
{
    for (const bool cached : {true, false}) {
        cfg.decodeCache = cached;
        for (const uint64_t batch : {uint64_t{1}, uint64_t{64}}) {
            cfg.warmStart = false;
            const RunSummary cold = runCampaign(cfg, batch);
            EXPECT_EQ(cold.hasMismatch, expect_mismatch);
            cfg.warmStart = true;
            const RunSummary warmed = runCampaign(cfg, batch);
            expectIdentical(cold, warmed,
                            ("warm batch=" + std::to_string(batch) +
                             (cached ? " cached" : " uncached"))
                                .c_str());
        }
    }
}

TEST(WarmStartEquivalence, CleanCampaignRocket)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Rocket;
    cfg.seed = 31;
    cfg.budgetSec = 4.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/false);
}

TEST(WarmStartEquivalence, MinstretMismatchRocket)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Rocket;
    cfg.bugs = core::BugSet::single(core::BugId::R1);
    cfg.seed = 3;
    cfg.budgetSec = 8.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/true);
}

TEST(WarmStartEquivalence, FrdMismatchBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B1);
    cfg.seed = 4;
    cfg.budgetSec = 8.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/true);
}

TEST(WarmStartEquivalence, TrapMismatchBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B2);
    cfg.seed = 5;
    cfg.budgetSec = 8.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/true);
}

TEST(WarmStartEquivalence, AtomicTrapMismatchCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs = core::BugSet::single(core::BugId::C8);
    cfg.rv64aEnabled = false;
    cfg.seed = 8;
    cfg.budgetSec = 8.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/true);
}

TEST(WarmStartEquivalence, EndOfIterationModeBoom)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Boom;
    cfg.bugs = core::BugSet::single(core::BugId::B1);
    cfg.mode = checker::DiffChecker::Mode::EndOfIteration;
    cfg.seed = 10;
    cfg.budgetSec = 8.0;
    expectWarmColdIdentical(cfg, /*expect_mismatch=*/true);
}

/**
 * Fallback guard: when the step cap is small enough that a cold
 * iteration would abort INSIDE the constant prefix, the warm path
 * must not be taken (it cannot stop mid-prefix) — the campaign falls
 * back to cold for those iterations and stays bit-identical.
 */
TEST(WarmStartEquivalence, StepCapInsidePrefixFallsBackToCold)
{
    auto run_with = [](bool warm_start) {
        CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.warmStart = warm_start;
        // Cap below the 123-commit prefix: every iteration aborts
        // mid-prefix; warm restore would overshoot the cap.
        opts.stepCapFactor = 0.0;
        opts.stepCapSlack = 50;
        fuzzer::FuzzerOptions fopts;
        fopts.seed = 17;
        fopts.instrsPerIteration = 1000;
        Campaign c(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                             fopts, &lib()));
        for (int i = 0; i < 30; ++i) {
            const IterationResult r = c.runIteration();
            EXPECT_EQ(r.executedTotal, 50u);
        }
        return std::make_tuple(c.coverageMap().totalCovered(),
                               c.executedInstructions(),
                               c.nowSec());
    };
    EXPECT_EQ(run_with(false), run_with(true));
}

/** The warm snapshot must actually be captured and used for a plain
 *  TurboFuzzer campaign (the silent-fallback path must be the
 *  exception, not the rule). */
TEST(WarmStartEquivalence, WarmSnapshotActiveByDefault)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    Campaign on(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                          fopts, &lib()));
    EXPECT_TRUE(on.warmStartActive());
    for (int i = 0; i < 5; ++i)
        on.runIteration();
    EXPECT_EQ(on.warmIterations(), 5u); // every iteration warm-starts

    opts.warmStart = false;
    Campaign off(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                           fopts, &lib()));
    EXPECT_FALSE(off.warmStartActive());
}

/** The preamble layout contract the warm capture relies on: the full
 *  preamble begins with the constant warm prefix, and the prefix is
 *  straight-line (no loads/stores/control flow). */
TEST(WarmStartEquivalence, PreamblePrefixContract)
{
    fuzzer::ReplayEnv env;
    const auto prefix = fuzzer::TurboFuzzer::warmPrefixCode(env);
    const auto full = fuzzer::TurboFuzzer::preambleCode(env);
    ASSERT_LE(prefix.size(), full.size());
    for (size_t i = 0; i < prefix.size(); ++i)
        EXPECT_EQ(prefix[i], full[i]) << "prefix word " << i;
    // 3 context instructions + the bootstrap boilerplate.
    EXPECT_EQ(prefix.size(), 3u + env.bootstrapInstrs);
    // The tail is the 32 data-dependent FP loads.
    EXPECT_EQ(full.size(), prefix.size() + 32);
}

/**
 * Direct engine-level probe of the rewind path: drive a mismatching
 * campaign with a batch far larger than the detection index so the
 * divergence is guaranteed to fall mid-batch, then check the engine
 * left the DUT in the exact state a batch=1 campaign stops in.
 */
TEST(EngineEquivalence, MidBatchRewindRestoresHartState)
{
    auto capture = [](uint64_t batch) {
        CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.coreKind = core::CoreKind::Boom;
        opts.bugs = core::BugSet::single(core::BugId::B1);
        opts.batchSize = batch;
        opts.stopOnMismatch = true;
        fuzzer::FuzzerOptions fopts;
        fopts.seed = 4;
        fopts.instrsPerIteration = 1000;
        Campaign c(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                             fopts, &lib()));
        c.run(30.0);
        EXPECT_TRUE(c.firstMismatch().has_value());
        // Post-mismatch hart state, architecturally complete.
        soc::SnapshotWriter dut_arch, ref_arch;
        c.dut().saveState(dut_arch);
        c.ref().saveState(ref_arch);
        return std::make_pair(dut_arch.takeBuffer(),
                              ref_arch.takeBuffer());
    };
    const auto lockstep = capture(1);
    const auto batched = capture(4096);
    EXPECT_EQ(lockstep.first, batched.first);
    EXPECT_EQ(lockstep.second, batched.second);
}

/**
 * Decimation sanity at the campaign level: a decimated run keeps
 * identical outcomes (counters, coverage, final sample) while
 * recording a bounded subset of the samples.
 */
TEST(EngineEquivalence, SampleDecimationKeepsOutcomes)
{
    auto run_with = [](uint64_t decimation) {
        CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.sampleDecimation = decimation;
        fuzzer::FuzzerOptions fopts;
        fopts.seed = 21;
        fopts.instrsPerIteration = 1000;
        Campaign c(opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                             fopts, &lib()));
        const TimeSeries s = c.run(4.0);
        return std::make_tuple(c.coverageMap().totalCovered(),
                               c.iterations(), s.samples().size(),
                               s.last());
    };
    const auto full = run_with(1);
    const auto decimated = run_with(8);
    EXPECT_EQ(std::get<0>(full), std::get<0>(decimated));
    EXPECT_EQ(std::get<1>(full), std::get<1>(decimated));
    EXPECT_DOUBLE_EQ(std::get<3>(full), std::get<3>(decimated));
    // Bounded growth: every 8th sample plus the exact tail.
    EXPECT_LE(std::get<2>(decimated),
              std::get<2>(full) / 8 + 2);
    EXPECT_GT(std::get<2>(decimated), 0u);
}

// --- Decode-cache equivalence ------------------------------------
//
// The ISS decode cache is a pure speedup: campaigns with the cache
// off must be bit-identical to cached runs — same coverage, same
// mismatch, same snapshots, same reproducers.

void
expectCacheOnOffIdentical(RunConfig cfg)
{
    const RunSummary cached = runCampaign(cfg, 64);
    cfg.decodeCache = false;
    const RunSummary uncachedBatched = runCampaign(cfg, 64);
    const RunSummary uncachedLockstep = runCampaign(cfg, 1);
    expectIdentical(cached, uncachedBatched,
                    "decode cache on vs off (batch 64)");
    expectIdentical(cached, uncachedLockstep,
                    "decode cache on (batch 64) vs off (batch 1)");
}

TEST(DecodeCacheEquivalence, CleanCampaignRocket)
{
    RunConfig cfg;
    cfg.seed = 11;
    cfg.budgetSec = 4.0;
    expectCacheOnOffIdentical(cfg);
}

TEST(DecodeCacheEquivalence, MinstretMismatchRocket)
{
    RunConfig cfg;
    cfg.bugs = core::BugSet::single(core::BugId::R1);
    cfg.seed = 3;
    cfg.budgetSec = 4.0;
    expectCacheOnOffIdentical(cfg);
}

TEST(DecodeCacheEquivalence, MultiBugCampaignCva6)
{
    RunConfig cfg;
    cfg.coreKind = core::CoreKind::Cva6;
    cfg.bugs.enable(core::BugId::C1);
    cfg.bugs.enable(core::BugId::C5);
    cfg.bugs.enable(core::BugId::C9);
    cfg.seed = 9;
    cfg.budgetSec = 4.0;
    expectCacheOnOffIdentical(cfg);
}

} // namespace
} // namespace turbofuzz::harness
