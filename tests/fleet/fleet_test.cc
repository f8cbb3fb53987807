/** @file Fleet orchestrator tests: determinism, merge, exchange. */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/fleet_config.hh"
#include "fleet/orchestrator.hh"
#include "fleet/worker_pool.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"

namespace turbofuzz::fleet
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
    return l;
}

harness::CampaignOptions
campaignOpts()
{
    harness::CampaignOptions o;
    o.timing = soc::turboFuzzProfile();
    return o;
}

fuzzer::FuzzerOptions
fuzzerOpts(uint32_t ipi = 1000)
{
    fuzzer::FuzzerOptions o;
    o.instrsPerIteration = ipi;
    return o;
}

FleetConfig
fleetConfig(unsigned shards, double budget = 3.0,
            double epoch = 0.75, uint64_t seed = 7)
{
    FleetConfig fc;
    fc.fleetSeed = seed;
    fc.shardCount = shards;
    fc.budgetSec = budget;
    fc.epochSec = epoch;
    return fc;
}

TEST(FleetConfigTest, ShardSeedDerivation)
{
    FleetConfig fc;
    fc.fleetSeed = 42;
    // Shard 0 inherits the fleet seed (single-shard identity).
    EXPECT_EQ(fc.shardSeed(0), 42u);
    // Other shards get decorrelated, deterministic streams.
    EXPECT_NE(fc.shardSeed(1), 42u);
    EXPECT_NE(fc.shardSeed(1), fc.shardSeed(2));
    EXPECT_EQ(fc.shardSeed(3), fc.shardSeed(3));
}

TEST(FleetConfigTest, EpochGrid)
{
    FleetConfig fc;
    fc.budgetSec = 10.0;
    fc.epochSec = 3.0;
    EXPECT_EQ(fc.epochCount(), 4u);
    EXPECT_DOUBLE_EQ(fc.epochDeadline(0), 3.0);
    EXPECT_DOUBLE_EQ(fc.epochDeadline(3), 10.0); // clamped to budget
    fc.epochSec = 5.0;
    EXPECT_EQ(fc.epochCount(), 2u);
}

TEST(FleetConfigTest, FromConfigParsesTopology)
{
    Config cfg;
    cfg.set("shards", "8");
    cfg.set("topology", "broadcast");
    cfg.set("epoch", "1.5");
    const FleetConfig fc = FleetConfig::fromConfig(cfg);
    EXPECT_EQ(fc.shardCount, 8u);
    EXPECT_EQ(fc.topology, ExchangeTopology::Broadcast);
    EXPECT_DOUBLE_EQ(fc.epochSec, 1.5);
}

TEST(FleetConfigTest, FromConfigParsesFeedbackKnobs)
{
    Config cfg;
    cfg.set("coverage-model", "composite");
    cfg.set("scheduler", "bandit");
    const FleetConfig fc = FleetConfig::fromConfig(cfg);
    EXPECT_EQ(fc.coverageModel,
              coverage::CoverageModelKind::Composite);
    EXPECT_EQ(fc.scheduler, fuzzer::SchedulerKind::Bandit);

    // Defaults reproduce the paper configuration.
    Config plain;
    const FleetConfig def = FleetConfig::fromConfig(plain);
    EXPECT_EQ(def.coverageModel, coverage::CoverageModelKind::Mux);
    EXPECT_EQ(def.scheduler, fuzzer::SchedulerKind::Static);
}

TEST(WorkerPoolTest, RunsAllJobsAndBarriers)
{
    WorkerPool pool(4);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 16; ++i)
            pool.submit([&counter] {
                counter.fetch_add(1, std::memory_order_relaxed);
            });
        pool.wait();
        EXPECT_EQ(counter.load(), 16 * (round + 1));
    }
}

TEST(SyncPolicyTest, RingRotatesAndBroadcastCoversAll)
{
    SyncPolicy ring(ExchangeTopology::Ring, 4, 0.0);
    // Epoch 0: hop 1 -> shard 2 imports from shard 1.
    EXPECT_EQ(ring.importSources(2, 4, 0),
              std::vector<unsigned>{1});
    // Epoch 1: hop 2 -> shard 2 imports from shard 0.
    EXPECT_EQ(ring.importSources(2, 4, 1),
              std::vector<unsigned>{0});
    // Hop never selects self: over N-1 epochs, sources cycle peers.
    for (uint64_t e = 0; e < 6; ++e) {
        const auto src = ring.importSources(0, 4, e);
        ASSERT_EQ(src.size(), 1u);
        EXPECT_NE(src[0], 0u);
    }

    SyncPolicy bcast(ExchangeTopology::Broadcast, 4, 0.0);
    const auto all = bcast.importSources(1, 4, 0);
    EXPECT_EQ(all, (std::vector<unsigned>{0, 2, 3}));

    SyncPolicy none(ExchangeTopology::None, 4, 0.0);
    EXPECT_TRUE(none.importSources(1, 4, 0).empty());
    // Single shard: no peers under any topology.
    EXPECT_TRUE(ring.importSources(0, 1, 0).empty());
}

/**
 * Acceptance: a 1-shard fleet reproduces the exact coverage
 * trajectory of a plain Campaign::run() with the same seed.
 */
TEST(FleetOrchestratorTest, SingleShardMatchesPlainCampaign)
{
    const uint64_t seed = 7;
    const double budget = 3.0;

    harness::CampaignOptions copts = campaignOpts();
    copts.seed = seed;
    fuzzer::FuzzerOptions fopts = fuzzerOpts();
    fopts.seed = seed;
    harness::Campaign plain(
        copts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib()));
    const TimeSeries reference = plain.run(budget);

    // Sliced into 4 epochs through the orchestrator.
    FleetOrchestrator orch(fleetConfig(1, budget, budget / 4, seed),
                           campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();

    ASSERT_EQ(r.shardCoverage.size(), 1u);
    const auto &ref = reference.samples();
    const auto &got = r.shardCoverage[0].samples();
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_DOUBLE_EQ(ref[i].timeSec, got[i].timeSec) << i;
        EXPECT_DOUBLE_EQ(ref[i].value, got[i].value) << i;
    }
    EXPECT_EQ(r.mergedFinalCoverage,
              plain.coverageMap().totalCovered());
    EXPECT_EQ(r.totals.iterations, plain.iterations());
    EXPECT_EQ(r.totals.executedInstrs,
              plain.executedInstructions());
}

/**
 * Acceptance: on the same per-shard budget, a 4-shard fleet's merged
 * coverage strictly exceeds the best single shard's.
 */
TEST(FleetOrchestratorTest, FourShardsBeatBestSingleShard)
{
    FleetOrchestrator orch(fleetConfig(4), campaignOpts(),
                           fuzzerOpts(), &lib());
    const FleetResult r = orch.run();

    double best_shard = 0.0;
    for (const TimeSeries &s : r.shardCoverage)
        best_shard = std::max(best_shard, s.last());
    EXPECT_GT(static_cast<double>(r.mergedFinalCoverage),
              best_shard);
    // The merged map is a union: at least as large as every shard.
    for (const TimeSeries &s : r.shardCoverage)
        EXPECT_GE(static_cast<double>(r.mergedFinalCoverage),
                  s.last());
}

/**
 * Acceptance: fleet runs are deterministic for a fixed (fleet seed,
 * shard count, epoch length) regardless of thread scheduling.
 */
TEST(FleetOrchestratorTest, RepeatedRunsAreIdentical)
{
    auto run_fleet = [](unsigned threads) {
        FleetConfig fc = fleetConfig(3, 2.25, 0.75, 11);
        fc.workerThreads = threads; // vary scheduling pressure
        FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(),
                               &lib());
        return orch.run();
    };
    const FleetResult a = run_fleet(3);
    const FleetResult b = run_fleet(1); // fully serialized schedule

    ASSERT_EQ(a.mergedCoverage.samples().size(),
              b.mergedCoverage.samples().size());
    for (size_t i = 0; i < a.mergedCoverage.samples().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.mergedCoverage.samples()[i].value,
                         b.mergedCoverage.samples()[i].value);
    }
    EXPECT_EQ(a.mergedFinalCoverage, b.mergedFinalCoverage);
    EXPECT_EQ(a.totals.iterations, b.totals.iterations);
    EXPECT_EQ(a.totals.executedInstrs, b.totals.executedInstrs);
    EXPECT_EQ(a.totals.mismatches, b.totals.mismatches);
    EXPECT_EQ(a.seedsExchanged, b.seedsExchanged);
    EXPECT_EQ(a.seedsAdmitted, b.seedsAdmitted);
    ASSERT_EQ(a.mismatches.size(), b.mismatches.size());
    for (size_t i = 0; i < a.mismatches.size(); ++i) {
        EXPECT_EQ(a.mismatches[i].shard, b.mismatches[i].shard);
        EXPECT_EQ(a.mismatches[i].mismatch.pc,
                  b.mismatches[i].mismatch.pc);
    }
}

TEST(FleetOrchestratorTest, SyncCostChargedEvenWithoutExchange)
{
    // The coverage-readback round trip costs simulated time at every
    // barrier, even when no seeds travel (topology None).
    FleetConfig fc = fleetConfig(2, 2.0, 0.5);
    fc.topology = ExchangeTopology::None;
    fc.syncCostSec = 0.25;
    FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    EXPECT_EQ(r.seedsExchanged, 0u);
    // Mid-run sync charges displace fuzzing time (deadlines are
    // absolute); the final barrier's charge lands past the budget,
    // so the clock ends at >= budget + one sync cost.
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_GE(orch.shard(i).campaign().nowSec(), 2.25);
    // A 1-shard fleet never pays the round trip.
    FleetConfig solo = fleetConfig(1, 2.0, 0.5);
    solo.syncCostSec = 0.25;
    FleetOrchestrator solo_orch(solo, campaignOpts(), fuzzerOpts(),
                                &lib());
    solo_orch.run();
    EXPECT_LT(solo_orch.shard(0).campaign().nowSec(), 2.25);
}

TEST(FleetOrchestratorTest, SeedExchangeMovesSeeds)
{
    FleetConfig fc = fleetConfig(2, 3.0, 0.5);
    fc.topology = ExchangeTopology::Broadcast;
    FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    EXPECT_GT(r.seedsExchanged, 0u);
    // Admission is corpus-controlled, so admitted <= exchanged.
    EXPECT_LE(r.seedsAdmitted, r.seedsExchanged);
}

TEST(FleetOrchestratorTest, HarvestsInjectedBugMismatches)
{
    harness::CampaignOptions copts = campaignOpts();
    copts.coreKind = core::CoreKind::Boom;
    copts.bugs = core::BugSet::single(core::BugId::B1);
    FleetOrchestrator orch(fleetConfig(2, 30.0, 5.0), copts,
                           fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    // With the bug in every shard's DUT, at least one shard trips.
    EXPECT_GE(r.mismatches.size(), 1u);
    EXPECT_GT(r.totals.mismatches, 0u);
    for (const ShardMismatch &sm : r.mismatches)
        EXPECT_LT(sm.shard, 2u);
}

TEST(FleetOrchestratorTest, FleetSamplesAndThroughputRecorded)
{
    FleetOrchestrator orch(fleetConfig(2, 3.0, 1.0), campaignOpts(),
                           fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    EXPECT_EQ(r.epochs, 3u);
    EXPECT_EQ(r.mergedCoverage.samples().size(), 3u);
    EXPECT_EQ(r.throughput.samples().size(), 3u);
    EXPECT_EQ(r.prevalence.samples().size(), 3u);
    // Merged coverage is monotone across epochs.
    double prev = 0.0;
    for (const auto &s : r.mergedCoverage.samples()) {
        EXPECT_GE(s.value, prev);
        prev = s.value;
    }
    // Prevalence of the on-fabric profile stays high. The Fig. 8
    // band is ~0.97 at 4,000 instrs/iteration; these shards run
    // 1,000-instr iterations, so the fixed bootstrap weighs ~4x
    // more.
    EXPECT_GT(r.prevalence.last(), 0.8);
    EXPECT_GT(r.totals.iterations, 0u);
    EXPECT_GT(r.hostSeconds, 0.0);
}

/** Everything two fleet results must agree on to count as
 *  bit-identical. */
void
expectFleetResultsIdentical(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.totals.iterations, b.totals.iterations);
    EXPECT_EQ(a.totals.executedInstrs, b.totals.executedInstrs);
    EXPECT_EQ(a.totals.generatedInstrs, b.totals.generatedInstrs);
    EXPECT_EQ(a.totals.mismatches, b.totals.mismatches);
    EXPECT_EQ(a.mergedFinalCoverage, b.mergedFinalCoverage);
    EXPECT_EQ(a.seedsExchanged, b.seedsExchanged);
    EXPECT_EQ(a.seedsAdmitted, b.seedsAdmitted);
    EXPECT_EQ(a.reproducersHarvested, b.reproducersHarvested);

    auto expect_series_equal = [](const TimeSeries &x,
                                  const TimeSeries &y,
                                  const char *what) {
        SCOPED_TRACE(what);
        ASSERT_EQ(x.samples().size(), y.samples().size());
        for (size_t i = 0; i < x.samples().size(); ++i) {
            EXPECT_DOUBLE_EQ(x.samples()[i].timeSec,
                             y.samples()[i].timeSec)
                << i;
            EXPECT_DOUBLE_EQ(x.samples()[i].value,
                             y.samples()[i].value)
                << i;
        }
    };
    expect_series_equal(a.mergedCoverage, b.mergedCoverage,
                        "merged coverage");
    expect_series_equal(a.throughput, b.throughput, "throughput");
    expect_series_equal(a.prevalence, b.prevalence, "prevalence");
    ASSERT_EQ(a.shardCoverage.size(), b.shardCoverage.size());
    for (size_t i = 0; i < a.shardCoverage.size(); ++i)
        expect_series_equal(a.shardCoverage[i], b.shardCoverage[i],
                            "shard coverage");

    ASSERT_EQ(a.mismatches.size(), b.mismatches.size());
    for (size_t i = 0; i < a.mismatches.size(); ++i) {
        EXPECT_EQ(a.mismatches[i].shard, b.mismatches[i].shard);
        EXPECT_EQ(a.mismatches[i].mismatch.pc,
                  b.mismatches[i].mismatch.pc);
        EXPECT_EQ(a.mismatches[i].mismatch.instrIndex,
                  b.mismatches[i].mismatch.instrIndex);
        EXPECT_DOUBLE_EQ(a.mismatches[i].simTimeSec,
                         b.mismatches[i].simTimeSec);
    }
    ASSERT_EQ(a.bugTable.size(), b.bugTable.size());
    for (size_t i = 0; i < a.bugTable.size(); ++i) {
        EXPECT_EQ(a.bugTable[i].signature, b.bugTable[i].signature);
        EXPECT_EQ(a.bugTable[i].hits, b.bugTable[i].hits);
        EXPECT_DOUBLE_EQ(a.bugTable[i].firstDetectSimTime,
                         b.bugTable[i].firstDetectSimTime);
        EXPECT_EQ(a.bugTable[i].minimizedInstrs,
                  b.bugTable[i].minimizedInstrs);
        EXPECT_EQ(a.bugTable[i].replays, b.bugTable[i].replays);
    }
}

/**
 * Acceptance: a fleet killed mid-campaign and resumed from its epoch
 * checkpoint produces results identical to an uninterrupted run —
 * counters, every time series, the mismatch harvest and the
 * minimized per-bug table. Exercises seed exchange (broadcast),
 * triage harvest and a buggy DUT so every checkpointed subsystem
 * carries real state across the kill.
 */
TEST(FleetCheckpoint, ResumedRunMatchesUninterrupted)
{
    const std::string path =
        testing::TempDir() + "/tf_fleet_resume.ckpt";

    auto config = [&](bool checkpointing) {
        FleetConfig fc = fleetConfig(2, 6.0, 1.5, 11);
        fc.topology = ExchangeTopology::Broadcast;
        fc.exchangeTopK = 4;
        fc.maxReproducersPerShard = 8;
        fc.triageReplayBudget = 32;
        if (checkpointing) {
            fc.checkpointEveryEpochs = 1;
            fc.checkpointPath = path;
        }
        return fc;
    };
    harness::CampaignOptions copts = campaignOpts();
    copts.coreKind = core::CoreKind::Cva6;
    copts.bugs.enable(core::BugId::C1);
    copts.bugs.enable(core::BugId::C5);

    // Reference: uninterrupted run.
    FleetOrchestrator uninterrupted(config(false), copts,
                                    fuzzerOpts(), &lib());
    const FleetResult reference = uninterrupted.run();
    ASSERT_GT(reference.totals.mismatches, 0u);

    // Killed run: same fleet, halted after epoch 2 with a checkpoint
    // written at every barrier.
    {
        FleetConfig fc = config(true);
        fc.haltAfterEpochs = 2;
        FleetOrchestrator killed(fc, copts, fuzzerOpts(), &lib());
        killed.run();
    }

    // Resume: a FRESH orchestrator restores the on-disk checkpoint
    // (no state survives from the killed instance) and runs to the
    // budget.
    std::string error;
    const auto snap = soc::Snapshot::tryLoadFile(path, &error);
    ASSERT_TRUE(snap.has_value()) << error;
    FleetOrchestrator resumed(config(false), copts, fuzzerOpts(),
                              &lib());
    ASSERT_TRUE(resumed.restoreCheckpoint(*snap, &error)) << error;
    const FleetResult final_result = resumed.run();

    expectFleetResultsIdentical(reference, final_result);
    std::remove(path.c_str());
}

/** Malformed or mismatched checkpoints must be rejected gracefully —
 *  no crash, no allocation blow-up, a diagnostic instead. */
TEST(FleetCheckpoint, MalformedCheckpointRejected)
{
    harness::CampaignOptions copts = campaignOpts();
    std::string error;

    // Not a snapshot at all.
    {
        FleetOrchestrator orch(fleetConfig(2), copts, fuzzerOpts(),
                               &lib());
        soc::Snapshot empty;
        EXPECT_FALSE(orch.restoreCheckpoint(empty, &error));
        EXPECT_NE(error.find("missing section"), std::string::npos);
    }

    // A checkpoint taken with a different shard count.
    {
        FleetConfig small = fleetConfig(2, 3.0, 0.75, 7);
        small.haltAfterEpochs = 1;
        FleetOrchestrator donor(small, copts, fuzzerOpts(), &lib());
        donor.run();
        const auto snap = donor.makeCheckpoint(&error);
        ASSERT_TRUE(snap.has_value()) << error;

        FleetOrchestrator three(fleetConfig(3), copts, fuzzerOpts(),
                                &lib());
        EXPECT_FALSE(three.restoreCheckpoint(*snap, &error));
        EXPECT_NE(error.find("shard count"), std::string::npos);

        // Corrupted shard section: truncate one shard's state.
        soc::Snapshot corrupt = *snap;
        corrupt.setSection("fleet.shard.1", {1, 2, 3});
        FleetOrchestrator fresh(fleetConfig(2, 3.0, 0.75, 7), copts,
                                fuzzerOpts(), &lib());
        EXPECT_FALSE(fresh.restoreCheckpoint(corrupt, &error));
        EXPECT_FALSE(error.empty());

        // Wrong fleet seed.
        FleetOrchestrator reseeded(fleetConfig(2, 3.0, 0.75, 8),
                                   copts, fuzzerOpts(), &lib());
        EXPECT_FALSE(reseeded.restoreCheckpoint(*snap, &error));
        EXPECT_NE(error.find("seed"), std::string::npos);
    }
}

/**
 * Pluggable feedback at fleet scale: per-model merges at epoch
 * barriers produce the global union views, and a killed fleet
 * resumes bit-identically with the model + scheduler state carried
 * through the checkpoint's fleet.feedback and shard sections.
 */
TEST(FleetFeedback, PerModelMergeAndResumeDeterminism)
{
    const std::string path =
        testing::TempDir() + "/tf_fleet_feedback.ckpt";

    auto config = [&](bool checkpointing) {
        FleetConfig fc = fleetConfig(2, 4.0, 1.0, 17);
        fc.coverageModel = coverage::CoverageModelKind::Composite;
        fc.scheduler = fuzzer::SchedulerKind::Bandit;
        if (checkpointing) {
            fc.checkpointEveryEpochs = 1;
            fc.checkpointPath = path;
        }
        return fc;
    };
    const harness::CampaignOptions copts = campaignOpts();

    FleetOrchestrator reference(config(false), copts, fuzzerOpts(),
                                &lib());
    const FleetResult ref_result = reference.run();

    // Global per-model views exist and dominate every shard's own.
    ASSERT_NE(reference.globalCsrCoverage(), nullptr);
    ASSERT_NE(reference.globalHitCoverage(), nullptr);
    EXPECT_GT(reference.globalCsrCoverage()->newlyHit(), 0u);
    EXPECT_GT(reference.globalHitCoverage()->newlyHit(), 0u);
    for (unsigned i = 0; i < 2; ++i) {
        EXPECT_GE(
            reference.globalCsrCoverage()->newlyHit(),
            reference.shard(i).campaign().csrModel()->newlyHit());
        EXPECT_GE(reference.globalHitCoverage()->newlyHit(),
                  reference.shard(i)
                      .campaign()
                      .hitCountModel()
                      ->newlyHit());
    }

    // Kill after 2 epochs, then resume a fresh orchestrator from the
    // on-disk checkpoint; the combined run must match uninterrupted.
    {
        FleetConfig fc = config(true);
        fc.haltAfterEpochs = 2;
        FleetOrchestrator killed(fc, copts, fuzzerOpts(), &lib());
        killed.run();
    }
    std::string error;
    const auto snap = soc::Snapshot::tryLoadFile(path, &error);
    ASSERT_TRUE(snap.has_value()) << error;
    FleetOrchestrator resumed(config(false), copts, fuzzerOpts(),
                              &lib());
    ASSERT_TRUE(resumed.restoreCheckpoint(*snap, &error)) << error;
    const FleetResult final_result = resumed.run();

    EXPECT_EQ(final_result.mergedFinalCoverage,
              ref_result.mergedFinalCoverage);
    EXPECT_EQ(final_result.totals.iterations,
              ref_result.totals.iterations);
    EXPECT_EQ(final_result.totals.executedInstrs,
              ref_result.totals.executedInstrs);
    EXPECT_EQ(resumed.globalCsrCoverage()->newlyHit(),
              reference.globalCsrCoverage()->newlyHit());
    EXPECT_EQ(resumed.globalHitCoverage()->newlyHit(),
              reference.globalHitCoverage()->newlyHit());

    // A default-configured fleet refuses this checkpoint: its model
    // census disagrees.
    FleetOrchestrator plain(fleetConfig(2, 4.0, 1.0, 17), copts,
                            fuzzerOpts(), &lib());
    EXPECT_FALSE(plain.restoreCheckpoint(*snap, &error));
    EXPECT_NE(error.find("coverage-model"), std::string::npos);
    std::remove(path.c_str());
}

/**
 * Bugfix regression: under broadcast exchange the same top-K seeds
 * are re-offered at every barrier; content-hash dedup on import must
 * keep shard corpora free of duplicate stimuli across epochs.
 */
TEST(FleetSeedExchange, BroadcastDoesNotFloodCorporaWithDuplicates)
{
    FleetConfig fc = fleetConfig(3, 6.0, 0.75, 13);
    fc.topology = ExchangeTopology::Broadcast;
    fc.exchangeTopK = 6;
    FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    ASSERT_GT(r.seedsExchanged, 0u);

    for (unsigned i = 0; i < orch.shardCount(); ++i) {
        auto *gen = dynamic_cast<fuzzer::TurboFuzzGenerator *>(
            &orch.shard(i).campaign().generator());
        ASSERT_NE(gen, nullptr);
        const fuzzer::Corpus &corpus = gen->underlying().corpus();
        // Corpus stays within capacity and holds no two seeds with
        // identical content.
        EXPECT_LE(corpus.size(), corpus.capacity());
        std::set<uint64_t> hashes;
        for (const fuzzer::Seed &s : corpus.entries())
            EXPECT_TRUE(hashes.insert(s.contentHash()).second)
                << "duplicate stimulus in shard " << i;
        // The dedup actually fired: broadcast re-offers previously
        // imported seeds every barrier.
        EXPECT_GT(corpus.duplicateImports(), 0u) << "shard " << i;
    }
}

/**
 * Resident hashing runs in each shard's epoch task on the worker pool
 * while export and import stay serial; neither the worker count nor
 * the order in which shards finish may change what is exchanged,
 * admitted or kept.
 */
TEST(FleetSeedExchange, WorkerCountInvariant)
{
    for (ExchangeTopology topology :
         {ExchangeTopology::Ring, ExchangeTopology::Broadcast}) {
        SCOPED_TRACE(topology == ExchangeTopology::Ring ? "ring"
                                                        : "broadcast");
        struct Outcome
        {
            FleetResult result;
            std::vector<std::vector<uint64_t>> residents;
        };
        auto run = [&](unsigned workers) {
            FleetConfig fc = fleetConfig(4, 3.0, 0.5, 17);
            fc.topology = topology;
            fc.exchangeTopK = 4;
            fc.workerThreads = workers;
            FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(),
                                   &lib());
            Outcome out{orch.run(), {}};
            for (unsigned i = 0; i < orch.shardCount(); ++i) {
                auto *gen = dynamic_cast<fuzzer::TurboFuzzGenerator *>(
                    &orch.shard(i).campaign().generator());
                EXPECT_NE(gen, nullptr);
                std::vector<uint64_t> hashes;
                for (const fuzzer::Seed &s :
                     gen->underlying().corpus().entries())
                    hashes.push_back(s.contentHash());
                out.residents.push_back(std::move(hashes));
            }
            return out;
        };
        const Outcome serial = run(1);
        const Outcome parallel = run(4);
        ASSERT_GT(serial.result.seedsAdmitted, 0u);
        EXPECT_EQ(serial.result.seedsExchanged,
                  parallel.result.seedsExchanged);
        EXPECT_EQ(serial.result.seedsAdmitted,
                  parallel.result.seedsAdmitted);
        EXPECT_EQ(serial.result.mergedFinalCoverage,
                  parallel.result.mergedFinalCoverage);
        EXPECT_EQ(serial.residents, parallel.residents);
    }
}

/**
 * Tentpole acceptance (docs/fleet.md "Epoch barrier anatomy"): the
 * default delta barrier — parallel dirty-word publication, tree
 * reduction on the pool, zero-copy seed exchange, overlapped I/O —
 * must produce a fleet result AND global model state byte-identical
 * to the serial full-merge reference path.
 */
TEST(FleetDelta, DeltaBarrierMatchesSerialBarrierByteIdentical)
{
    auto config = [](bool delta) {
        FleetConfig fc = fleetConfig(4, 3.0, 0.75, 23);
        fc.coverageModel = coverage::CoverageModelKind::Composite;
        fc.topology = ExchangeTopology::Broadcast;
        fc.exchangeTopK = 4;
        fc.provenance = true;
        fc.deltaBarrier = delta;
        return fc;
    };
    const harness::CampaignOptions copts = campaignOpts();

    FleetOrchestrator with_delta(config(true), copts, fuzzerOpts(),
                                 &lib());
    const FleetResult delta_result = with_delta.run();
    FleetOrchestrator serial(config(false), copts, fuzzerOpts(),
                             &lib());
    const FleetResult serial_result = serial.run();

    expectFleetResultsIdentical(delta_result, serial_result);
    ASSERT_GT(delta_result.seedsExchanged, 0u);

    // Global feedback-model state, byte for byte.
    auto state_bytes = [](const auto &model) {
        soc::SnapshotWriter w;
        model.saveState(w);
        return w.takeBuffer();
    };
    EXPECT_EQ(state_bytes(with_delta.globalCoverage()),
              state_bytes(serial.globalCoverage()));
    ASSERT_NE(with_delta.globalCsrCoverage(), nullptr);
    EXPECT_EQ(state_bytes(*with_delta.globalCsrCoverage()),
              state_bytes(*serial.globalCsrCoverage()));
    ASSERT_NE(with_delta.globalHitCoverage(), nullptr);
    EXPECT_EQ(state_bytes(*with_delta.globalHitCoverage()),
              state_bytes(*serial.globalHitCoverage()));

    // Global first-hit ledger: identical deterministic attributions
    // (wallNs is informational host time and excluded).
    const auto d_entries =
        with_delta.provenanceLedger().sortedEntries();
    const auto s_entries = serial.provenanceLedger().sortedEntries();
    ASSERT_GT(d_entries.size(), 0u);
    ASSERT_EQ(d_entries.size(), s_entries.size());
    for (size_t i = 0; i < d_entries.size(); ++i) {
        EXPECT_EQ(d_entries[i].first, s_entries[i].first);
        EXPECT_DOUBLE_EQ(d_entries[i].second.simTimeSec,
                         s_entries[i].second.simTimeSec);
        EXPECT_EQ(d_entries[i].second.shard,
                  s_entries[i].second.shard);
        EXPECT_EQ(d_entries[i].second.iteration,
                  s_entries[i].second.iteration);
        EXPECT_EQ(d_entries[i].second.seedId,
                  s_entries[i].second.seedId);
        EXPECT_EQ(d_entries[i].second.op, s_entries[i].second.op);
    }
}

/** The barrier phase instrumentation lands in the result: one
 *  barrier/merge/exchange timing entry per completed epoch, and the
 *  phase counters exist in the merged metrics. */
TEST(FleetDelta, BarrierTimingRecordedPerEpoch)
{
    FleetConfig fc = fleetConfig(2, 2.0, 0.5, 3);
    FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();

    EXPECT_EQ(r.epochBarrierNs.size(), r.epochs);
    EXPECT_EQ(r.epochMergeNs.size(), r.epochs);
    EXPECT_EQ(r.epochExchangeNs.size(), r.epochs);
    uint64_t exchange_total = 0;
    for (size_t e = 0; e < r.epochBarrierNs.size(); ++e) {
        EXPECT_GE(r.epochBarrierNs[e],
                  r.epochMergeNs[e] + r.epochExchangeNs[e]);
        exchange_total += r.epochExchangeNs[e];
    }
    EXPECT_EQ(r.metrics.counterValue("fleet.barrier.exchange_ns"),
              exchange_total);
    EXPECT_GT(r.metrics.counterValue("fleet.barrier.merge_ns"), 0u);
    // Counters exist even when their phase did no work this run
    // (absent names return the fallback, so distinct fallbacks
    // disagree only for a missing counter).
    auto has_counter = [&](const char *name) {
        return r.metrics.counterValue(name, 1) ==
               r.metrics.counterValue(name, 2);
    };
    EXPECT_TRUE(has_counter("fleet.barrier.reduce_ns"));
    EXPECT_TRUE(has_counter("fleet.barrier.exchange_ns"));
    EXPECT_TRUE(has_counter("fleet.barrier.io_overlap_ns"));
}

/**
 * Barrier stress (runs under the TSan CI preset via the Fleet*
 * filter): many short epochs with per-epoch checkpoint shipping and
 * JSONL stats force the double-buffered background writer to overlap
 * live barriers continuously; worker threads outnumber shards so the
 * reduction tree schedules across surplus workers.
 */
TEST(FleetDelta, BarrierStressOverlappedIoAndReduction)
{
    const std::string ckpt =
        testing::TempDir() + "/tf_fleet_stress.ckpt";
    const std::string stats =
        testing::TempDir() + "/tf_fleet_stress.jsonl";

    FleetConfig fc = fleetConfig(6, 2.0, 0.25, 31);
    fc.coverageModel = coverage::CoverageModelKind::Composite;
    fc.workerThreads = 8;
    fc.checkpointEveryEpochs = 1;
    fc.checkpointPath = ckpt;
    fc.statsFile = stats;
    FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(), &lib());
    const FleetResult r = orch.run();
    EXPECT_EQ(r.epochBarrierNs.size(), r.epochs);

    // The final checkpoint is fully on disk once run() returns (the
    // writer is drained), and it restores cleanly.
    std::string error;
    const auto snap = soc::Snapshot::tryLoadFile(ckpt, &error);
    ASSERT_TRUE(snap.has_value()) << error;

    // Every barrier emitted one complete stats line (cadence 0).
    std::FILE *f = std::fopen(stats.c_str(), "r");
    ASSERT_NE(f, nullptr);
    unsigned lines = 0;
    for (int c; (c = std::fgetc(f)) != EOF;)
        lines += c == '\n';
    std::fclose(f);
    EXPECT_EQ(lines, r.epochs);

    std::remove(ckpt.c_str());
    std::remove(stats.c_str());
}

} // namespace
} // namespace turbofuzz::fleet
