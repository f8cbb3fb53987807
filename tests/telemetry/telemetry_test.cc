/**
 * @file
 * Telemetry subsystem tests: histogram bucketing, snapshot merge
 * discipline, registry checkpointing, trace JSON shape, JSONL
 * emission, and the observer contract — telemetry on vs off must not
 * change campaign or fleet results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fleet_config.hh"
#include "common/stats.hh"
#include "fleet/orchestrator.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"
#include "soc/snapshot.hh"
#include "telemetry/metrics.hh"
#include "telemetry/reporter.hh"
#include "telemetry/trace.hh"

namespace turbofuzz::telemetry
{
namespace
{

// --- Histogram bucketing ---------------------------------------------

TEST(Histogram, BucketBoundaries)
{
    // bucket 0 = {0}; bucket i >= 1 covers [2^(i-1), 2^i - 1].
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 64u);

    EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
    EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
    EXPECT_EQ(Histogram::bucketLowerBound(4), 8u);
    EXPECT_EQ(Histogram::bucketLowerBound(64),
              uint64_t{1} << 63);

    // Every bucket's lower bound maps back into that bucket.
    for (unsigned i = 0; i < Histogram::kBucketCount; ++i) {
        EXPECT_EQ(Histogram::bucketIndex(
                      Histogram::bucketLowerBound(i)),
                  i);
    }
}

TEST(Histogram, RecordTracksStatistics)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u); // empty-histogram convention
    h.record(0);
    h.record(5);
    h.record(5);
    h.record(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1010u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucket(0), 1u);                       // the 0
    EXPECT_EQ(h.bucket(Histogram::bucketIndex(5)), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 1010.0 / 4.0);
}

// --- Snapshot merge --------------------------------------------------

MetricsSnapshot
snapshotWith(uint64_t counter_v, int64_t gauge_v,
             std::vector<uint64_t> hist_samples)
{
    MetricRegistry reg;
    reg.counter("c")->add(counter_v);
    reg.gauge("g")->set(gauge_v);
    Histogram *h = reg.histogram("h");
    for (uint64_t v : hist_samples)
        h->record(v);
    return reg.snapshot();
}

TEST(MetricsSnapshot, MergeIsAssociative)
{
    const MetricsSnapshot a = snapshotWith(1, 10, {1, 2});
    const MetricsSnapshot b = snapshotWith(2, 20, {0, 1 << 10});
    const MetricsSnapshot c = snapshotWith(3, 30, {7});

    // (a + b) + c
    MetricsSnapshot left = a;
    ASSERT_TRUE(left.merge(b));
    ASSERT_TRUE(left.merge(c));

    // a + (b + c)
    MetricsSnapshot bc = b;
    ASSERT_TRUE(bc.merge(c));
    MetricsSnapshot right = a;
    ASSERT_TRUE(right.merge(bc));

    EXPECT_EQ(left.entries(), right.entries());
    EXPECT_EQ(left.counterValue("c"), 6u);
    const MetricValue *h = left.find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->histogram.count, 5u);
    EXPECT_EQ(h->histogram.min, 0u);
    EXPECT_EQ(h->histogram.max, uint64_t{1} << 10);
}

TEST(MetricsSnapshot, MergeRejectsKindMismatchWithoutMutation)
{
    MetricRegistry a;
    a.counter("x")->add(5);
    a.counter("other")->add(1);
    MetricRegistry b;
    b.gauge("x")->set(9);
    b.counter("fresh")->add(2);

    MetricsSnapshot mine = a.snapshot();
    const MetricsSnapshot before = mine;
    std::string error;
    EXPECT_FALSE(mine.merge(b.snapshot(), &error));
    EXPECT_NE(error.find("kind mismatch"), std::string::npos)
        << error;
    // Validate-first: the failed merge must not have added "fresh"
    // or touched "other".
    EXPECT_EQ(mine.entries(), before.entries());
}

TEST(MetricsSnapshot, ToJsonShape)
{
    const MetricsSnapshot s = snapshotWith(7, -3, {0, 4});
    const std::string json = s.toJson();
    EXPECT_EQ(json.find("{"), 0u);
    EXPECT_NE(json.find("\"c\":7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"g\":-3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
    // Bucket keys are lower bounds: 0 and 4.
    EXPECT_NE(json.find("\"buckets\":{\"0\":1,\"4\":1}"),
              std::string::npos)
        << json;
}

// --- Registry checkpointing ------------------------------------------

TEST(MetricRegistry, SaveLoadRoundTrip)
{
    MetricRegistry donor;
    donor.counter("a.count")->add(42);
    donor.gauge("a.level")->set(-7);
    Histogram *h = donor.histogram("a.hist");
    h->record(3);
    h->record(300);

    soc::SnapshotWriter w;
    donor.saveState(w);
    const auto image = w.takeBuffer();

    MetricRegistry fresh;
    fresh.counter("a.count");
    fresh.gauge("a.level");
    fresh.histogram("a.hist");
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(fresh.loadState(r, &error)) << error;
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(fresh.snapshot().entries(),
              donor.snapshot().entries());
}

TEST(MetricRegistry, LoadRejectsCensusMismatch)
{
    MetricRegistry donor;
    donor.counter("a")->add(1);
    soc::SnapshotWriter w;
    donor.saveState(w);
    const auto image = w.takeBuffer();

    // Different instrument count.
    {
        MetricRegistry victim;
        victim.counter("a");
        victim.counter("b");
        soc::SnapshotReader r(image);
        std::string error;
        EXPECT_FALSE(victim.loadState(r, &error));
        EXPECT_NE(error.find("census"), std::string::npos) << error;
    }
    // Same count, unknown name.
    {
        MetricRegistry victim;
        victim.counter("z");
        soc::SnapshotReader r(image);
        std::string error;
        EXPECT_FALSE(victim.loadState(r, &error));
        EXPECT_NE(error.find("unknown instrument"),
                  std::string::npos)
            << error;
    }
    // Same name, different kind — and the failed load must leave
    // pre-call values intact.
    {
        MetricRegistry victim;
        victim.gauge("a")->set(99);
        soc::SnapshotReader r(image);
        std::string error;
        EXPECT_FALSE(victim.loadState(r, &error));
        EXPECT_NE(error.find("kind mismatch"), std::string::npos)
            << error;
        EXPECT_EQ(victim.snapshot().find("a")->gauge, 99);
    }
}

TEST(MetricRegistry, LoadRejectsTruncatedImage)
{
    MetricRegistry donor;
    donor.counter("a")->add(123);
    soc::SnapshotWriter w;
    donor.saveState(w);
    auto image = w.takeBuffer();
    image.resize(image.size() - 1);

    MetricRegistry victim;
    victim.counter("a")->add(7);
    soc::SnapshotReader r(image);
    std::string error;
    EXPECT_FALSE(victim.loadState(r, &error));
    EXPECT_EQ(victim.snapshot().counterValue("a"), 7u);
}

// --- Trace recorder --------------------------------------------------

TEST(TraceRecorder, EmitsWellFormedChromeTrace)
{
    TraceRecorder rec;
    {
        TraceSpan outer(&rec, "outer");
        TraceSpan inner(&rec, "inner");
    }
    rec.instant("marker");
    EXPECT_EQ(rec.eventCount(), 3u);

    const std::string json = rec.toJson();
    EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\","
                        "\"traceEvents\":["),
              0u)
        << json;
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Complete events carry a duration; every event carries pid/tid.
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    // Spans destruct inner-first: the inner span is recorded before
    // the outer one.
    EXPECT_LT(json.find("\"name\":\"inner\""),
              json.find("\"name\":\"outer\""));
}

TEST(TraceRecorder, NullRecorderSpansAreNoOps)
{
    // The default campaign path: no recorder bound.
    TraceSpan span(nullptr, "unused");
    ScopedStage stage(nullptr, nullptr, "unused");
    SUCCEED();
}

TEST(TraceRecorder, SamplingSelectsEveryNth)
{
    TraceRecorder rec(4);
    int sampled = 0;
    for (uint64_t i = 0; i < 16; ++i)
        sampled += rec.sampleIteration(i);
    EXPECT_EQ(sampled, 4);
    // sample_every = 0 is normalized to 1 (trace everything).
    TraceRecorder all(0);
    EXPECT_EQ(all.sampleEveryN(), 1u);
}

TEST(ScopedStage, FeedsCounterAndRecorder)
{
    MetricRegistry reg;
    Counter *ns = reg.counter("stage_ns");
    TraceRecorder rec;
    {
        ScopedStage stage(&rec, ns, "stage");
    }
    EXPECT_EQ(rec.eventCount(), 1u);
    // Wall time passed between constructor and destructor clock
    // reads; the counter saw the same interval the span did.
    EXPECT_GT(ns->value(), 0u);
}

// --- JSONL reporter --------------------------------------------------

TEST(JsonlReporter, EmitsSchemaTaggedLines)
{
    const std::string path =
        ::testing::TempDir() + "telemetry_reporter_test.jsonl";
    JsonlReporter rep;
    ASSERT_TRUE(rep.open(path));
    MetricRegistry reg;
    reg.counter("c")->add(11);
    rep.emit(1.5, 0, reg.snapshot());
    reg.counter("c")->add(1);
    rep.emit(3.0, 1, reg.snapshot());
    rep.close();

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.find("{\"schema\":\"turbofuzz.metrics.v1\","
                        "\"t_sim\":1.500000,"),
              0u)
        << line;
    EXPECT_NE(line.find("\"epoch\":0"), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":{\"c\":11}"),
              std::string::npos)
        << line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"epoch\":1"), std::string::npos);
    EXPECT_NE(line.find("\"c\":12"), std::string::npos);
    EXPECT_FALSE(std::getline(in, line));
    std::remove(path.c_str());
}

// --- Campaign integration --------------------------------------------

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
    return l;
}

std::unique_ptr<fuzzer::TurboFuzzGenerator>
makeGen(uint64_t seed)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    o.instrsPerIteration = 1000;
    return std::make_unique<fuzzer::TurboFuzzGenerator>(o, &lib());
}

harness::CampaignOptions
campaignOpts()
{
    harness::CampaignOptions o;
    o.timing = soc::turboFuzzProfile();
    return o;
}

TEST(CampaignTelemetry, CountersMirrorCampaignCounters)
{
    harness::Campaign c(campaignOpts(), makeGen(3));
    for (int i = 0; i < 20; ++i)
        c.runIteration();

    const MetricsSnapshot snap = c.metrics().snapshot();
    EXPECT_EQ(snap.counterValue("campaign.iterations"),
              c.iterations());
    EXPECT_EQ(snap.counterValue("campaign.commits"),
              c.executedInstructions());
    EXPECT_EQ(snap.counterValue("campaign.mismatches"),
              c.mismatchedIterations());
    const MetricValue *commits =
        snap.find("campaign.iteration.commits");
    ASSERT_NE(commits, nullptr);
    EXPECT_EQ(commits->histogram.count, c.iterations());
    // Corpus instruments are bound through the generator.
    const MetricValue *corpus_size = snap.find("corpus.size");
    ASSERT_NE(corpus_size, nullptr);
    EXPECT_GT(corpus_size->gauge, 0);
}

TEST(CampaignTelemetry, TracingDoesNotChangeResults)
{
    // Telemetry observes, never steers: a traced + stage-timed
    // campaign must produce bit-identical results to a plain one.
    harness::Campaign plain(campaignOpts(), makeGen(9));
    for (int i = 0; i < 30; ++i)
        plain.runIteration();

    TraceRecorder rec(3); // sample a subset, exercise both paths
    harness::CampaignOptions topts = campaignOpts();
    topts.trace = &rec;
    topts.stageTiming = true;
    harness::Campaign traced(topts, makeGen(9));
    for (int i = 0; i < 30; ++i)
        traced.runIteration();

    EXPECT_EQ(traced.executedInstructions(),
              plain.executedInstructions());
    EXPECT_EQ(traced.generatedInstructions(),
              plain.generatedInstructions());
    EXPECT_EQ(traced.coverageMap().totalCovered(),
              plain.coverageMap().totalCovered());
    EXPECT_DOUBLE_EQ(traced.nowSec(), plain.nowSec());
    EXPECT_GT(rec.eventCount(), 0u);

    // Stage counters actually accumulated engine time.
    const MetricsSnapshot snap = traced.metrics().snapshot();
    EXPECT_GT(snap.counterValue("engine.batch.dut_ns"), 0u);
    EXPECT_GT(snap.counterValue("engine.batch.ref_ns"), 0u);
    EXPECT_GT(snap.counterValue("engine.batch.sweep_ns"), 0u);
    EXPECT_GT(snap.counterValue("campaign.generate_ns"), 0u);
}

TEST(CampaignTelemetry, MetricsSurviveCheckpointRestore)
{
    const harness::CampaignOptions opts = campaignOpts();
    harness::Campaign donor(opts, makeGen(5));
    for (int i = 0; i < 40; ++i)
        donor.runIteration();

    soc::SnapshotWriter w;
    ASSERT_TRUE(donor.saveState(w));
    const auto image = w.takeBuffer();

    harness::Campaign resumed(opts, makeGen(5));
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(resumed.loadState(r, &error)) << error;
    ASSERT_TRUE(r.exhausted());
    EXPECT_EQ(resumed.metrics().snapshot().entries(),
              donor.metrics().snapshot().entries());

    // The restored series stays continuous.
    resumed.runIteration();
    EXPECT_EQ(resumed.metrics().snapshot().counterValue(
                  "campaign.iterations"),
              41u);
}

// --- Fleet integration -----------------------------------------------

FleetConfig
fleetConfig(unsigned shards)
{
    FleetConfig fc;
    fc.fleetSeed = 7;
    fc.shardCount = shards;
    fc.budgetSec = 2.0;
    fc.epochSec = 0.5;
    return fc;
}

TEST(FleetTelemetry, StatsAndTraceDoNotChangeResults)
{
    const harness::CampaignOptions copts = campaignOpts();
    const fuzzer::FuzzerOptions fopts;

    fleet::FleetOrchestrator plain(fleetConfig(2), copts, fopts,
                                   &lib());
    const fleet::FleetResult base = plain.run();

    FleetConfig fc = fleetConfig(2);
    fc.statsFile =
        ::testing::TempDir() + "telemetry_fleet_test.jsonl";
    fc.traceOut =
        ::testing::TempDir() + "telemetry_fleet_test.trace.json";
    fc.traceSampleEvery = 5;
    fc.stageTiming = true;
    fleet::FleetOrchestrator traced(fc, copts, fopts, &lib());
    const fleet::FleetResult got = traced.run();

    // The observer contract, fleet-wide.
    EXPECT_EQ(got.mergedFinalCoverage, base.mergedFinalCoverage);
    EXPECT_EQ(got.totals.iterations, base.totals.iterations);
    EXPECT_EQ(got.totals.executedInstrs,
              base.totals.executedInstrs);
    EXPECT_EQ(got.totals.mismatches, base.totals.mismatches);

    // Metrics merged across shards: fleet counters plus per-shard
    // campaign counters summed.
    EXPECT_EQ(got.metrics.counterValue("campaign.iterations"),
              got.totals.iterations);
    EXPECT_EQ(got.metrics.counterValue("fleet.epochs"),
              got.epochs);
    EXPECT_GT(got.metrics.counterValue("engine.batch.dut_ns"), 0u);

    // Artifacts exist and look like what they claim to be.
    std::ifstream stats(fc.statsFile);
    std::string line;
    ASSERT_TRUE(std::getline(stats, line)) << fc.statsFile;
    EXPECT_EQ(line.find("{\"schema\":\"turbofuzz.metrics.v1\""),
              0u);
    std::ifstream trace(fc.traceOut);
    std::stringstream trace_doc;
    trace_doc << trace.rdbuf();
    EXPECT_NE(trace_doc.str().find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(trace_doc.str().find("\"name\":\"engine.dut_batch\""),
              std::string::npos);
    EXPECT_NE(trace_doc.str().find("\"name\":\"fleet.barrier\""),
              std::string::npos);
    std::remove(fc.statsFile.c_str());
    std::remove(fc.traceOut.c_str());
}

TEST(FleetTelemetry, ResultMetricsAlwaysPopulated)
{
    // No telemetry flags at all: the merged metrics still ride on
    // the result (the hot path is unconditionally on).
    fleet::FleetOrchestrator orch(fleetConfig(1), campaignOpts(),
                                  fuzzer::FuzzerOptions{}, &lib());
    const fleet::FleetResult result = orch.run();
    EXPECT_EQ(result.metrics.counterValue("campaign.iterations"),
              result.totals.iterations);
    EXPECT_GT(result.metrics.counterValue("corpus.admits"), 0u);
}

} // namespace
} // namespace turbofuzz::telemetry
