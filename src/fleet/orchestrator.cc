#include "fleet/orchestrator.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/logging.hh"
#include "fleet/worker_pool.hh"
#include "fuzzer/generator.hh"
#include "soc/snapshot.hh"
#include "telemetry/clock.hh"

namespace turbofuzz::fleet
{

FleetOrchestrator::FleetOrchestrator(
    const FleetConfig &config,
    const harness::CampaignOptions &campaign_template,
    const fuzzer::FuzzerOptions &fuzzer_template,
    const isa::InstructionLibrary *library, SyncPolicy policy)
    : cfg(config), sync(policy),
      triage_(triage::MinimizeOptions{cfg.triageReplayBudget, true})
{
    TF_ASSERT(cfg.shardCount >= 1, "fleet needs at least one shard");
    TF_ASSERT(library != nullptr, "fleet requires a library");

    // Telemetry wiring happens before shard construction so shard
    // campaigns can capture the recorder pointer. All of it is
    // observational: tracing/stats on vs off yields identical
    // coverage, mismatches and stimulus (tests/telemetry/).
    if (!cfg.traceOut.empty()) {
        trace_ = std::make_unique<telemetry::TraceRecorder>(
            cfg.traceSampleEvery);
    }
    mEpochs = fleetMetrics.counter("fleet.epochs");
    mBarrierNs = fleetMetrics.counter("fleet.barrier_ns");
    mCheckpoints = fleetMetrics.counter("fleet.checkpoints");
    mStatsEmits = fleetMetrics.counter("fleet.stats_emits");
    mMergeNs = fleetMetrics.counter("fleet.barrier.merge_ns");
    mReduceNs = fleetMetrics.counter("fleet.barrier.reduce_ns");
    mExchangeNs = fleetMetrics.counter("fleet.barrier.exchange_ns");
    mIoOverlapNs =
        fleetMetrics.counter("fleet.barrier.io_overlap_ns");
    triage_.bindTelemetry(&fleetMetrics, trace_.get());
    if (!cfg.statsFile.empty()) {
        std::string stats_error;
        if (!reporter.open(cfg.statsFile, &stats_error))
            warn("fleet stats disabled: %s", stats_error.c_str());
    }

    shards.reserve(cfg.shardCount);
    for (unsigned i = 0; i < cfg.shardCount; ++i) {
        harness::CampaignOptions copts = campaign_template;
        // One instrumentation seed fleet-wide: coverage bit positions
        // must denote the same DUT state on every shard or the merge
        // would OR apples into oranges. The feedback configuration is
        // likewise fleet-wide so per-model merges stay meaningful.
        copts.seed = cfg.fleetSeed;
        copts.coverageModel = cfg.coverageModel;
        copts.maxReproducers =
            cfg.triageEnabled ? cfg.maxReproducersPerShard : 0;
        copts.trace = trace_.get();
        copts.stageTiming = cfg.stageTiming;
        // Provenance rides the same observational contract as the
        // telemetry above; the shard index keys first-hit
        // attributions and the min-wins tie-break.
        copts.provenance = cfg.provenance;
        copts.provenanceShard = i;
        fuzzer::FuzzerOptions fopts = fuzzer_template;
        fopts.seed = cfg.shardSeed(i);
        fopts.scheduler = cfg.scheduler;
        shards.push_back(std::make_unique<FleetShard>(
            i, std::move(copts), fopts, library));
    }
    globalMap = std::make_unique<coverage::CoverageMap>(
        &shards[0]->campaign().instrumentation());
    if (shards[0]->campaign().csrModel())
        globalCsr = std::make_unique<coverage::CsrTransitionModel>();
    if (shards[0]->campaign().hitCountModel())
        globalHit = std::make_unique<coverage::HitCountModel>();
    mismatchHarvested.assign(cfg.shardCount, false);
}

telemetry::MetricsSnapshot
FleetOrchestrator::mergedMetrics() const
{
    telemetry::MetricsSnapshot merged = fleetMetrics.snapshot();
    for (const auto &s : shards) {
        std::string merge_error;
        if (!merged.merge(s->campaign().metrics().snapshot(),
                          &merge_error)) {
            warn("fleet metrics merge (shard %u): %s", s->index(),
                 merge_error.c_str());
        }
    }
    return merged;
}

void
FleetOrchestrator::maybeEmitStats(double sim_time_sec,
                                  unsigned epoch_idx)
{
    if (!reporter.isOpen())
        return;
    // Cadence 0 means every barrier; otherwise emit at the first
    // barrier at or past the cursor, then advance it past the
    // emission time (an epoch longer than the cadence does not cause
    // a burst of catch-up lines).
    if (cfg.statsEverySec > 0.0) {
        if (sim_time_sec < nextStatsEmitSec)
            return;
        while (nextStatsEmitSec <= sim_time_sec)
            nextStatsEmitSec += cfg.statsEverySec;
    }
    // Render on this thread (deterministic content, reporter-owned
    // host clock), write on the background thread: the fwrite+fflush
    // pair is the slow part and nothing downstream reads it back.
    std::string line =
        reporter.formatLine(sim_time_sec, epoch_idx, mergedMetrics(),
                            provenanceStatsJson(sim_time_sec));
    asyncIo.submit([this, moved = std::move(line)] {
        reporter.writeLine(moved);
    });
    mStatsEmits->add(1);
}

std::string
FleetOrchestrator::provenanceStatsJson(double sim_time_sec) const
{
    if (!cfg.provenance)
        return {};
    const double last = globalLedger.lastHitSimSec();
    const double plateau =
        globalLedger.empty() ? sim_time_sec
                             : std::max(0.0, sim_time_sec - last);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"first_hits\":%llu,\"last_new_t_sim\":%.6f,"
                  "\"plateau_sec\":%.6f}",
                  static_cast<unsigned long long>(
                      globalLedger.size()),
                  last, plateau);
    return buf;
}

void
FleetOrchestrator::epochBarrier(unsigned epoch_idx,
                                FleetResult &result,
                                StatsSnapshot &prev_totals,
                                WorkerPool &pool)
{
    telemetry::ScopedStage barrier_stage(trace_.get(), mBarrierNs,
                                         "fleet.barrier");
    const uint64_t barrier_start = telemetry::nowNs();
    mEpochs->add(1);
    // I/O the background writer overlapped with the epoch that just
    // ran (checkpoint shipping, JSONL lines) — harvested here so the
    // counter stays on the orchestrator thread.
    mIoOverlapNs->add(asyncIo.takeOverlapNs());
    const unsigned n = shardCount();
    const double deadline = cfg.epochDeadline(epoch_idx);

    // 1. Global coverage merge. Two byte-identical implementations
    //    (tests/fleet/ FleetDelta):
    //
    //    Delta path (default): every shard publishes the words its
    //    models dirtied since the previous barrier — O(new coverage),
    //    in parallel on the pool since publication touches only
    //    shard-local state — then the per-shard deltas are combined
    //    in a binary reduction tree whose pairing is a pure function
    //    of shard indices (slot i+stride merges into slot i; pairs
    //    are disjoint within a round, rounds separated by pool
    //    barriers), and the single surviving delta is applied to the
    //    global models on this thread. Word-OR / bucket-OR /
    //    count-max / first-hit-min are all associative and
    //    commutative, so the tree shape changes nothing, and worker
    //    scheduling cannot reorder observable writes.
    //
    //    Serial path (--delta-barrier=false): the historical full-map
    //    merge in fixed shard order, kept as the reference the delta
    //    path is proven against. A rejected merge or delta
    //    (incompatible shapes — impossible for a fleet built by this
    //    orchestrator, but the maps refuse rather than silently
    //    corrupt) drops that contribution with a warning instead of
    //    poisoning the global view.
    const uint64_t merge_start = telemetry::nowNs();
    if (cfg.deltaBarrier) {
        epochDeltas.resize(n);
        for (unsigned i = 0; i < n; ++i) {
            FleetShard *shard_ptr = shards[i].get();
            coverage::CoverageDelta *slot = &epochDeltas[i];
            pool.submit(
                [shard_ptr, slot] { shard_ptr->publishDelta(*slot); });
        }
        pool.wait();

        const uint64_t reduce_start = telemetry::nowNs();
        for (unsigned stride = 1; stride < n; stride <<= 1) {
            for (unsigned i = 0; i + stride < n; i += 2 * stride) {
                coverage::CoverageDelta *into = &epochDeltas[i];
                coverage::CoverageDelta *from =
                    &epochDeltas[i + stride];
                pool.submit(
                    [into, from] { into->mergeFrom(*from); });
            }
            pool.wait();
        }
        mReduceNs->add(telemetry::nowNs() - reduce_start);

        std::string merge_error;
        if (!globalMap->mergeDelta(epochDeltas[0].mux,
                                   &merge_error))
            warn("fleet coverage delta: %s", merge_error.c_str());
        if (globalCsr &&
            !globalCsr->mergeDelta(epochDeltas[0].csr, &merge_error))
            warn("fleet csr delta: %s", merge_error.c_str());
        if (globalHit && !globalHit->mergeDelta(epochDeltas[0].edges,
                                                &merge_error))
            warn("fleet edge delta: %s", merge_error.c_str());
        // First-hit attributions ride the same reduction (min-wins
        // inside mergeFrom); the reduced batch lands here.
        if (cfg.provenance)
            globalLedger.mergeEntries(epochDeltas[0].firstHits);
    } else {
        for (auto &s : shards) {
            std::string merge_error;
            if (!globalMap->merge(s->campaign().coverageMap(),
                                  &merge_error)) {
                warn("fleet coverage merge (shard %u): %s",
                     s->index(), merge_error.c_str());
            }
            if (globalCsr &&
                !globalCsr->merge(*s->campaign().csrModel(),
                                  &merge_error)) {
                warn("fleet csr merge (shard %u): %s", s->index(),
                     merge_error.c_str());
            }
            if (globalHit &&
                !globalHit->merge(*s->campaign().hitCountModel(),
                                  &merge_error)) {
                warn("fleet edge merge (shard %u): %s", s->index(),
                     merge_error.c_str());
            }
        }

        // Provenance ledger merge, same fixed shard order. Min-wins
        // keeps the globally earliest attribution for every point;
        // re-merging cumulative shard ledgers is idempotent.
        if (cfg.provenance) {
            for (const auto &s : shards)
                globalLedger.merge(s->campaign().provenanceLedger());
        }
    }
    const uint64_t merge_ns = telemetry::nowNs() - merge_start;
    mMergeNs->add(merge_ns);
    result.epochMergeNs.push_back(merge_ns);

    // 2. Cross-shard seed exchange: each exporter publishes its top
    //    seeds once as shared immutable blocks and every importer
    //    reads the same blocks — no per-importer copies; a seed body
    //    is copied only when admission actually re-identifies it into
    //    the importing corpus. A 1-shard fleet has no peers and
    //    therefore no round trip at all — this keeps it bit-identical
    //    to a standalone campaign. Export and import stay on this
    //    thread in fixed shard order, so every seed copy and
    //    publication is allocated here; the content hashes they
    //    dedup by were computed in the parallel epoch phase
    //    (FleetShard::hashResidents).
    const uint64_t exchange_start = telemetry::nowNs();
    if (n >= 2) {
        if (exchangesSeeds()) {
            std::vector<std::vector<fuzzer::SeedShare>> exported(n);
            for (unsigned i = 0; i < n; ++i) {
                exported[i] =
                    shards[i]->exportSeedsShared(sync.topK());
            }
            for (unsigned i = 0; i < n; ++i) {
                for (unsigned src :
                     sync.importSources(i, n, epoch_idx)) {
                    result.seedsExchanged += exported[src].size();
                    result.seedsAdmitted +=
                        shards[i]->importSeedsShared(exported[src]);
                }
            }
        }
        // The coverage-readback round trip happens every barrier,
        // whether or not seeds travelled with it.
        for (auto &s : shards)
            s->chargeSync(sync.syncCostSec());
    }
    const uint64_t exchange_ns = telemetry::nowNs() - exchange_start;
    mExchangeNs->add(exchange_ns);
    result.epochExchangeNs.push_back(exchange_ns);

    // 3. Mismatch harvest: each shard's first mismatch, once.
    for (unsigned i = 0; i < n; ++i) {
        if (mismatchHarvested[i])
            continue;
        const auto &mm = shards[i]->campaign().firstMismatch();
        if (mm) {
            result.mismatches.push_back(
                {i, *mm,
                 shards[i]
                     ->campaign()
                     .mismatchSnapshot()
                     .captureTime()});
            mismatchHarvested[i] = true;
        }
    }

    // 3b. Triage harvest: every new reproducer flows into the queue,
    //     in fixed shard order (bucket numbering stays deterministic
    //     regardless of worker scheduling).
    if (cfg.triageEnabled) {
        for (auto &s : shards) {
            for (triage::Reproducer &r : s->drainNewReproducers()) {
                ++result.reproducersHarvested;
                triage_.push(std::move(r));
            }
        }
    }

    // 4. Fleet-wide samples for this epoch.
    StatsSnapshot totals{};
    for (const auto &s : shards) {
        const StatsSnapshot c = s->counters();
        totals.iterations += c.iterations;
        totals.executedInstrs += c.executedInstrs;
        totals.generatedInstrs += c.generatedInstrs;
        totals.mismatches += c.mismatches;
    }
    const StatsSnapshot delta = totals - prev_totals;
    const double epoch_len =
        deadline - (epoch_idx == 0
                        ? 0.0
                        : cfg.epochDeadline(epoch_idx - 1));
    result.mergedCoverage.record(
        deadline, static_cast<double>(globalMap->totalCovered()));
    if (epoch_len > 0.0) {
        result.throughput.record(
            deadline,
            static_cast<double>(delta.iterations) / epoch_len);
    }
    double fuzz_executed = 0.0, executed = 0.0;
    for (const auto &s : shards) {
        const double exec = static_cast<double>(
            s->campaign().executedInstructions());
        executed += exec;
        fuzz_executed += exec * s->campaign().prevalence();
    }
    result.prevalence.record(
        deadline, executed > 0.0 ? fuzz_executed / executed : 0.0);
    prev_totals = totals;

    // 5. Periodic JSONL stats (merged fleet metrics at this barrier).
    maybeEmitStats(deadline, epoch_idx);

    result.epochBarrierNs.push_back(telemetry::nowNs() -
                                    barrier_start);
}

bool
FleetOrchestrator::exchangesSeeds() const
{
    return shardCount() >= 2 &&
           sync.topology() != ExchangeTopology::None && sync.topK() > 0;
}

FleetResult
FleetOrchestrator::run()
{
    ThroughputMeter meter;
    const unsigned n = shardCount();
    const unsigned epochs = cfg.epochCount();

    FleetResult &result = pending;
    result.shardCount = n;
    result.epochs = epochs;
    result.simBudgetSec = cfg.budgetSec;

    const unsigned threads =
        cfg.workerThreads ? cfg.workerThreads : n;
    WorkerPool pool(threads);
    const bool exchanges = exchangesSeeds();

    // epochsDone is 0 for a fresh fleet and the checkpointed barrier
    // count after restoreCheckpoint() — the loop continues exactly
    // where the killed run stopped.
    for (unsigned e = epochsDone; e < epochs; ++e) {
        const double deadline = cfg.epochDeadline(e);
        {
            telemetry::TraceSpan epoch_span(trace_.get(),
                                            "fleet.epoch");
            for (auto &s : shards) {
                FleetShard *shard_ptr = s.get();
                pool.submit([shard_ptr, deadline, exchanges, this] {
                    shard_ptr->runEpoch(deadline, &liveStats);
                    // Hash new corpus residents here, in parallel,
                    // instead of inside the serial exchange.
                    if (exchanges)
                        shard_ptr->hashResidents();
                });
            }
            pool.wait();
        }
        epochBarrier(e, result, prevTotals, pool);
        epochsDone = e + 1;

        if (cfg.checkpointEveryEpochs > 0 &&
            epochsDone % cfg.checkpointEveryEpochs == 0 &&
            epochsDone < epochs) {
            // Checkpoint failures (unsupported generator, disk full,
            // unwritable path) must never kill the campaign whose
            // progress the checkpoint exists to protect. The state
            // capture runs here (it must see the barrier-quiesced
            // fleet); only the disk write is shipped to the
            // background writer, overlapped with the next epoch.
            // mCheckpoints counts submissions so its value stays a
            // pure function of the epoch schedule.
            std::string error;
            auto snap = makeCheckpoint(&error);
            if (!snap) {
                warn("fleet checkpoint skipped: %s", error.c_str());
            } else {
                auto shared = std::make_shared<soc::Snapshot>(
                    std::move(*snap));
                const std::string path = cfg.checkpointPath;
                asyncIo.submit([shared, path] {
                    std::string io_error;
                    if (!shared->trySaveFile(path, &io_error)) {
                        warn("fleet checkpoint skipped: %s",
                             io_error.c_str());
                    }
                });
                mCheckpoints->add(1);
            }
        }
        if (cfg.haltAfterEpochs > 0 &&
            epochsDone >= cfg.haltAfterEpochs)
            break; // simulated kill: results cover completed epochs
    }

    for (const auto &s : shards)
        result.shardCoverage.push_back(s->coverageSeries());
    result.totals = prevTotals;
    result.mergedFinalCoverage = globalMap->totalCovered();

    // Post-run triage: minimize each distinct bug's exemplar and
    // emit the per-bug table.
    if (cfg.triageEnabled) {
        if (cfg.triageReplayBudget > 0)
            triage_.minimizeAll();
        result.bugTable = triage_.table();
    }
    // stop() freezes one clock reading for the time row and both
    // rate rows, so the printed summary is self-consistent.
    meter.addCommits(result.totals.executedInstrs);
    meter.addIterations(result.totals.iterations);
    meter.stop();
    result.hostSeconds = meter.elapsedSec();
    result.hostCommitsPerSec = meter.commitsPerSec();
    result.hostItersPerSec = meter.itersPerSec();

    // End-of-run telemetry. The background writer is drained first:
    // a pending checkpoint must be on disk before run() returns (the
    // resume tests read it immediately), a pending stats line must be
    // written before the reporter closes, and the final overlap
    // reading must land in the counter before the metrics merge.
    asyncIo.drain();
    mIoOverlapNs->add(asyncIo.takeOverlapNs());

    // The merged metrics view rides on the result; the trace document
    // (if any) is flushed to disk here so triage spans from
    // minimizeAll() are included.
    result.metrics = mergedMetrics();
    reporter.close();
    if (trace_ && !cfg.traceOut.empty()) {
        std::string trace_error;
        if (!trace_->writeFile(cfg.traceOut, &trace_error))
            warn("fleet trace not written: %s", trace_error.c_str());
    }

    // Provenance summary + report, all derived from the ledgers. A
    // shard that never recorded a first hit has been flat for the
    // whole run, so its plateau age is the full elapsed time.
    if (cfg.provenance) {
        const double end_sim =
            epochsDone > 0 ? cfg.epochDeadline(epochsDone - 1) : 0.0;
        result.provenanceOn = true;
        result.firstHitsRecorded = globalLedger.size();
        result.lastNewCoverageSimSec = globalLedger.lastHitSimSec();
        result.shardPlateauAgeSec.clear();
        for (const auto &s : shards) {
            const coverage::FirstHitLedger &sl =
                s->campaign().provenanceLedger();
            result.shardPlateauAgeSec.push_back(
                sl.empty()
                    ? end_sim
                    : std::max(0.0, end_sim - sl.lastHitSimSec()));
        }
        if (!cfg.provenanceOut.empty())
            writeProvenanceReport(result);
    }
    return result;
}

namespace
{

// v2: adds the fleet.feedback section (global auxiliary feedback
// model states) and rides on campaign state v2 inside the shard
// sections.
// v3: adds the fleet.telemetry section (orchestrator metric state +
// JSONL cadence cursor) and rides on campaign state v3 (per-shard
// metric state) inside the shard sections.
// v4: adds the fleet.provenance section (census flag + the global
// first-hit ledger when enabled) and rides on campaign state v4
// (per-shard ledger/forensics trailer) inside the shard sections.
// v5: the orchestrator registry gains the four fleet.barrier.*
// phase counters, changing the fleet.telemetry instrument census
// (MetricRegistry::loadState rejects a census mismatch, so v4 images
// cannot round-trip). Shard model dirty-word state is deliberately
// NOT serialized: loadState conservatively re-marks everything
// nonzero dirty, and the one-time over-publication that causes is a
// no-op under the OR/max/min-wins merges — the resume-equals-
// uninterrupted contract holds on the delta path.
constexpr uint32_t fleetCheckpointVersion = 5;

void
putStats(soc::SnapshotWriter &w, const StatsSnapshot &s)
{
    w.putU64(s.iterations);
    w.putU64(s.executedInstrs);
    w.putU64(s.generatedInstrs);
    w.putU64(s.mismatches);
}

StatsSnapshot
getStats(soc::SnapshotReader &r)
{
    StatsSnapshot s;
    s.iterations = r.getU64();
    s.executedInstrs = r.getU64();
    s.generatedInstrs = r.getU64();
    s.mismatches = r.getU64();
    return s;
}

} // namespace

std::optional<soc::Snapshot>
FleetOrchestrator::makeCheckpoint(std::string *error) const
{
    const unsigned n = shardCount();
    soc::Snapshot snap;
    snap.setTrigger("fleet checkpoint after epoch " +
                    std::to_string(epochsDone));

    soc::SnapshotWriter meta;
    meta.putU32(fleetCheckpointVersion);
    meta.putU32(epochsDone);
    meta.putU32(n);
    meta.putU64(cfg.fleetSeed);
    putStats(meta, prevTotals);
    meta.putU64(pending.seedsExchanged);
    meta.putU64(pending.seedsAdmitted);
    meta.putU64(pending.reproducersHarvested);
    for (unsigned i = 0; i < n; ++i)
        meta.putU8(mismatchHarvested[i] ? 1 : 0);
    snap.setSection("fleet.meta", meta.takeBuffer());

    soc::SnapshotWriter series;
    pending.mergedCoverage.saveState(series);
    pending.throughput.saveState(series);
    pending.prevalence.saveState(series);
    snap.setSection("fleet.series", series.takeBuffer());

    soc::SnapshotWriter mms;
    mms.putU32(static_cast<uint32_t>(pending.mismatches.size()));
    for (const ShardMismatch &sm : pending.mismatches) {
        mms.putU32(sm.shard);
        checker::writeMismatch(mms, sm.mismatch);
        mms.putF64(sm.simTimeSec);
    }
    snap.setSection("fleet.mismatches", mms.takeBuffer());

    soc::SnapshotWriter cov;
    globalMap->saveState(cov);
    snap.setSection("fleet.coverage", cov.takeBuffer());

    soc::SnapshotWriter fb;
    fb.putU8(coverage::auxModelCensus(globalCsr != nullptr,
                                      globalHit != nullptr));
    if (globalCsr)
        globalCsr->saveState(fb);
    if (globalHit)
        globalHit->saveState(fb);
    snap.setSection("fleet.feedback", fb.takeBuffer());

    soc::SnapshotWriter tri;
    triage_.saveState(tri);
    snap.setSection("fleet.triage", tri.takeBuffer());

    soc::SnapshotWriter tel;
    fleetMetrics.saveState(tel);
    tel.putF64(nextStatsEmitSec);
    snap.setSection("fleet.telemetry", tel.takeBuffer());

    soc::SnapshotWriter prov;
    prov.putU8(cfg.provenance ? 1 : 0);
    if (cfg.provenance)
        globalLedger.saveState(prov);
    snap.setSection("fleet.provenance", prov.takeBuffer());

    for (unsigned i = 0; i < n; ++i) {
        soc::SnapshotWriter shard_state;
        if (!shards[i]->saveState(shard_state)) {
            if (error)
                *error = "shard " + std::to_string(i) +
                         " generator does not support checkpointing";
            return std::nullopt;
        }
        snap.setSection("fleet.shard." + std::to_string(i),
                        shard_state.takeBuffer());
    }
    return snap;
}

bool
FleetOrchestrator::restoreCheckpoint(const soc::Snapshot &snap,
                                     std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = "fleet checkpoint: " + msg;
        return false;
    };
    const unsigned n = shardCount();
    TF_ASSERT(epochsDone == 0,
              "checkpoint can only be restored into a fresh fleet");

    const char *required[] = {"fleet.meta",       "fleet.series",
                              "fleet.mismatches", "fleet.coverage",
                              "fleet.feedback",   "fleet.triage",
                              "fleet.telemetry",  "fleet.provenance"};
    for (const char *name : required) {
        if (!snap.hasSection(name))
            return fail("missing section '" + std::string(name) +
                        "'");
    }

    try {
        soc::SnapshotReader meta(snap.section("fleet.meta"));
        if (meta.getU32() != fleetCheckpointVersion)
            return fail("unsupported checkpoint version");
        const uint32_t epochs_done = meta.getU32();
        if (epochs_done == 0 || epochs_done > cfg.epochCount())
            return fail("epoch count out of range");
        if (meta.getU32() != n)
            return fail("shard count mismatch");
        if (meta.getU64() != cfg.fleetSeed)
            return fail("fleet seed mismatch");
        prevTotals = getStats(meta);
        pending.seedsExchanged = meta.getU64();
        pending.seedsAdmitted = meta.getU64();
        pending.reproducersHarvested = meta.getU64();
        for (unsigned i = 0; i < n; ++i)
            mismatchHarvested[i] = meta.getU8() != 0;
        if (!meta.exhausted())
            return fail("trailing bytes in fleet.meta");

        soc::SnapshotReader series(snap.section("fleet.series"));
        if (!pending.mergedCoverage.loadState(series, error) ||
            !pending.throughput.loadState(series, error) ||
            !pending.prevalence.loadState(series, error))
            return false;
        if (!series.exhausted())
            return fail("trailing bytes in fleet.series");

        soc::SnapshotReader mms(snap.section("fleet.mismatches"));
        pending.mismatches.clear();
        const uint32_t mm_count = mms.getU32();
        if (mm_count > n)
            return fail("mismatch count exceeds shard count");
        for (uint32_t i = 0; i < mm_count; ++i) {
            ShardMismatch sm;
            sm.shard = mms.getU32();
            if (sm.shard >= n)
                return fail("mismatch shard index out of range");
            if (!checker::readMismatch(mms, sm.mismatch, error))
                return false;
            sm.simTimeSec = mms.getF64();
            pending.mismatches.push_back(sm);
        }
        if (!mms.exhausted())
            return fail("trailing bytes in fleet.mismatches");

        soc::SnapshotReader cov(snap.section("fleet.coverage"));
        if (!globalMap->loadState(cov, error))
            return false;
        if (!cov.exhausted())
            return fail("trailing bytes in fleet.coverage");

        soc::SnapshotReader fb(snap.section("fleet.feedback"));
        const uint8_t fb_census = fb.getU8();
        const uint8_t fb_expected = coverage::auxModelCensus(
            globalCsr != nullptr, globalHit != nullptr);
        if (fb_census != fb_expected) {
            return fail("feedback model census mismatch (checkpoint "
                        "from a different --coverage-model?)");
        }
        if (globalCsr && !globalCsr->loadState(fb, error))
            return false;
        if (globalHit && !globalHit->loadState(fb, error))
            return false;
        if (!fb.exhausted())
            return fail("trailing bytes in fleet.feedback");

        soc::SnapshotReader tri(snap.section("fleet.triage"));
        if (!triage_.loadState(tri, error))
            return false;
        if (!tri.exhausted())
            return fail("trailing bytes in fleet.triage");

        soc::SnapshotReader tel(snap.section("fleet.telemetry"));
        if (!fleetMetrics.loadState(tel, error))
            return false;
        nextStatsEmitSec = tel.getF64();
        if (!tel.exhausted())
            return fail("trailing bytes in fleet.telemetry");

        soc::SnapshotReader prov(snap.section("fleet.provenance"));
        const bool prov_census = prov.getU8() != 0;
        if (prov_census != cfg.provenance) {
            return fail("provenance census mismatch (checkpoint from "
                        "a run with a different --provenance "
                        "setting?)");
        }
        if (cfg.provenance && !globalLedger.loadState(prov, error))
            return false;
        if (!prov.exhausted())
            return fail("trailing bytes in fleet.provenance");

        for (unsigned i = 0; i < n; ++i) {
            const std::string name =
                "fleet.shard." + std::to_string(i);
            if (!snap.hasSection(name))
                return fail("missing section '" + name + "'");
            soc::SnapshotReader shard_state(snap.section(name));
            if (!shards[i]->loadState(shard_state, error))
                return false;
            if (!shard_state.exhausted())
                return fail("trailing bytes in '" + name + "'");
        }

        epochsDone = epochs_done;
        // Prime the live counters so mid-run reads stay monotone
        // across the resume.
        liveStats.add(prevTotals);
        return true;
    } catch (const soc::SnapshotFormatError &e) {
        return fail(e.what());
    }
}

namespace
{

std::string
jsonNum(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

std::string
jsonNum(uint64_t v)
{
    return std::to_string(v);
}

} // namespace

void
FleetOrchestrator::writeProvenanceReport(const FleetResult &result)
{
    using coverage::PointSpace;
    const unsigned n = shardCount();
    const double end_sim =
        epochsDone > 0 ? cfg.epochDeadline(epochsDone - 1) : 0.0;

    std::string out;
    out.reserve(1 << 16);
    out += "{\"schema\":\"turbofuzz.provenance.v1\"";
    out += ",\"shards\":" + jsonNum(uint64_t{n});
    out += ",\"epochs\":" + jsonNum(uint64_t{epochsDone});
    out += ",\"t_sim_end\":" + jsonNum(end_sim);
    out += ",\"first_hits_recorded\":" +
           jsonNum(uint64_t{globalLedger.size()});
    out += ",\"last_new_t_sim\":" +
           jsonNum(globalLedger.lastHitSimSec());

    // Every first hit with its full attribution, key-ordered so the
    // report is deterministic for a given fleet configuration.
    uint64_t space_hits[3] = {0, 0, 0};
    std::map<uint8_t, uint64_t> op_hits;
    out += ",\"time_to_hit\":[";
    bool first = true;
    for (const auto &[key, hit] : globalLedger.sortedEntries()) {
        const auto space = coverage::pointSpace(key);
        if (static_cast<uint8_t>(space) < 3)
            ++space_hits[static_cast<uint8_t>(space)];
        ++op_hits[hit.op];
        if (!first)
            out += ",";
        first = false;
        out += "{\"space\":\"";
        out += coverage::pointSpaceName(space);
        out += "\",\"module\":" +
               jsonNum(uint64_t{coverage::pointModule(key)});
        out += ",\"index\":" +
               jsonNum(uint64_t{coverage::pointIndex(key)});
        out += ",\"t_sim\":" + jsonNum(hit.simTimeSec);
        out += ",\"shard\":" + jsonNum(uint64_t{hit.shard});
        out += ",\"iteration\":" + jsonNum(hit.iteration);
        out += ",\"seed\":" + jsonNum(hit.seedId);
        out += ",\"op\":\"";
        out += coverage::provenanceOpName(hit.op);
        out += "\"}";
    }
    out += "]";

    // Never-hit targets. The mux space is enumerable (every module's
    // instrumented point count is known), so it is listed concretely
    // — module by module with example indices — and feeds the
    // targeted-monitoring roadmap item. CSR/edge spaces are sparse
    // keyed sets without a closed universe; they get hit counts only.
    out += ",\"never_hit\":{\"mux\":[";
    const auto &mods =
        shards[0]->campaign().instrumentation().modules();
    for (size_t m = 0; m < mods.size(); ++m) {
        const uint64_t points = mods[m].instrumentedPoints();
        uint64_t hit_count = 0;
        std::string examples;
        unsigned listed = 0;
        for (uint64_t idx = 0; idx < points; ++idx) {
            const uint64_t key =
                coverage::pointKey(PointSpace::Mux,
                                   static_cast<uint32_t>(m),
                                   static_cast<uint32_t>(idx));
            if (globalLedger.find(key)) {
                ++hit_count;
            } else if (listed < 16) {
                if (!examples.empty())
                    examples += ",";
                examples += jsonNum(idx);
                ++listed;
            }
        }
        if (m)
            out += ",";
        out += "{\"module\":\"" +
               telemetry::jsonEscape(mods[m].module().name()) + "\"";
        out += ",\"module_index\":" + jsonNum(uint64_t{m});
        out += ",\"points\":" + jsonNum(points);
        out += ",\"hit\":" + jsonNum(hit_count);
        out += ",\"never\":" + jsonNum(points - hit_count);
        out += ",\"examples\":[" + examples + "]}";
    }
    out += "],\"csr\":{\"hit\":" + jsonNum(space_hits[1]) + "}";
    out += ",\"edges\":{\"hit\":" + jsonNum(space_hits[2]) + "}}";

    // Operator attribution: unique coverage points first-hit under
    // each mutation operator.
    out += ",\"operators\":[";
    first = true;
    for (const auto &[op, count] : op_hits) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"op\":\"";
        out += coverage::provenanceOpName(op);
        out += "\",\"first_hits\":" + jsonNum(count) + "}";
    }
    out += "]";

    // Lineage depth histogram over every shard's resident corpus
    // (TurboFuzz generators only; baseline generators have none).
    std::map<uint32_t, uint64_t> depth_hist;
    for (const auto &s : shards) {
        auto *tfg = dynamic_cast<fuzzer::TurboFuzzGenerator *>(
            &s->campaign().generator());
        if (!tfg)
            continue;
        for (const fuzzer::Seed &seed :
             tfg->underlying().corpus().entries())
            ++depth_hist[seed.lineageDepth];
    }
    out += ",\"lineage_depth_histogram\":[";
    first = true;
    for (const auto &[depth, seeds_at] : depth_hist) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"depth\":" + jsonNum(uint64_t{depth});
        out += ",\"seeds\":" + jsonNum(seeds_at) + "}";
    }
    out += "]";

    // Per-shard forensics: ledger-derived plateau rows plus each
    // shard's recent-event ring and any mismatch-time ring dumps.
    out += ",\"shards_detail\":[";
    for (unsigned i = 0; i < n; ++i) {
        const harness::Campaign &camp = shards[i]->campaign();
        const coverage::FirstHitLedger &sl = camp.provenanceLedger();
        if (i)
            out += ",";
        out += "{\"shard\":" + jsonNum(uint64_t{i});
        out += ",\"first_hits\":" + jsonNum(uint64_t{sl.size()});
        out += ",\"last_new_t_sim\":" + jsonNum(sl.lastHitSimSec());
        out += ",\"plateau_sec\":" +
               jsonNum(i < result.shardPlateauAgeSec.size()
                           ? result.shardPlateauAgeSec[i]
                           : 0.0);
        out += ",\"forensics\":" + camp.forensics().toJson();
        out += ",\"forensics_dumps\":[";
        const auto &dumps = camp.forensicsDumps();
        for (size_t d = 0; d < dumps.size(); ++d) {
            if (d)
                out += ",";
            out += dumps[d];
        }
        out += "]}";
    }
    out += "]}\n";

    std::FILE *f = std::fopen(cfg.provenanceOut.c_str(), "w");
    if (!f) {
        warn("provenance report not written: cannot open '%s'",
             cfg.provenanceOut.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // namespace turbofuzz::fleet
