/**
 * @file
 * Fleet orchestrator: N parallel campaign shards with epoch-barrier
 * synchronization.
 *
 * This is the reproduction's model of the paper's scaled-out
 * deployment: one TurboFuzzer + DUT per FPGA board, all driven by a
 * host that periodically (once per *epoch*) collects each board's
 * coverage map, merges it into the global picture, redistributes the
 * most productive seeds between boards and harvests mismatch
 * snapshots.
 *
 * Determinism contract: for a fixed (fleet seed, shard count, epoch
 * length, sync policy) the merged coverage trajectory, totals and
 * mismatch set are identical across runs regardless of host thread
 * scheduling, because
 *   - every shard is fully self-contained while an epoch runs
 *     (per-shard RNG streams derived from the fleet seed),
 *   - all cross-shard operations execute on the orchestrator thread
 *     at the barrier, in fixed shard order.
 * A 1-shard fleet reproduces a plain Campaign::run() bit-exactly
 * (shardSeed(0) == fleetSeed, and epoch slicing composes to the same
 * iteration sequence).
 */

#ifndef TURBOFUZZ_FLEET_ORCHESTRATOR_HH
#define TURBOFUZZ_FLEET_ORCHESTRATOR_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/fleet_config.hh"
#include "coverage/coverage_map.hh"
#include "coverage/provenance.hh"
#include "fleet/async_io.hh"
#include "fleet/fleet_stats.hh"
#include "fleet/shard.hh"
#include "fleet/sync_policy.hh"
#include "harness/campaign.hh"
#include "telemetry/metrics.hh"
#include "telemetry/reporter.hh"
#include "telemetry/trace.hh"
#include "triage/triage_queue.hh"

namespace turbofuzz::fleet
{

class WorkerPool;

/** Owns and synchronizes a fleet of campaign shards. */
class FleetOrchestrator
{
  public:
    /**
     * @param config            Fleet shape (shards, epochs, budget).
     * @param campaign_template Per-shard campaign options; the
     *                          orchestrator overrides the seed with
     *                          the fleet seed (instrumentation must
     *                          align across shards for the coverage
     *                          merge to be meaningful).
     * @param fuzzer_template   Per-shard fuzzer options; the seed is
     *                          overridden with shardSeed(i).
     * @param library           Shared read-only instruction library;
     *                          must outlive the orchestrator.
     * @param policy            Barrier seed-exchange policy.
     */
    FleetOrchestrator(const FleetConfig &config,
                      const harness::CampaignOptions &campaign_template,
                      const fuzzer::FuzzerOptions &fuzzer_template,
                      const isa::InstructionLibrary *library,
                      SyncPolicy policy);

    /** Convenience: policy derived from the config. */
    FleetOrchestrator(const FleetConfig &config,
                      const harness::CampaignOptions &campaign_template,
                      const fuzzer::FuzzerOptions &fuzzer_template,
                      const isa::InstructionLibrary *library)
        : FleetOrchestrator(config, campaign_template, fuzzer_template,
                            library, SyncPolicy::fromConfig(config))
    {}

    /**
     * Run the fleet to its budget (or FleetConfig::haltAfterEpochs).
     * Call at most once. When FleetConfig::checkpointEveryEpochs is
     * set, a full fleet checkpoint is written to
     * FleetConfig::checkpointPath after every Nth epoch barrier.
     */
    FleetResult run();

    /**
     * Serialize the complete mid-campaign fleet state — every
     * shard's campaign, the merged coverage, the triage queue,
     * harvest bookkeeping and the partial result series — into a
     * versioned snapshot-section image. Valid at epoch barriers
     * (run() calls it between epochs; callers use it only before
     * run()). Returns std::nullopt when a shard generator cannot
     * checkpoint.
     */
    std::optional<soc::Snapshot>
    makeCheckpoint(std::string *error = nullptr) const;

    /**
     * Resume a killed fleet: restore a makeCheckpoint() image into
     * this freshly constructed orchestrator (which must have been
     * built with the same config, templates and library), then call
     * run() to continue from the checkpointed epoch. The combined
     * run is bit-identical to an uninterrupted one (enforced by
     * tests/fleet/).
     * @return false with @p error set on malformed or mismatched
     *         input; the orchestrator must not be run afterwards.
     */
    bool restoreCheckpoint(const soc::Snapshot &snap,
                           std::string *error = nullptr);

    /** Global (union) coverage across all shards. */
    const coverage::CoverageMap &globalCoverage() const
    {
        return *globalMap;
    }

    /** Global CSR-transition coverage; nullptr unless the fleet runs
     *  with --coverage-model csr/composite. */
    const coverage::CsrTransitionModel *globalCsrCoverage() const
    {
        return globalCsr.get();
    }

    /** Global hit-count edge coverage; nullptr unless the fleet runs
     *  with --coverage-model edges/composite. */
    const coverage::HitCountModel *globalHitCoverage() const
    {
        return globalHit.get();
    }

    FleetShard &shard(unsigned i) { return *shards[i]; }
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards.size());
    }

    /** The triage queue accumulating harvested reproducers. */
    const triage::TriageQueue &triageQueue() const { return triage_; }

    /**
     * Merged fleet telemetry: every shard campaign's registry plus
     * the orchestrator's own, combined via MetricsSnapshot::merge.
     * Rebuilt from snapshots on every call (counters are cumulative,
     * so re-merging persistent registries would double-count).
     * Barrier/post-run use only — shard registries are single-
     * threaded and must not be snapshotted while an epoch runs.
     */
    telemetry::MetricsSnapshot mergedMetrics() const;

    /** The trace recorder, or nullptr when tracing is off. */
    telemetry::TraceRecorder *traceRecorder()
    {
        return trace_.get();
    }

    /**
     * Global first-hit ledger: shard ledgers merged (min-wins) at
     * every epoch barrier. Empty unless FleetConfig::provenance.
     */
    const coverage::FirstHitLedger &provenanceLedger() const
    {
        return globalLedger;
    }

  private:
    /** Barrier-time work after epoch @p epoch_idx; updates result.
     *  @p pool runs the delta publications and the merge reduction
     *  tree (docs/fleet.md "Epoch barrier anatomy"). */
    void epochBarrier(unsigned epoch_idx, FleetResult &result,
                      StatsSnapshot &prev_totals, WorkerPool &pool);

    /** Whether barriers exchange seeds: peers exist, the topology
     *  links them and the policy sends at least one seed. */
    bool exchangesSeeds() const;

    FleetConfig cfg;
    SyncPolicy sync;
    std::vector<std::unique_ptr<FleetShard>> shards;
    std::unique_ptr<coverage::CoverageMap> globalMap;

    /** Global views of the auxiliary feedback models, mirroring the
     *  shard configuration; merged at every epoch barrier. */
    std::unique_ptr<coverage::CsrTransitionModel> globalCsr;
    std::unique_ptr<coverage::HitCountModel> globalHit;

    /**
     * Global first-hit view (docs/provenance.md). Min-wins merge
     * makes re-merging the cumulative shard ledgers at every barrier
     * idempotent, so no per-epoch delta tracking is needed.
     */
    coverage::FirstHitLedger globalLedger;
    std::vector<bool> mismatchHarvested;
    triage::TriageQueue triage_;

    /**
     * Per-shard delta slots for the barrier's publish/reduce phases,
     * held as a member so the index/value vectors' capacity survives
     * across epochs (steady-state barriers allocate nothing for
     * deltas).
     */
    std::vector<coverage::CoverageDelta> epochDeltas;

    /**
     * Background writer for checkpoint shipping and JSONL stats
     * (docs/fleet.md "Epoch barrier anatomy"): bytes are snapshotted
     * on the orchestrator thread, written while the next epoch runs.
     * Drained before run() returns, so nothing observable changes.
     */
    AsyncBarrierIo asyncIo;

    /**
     * Cross-epoch accumulators, held as members (rather than run()
     * locals) so a checkpoint can capture them mid-campaign and a
     * restore can prime a fresh orchestrator with them.
     */
    FleetResult pending;
    StatsSnapshot prevTotals{};
    unsigned epochsDone = 0;

    /**
     * Telemetry. The recorder is shared by every shard (worker
     * threads; the recorder is thread-safe) and owned here so its
     * lifetime covers the shards'. fleetMetrics holds the
     * orchestrator's own instruments (fleet.* names); per-shard
     * registries live inside the campaigns. nextStatsEmitSec is the
     * JSONL cadence cursor (simulated seconds), checkpointed so a
     * resumed run does not re-emit covered intervals.
     */
    std::unique_ptr<telemetry::TraceRecorder> trace_;
    telemetry::MetricRegistry fleetMetrics;
    telemetry::Counter *mEpochs = nullptr;
    telemetry::Counter *mBarrierNs = nullptr;
    telemetry::Counter *mCheckpoints = nullptr;
    telemetry::Counter *mStatsEmits = nullptr;

    /** Barrier phase breakdown (docs/fleet.md): coverage merge
     *  total, reduction-tree share of it, seed exchange, and host
     *  nanoseconds of I/O overlapped with epoch execution. */
    telemetry::Counter *mMergeNs = nullptr;
    telemetry::Counter *mReduceNs = nullptr;
    telemetry::Counter *mExchangeNs = nullptr;
    telemetry::Counter *mIoOverlapNs = nullptr;
    telemetry::JsonlReporter reporter;
    double nextStatsEmitSec = 0.0;

    /** Emit a JSONL stats line when the cadence cursor is due. */
    void maybeEmitStats(double sim_time_sec, unsigned epoch_idx);

    /** The JSONL "provenance" object for the barrier at
     *  @p sim_time_sec; empty string when provenance is off. */
    std::string provenanceStatsJson(double sim_time_sec) const;

    /** Write the "turbofuzz.provenance.v1" report to
     *  FleetConfig::provenanceOut (end of run()). */
    void writeProvenanceReport(const FleetResult &result);
};

} // namespace turbofuzz::fleet

#endif // TURBOFUZZ_FLEET_ORCHESTRATOR_HH
