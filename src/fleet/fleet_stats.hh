/**
 * @file
 * Aggregated results of a fleet campaign.
 *
 * The orchestrator appends one sample per epoch barrier to the
 * fleet-wide series: merged coverage, iteration throughput over the
 * epoch, and prevalence. Per-shard coverage trajectories and the
 * harvested mismatch set ride along for the benches and tests.
 */

#ifndef TURBOFUZZ_FLEET_FLEET_STATS_HH
#define TURBOFUZZ_FLEET_FLEET_STATS_HH

#include <cstdint>
#include <vector>

#include "checker/diff_checker.hh"
#include "common/stats.hh"
#include "telemetry/metrics.hh"
#include "triage/triage_queue.hh"

namespace turbofuzz::fleet
{

/** Campaign counters of one shard, or summed over the fleet. */
struct StatsSnapshot
{
    uint64_t iterations = 0;
    uint64_t executedInstrs = 0;
    uint64_t generatedInstrs = 0;
    uint64_t mismatches = 0;

    StatsSnapshot
    operator-(const StatsSnapshot &rhs) const
    {
        return {iterations - rhs.iterations,
                executedInstrs - rhs.executedInstrs,
                generatedInstrs - rhs.generatedInstrs,
                mismatches - rhs.mismatches};
    }
};

/** A mismatch harvested from one shard at an epoch barrier. */
struct ShardMismatch
{
    unsigned shard;
    checker::Mismatch mismatch;
    double simTimeSec; ///< shard-local time of the snapshot capture
};

/** Everything a fleet run produces. */
struct FleetResult
{
    /** Merged coverage vs simulated time (one sample per epoch). */
    TimeSeries mergedCoverage{"fleet-coverage"};

    /** Fleet iterations per simulated second, per epoch. */
    TimeSeries throughput{"fleet-iters-per-sec"};

    /** Fleet-wide prevalence (executed-in-fuzz-region fraction). */
    TimeSeries prevalence{"fleet-prevalence"};

    /** Per-shard coverage trajectories (index = shard). */
    std::vector<TimeSeries> shardCoverage;

    /** First mismatch of every shard that hit one, in shard order. */
    std::vector<ShardMismatch> mismatches;

    /**
     * Per-bug table: harvested reproducers deduplicated by signature
     * and minimized (when FleetConfig::triageEnabled), in
     * first-detection order. This is the run's actual deliverable —
     * distinct bugs with minimal reproducers — rather than the raw
     * mismatch stream.
     */
    std::vector<triage::TriageRow> bugTable;

    /** Reproducers harvested across all shards and epochs. */
    uint64_t reproducersHarvested = 0;

    /** Campaign counters summed over all shards. */
    StatsSnapshot totals;

    /** Final merged (union) coverage of the whole fleet. */
    uint64_t mergedFinalCoverage = 0;

    /** Seeds offered / admitted across all exchanges. */
    uint64_t seedsExchanged = 0;
    uint64_t seedsAdmitted = 0;

    unsigned shardCount = 0;
    unsigned epochs = 0;
    double simBudgetSec = 0.0; ///< per-shard simulated budget
    double hostSeconds = 0.0;  ///< wall-clock cost of run()

    /**
     * Wall-clock throughput of the whole fleet (committed
     * instructions and iterations per host second). Everything else
     * in this struct reports simulated time; these two are what make
     * real engine speedups visible run-over-run.
     */
    double hostCommitsPerSec = 0.0;
    double hostItersPerSec = 0.0;

    /**
     * End-of-run merged telemetry: every shard registry plus the
     * orchestrator's own, combined with MetricsSnapshot::merge
     * (counters add, gauges add, histograms union). Always populated
     * — the metrics hot path is on whether or not a reporter
     * consumes it.
     */
    telemetry::MetricsSnapshot metrics;

    /**
     * Provenance summary (docs/provenance.md), populated only when
     * FleetConfig::provenance: global first-hit count, the simulated
     * time the fleet last discovered new coverage, and each shard's
     * plateau age (end of run minus the shard's own last first-hit;
     * the full budget when a shard never recorded one). All derived
     * from the first-hit ledgers — observational by construction.
     */
    bool provenanceOn = false;
    uint64_t firstHitsRecorded = 0;
    double lastNewCoverageSimSec = 0.0;
    std::vector<double> shardPlateauAgeSec;
};

/** Print a human-readable summary table of a fleet run. */
void printFleetSummary(const FleetResult &result);

/**
 * Print the end-of-run metrics section (fleet summaries stay
 * byte-identical without telemetry flags; callers print this only
 * when telemetry output was requested). Histograms are shown as
 * count/mean/max.
 */
void printFleetMetrics(const telemetry::MetricsSnapshot &metrics);

/**
 * Print the ledger-derived provenance section (time-to-last-new-
 * coverage plus per-shard plateau-age rows). Opt-in like
 * printFleetMetrics: the default summary stays byte-identical when
 * provenance was not requested. No-op unless result.provenanceOn.
 */
void printFleetProvenance(const FleetResult &result);

} // namespace turbofuzz::fleet

#endif // TURBOFUZZ_FLEET_FLEET_STATS_HH
