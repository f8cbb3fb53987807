/**
 * @file
 * Fleet-wide campaign configuration.
 *
 * A fleet runs N independent Campaign shards in parallel — the model
 * of the paper's multi-board deployment, where every FPGA carries its
 * own TurboFuzzer + DUT and the host periodically collects coverage
 * and redistributes productive seeds. One *epoch* is the simulated
 * interval between two host round-trips: within an epoch the shards
 * run fully independently; at the epoch barrier the orchestrator
 * merges coverage, exchanges seeds and harvests mismatches.
 *
 * Shard RNG seeds are derived deterministically from the fleet seed,
 * with shard 0 inheriting the fleet seed unchanged so a 1-shard fleet
 * reproduces a plain Campaign::run() bit-exactly.
 */

#ifndef TURBOFUZZ_COMMON_FLEET_CONFIG_HH
#define TURBOFUZZ_COMMON_FLEET_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "coverage/feedback_model.hh"
#include "fuzzer/mutation_scheduler.hh"

namespace turbofuzz
{

/** Cross-shard seed-exchange topology. */
enum class ExchangeTopology
{
    None,      ///< no seed exchange (coverage merge only)
    /** One peer per barrier, hop distance rotating with the epoch
     *  (1, 2, ... mod N-1) so every shard eventually hears from
     *  every other — see SyncPolicy::importSources(). */
    Ring,
    Broadcast, ///< every shard imports from every other shard
};

/** Configuration of a multi-shard fleet campaign. */
struct FleetConfig
{
    /** Master seed; all shard seeds derive from it. */
    uint64_t fleetSeed = 1;

    /** Number of parallel campaign shards (boards). */
    unsigned shardCount = 4;

    /** Simulated seconds between host synchronization barriers. */
    double epochSec = 5.0;

    /** Total simulated budget per shard. */
    double budgetSec = 60.0;

    /** Seeds each shard exports at every barrier. */
    size_t exchangeTopK = 4;

    /** Seed-exchange topology at epoch barriers. */
    ExchangeTopology topology = ExchangeTopology::Ring;

    /**
     * Simulated host<->board round-trip cost charged to every shard
     * at each barrier (coverage readback + corpus DMA). Never charged
     * to a 1-shard fleet, which needs no cross-board traffic — that
     * keeps single-shard fleets identical to a plain campaign.
     */
    double syncCostSec = 0.0;

    /** Worker threads; 0 = one per shard. */
    unsigned workerThreads = 0;

    /**
     * Feedback signal every shard schedules on (--coverage-model:
     * mux | csr | edges | composite). Applied fleet-wide — the global
     * merge needs every shard to accumulate the same point spaces.
     * The orchestrator overrides the campaign template's field with
     * this value, like it overrides the seeds.
     */
    coverage::CoverageModelKind coverageModel =
        coverage::CoverageModelKind::Mux;

    /** Mutation scheduling policy per shard (--scheduler:
     *  static | bandit); overrides the fuzzer template's field. */
    fuzzer::SchedulerKind scheduler = fuzzer::SchedulerKind::Static;

    /**
     * Bug triage: harvest every shard reproducer at epoch barriers,
     * deduplicate by signature and (when the replay budget is
     * nonzero) delta-debug each distinct bug's exemplar into a
     * minimal reproducer after the run.
     */
    bool triageEnabled = true;

    /** Replay budget per bucket for triage minimization; 0 buckets
     *  without minimizing. */
    uint32_t triageReplayBudget = 128;

    /** Reproducers each shard may retain (campaign-level cap). */
    uint32_t maxReproducersPerShard = 8;

    /**
     * Checkpoint/resume: write a full fleet checkpoint (every
     * shard's campaign state, the merged coverage, the triage queue
     * and the partial results) to checkpointPath after every N epoch
     * barriers. 0 disables checkpointing. A killed fleet is resumed
     * by constructing a fresh orchestrator with the SAME
     * configuration and calling restoreCheckpoint() before run();
     * the resumed run is bit-identical to an uninterrupted one
     * (docs/snapshot.md).
     */
    uint32_t checkpointEveryEpochs = 0;
    std::string checkpointPath;

    /**
     * Stop the fleet after this many epoch barriers even when budget
     * remains (0 = run to budget). Models a killed fleet for the
     * resume determinism tests and gives operators a bounded-run
     * knob; the returned FleetResult covers only the completed
     * epochs.
     */
    uint32_t haltAfterEpochs = 0;

    /**
     * Telemetry (docs/telemetry.md). All observational: enabling any
     * of these must not change coverage, mismatches or stimulus (the
     * determinism contract, enforced by tests/telemetry/).
     *
     * statsFile: append one "turbofuzz.metrics.v1" JSONL line of
     * merged fleet metrics per statsEverySec simulated seconds
     * (emitted at the epoch barriers that cross the cadence; empty =
     * off). traceOut: write a Chrome trace-event JSON file of stage
     * spans at the end of run() (empty = off); traceSampleEvery
     * records every Nth iteration's spans. stageTiming: per-stage
     * engine duration counters (engine.batch.*_ns); implied by
     * traceOut.
     */
    std::string statsFile;
    double statsEverySec = 0.0; ///< 0 = every epoch barrier
    std::string traceOut;
    uint64_t traceSampleEvery = 1;
    bool stageTiming = false;

    /**
     * Coverage provenance (docs/provenance.md). provenance binds a
     * first-hit ledger into every shard's feedback models and keeps
     * a per-shard forensics ring; ledgers merge (min-wins) into a
     * global view at epoch barriers. provenanceOut additionally
     * writes the machine-readable "turbofuzz.provenance.v1" report
     * (first hits, never-hit targets, operator attribution, lineage
     * histogram) at the end of run(); setting it implies provenance.
     * Observational like the telemetry above: fleet results are
     * bit-identical on vs off (tests/provenance/).
     */
    bool provenance = false;
    std::string provenanceOut;

    /** Per-shard RNG seed; shardSeed(0) == fleetSeed. */
    uint64_t shardSeed(unsigned shard_idx) const;

    /** Number of epoch barriers needed to consume budgetSec. */
    unsigned epochCount() const;

    /** End-of-epoch deadline (absolute simulated seconds). */
    double epochDeadline(unsigned epoch_idx) const;

    /**
     * Build from a parsed command line: fleet-seed, shards, epoch,
     * budget, top-k, topology (none|ring|broadcast), sync-cost,
     * threads, coverage-model (mux|csr|edges|composite), scheduler
     * (static|bandit), stats-file, stats-every, trace-out,
     * trace-sample, stage-timing, provenance, provenance-out.
     */
    static FleetConfig fromConfig(const Config &cfg);
};

} // namespace turbofuzz

#endif // TURBOFUZZ_COMMON_FLEET_CONFIG_HH
