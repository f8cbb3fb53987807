/**
 * @file
 * Batched execution engine: the pipelined hot path of one iteration.
 *
 * The paper's core throughput argument is that on the FPGA, test
 * execution, coverage collection and checking are decoupled pipeline
 * stages rather than one serialized per-instruction loop. This engine
 * gives the software model the same shape. One iteration is processed
 * as a sequence of bounded batches; within each batch the stages run
 * as tight sweeps over contiguous commit traces:
 *
 *   1. DUT stage    — the DUT hart runs up to `batch` commits into a
 *                     reusable CommitTrace, evaluating the iteration
 *                     stop policy (clean end / trap / trap storm /
 *                     step cap) after each commit;
 *   2. REF stage    — the golden reference blindly mirrors the same
 *                     number of commits into its own trace;
 *   3. check stage  — DiffChecker::compareTrace diffs the two traces
 *                     and reports the first divergent commit;
 *   4. sweep stage  — RTL event driving + coverage recording + the
 *                     per-commit counters run over the DUT trace, up
 *                     to and including the divergent commit only.
 *
 * Equivalence contract: for any batch size, the observable outcome
 * (coverage bitmap, counters, mismatch, hart and memory state at the
 * point the iteration ends) is bit-identical to the classic lockstep
 * loop — and batch=1 *is* that loop, one commit per batch. The one
 * mechanism this needs beyond stage ordering is rewind: when the
 * divergent commit is not the last of its batch, the harts have
 * already run past it ("phantom" commits the lockstep loop would
 * never have executed). The engine checkpoints both harts'
 * architectural state at batch entry and journals their memory
 * writes, so on a mid-batch mismatch it restores batch-entry state
 * and deterministically re-executes up to the divergence — leaving
 * cores and memory exactly as the lockstep loop would have.
 * Mismatches are rare, so the rewind path costs nothing in the
 * steady state. See docs/engine.md.
 */

#ifndef TURBOFUZZ_ENGINE_EXECUTION_ENGINE_HH
#define TURBOFUZZ_ENGINE_EXECUTION_ENGINE_HH

#include <functional>
#include <optional>

#include "checker/diff_checker.hh"
#include "core/commit_trace.hh"
#include "core/iss.hh"
#include "coverage/feedback_model.hh"
#include "rtl/driver.hh"
#include "telemetry/instruments.hh"
#include "telemetry/trace.hh"

namespace turbofuzz::engine
{

struct WarmStart;

/**
 * Stop/abort policy of one iteration — the harness semantics the
 * classic loop evaluated inline, expressed as data so campaign
 * execution and triage replay share one engine.
 */
struct IterationPolicy
{
    /** Clean end: DUT PC lands in [codeBoundary, handlerBase). */
    uint64_t codeBoundary = 0;
    uint64_t handlerBase = 0;

    /** Fuzz-region accounting (prevalence): [start, end). */
    uint64_t fuzzRegionStart = 0;
    uint64_t fuzzRegionEnd = 0;

    /** When false, the first DUT trap ends the iteration. */
    bool resumeTraps = false;

    /** Abort after this many commits (runaway-loop protection). */
    uint64_t stepCap = 0;

    /** Abort when the trap count exceeds this (exception storm). */
    uint32_t trapStormLimit = 0;

    /**
     * Dirty-store tracking ranges (the campaign's scrub contract):
     * high-water marks of DUT stores into [instrBase, instrBase +
     * instrSize) and [handlerBase, handlerBase + handlerSize) are
     * reported in the outcome. Zero sizes disable tracking (replay).
     */
    uint64_t instrBase = 0;
    uint64_t instrSize = 0;
    uint64_t handlerSize = 0;
};

/** What one engine iteration produced. */
struct IterationOutcome
{
    uint64_t executedTotal = 0;
    uint64_t executedFuzz = 0;
    uint64_t traps = 0;
    uint64_t newCoverage = 0;

    /** First DUT/REF divergence (either checking mode). */
    std::optional<checker::Mismatch> mismatch;

    /** 0-based within-iteration commit index of the divergence
     *  (== executedTotal for end-of-iteration mode). */
    uint64_t mismatchCommitIndex = 0;

    /** Highest store end-address seen inside each tracked range. */
    uint64_t instrDirtyHigh = 0;
    uint64_t handlerDirtyHigh = 0;
};

/** The staged batch pipeline over one DUT/REF pair. */
class ExecutionEngine
{
  public:
    /** Optional per-iteration consumers of the DUT commit stream. */
    struct Hooks
    {
        rtl::EventDriver *driver = nullptr;

        /**
         * Coverage feedback sink of the sweep stage: any
         * FeedbackModel (the mux CoverageMap, a CSR/edge model, or a
         * CompositeFeedback combining several). Requires `driver`.
         */
        coverage::FeedbackModel *coverage = nullptr;
        const std::function<void(const core::CommitInfo &)>
            *observer = nullptr;

        /**
         * Per-stage duration counters (engine.batch.*_ns). Null (the
         * default) skips the per-stage clock reads entirely; the
         * campaign binds these only when stage timing is requested.
         */
        const telemetry::EngineInstruments *instruments = nullptr;

        /**
         * Decode-cache / superblock effectiveness counters. No clock
         * reads involved (locals accumulated during the iteration,
         * flushed once at its end), so campaigns bind these
         * unconditionally. Null skips the flush.
         */
        const telemetry::FastPathInstruments *fastpath = nullptr;

        /** Stage span sink for this iteration; null = untraced. */
        telemetry::TraceRecorder *trace = nullptr;
    };

    /**
     * @param dut        DUT hart (not owned).
     * @param ref        Golden reference hart (not owned).
     * @param checker    Differential checker (not owned); its mode
     *                   selects per-commit vs end-of-iteration
     *                   checking.
     * @param batch_size Commits per pipeline batch (>= 1). 1
     *                   reproduces the classic lockstep loop.
     */
    ExecutionEngine(core::Iss *dut, core::Iss *ref,
                    checker::DiffChecker *checker,
                    uint64_t batch_size);

    /**
     * Run one full iteration to its stop condition or first
     * divergence. On return with a mismatch, harts and DUT/REF
     * memory are in the exact state the lockstep loop would have
     * left them in at the divergent commit.
     *
     * Cold start (@p warm == nullptr): both harts must already be
     * reset to the iteration entry PC; execution begins there.
     *
     * Warm start (@p warm != nullptr, must be eligible() for this
     * policy): instead of requiring reset harts, the engine restores
     * the captured post-prefix state into both harts, advances the
     * checker past the verified prefix commits, replays the captured
     * prefix trace through the sweep stage, and begins live
     * execution at the first data-dependent instruction. Outcome and
     * machine state are bit-identical to the cold run — the warm
     * path only skips re-executing and re-checking the constant
     * prefix (see warm_start.hh).
     */
    IterationOutcome runIteration(const IterationPolicy &policy,
                                  const Hooks &hooks,
                                  const WarmStart *warm = nullptr);

    uint64_t batchSize() const { return batch; }

  private:
    /** Restore @p core to batch-entry state, then re-execute
     *  @p commits steps (deterministic; lands past commit
     *  `commits-1`). */
    static void rewind(core::Iss *core,
                       const core::ArchState &saved,
                       const soc::MemWriteJournal &journal,
                       uint64_t commits);

    /** Stage 4: drive RTL events + record coverage + accumulate the
     *  per-commit counters over the first @p limit commits of
     *  @p trace. */
    static void sweepStage(const core::CommitTrace &trace,
                           uint64_t limit, const IterationPolicy &p,
                           const Hooks &h, IterationOutcome &out);

    core::Iss *dut_;
    core::Iss *ref_;
    checker::DiffChecker *checker_;
    uint64_t batch;

    // Reused across batches and iterations: zero steady-state
    // allocation.
    core::CommitTrace dutTrace;
    core::CommitTrace refTrace;
    soc::MemWriteJournal dutJournal;
    soc::MemWriteJournal refJournal;

    /** Batch-entry hart states, written only when the batch is
     *  rewindable (read only by rewind()). */
    core::ArchState dutSaved;
    core::ArchState refSaved;
};

} // namespace turbofuzz::engine

#endif // TURBOFUZZ_ENGINE_EXECUTION_ENGINE_HH
