#include "engine/execution_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/warm_start.hh"

namespace turbofuzz::engine
{

ExecutionEngine::ExecutionEngine(core::Iss *dut, core::Iss *ref,
                                 checker::DiffChecker *checker,
                                 uint64_t batch_size)
    : dut_(dut), ref_(ref), checker_(checker), batch(batch_size)
{
    TF_ASSERT(dut_ != nullptr && ref_ != nullptr,
              "engine requires both harts");
    TF_ASSERT(checker_ != nullptr, "engine requires a checker");
    TF_ASSERT(batch >= 1, "batch size must be >= 1");
    const size_t reserve =
        static_cast<size_t>(std::min<uint64_t>(batch, 8192));
    dutTrace.reserve(reserve);
    refTrace.reserve(reserve);
}

void
ExecutionEngine::rewind(core::Iss *core, const core::ArchState &saved,
                        const soc::MemWriteJournal &journal,
                        uint64_t commits)
{
    core->memory().undo(journal);
    core->state() = saved;
    // Deterministic re-execution: identical inputs, identical
    // commits; lands exactly on the post-divergence state the
    // lockstep loop would have stopped in.
    for (uint64_t i = 0; i < commits; ++i) {
        core::CommitInfo scratch;
        core->stepInto(scratch);
    }
}

// tflint: hot-path
void
ExecutionEngine::sweepStage(const core::CommitTrace &trace,
                            uint64_t limit, const IterationPolicy &p,
                            const Hooks &h, IterationOutcome &out)
{
    const core::CommitInfo *commits = trace.data();
    if (h.driver && h.coverage) {
        out.newCoverage +=
            h.coverage->sweep(*h.driver, commits, limit);
    } else if (h.driver) {
        h.driver->onTrace(commits, limit);
    }

    // Columnar fast path: the per-commit counters read only pc, the
    // kind byte and the store address/size — tight columns instead of
    // ~130-byte record strides. The observer needs full records, and
    // an unsealed trace has no valid columns; both fall back below.
    if (!h.observer && trace.columnsValid()) {
        const core::CommitTrace::Columns &col = trace.columns();
        out.executedTotal += limit;
        for (uint64_t c = 0; c < limit; ++c) {
            if (col.pc[c] >= p.fuzzRegionStart &&
                col.pc[c] < p.fuzzRegionEnd)
                ++out.executedFuzz;
            const uint8_t kind = col.kind[c];
            if (kind & core::KindTrapped)
                ++out.traps;
            if (kind & core::KindMemWrite) {
                const uint64_t addr = col.memAddr[c];
                const uint64_t end = addr + col.memSize[c];
                if (addr >= p.instrBase &&
                    addr < p.instrBase + p.instrSize) {
                    out.instrDirtyHigh =
                        std::max(out.instrDirtyHigh, end);
                } else if (addr >= p.handlerBase &&
                           addr < p.handlerBase + p.handlerSize) {
                    out.handlerDirtyHigh =
                        std::max(out.handlerDirtyHigh, end);
                }
            }
        }
        return;
    }

    for (uint64_t c = 0; c < limit; ++c) {
        const core::CommitInfo &ci = commits[c];
        ++out.executedTotal;
        if (ci.pc >= p.fuzzRegionStart && ci.pc < p.fuzzRegionEnd)
            ++out.executedFuzz;
        if (h.observer)
            (*h.observer)(ci);
        if (ci.trapped)
            ++out.traps;
        if (ci.memWrite) {
            const uint64_t end = ci.memAddr + ci.memSize;
            if (ci.memAddr >= p.instrBase &&
                ci.memAddr < p.instrBase + p.instrSize) {
                out.instrDirtyHigh = std::max(out.instrDirtyHigh, end);
            } else if (ci.memAddr >= p.handlerBase &&
                       ci.memAddr < p.handlerBase + p.handlerSize) {
                out.handlerDirtyHigh =
                    std::max(out.handlerDirtyHigh, end);
            }
        }
    }
}

IterationOutcome
ExecutionEngine::runIteration(const IterationPolicy &p,
                              const Hooks &h, const WarmStart *warm)
{
    IterationOutcome out;
    TF_ASSERT(!h.coverage || h.driver,
              "coverage recording requires an event driver");
    const bool per_instr =
        checker_->mode() == checker::DiffChecker::Mode::PerInstruction;
    const uint64_t checker_start = checker_->commitsChecked();

    // Column mirroring pays off in the sweep stage's fused columnar
    // loop. With no sweep consumers at all (triage replay), the
    // checker's AoS fallback is cheaper than sealing two traces, so
    // turn the per-commit column writes off for this iteration.
    const bool seal = h.driver || h.coverage || h.observer;
    dutTrace.setSealing(seal);
    refTrace.setSealing(seal);

    // DUT-side running totals the stop policy consumes. These count
    // *stepped* commits (including ones a mid-batch divergence later
    // discards); the reported counters are accumulated in the sweep
    // stage over surviving commits only — exactly the commits the
    // lockstep loop would have processed.
    uint64_t stepped = 0;
    uint64_t stepped_traps = 0;

    // Stage instrument pointers, resolved once per iteration. A null
    // Hooks::instruments (the default) keeps every stage free of
    // clock reads; a null Hooks::trace keeps it free of span events.
    const telemetry::EngineInstruments noop_instruments;
    const telemetry::EngineInstruments &ins =
        h.instruments ? *h.instruments : noop_instruments;

    // Fast-path effectiveness accounting: superblock runs are counted
    // in locals, decode-cache counters as deltas of the harts'
    // cumulative stats; both flush once when the iteration returns.
    uint64_t sb_entered = 0;
    uint64_t sb_side_exit = 0;
    const core::Iss::DecodeStats dut_dstats0 = dut_->decodeStats();
    const core::Iss::DecodeStats ref_dstats0 = ref_->decodeStats();
    const auto flush_fastpath = [&]() {
        if (!h.fastpath)
            return;
        const core::Iss::DecodeStats &d = dut_->decodeStats();
        const core::Iss::DecodeStats &r = ref_->decodeStats();
        h.fastpath->decodeHit->add((d.hit - dut_dstats0.hit) +
                                   (r.hit - ref_dstats0.hit));
        h.fastpath->decodeMiss->add((d.miss - dut_dstats0.miss) +
                                    (r.miss - ref_dstats0.miss));
        h.fastpath->decodeInvalidate->add(
            (d.invalidate - dut_dstats0.invalidate) +
            (r.invalidate - ref_dstats0.invalidate));
        h.fastpath->superblockEntered->add(sb_entered);
        h.fastpath->superblockSideExit->add(sb_side_exit);
    };

    if (warm) {
        // Warm prologue: restore the post-prefix lockstep state and
        // replay the captured prefix commits through the sweep stage
        // — driver sequential state, coverage, counters and observer
        // see the exact commit stream a cold execution produces —
        // then advance the checker past the capture-verified prefix.
        TF_ASSERT(warm->eligible(p),
                  "warm start ineligible for this policy");
        dut_->state() = warm->dutArch;
        ref_->state() = warm->refArch;
        // Only per-instruction checking examines (and counts) the
        // prefix commits in a cold run; end-of-iteration mode never
        // advances the commit counter, so neither may the skip.
        if (per_instr)
            checker_->skipCommits(warm->prefixCommits());
        telemetry::ScopedStage stage(h.trace, ins.sweepNs,
                                     "engine.fused_sweep");
        sweepStage(warm->prefixTrace, warm->prefixCommits(),
                   p, h, out);
        stepped = warm->prefixCommits();
        // The captured prefix is untrapped (capture invariant), so
        // stepped_traps stays 0 — as it would after a cold prefix.
    }

    // Rewind is reachable only when a divergence can be detected
    // mid-batch: per-commit checking with batches longer than one
    // commit. End-of-iteration mode never diverges inside the loop,
    // and at batch=1 the divergent commit is always the batch's last
    // — skip the checkpoint/journal cost entirely in those modes.
    const bool rewindable = per_instr && batch > 1;

    bool stop = false;
    while (!stop) {
        if (ins.batches)
            ins.batches->add(1);

        // --- stage 1: DUT batch -----------------------------------
        dutTrace.clear();
        bool stop_hit = false;
        uint64_t fill = 0;
        {
            telemetry::ScopedStage stage(h.trace, ins.dutNs,
                                         "engine.dut_batch");
            if (rewindable) {
                dutSaved = dut_->state();
                dutJournal.clear();
                dut_->memory().setJournal(&dutJournal);
            }
            // The per-commit stop policy, for the slow path.
            const auto stop_policy =
                [&](const core::CommitInfo &ci) {
                    ++stepped;
                    if (ci.trapped)
                        ++stepped_traps;
                    const uint64_t pc = dut_->state().pc;
                    if (pc >= p.codeBoundary && pc < p.handlerBase)
                        return stop_hit = true; // clean end
                    if (ci.trapped && !p.resumeTraps)
                        return stop_hit = true; // first trap ends it
                    if (stepped_traps > p.trapStormLimit)
                        return stop_hit = true; // exception storm
                    if (stepped >= p.stepCap)
                        return stop_hit = true; // runaway protection
                    return false;
                };
            // Superblock dispatch: bound the straight-line run so no
            // *intermediate* commit could have stopped a per-step
            // loop, then evaluate the policy once on the run's last
            // commit. Intermediate commits are untrapped (a trap ends
            // the run), keep the trap counters unchanged, stay below
            // the step cap (bound), and cannot enter the clean-end
            // window: from pc < codeBoundary straight execution
            // advances pc by 4 per commit and the bound stops short
            // of the window; from pc >= handlerBase it only moves
            // further above the window.
            while (fill < batch && !stop_hit) {
                uint64_t bound = batch - fill;
                bound = std::min(bound, p.stepCap > stepped
                                            ? p.stepCap - stepped
                                            : uint64_t{1});
                const uint64_t pc0 = dut_->state().pc;
                if (pc0 < p.codeBoundary) {
                    bound = std::min(
                        bound, (p.codeBoundary - pc0 + 3) >> 2);
                } else if (pc0 < p.handlerBase) {
                    bound = 0; // inside the stop window: slow path
                }
                const uint64_t n =
                    bound ? dut_->stepStraight(dutTrace, bound) : 0;
                if (n) {
                    ++sb_entered;
                    if (n < bound)
                        ++sb_side_exit;
                    stepped += n;
                    fill += n;
                    const core::CommitInfo &last = dutTrace[fill - 1];
                    if (last.trapped)
                        ++stepped_traps;
                    const uint64_t pc = dut_->state().pc;
                    if ((pc >= p.codeBoundary && pc < p.handlerBase) ||
                        (last.trapped && !p.resumeTraps) ||
                        stepped_traps > p.trapStormLimit ||
                        stepped >= p.stepCap) {
                        stop_hit = true;
                        break;
                    }
                    if (n == bound)
                        continue;
                }
                // Side exit (or cold/uncached pc): one slow step
                // refills the decode cache and re-primes the run.
                dut_->stepMany(dutTrace, 1, stop_policy);
                ++fill;
            }
            if (rewindable)
                dut_->memory().setJournal(nullptr);
        }
        stop = stop_hit;

        // --- stage 2: REF batch (blind mirror of the commit count) -
        refTrace.clear();
        {
            telemetry::ScopedStage stage(h.trace, ins.refNs,
                                         "engine.ref_mirror");
            if (rewindable) {
                refSaved = ref_->state();
                refJournal.clear();
                ref_->memory().setJournal(&refJournal);
            }
            // Blind mirror of the commit count: superblock runs with
            // no stop policy to hoist, single slow steps across side
            // exits (which also refill the REF's decode cache).
            uint64_t mirrored = 0;
            while (mirrored < fill) {
                const uint64_t n =
                    ref_->stepStraight(refTrace, fill - mirrored);
                if (n) {
                    ++sb_entered;
                    if (n < fill - mirrored)
                        ++sb_side_exit;
                    mirrored += n;
                    if (mirrored == fill)
                        break;
                }
                ref_->stepMany(
                    refTrace, 1,
                    [](const core::CommitInfo &) { return false; });
                ++mirrored;
            }
            if (rewindable)
                ref_->memory().setJournal(nullptr);
        }

        // --- stage 3: batch diff ----------------------------------
        uint64_t limit = fill;
        std::optional<checker::Mismatch> mm;
        if (per_instr) {
            telemetry::ScopedStage stage(h.trace, ins.diffNs,
                                         "engine.trace_diff");
            const uint64_t batch_checker_start =
                checker_->commitsChecked();
            mm = checker_->compareTrace(dutTrace, refTrace, fill);
            if (mm)
                limit = mm->instrIndex - batch_checker_start + 1;
        }

        // --- stage 4: sweep (driver + coverage + counters) --------
        {
            telemetry::ScopedStage stage(h.trace, ins.sweepNs,
                                         "engine.fused_sweep");
            sweepStage(dutTrace, limit, p, h, out);
        }

        if (mm) {
            // Rewind the phantom commits past the divergence so hart
            // and memory state match the lockstep loop bit-exactly.
            if (limit < fill) {
                if (ins.rewinds)
                    ins.rewinds->add(1);
                rewind(dut_, dutSaved, dutJournal, limit);
                rewind(ref_, refSaved, refJournal, limit);
            }
            out.mismatch = *mm;
            out.mismatchCommitIndex = mm->instrIndex - checker_start;
            flush_fastpath();
            return out;
        }
    }

    if (!per_instr) {
        telemetry::ScopedStage stage(h.trace, ins.diffNs,
                                     "engine.trace_diff");
        if (auto mm = checker_->compareFinalState(dut_->state(),
                                                  ref_->state())) {
            out.mismatch = *mm;
            // End-of-iteration checking has no commit position; the
            // executed count is the within-iteration index replay
            // reproduces.
            out.mismatchCommitIndex = out.executedTotal;
        }
    }
    flush_fastpath();
    return out;
}

} // namespace turbofuzz::engine
