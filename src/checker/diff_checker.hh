/**
 * @file
 * Fine-grained differential self-checking (paper §III, ENCORE-style).
 *
 * The DUT (programmable-logic core) and REF (ARM-hosted golden model)
 * execute in instruction-level lockstep; dedicated monitors compare
 * key registers and signals after every commit and pause immediately
 * on the first mismatch, capturing a full hardware snapshot for
 * offline analysis. This is what gives Table II its detection
 * latencies: a bug is "found" the moment its first architecturally
 * visible deviation commits.
 */

#ifndef TURBOFUZZ_CHECKER_DIFF_CHECKER_HH
#define TURBOFUZZ_CHECKER_DIFF_CHECKER_HH

#include <optional>
#include <string>

#include "core/commit_info.hh"
#include "core/iss.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::checker
{

/** What diverged between DUT and REF. */
enum class MismatchKind
{
    NextPc,
    TrapBehaviour,
    RdValue,
    FrdValue,
    Fflags,
    CsrEffect,
    Minstret,
    MemEffect,
};

/** Human-readable name of a mismatch kind. */
std::string_view mismatchKindName(MismatchKind kind);

/** A detected divergence. */
struct Mismatch
{
    MismatchKind kind;
    uint64_t pc;
    uint32_t insn;
    uint64_t dutValue;
    uint64_t refValue;
    uint64_t instrIndex; ///< commits since campaign start

    /** One-line report (includes the disassembled instruction). */
    std::string describe() const;
};

/**
 * Instruction-level comparator. Stateless aside from the commit
 * counter; the harness feeds it one (dut, ref) commit pair at a time.
 */
class DiffChecker
{
  public:
    enum class Mode
    {
        /** Compare after every instruction (TurboFuzz). */
        PerInstruction,
        /**
         * Compare architectural state only at iteration end (the
         * coarse scheme of the software baselines; may miss
         * transient deviations — the paper's trade-off note).
         */
        EndOfIteration,
    };

    explicit DiffChecker(Mode mode) : checkMode(mode) {}

    Mode mode() const { return checkMode; }

    /**
     * Lockstep compare of one commit pair (PerInstruction mode).
     * @return the first divergence found, if any.
     */
    std::optional<Mismatch> compare(const core::CommitInfo &dut,
                                    const core::CommitInfo &ref);

    /**
     * Batch mode: diff two parallel commit traces of @p count
     * entries and report the first divergent commit. Bit-identical
     * to calling compare() pair-by-pair and stopping at the first
     * mismatch — the commit counter advances only over the pairs
     * actually examined, so the reported Mismatch::instrIndex and
     * commitsChecked() match the lockstep loop exactly.
     *
     * Traps need no special resynchronization here: when DUT and REF
     * trap identically on the same commit, both streams redirect to
     * the handler together and the pairwise alignment is preserved
     * across the trap window; when they disagree, that commit *is*
     * the divergence (TrapBehaviour) and diffing stops. The local
     * index of the divergence is `mismatch->instrIndex - c0` where
     * c0 is commitsChecked() before the call.
     */
    std::optional<Mismatch>
    compareTrace(const core::CommitInfo *dut,
                 const core::CommitInfo *ref, size_t count);

    /**
     * Final-state compare (EndOfIteration mode): integer/FP register
     * files, fflags and minstret of the two harts.
     */
    std::optional<Mismatch>
    compareFinalState(const core::ArchState &dut,
                      const core::ArchState &ref);

    /** Commits examined so far. */
    uint64_t commitsChecked() const { return commits; }

    /**
     * Advance the commit counter over commits verified elsewhere —
     * the warm-start prologue, whose constant prefix was proven
     * divergence-free once at capture time (engine::captureWarmStart)
     * and therefore needs no per-iteration re-compare. Keeping the
     * counter in step preserves Mismatch::instrIndex arithmetic
     * exactly as if the commits had been compared pairwise.
     */
    void skipCommits(uint64_t n) { commits += n; }

  private:
    Mode checkMode;
    uint64_t commits = 0;
};

/**
 * One CSR-visible event of the commit stream — the checker's CSR
 * trace tap. The per-commit records the checker already consumes
 * carry every architecturally visible CSR side effect; this helper
 * canonicalizes them into the (address, value) event stream the
 * ProcessorFuzz-style CSR-transition feedback model
 * (coverage::CsrTransitionModel) accumulates. Trap entries are
 * reported as synthetic addresses above the 12-bit CSR space
 * (0xF000 | cause) so exception edges count as privileged-state
 * transitions too.
 */
struct CsrEvent
{
    uint16_t addr;  ///< CSR address, or 0xF000 | cause for traps
    uint64_t value; ///< new CSR value, or the trap value for traps
};

/** Extract the CSR event of one commit, if it has one. */
std::optional<CsrEvent> csrTraceEvent(const core::CommitInfo &ci);

/**
 * Capture the complete platform state (both harts + DUT memory) into
 * a snapshot, tagging it with the mismatch description.
 */
soc::Snapshot captureMismatchSnapshot(const Mismatch &mm,
                                      const core::Iss &dut,
                                      const core::Iss &ref,
                                      double sim_time_sec);

/** Append @p mm in the checkpoint wire layout (one shared layout for
 *  campaign- and fleet-level checkpoints). */
void writeMismatch(soc::SnapshotWriter &out, const Mismatch &mm);

/** Parse a writeMismatch() record with kind-range validation.
 *  @return false with @p error set (when non-null) on bad input. */
bool readMismatch(soc::SnapshotReader &in, Mismatch &mm,
                  std::string *error = nullptr);

} // namespace turbofuzz::checker

#endif // TURBOFUZZ_CHECKER_DIFF_CHECKER_HH
