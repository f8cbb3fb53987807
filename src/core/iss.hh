/**
 * @file
 * RV64 IMAFD + Zicsr instruction-set simulator.
 *
 * One implementation serves both roles of the paper's differential
 * pair: instantiated with an empty BugSet it is the golden reference
 * model (the REF running on the ARM PS); instantiated with a bug set
 * and a core personality it is the architectural shadow of the DUT.
 * The injected bugs deviate exactly where the corresponding real
 * RTL issues did (see core/bugs.hh).
 */

#ifndef TURBOFUZZ_CORE_ISS_HH
#define TURBOFUZZ_CORE_ISS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arch_state.hh"
#include "core/bugs.hh"
#include "core/commit_info.hh"
#include "core/commit_trace.hh"
#include "soc/memory.hh"

namespace turbofuzz::soc
{
class SnapshotWriter;
class SnapshotReader;
} // namespace turbofuzz::soc

namespace turbofuzz::core
{

/** An executable RV64 hart bound to a memory. */
class Iss
{
  public:
    struct Options
    {
        /** Injected bugs; empty for the golden reference. */
        BugSet bugs;

        /**
         * Whether 64-bit atomics are architecturally enabled. The
         * CVA6 configuration behind bug C8 ships with RV64A disabled;
         * a correct core must then trap .d atomics.
         */
        bool rv64aEnabled = true;

        /** Reset program counter. */
        uint64_t resetPc = 0x80000000ull;

        /**
         * Direct-mapped decode cache keyed by (pc, insn): repeated
         * fetches of unchanged words skip isa::decode. Epoch-guarded
         * against memory writes (soc::Memory fetch watches), so
         * self-modifying stimulus re-decodes and results stay
         * bit-identical either way.
         */
        bool decodeCache = true;
    };

    /** Decode-cache effectiveness counters (monotonic). */
    struct DecodeStats
    {
        uint64_t hit = 0;        ///< reused a cached decode
        uint64_t miss = 0;       ///< cold/conflicting slot, decoded
        uint64_t invalidate = 0; ///< cached word changed, re-decoded
    };

    explicit Iss(soc::Memory *mem);
    Iss(soc::Memory *mem, Options opts);

    /** Reset architectural state to the boot PC. */
    void reset();
    void reset(uint64_t pc);

    ArchState &state() { return st; }
    const ArchState &state() const { return st; }

    soc::Memory &memory() { return *memPtr; }
    const soc::Memory &memory() const { return *memPtr; }

    /**
     * Restrict data/fetch accesses to the given ranges. With no
     * ranges registered every address is accessible.
     */
    void clearAccessRanges();
    void addAccessRange(uint64_t base, uint64_t size);

    /** Execute the instruction at the current PC. */
    CommitInfo step();

    /**
     * Execute the instruction at the current PC, writing the commit
     * record into @p ci (which is fully overwritten). The batched
     * engine steps into trace slots directly to avoid the per-step
     * 130-byte return copy.
     */
    void stepInto(CommitInfo &ci);

    /**
     * Batched execution: run up to @p max_steps instructions,
     * appending one commit per step to @p trace. After every step the
     * stop functor is evaluated on the freshly appended commit (with
     * this hart's post-step state visible through state()); returning
     * true ends the batch after that commit — exactly where a
     * per-commit loop evaluating the same predicate would break.
     *
     * The functor is a template parameter so harness stop policies
     * inline into the step loop instead of paying an indirect call
     * per instruction.
     *
     * @return number of commits appended (>= 1 when max_steps >= 1).
     */
    template <typename StopFn>
    uint64_t
    stepMany(CommitTrace &trace, uint64_t max_steps, StopFn &&stop)
    {
        uint64_t n = 0;
        while (n < max_steps) {
            CommitInfo &slot = trace.append();
            stepInto(slot);
            ++n;
            if (stop(static_cast<const CommitInfo &>(slot)))
                break;
        }
        return n;
    }

    /**
     * Superblock execution: run up to @p max_steps instructions along
     * the straight-line fast path — every step must hit a current
     * decode-cache entry whose instruction has no control-flow or
     * system side exit (branch/jal/jalr/csr/system). Commits are
     * appended exactly as stepInto produces them;
     * a trap ends the run after its commit, any other side exit
     * (uncached pc, stale epoch, non-straight instruction, misaligned
     * pc) ends it before. The caller owns the stop policy: it must
     * bound @p max_steps so that no intermediate commit could have
     * stopped a per-step loop, and evaluate its policy on the last
     * appended commit.
     *
     * @return commits appended (0 when the first step side-exits or
     *         the decode cache is disabled).
     */
    uint64_t stepStraight(CommitTrace &trace, uint64_t max_steps);

    /** Decode-cache counters (both step paths contribute). */
    const DecodeStats &decodeStats() const { return dstats; }

    /** Whether the decode cache is active (option && environment). */
    bool decodeCacheEnabled() const { return dcacheOn; }

    const Options &options() const { return opts; }

    void saveState(soc::SnapshotWriter &out) const;
    void loadState(soc::SnapshotReader &in);

  private:
    struct Range
    {
        uint64_t base;
        uint64_t size;
    };

    /**
     * One direct-mapped decode-cache line. `epoch` snapshots the
     * fetch epoch of the memory slot covering `pc`; a stale epoch
     * forces revalidation (refetch + insn compare) before the cached
     * decode may be reused.
     *
     * Validity lives OUTSIDE the entry: line i is live iff
     * `dcacheGen[i] == dcacheGenCur`. That makes whole-cache clears
     * O(1) (bump the generation) instead of a ~256 KiB memset — the
     * triage replay path constructs harts and edits access ranges
     * per replay, and eager clears were costing it more than decode
     * ever did. Entry fields are intentionally uninitialized
     * (make_unique_for_overwrite): nothing reads them before
     * fillDecode wrote them under the current generation. Entries
     * are created on the slow path, which proved `pc` accessible;
     * access-range edits clear the cache, so a hit implies
     * accessibility.
     */
    struct DecodeEntry
    {
        uint64_t pc;
        uint64_t epoch;
        const isa::InstrDesc *desc;
        isa::Operands ops;
        uint32_t insn;
        uint32_t slot; ///< Memory::fetchSlotFor(pc)
        isa::Opcode op;
        bool decValid;
        bool straight; ///< no branch/jump/csr/system side exit
    };

    static constexpr size_t dcacheEntries = 4096; ///< power of two

    static size_t
    dcacheIdx(uint64_t pc)
    {
        return (pc >> 2) & (dcacheEntries - 1);
    }

    /**
     * Cache lookup with epoch revalidation; counts hit/invalidate.
     * @return the current entry for @p pc, or nullptr (miss — the
     *         caller fetches, decodes and fillDecode()s).
     */
    const DecodeEntry *lookupDecode(uint64_t pc);

    /** Install a freshly decoded word (epoch snapshotted now). */
    void fillDecode(uint64_t pc, uint32_t insn,
                    const isa::Decoded &dec);

    void clearDecodeCache();

    bool accessible(uint64_t addr, uint64_t size) const;
    bool hasBug(BugId id) const { return opts.bugs.has(id); }

    /** Raise a trap: record CSRs, redirect to mtvec. */
    void trap(CommitInfo &ci, uint64_t cause, uint64_t tval);

    /**
     * Resolve the rounding mode of an FP instruction.
     * @return true when valid; false means illegal instruction
     *         (unless bug B2 suppresses the trap).
     */
    bool resolveRm(uint8_t rm_field, uint8_t &resolved) const;

    /** CSR read; returns false for an inaccessible CSR. */
    bool csrRead(uint16_t addr, uint64_t &value) const;

    /** CSR write; returns false for an illegal write. */
    bool csrWrite(uint16_t addr, uint64_t value);

    void execute(CommitInfo &ci);
    void executeFp(CommitInfo &ci);
    void executeAmo(CommitInfo &ci);
    void executeCsr(CommitInfo &ci);

    soc::Memory *memPtr;
    Options opts;
    ArchState st;
    std::vector<Range> ranges;

    bool dcacheOn = true;
    DecodeStats dstats;
    std::unique_ptr<DecodeEntry[]> dcache; ///< null when disabled
    std::unique_ptr<uint32_t[]> dcacheGen; ///< per-line generation
    uint32_t dcacheGenCur = 1; ///< 0 is reserved for "never filled"
};

} // namespace turbofuzz::core

#endif // TURBOFUZZ_CORE_ISS_HH
