/**
 * @file
 * Reusable commit-trace buffer — the contract between the batched
 * execution engine's pipeline stages.
 *
 * On the FPGA the generate/execute/check stages of the fuzzing loop
 * are decoupled hardware units joined by FIFOs; the software engine
 * models the same structure with two CommitTrace buffers (DUT and
 * REF) that one stage fills and later stages sweep. The buffer is a
 * ring in the allocation sense: clear() rewinds the write cursor but
 * keeps the storage, so the steady state performs no allocation at
 * all regardless of how many batches a campaign runs.
 *
 * Besides the array-of-structs record buffer, the trace maintains a
 * struct-of-arrays view of the hot fields (sealLast()): the checker's
 * batch diff and the engine's fused sweep then run as tight columnar
 * loops instead of striding ~130-byte CommitInfo records. The
 * columns are valid only while every appended record has been sealed
 * (columnsValid()); consumers fall back to the AoS records otherwise,
 * so traces filled by paths that never seal stay correct.
 */

#ifndef TURBOFUZZ_CORE_COMMIT_TRACE_HH
#define TURBOFUZZ_CORE_COMMIT_TRACE_HH

#include <cstddef>
#include <vector>

#include "core/commit_info.hh"

namespace turbofuzz::core
{

/** Bit flags of the columnar `kind` byte (one per commit). */
enum CommitKind : uint8_t
{
    KindTrapped     = 1u << 0,
    KindRdWritten   = 1u << 1,
    KindFrdWritten  = 1u << 2,
    KindCsrWritten  = 1u << 3,
    KindMemAccess   = 1u << 4,
    KindMemWrite    = 1u << 5,
    KindBranchTaken = 1u << 6,
    KindDecodeValid = 1u << 7,
};

/** A bounded, reusable sequence of CommitInfo records. */
class CommitTrace
{
  public:
    /** Parallel columns over the hot CommitInfo fields. */
    struct Columns
    {
        std::vector<uint64_t> pc;
        std::vector<uint64_t> nextPc;
        std::vector<uint64_t> rdValue;
        std::vector<uint64_t> frdValue;
        std::vector<uint64_t> trapCause;
        std::vector<uint64_t> csrNewValue;
        std::vector<uint64_t> minstretAfter;
        std::vector<uint64_t> memAddr;
        std::vector<uint8_t> kind;   ///< CommitKind bit set
        std::vector<uint8_t> fflags; ///< fflagsAccrued
        std::vector<uint8_t> memSize;
    };

    /** Rewind the write cursor; capacity (and storage) is retained. */
    void
    clear()
    {
        used = 0;
        colsSealed = 0;
    }

    /**
     * Next writable slot (allocates only when the high-water mark
     * grows). The slot's previous contents are stale; writers must
     * fully overwrite it (Iss::stepInto does).
     */
    CommitInfo &
    append()
    {
        if (used == buf.size()) [[unlikely]]
            grow();
        return buf[used++];
    }

    /**
     * Mirror the most recently appended record into the columnar
     * view. Sealing every record in append order keeps the columns
     * valid; a missed seal simply freezes the sealed prefix and
     * columnar consumers fall back to the records.
     */
    void
    sealLast()
    {
        if (!sealing)
            return;
        const size_t i = used - 1;
        if (cols.pc.size() < buf.size())
            growColumns(buf.size());
        const CommitInfo &c = buf[i];
        cols.pc[i] = c.pc;
        cols.nextPc[i] = c.nextPc;
        cols.rdValue[i] = c.rdValue;
        cols.frdValue[i] = c.frdValue;
        cols.trapCause[i] = c.trapCause;
        cols.csrNewValue[i] = c.csrNewValue;
        cols.minstretAfter[i] = c.minstretAfter;
        cols.memAddr[i] = c.memAddr;
        cols.kind[i] = kindOf(c);
        cols.fflags[i] = c.fflagsAccrued;
        cols.memSize[i] = c.memSize;
        if (colsSealed == i)
            colsSealed = used;
    }

    /** Whether every appended record has a sealed column entry. */
    bool columnsValid() const { return colsSealed == used; }

    /**
     * Enable/disable column mirroring. A producer whose consumers
     * all take the AoS fallback (e.g. triage replay: no sweep hooks,
     * and the checker compares either representation) turns sealing
     * off to drop the per-commit column writes; columnsValid() then
     * reports false for non-empty traces, routing consumers to the
     * records. Takes effect from the next sealLast().
     */
    void setSealing(bool on) { sealing = on; }

    const Columns &columns() const { return cols; }

    /** The columnar kind byte of one record. */
    static uint8_t
    kindOf(const CommitInfo &c)
    {
        return static_cast<uint8_t>(
            (c.trapped ? KindTrapped : 0) |
            (c.rdWritten ? KindRdWritten : 0) |
            (c.frdWritten ? KindFrdWritten : 0) |
            (c.csrWritten ? KindCsrWritten : 0) |
            (c.memAccess ? KindMemAccess : 0) |
            (c.memWrite ? KindMemWrite : 0) |
            (c.branchTaken ? KindBranchTaken : 0) |
            (c.decodeValid ? KindDecodeValid : 0));
    }

    size_t size() const { return used; }
    bool empty() const { return used == 0; }

    const CommitInfo *data() const { return buf.data(); }

    const CommitInfo &
    operator[](size_t idx) const
    {
        return buf[idx];
    }

    /** Pre-size the storage (e.g. to the engine's batch size). */
    void
    reserve(size_t n)
    {
        buf.reserve(n);
    }

  private:
    /** Raise the high-water mark by one record. Kept out of line so
     *  the steppers' hot loops carry no record construction. */
    __attribute__((noinline)) void
    grow()
    {
        buf.emplace_back();
    }

    void
    growColumns(size_t n)
    {
        cols.pc.resize(n);
        cols.nextPc.resize(n);
        cols.rdValue.resize(n);
        cols.frdValue.resize(n);
        cols.trapCause.resize(n);
        cols.csrNewValue.resize(n);
        cols.minstretAfter.resize(n);
        cols.memAddr.resize(n);
        cols.kind.resize(n);
        cols.fflags.resize(n);
        cols.memSize.resize(n);
    }

    std::vector<CommitInfo> buf;
    size_t used = 0;

    Columns cols;
    size_t colsSealed = 0; ///< length of the sealed column prefix
    bool sealing = true;   ///< setSealing(): mirror on sealLast()?
};

} // namespace turbofuzz::core

#endif // TURBOFUZZ_CORE_COMMIT_TRACE_HH
