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
 */

#ifndef TURBOFUZZ_CORE_COMMIT_TRACE_HH
#define TURBOFUZZ_CORE_COMMIT_TRACE_HH

#include <cstddef>
#include <vector>

#include "core/commit_info.hh"

namespace turbofuzz::core
{

/** A bounded, reusable sequence of CommitInfo records. */
class CommitTrace
{
  public:
    /** Rewind the write cursor; capacity (and storage) is retained. */
    void clear() { used = 0; }

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

    std::vector<CommitInfo> buf;
    size_t used = 0;
};

} // namespace turbofuzz::core

#endif // TURBOFUZZ_CORE_COMMIT_TRACE_HH
