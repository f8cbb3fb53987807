/**
 * @file
 * Microarchitectural event driver.
 *
 * Bridges the architectural world (per-instruction CommitInfo from the
 * DUT core) to the structural world (register values in the rtl::
 * Module tree). Each commit updates every modelled register according
 * to its RegRole; sequential roles (loop detector, stride detector,
 * cache/PTW FSMs, occupancy counters) evolve across commits, so only
 * *sequences* with the right structure reach their deeper states —
 * the property deepExplore's benchmark-derived seeds exploit.
 */

#ifndef TURBOFUZZ_RTL_DRIVER_HH
#define TURBOFUZZ_RTL_DRIVER_HH

#include <array>
#include <cstdint>
#include <string>

#include "core/commit_info.hh"
#include "rtl/module.hh"

namespace turbofuzz::soc
{
class SnapshotWriter;
class SnapshotReader;
} // namespace turbofuzz::soc

namespace turbofuzz::rtl
{

/** Drives a module tree from commit events. */
class EventDriver
{
  public:
    explicit EventDriver(Module *top_module);

    /** Reset all sequential tracking state and register values. */
    void reset();

    /** Apply one committed instruction to the module tree. */
    void onCommit(const core::CommitInfo &ci);

    /**
     * Batched variant of onCommit: incremental drive of one commit,
     * refreshing only the registers whose role value changed.
     * Register values are a pure function of the current role values,
     * so skipping unchanged roles is exact — PROVIDED every register
     * already reflects the current roles. That invariant holds right
     * after an onCommit() (which rewrites every register) and is then
     * maintained by consecutive onCommitDirty() calls; batch sweeps
     * therefore drive their first commit with onCommit() and the rest
     * with this.
     *
     * @return bitmask over RegRole of the roles this commit changed.
     */
    uint64_t onCommitDirty(const core::CommitInfo &ci);

    /**
     * Apply a whole commit trace (equivalent to n onCommit() calls,
     * with the incremental fast path for commits after the first).
     */
    void onTrace(const core::CommitInfo *commits, size_t n);

    /**
     * Roles-only commit step: update the per-role values and the
     * cross-commit tracking state WITHOUT writing any register.
     * Every register value is a pure function of its role's current
     * value, so a consumer that derives what it needs from
     * roleValues() directly (the coverage sweep) can run a whole
     * batch on this and defer register materialization to one
     * materializeRegisters() call at the end — the final register
     * state is identical to per-commit onCommitDirty() writes, since
     * only the LAST value of each role is ever observable there.
     * Until that call, register values lag the roles; pair every
     * advanceRoles() batch with a materializeRegisters().
     *
     * @return bitmask over RegRole of the roles this commit changed.
     */
    uint64_t advanceRoles(const core::CommitInfo &ci)
    {
        const uint64_t dirty = updateRoles(ci);
        pendingDirty |= dirty;
        return dirty;
    }

    /**
     * advanceRoles() that also re-establishes the register/role
     * invariant by the next materializeRegisters(), whatever state
     * the registers were left in (reset, loadState): while the
     * registers are out of sync it schedules EVERY driven register
     * — the batched equivalent of a full onCommit() — and otherwise
     * just the dirty roles. Batch sweeps open with this, so a driver
     * that only ever sweeps pays one full register write after each
     * reset or restore instead of one per sweep.
     */
    uint64_t advanceRolesFull(const core::CommitInfo &ci)
    {
        const uint64_t dirty = updateRoles(ci);
        pendingDirty = regsSynced ? (pendingDirty | dirty)
                                  : rolesWithRegs;
        regsSynced = true;
        return dirty;
    }

    /**
     * Sweep token: the opaque identity of the consumer whose sweep
     * last ended on this driver, or null. Every role mutation —
     * updateRoles() (so every commit step of any kind), reset() and
     * loadState() — clears it, so a consumer that finds its own
     * identity here knows the role values are exactly those its last
     * sweep ended on (the coverage map then skips its full refresh).
     */
    const void *lastSweptBy() const { return sweptBy; }

    /** Record @p consumer as the sweep that ended on the current
     *  role values (see lastSweptBy()). */
    void markSweptBy(const void *consumer) { sweptBy = consumer; }

    /** Write the registers of every role dirtied by advanceRoles()
     *  since the last materialization (or full register write). */
    void materializeRegisters();

    /** Current value of every role (indexed by RegRole). */
    const std::array<uint64_t, 64> &roleValues() const
    {
        return roles;
    }

    /** Number of registers being driven (all modules). */
    size_t drivenRegisters() const { return regCache.size(); }

    /**
     * Checkpoint support: serialize the complete sequential state —
     * every driven register value, the per-role current values and
     * the cross-commit tracking state (branch history, loop/stride
     * detectors, cache/PTW FSMs, occupancy counters) — so a resumed
     * campaign's microarchitectural trajectory continues exactly
     * where the checkpointed one stopped.
     */
    void saveState(soc::SnapshotWriter &out) const;

    /**
     * Restore a saveState() image into a driver over a structurally
     * identical module tree (same design, same register count).
     * @return false with @p error set on malformed input.
     */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

  private:
    /**
     * Compute the value for each role from the commit + history.
     * @return bitmask over RegRole of roles whose value changed.
     */
    uint64_t updateRoles(const core::CommitInfo &ci);

    static uint64_t mapToDomain(uint64_t value, const Register &reg);

    /** Write every register of @p role from role value @p value —
     *  the planned equivalent of mapToDomain over regsByRole[role]. */
    void writeRole(unsigned role, uint64_t value);

    /** Build the per-role write plans (constructor helper). */
    void buildRolePlans();

    Module *top;
    std::vector<Register *> regCache;

    /** Registers grouped by role (incremental-drive fast path). */
    std::array<std::vector<Register *>, 64> regsByRole;

    /**
     * Per-role write plan: registers split by mapToDomain() kind so
     * the hot rewrite loop is three tight passes with the expensive
     * per-register work hoisted — one modulo per distinct domain size
     * (shared by every register of that size) instead of one per
     * register, and width masks precomputed.
     */
    struct DomainRun
    {
        uint32_t size;  ///< domain.size() shared by the run
        uint32_t begin; ///< run bounds into RolePlan::domainRegs
        uint32_t end;
    };
    struct MixReg
    {
        Register *reg;
        uint64_t salt;
        uint64_t widthMask;
    };
    struct ShiftReg
    {
        Register *reg;
        unsigned shift;
        uint64_t widthMask;
    };
    struct RolePlan
    {
        std::vector<DomainRun> runs;
        std::vector<Register *> domainRegs; ///< grouped by size
        std::vector<MixReg> mixRegs;
        std::vector<ShiftReg> shiftRegs;
    };
    std::array<RolePlan, 64> rolePlans;

    /** Roles that drive at least one register. */
    uint64_t rolesWithRegs = 0;

    /** Roles advanced but not yet written to their registers. */
    uint64_t pendingDirty = 0;

    /**
     * Every register equals its role mapping outside pendingDirty.
     * reset() and loadState() clear it; a full write (onCommit(),
     * or advanceRolesFull() scheduling every register) sets it.
     */
    bool regsSynced = false;

    /** Sweep token (lastSweptBy()); null on a fresh driver. */
    const void *sweptBy = nullptr;

    /** Current value per role. */
    std::array<uint64_t, 64> roles{};

    // --- sequential tracking state ---------------------------------
    uint64_t branchHist = 0;
    int cfDepth = 0;
    uint64_t lastLoopTarget = 0;
    unsigned loopState = 0;
    uint64_t lastMemAddr = 0;
    int64_t lastStride = 0;
    unsigned strideState = 0;
    std::array<uint64_t, 4> recentPages{};
    unsigned pageCursor = 0;
    unsigned dcacheState = 0;
    unsigned icacheState = 0;
    uint64_t lastPcPage = 0;
    unsigned ptwState = 0;
    unsigned tlbState = 0;
    unsigned robOcc = 0;
    unsigned iqOcc = 0;
    bool resArmed = false;
};

/** FP operation kind encoding used by RegRole::FpKind. */
unsigned fpKindOf(isa::Opcode op);

/** Instruction class encoding used by RegRole::OpClass. */
unsigned opClassOf(const isa::InstrDesc &desc);

} // namespace turbofuzz::rtl

#endif // TURBOFUZZ_RTL_DRIVER_HH
