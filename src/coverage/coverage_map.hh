/**
 * @file
 * Runtime coverage accumulation.
 *
 * One bitmap per instrumented module; record() samples every module's
 * current coverage index (after the event driver has updated register
 * values) and reports how many previously unseen points were hit.
 * The weighted feedback value applies each module's Ncov shift, which
 * is the knob the paper adds to de-bias mux-heavy arithmetic units.
 */

#ifndef TURBOFUZZ_COVERAGE_COVERAGE_MAP_HH
#define TURBOFUZZ_COVERAGE_COVERAGE_MAP_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coverage/coverage_delta.hh"
#include "coverage/feedback_model.hh"
#include "coverage/instrumentation.hh"

namespace turbofuzz::rtl
{
class EventDriver;
} // namespace turbofuzz::rtl

namespace turbofuzz::soc
{
class SnapshotWriter;
class SnapshotReader;
} // namespace turbofuzz::soc

namespace turbofuzz::core
{
struct CommitInfo;
} // namespace turbofuzz::core

namespace turbofuzz::coverage
{

/**
 * Per-design coverage bitmap set — the paper's mux-coverage signal,
 * doubling as the default FeedbackModel implementation (sweep() is
 * recordTrace(); the adaptation is bit-identical to the historical
 * hardwired path).
 */
class CoverageMap : public FeedbackModel
{
  public:
    /** @param di Instrumentation to track (not owned; must outlive). */
    explicit CoverageMap(const DesignInstrumentation *di);

    // Holds pointers into its own bitmaps (bitmapWords).
    CoverageMap(const CoverageMap &) = delete;
    CoverageMap &operator=(const CoverageMap &) = delete;

    using FeedbackModel::record;

    /**
     * Sample every module's current index; mark the points.
     * @return number of coverage points newly hit by this sample.
     */
    uint64_t record();

    /**
     * Batched sweep of the engine's trace stage: drive @p drv with
     * each of the @p n commits and sample coverage after every one —
     * bit-identical totals to interleaving drv.onCommit()/record()
     * per commit, but with two batch-only fast paths: registers whose
     * role value did not change are not rewritten, and modules none
     * of whose control-register roles changed are not resampled
     * (their index — already marked at the previous commit — cannot
     * have moved). Consecutive sweeps of one driver by one map carry
     * their state over; a sweep that finds either side perturbed
     * since (sweep tokens, see EventDriver::lastSweptBy()) opens
     * with a full refresh.
     *
     * @return number of coverage points newly hit by the sweep.
     */
    uint64_t recordTrace(rtl::EventDriver &drv,
                         const core::CommitInfo *commits, size_t n);

    // --- FeedbackModel ------------------------------------------------
    std::string_view modelName() const override { return "mux"; }

    /** The engine's sweep stage entry: recordTrace(). */
    uint64_t
    sweep(rtl::EventDriver &drv, const core::CommitInfo *commits,
          size_t n) override
    {
        return recordTrace(drv, commits, n);
    }

    uint64_t newlyHit() const override { return coveredTotal; }

    bool compatibleWith(const FeedbackModel &other) const override;

    /**
     * Merge another model's covered points (bitmap OR). Rejected with
     * a typed error — and no mutation — unless @p other is a
     * CoverageMap over compatible instrumentation.
     */
    bool merge(const FeedbackModel &other,
               std::string *error = nullptr) override;

    /** Total covered points across all modules. */
    uint64_t totalCovered() const { return coveredTotal; }

    /** Covered points of one module (by instrumentation order). */
    uint64_t moduleCovered(size_t module_idx) const;

    /** Name of module @p module_idx. */
    const std::string &moduleName(size_t module_idx) const;

    /** Number of tracked modules. */
    size_t moduleCount() const { return bitmaps.size(); }

    /**
     * Weighted feedback: sum over modules of covered counts shifted
     * by their weightShift (negative shifts weaken the module).
     */
    uint64_t weightedFeedback() const;

    /** Clear all bitmaps. */
    void reset() override;

    /**
     * Whether @p other tracks a structurally identical
     * instrumentation: same module count and same points per module.
     * Maps over the SAME instrumentation object are always
     * compatible; maps over different objects are compatible when
     * those instrumentations were built with identical (design,
     * scheme, maxStateSize, seed) parameters — the fleet's
     * per-shard case — so that equal bit positions denote the same
     * covered state.
     */
    bool compatibleWith(const CoverageMap &other) const;

    /**
     * Merge another map's covered points into this one (bitmap OR).
     * Maps that are not compatibleWith() each other are rejected with
     * a typed error and this map is left untouched — a shape mismatch
     * must never silently corrupt a fleet merge. Idempotent:
     * re-merging the same map changes nothing.
     * @return false with @p error set (when non-null) on rejection.
     */
    bool merge(const CoverageMap &other, std::string *error = nullptr);

    /**
     * Append every bitmap word changed since the previous publish to
     * @p out_mux (one SparseWords per module, word indices strictly
     * ascending) and clear the dirty set. Publishing then merging via
     * mergeDelta() is bit-identical to merging this whole map into
     * the same destination: unchanged words merge as no-ops, and
     * dirty tracking over-approximates after loadState() — which is
     * safe because the payload is idempotent under OR.
     */
    void publishDelta(std::vector<SparseWords> &out_mux);

    /**
     * OR a published delta into this map. Fully validated before any
     * mutation — module count, parallel run lengths, strictly
     * ascending in-range word indices; malformed deltas are rejected
     * with a typed error and the map is left untouched.
     * @return false with @p error set (when non-null) on rejection.
     */
    bool mergeDelta(const std::vector<SparseWords> &mux,
                    std::string *error = nullptr);

    void bindProvenance(FirstHitLedger *ledger) override
    {
        prov = ledger;
    }

    /** Checkpoint support: serialize all bitmaps + covered counts. */
    void saveState(soc::SnapshotWriter &out) const override;

    /**
     * Restore a saveState() image into a map over structurally
     * identical instrumentation (same modules, same point counts).
     * @return false with @p error set on malformed or mismatched
     *         input.
     */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr) override;

  private:
    /** Mark module @p i's current index; returns 1 if newly hit. */
    uint64_t markModule(size_t i);

    /** Mark a precomputed index of module @p i (same marking,
     *  counting and provenance semantics as markModule). */
    uint64_t markModuleIndex(size_t i, uint64_t idx);

    /**
     * One control-register placement, flattened for the incremental
     * sweep. The register value is a pure function of its role's
     * value (the driver's mapToDomain), and the placed contribution
     * a pure function of the register value — so the sweep composes
     * the two and computes contributions straight from the driver's
     * role values, letting register materialization batch to one
     * write pass per sweep. Domain-mapped registers go one step
     * further: their whole composed function is a precomputed table
     * over the (small) domain.
     */
    struct IncEntry
    {
        /** Domain regs: placed contribution per domain slot
         *  (tables owned by placedDomPool); null otherwise. */
        const uint64_t *placedDom = nullptr;
        uint32_t domSize = 0;
        uint64_t salt = 0;     ///< non-zero: salted-mix mapping
        unsigned srcShift = 0; ///< else: (v >> srcShift) & widthMask
        uint64_t widthMask;
        uint64_t idxMask;
        uint32_t module;
        unsigned offset;
        uint8_t idxBits;
        uint8_t rot; ///< offset % idxBits (wrapping placements)
        bool wraps;
        uint8_t role;
    };

    /** Placement math of computeIndex() for one mapped value. */
    static uint64_t placeValue(const IncEntry &e, uint64_t v);

    /** Composed role-value -> placed contribution of one entry
     *  (mapToDomain() then placeValue(), bit-exact with both). */
    static uint64_t contribFor(const IncEntry &e, uint64_t roleValue);

    /**
     * Recompute every contribution and module index from the current
     * role values, then mark all modules — the commit-0 step of a
     * sweep that cannot carry the previous sweep's state over (see
     * recordTrace()). It reads role values only, so it is exact
     * whatever state the driver's registers are in, and it makes the
     * sweep self-validating against any driver or map perturbation
     * between sweeps (reset/loadState, another driver or map).
     */
    uint64_t refreshAllEntries(const std::array<uint64_t, 64> &roles);

    /** Memo line of @p role for role value @p value, filled on a
     *  miss: word 0 is the value tag, then one aggregate per slot. */
    const uint64_t *
    memoLine(unsigned role, uint64_t value)
    {
        uint64_t *line =
            &memoTbl[memoBase[role] +
                     (value & (memoLines - 1)) *
                         (1 + roleSlotBegin[role + 1] -
                          roleSlotBegin[role])];
        if (line[0] != value) [[unlikely]]
            fillMemoLine(role, value, line);
        return line;
    }

    void fillMemoLine(unsigned role, uint64_t value, uint64_t *line);

    const DesignInstrumentation *instr;
    std::vector<std::vector<uint64_t>> bitmaps; ///< 1 bit per point
    std::vector<uint64_t *> bitmapWords; ///< bitmaps[i].data()

    /**
     * Per module: one bit per bitmap word, set whenever that word
     * changed since the last publishDelta(). Never serialized —
     * saveState() images are identical with or without pending
     * deltas; loadState() conservatively marks every nonzero word.
     */
    std::vector<std::vector<uint64_t>> dirtyWords;

    std::vector<uint64_t> coveredPerModule;
    uint64_t coveredTotal = 0;
    FirstHitLedger *prov = nullptr; ///< null: provenance off

    /**
     * Per module: bitmask over rtl::RegRole of the roles its control
     * registers latch. recordTrace() skips a module whenever the
     * commit dirtied none of them.
     */
    std::vector<uint64_t> moduleRoleMasks;

    // Incremental-sweep state. Entries are grouped by (role, module)
    // into "slots": slot s covers incEntries[slotEntryBegin[s],
    // slotEntryBegin[s+1]) — all placements of one module fed by one
    // role — and slotAgg[s] caches the XOR of their current
    // contributions, so modIdx[m] (the module's maintained index) is
    // the XOR of its slots' aggregates.
    //
    // The role memo is a per-role direct-mapped table over role
    // VALUES: a line holds its value as a tag and the slot aggregates
    // for that value. Contributions are pure in (role value,
    // instrumentation), so lines never need invalidation; roles with
    // small recurring values (operand indices, FSM states, op
    // classes) hit almost always and reduce a dirty role to one XOR
    // per affected module, skipping the per-entry math entirely.
    std::vector<IncEntry> incEntries;
    uint64_t rolesWithEntries = 0;
    std::vector<uint64_t> modIdx;
    std::vector<std::vector<uint64_t>> placedDomPool;

    static constexpr uint32_t memoLines = 128;
    uint32_t roleSlotBegin[65] = {}; ///< role -> slot span
    std::vector<uint32_t> slotModule;
    std::vector<uint32_t> slotEntryBegin; ///< +1 sentinel at the end
    std::vector<uint64_t> slotAgg;
    std::vector<uint64_t> memoTbl; ///< per line: value tag + aggs
    uint32_t memoBase[64] = {}; ///< role -> memoTbl line 0 offset

    /**
     * Sweep token: the driver this map's last sweep ended on, or
     * null. Together with the driver's lastSweptBy() it says whether
     * slotAgg/modIdx still describe that driver's role values and
     * whether every module's current index is still marked. reset()
     * and loadState() clear it; merges only OR bits in and keep it.
     */
    const rtl::EventDriver *sweptDriver = nullptr;
};

} // namespace turbofuzz::coverage

#endif // TURBOFUZZ_COVERAGE_COVERAGE_MAP_HH
