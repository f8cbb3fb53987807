/**
 * @file
 * Corpus storage and scheduling (paper §IV-D).
 *
 * Two scheduling policies are implemented:
 *
 *  - Fifo — the conventional software-fuzzer behaviour: when the
 *    corpus is full, the oldest seed is evicted regardless of how
 *    productive it still is.
 *
 *  - CoverageGuided — TurboFuzz's optimization: every seed tracks the
 *    coverage increment it produced when last executed. New seeds are
 *    admitted only if they improved coverage; at capacity the seed
 *    with the LOWEST recorded increment is replaced; mutation-mode
 *    runs refresh the stored increment of the seed they mutated.
 *
 * Seed selection for mutation uses the dual-strategy probabilistic
 * mechanism: with probability 3/4 prioritize the highest-increment
 * seeds, otherwise select uniformly so archived patterns are not
 * starved (exploration/exploitation balance).
 *
 * For multi-shard fleets the corpus additionally supports exporting
 * its top seeds and importing seeds from a peer shard; imported seeds
 * are re-identified into the local id space so cross-shard ids never
 * collide (see src/fleet/).
 */

#ifndef TURBOFUZZ_FUZZER_CORPUS_HH
#define TURBOFUZZ_FUZZER_CORPUS_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "fuzzer/seed.hh"
#include "telemetry/instruments.hh"

namespace turbofuzz::fuzzer
{

/** Corpus scheduling policy. */
enum class SchedulingPolicy { Fifo, CoverageGuided };

/** The fuzzer's seed archive. */
class Corpus
{
  public:
    /**
     * @param capacity  Maximum resident seeds (BRAM budget).
     * @param policy    Eviction/selection policy.
     */
    Corpus(size_t capacity, SchedulingPolicy policy);

    /** Number of resident seeds. */
    size_t size() const { return seeds.size(); }
    size_t capacity() const { return cap; }
    SchedulingPolicy policy() const { return pol; }

    /**
     * Bind scheduler instruments (corpus.selects/admits/rejects/
     * evictions/imports.* counters + corpus.size gauge) into
     * @p registry. Called once at campaign construction; null
     * detaches. The corpus works identically unbound — telemetry
     * observes, it never steers.
     */
    void bindTelemetry(telemetry::MetricRegistry *registry);

    /** Add an initial (baseline) seed, bypassing admission control. */
    void addBaseline(Seed seed);

    /**
     * Offer a new seed after an iteration ran.
     * @param seed           The iteration's blocks.
     * @param cov_increment  Coverage improvement it achieved.
     * @return true when the seed was admitted.
     */
    bool offer(Seed seed, uint64_t cov_increment);

    /**
     * Select a seed for the next fuzzing iteration.
     * @param prioritize_prob  Probability of choosing the
     *        highest-increment seeds instead of a uniform pick
     *        (paper default 3/4; only meaningful for CoverageGuided).
     * @return the selected seed, or nullptr when the corpus is empty
     *         — a recoverable condition the caller turns into a
     *         diagnostic (a misconfigured campaign must not abort the
     *         whole process from inside the scheduler).
     */
    const Seed *trySelect(Rng &rng,
                          Prob prioritize_prob = {3, 4}) const;

    /** Resident seed by id, or nullptr (evicted/never archived). */
    const Seed *findSeed(uint64_t seed_id) const;

    /**
     * Mutation-mode feedback: refresh the recorded increment of the
     * seed that was just mutated and re-run.
     */
    void updateIncrement(uint64_t seed_id, uint64_t cov_increment);

    /**
     * Export copies of the top @p k seeds by recorded coverage
     * increment (ties broken by age, oldest first), e.g. for
     * cross-shard seed exchange. Returns fewer when the corpus holds
     * fewer than @p k seeds.
     */
    std::vector<Seed> exportTop(size_t k) const;

    /**
     * Import seeds from another corpus (a peer shard): wraps each
     * seed as a SeedShare with its content hash and runs
     * importShared(), so both entry points share one dedup and
     * admission path.
     *
     * @return number of seeds admitted.
     */
    size_t importSeeds(std::vector<Seed> imported,
                       uint64_t &next_seed_id);

    /**
     * Zero-copy variant of exportTop(): the same deterministic top-K
     * selection, but each exported seed is published as a shared
     * immutable block (SeedShare) carrying the resident's cached
     * content hash. A seed that stays in the top-K across epochs is
     * copied once, not once per barrier; a block is re-published when
     * the resident's exchange-relevant metadata (recorded increment,
     * genealogy) moved since. Non-const only for the caches — the
     * resident seeds are untouched.
     */
    std::vector<SeedShare> exportTopShared(size_t k);

    /**
     * Import published peer seeds. Imports are deduplicated by
     * content hash — against the resident seeds and within the batch
     * itself — because re-identification would otherwise let the same
     * top-K stimulus re-enter as "new" at every broadcast barrier,
     * flooding the corpus with duplicates and skewing select() toward
     * one pattern. Each surviving seed is copied out of its shared
     * block, re-identified from @p next_seed_id — the caller's id
     * allocator — so imported ids never collide with locally archived
     * ones, then offered through the normal admission path with its
     * recorded coverage increment as the priority signal. Resident
     * hashes come from the slot cache (hashResidents()); an admitted
     * import caches SeedShare::contentHash and is never re-hashed.
     *
     * @return number of seeds admitted.
     */
    size_t importShared(const std::vector<SeedShare> &shares,
                        uint64_t &next_seed_id);

    /**
     * Hash every resident whose slot changed since it was last
     * hashed (local admissions, baselines, a restored image). Pure
     * compute over this corpus only, so a fleet runs it in each
     * shard's parallel epoch task; the barrier's export and import
     * then find every hash cached. Export and import call it too, so
     * direct callers stay correct — it is a no-op when nothing
     * changed.
     */
    void hashResidents();

    /**
     * Cached content hash of the resident at slot @p idx (same
     * indexing as entries()), or std::nullopt when the slot changed
     * since the last hashResidents().
     */
    std::optional<uint64_t>
    cachedHash(size_t idx) const
    {
        return slotHash[idx];
    }

    /** Imports rejected as duplicates of resident content (stats). */
    uint64_t duplicateImports() const { return dupImportCount; }

    /**
     * Checkpoint support: serialize the complete corpus state
     * (resident seeds with their scheduling metadata plus the
     * insertion/eviction counters) so a resumed campaign schedules
     * exactly like an uninterrupted one.
     */
    void saveState(soc::SnapshotWriter &out) const;

    /**
     * Restore a saveState() image into this corpus (replaces all
     * resident seeds). Capacity and policy come from construction and
     * must match the checkpointed campaign's configuration.
     * @return false (with @p error set when non-null) on malformed
     *         input; the corpus is left unspecified but safe.
     */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

    /** Total evictions performed (stats). */
    uint64_t evictions() const { return evictCount; }

    /** Seeds rejected by admission control (stats). */
    uint64_t rejections() const { return rejectCount; }

    const std::vector<Seed> &entries() const { return seeds; }

  private:
    /**
     * offer() with the newcomer's content hash, when known (imports
     * carry it), so the slot cache never re-hashes an import.
     */
    bool admit(Seed seed, uint64_t cov_increment,
               std::optional<uint64_t> hash);

    /** Replace the resident seed at @p idx, keeping idIndex and the
     *  slot hash in sync. */
    void replaceAt(size_t idx, Seed seed, std::optional<uint64_t> hash);

    /** Slot indices of the top @p k residents in export order. */
    std::vector<size_t> rankTop(size_t k) const;

    size_t cap;
    SchedulingPolicy pol;
    std::vector<Seed> seeds;

    /**
     * Content hash per slot of `seeds`, std::nullopt until the slot's
     * current seed is hashed (0 is a valid hash). Every slot change
     * writes it: local admissions and baselines reset it, imports set
     * it from the share.
     */
    std::vector<std::optional<uint64_t>> slotHash;

    /**
     * Seed-id -> index into `seeds`. Ids are unique within a corpus
     * (the fuzzer allocates them monotonically; imports are
     * re-identified), so updateIncrement() is O(1) instead of a
     * linear scan per feedback event.
     */
    std::unordered_map<uint64_t, size_t> idIndex;

    /**
     * Content hash -> published immutable block (exportTopShared).
     * Purely an allocation cache: never checkpointed, never read by
     * scheduling, and holding only the latest export's blocks, so it
     * is bounded by the top-K size however long the fleet runs.
     */
    std::unordered_map<uint64_t, std::shared_ptr<const Seed>>
        publishCache;

    uint64_t nextInsertion = 0;
    uint64_t evictCount = 0;
    uint64_t rejectCount = 0;
    uint64_t dupImportCount = 0;

    /** Resolved instruments (all null until bindTelemetry). */
    telemetry::CorpusInstruments tel;
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_CORPUS_HH
