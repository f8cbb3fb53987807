#include "fuzzer/corpus.hh"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{

Corpus::Corpus(size_t capacity, SchedulingPolicy policy)
    : cap(capacity), pol(policy)
{
    TF_ASSERT(cap >= 1, "corpus capacity must be >= 1");
    seeds.reserve(cap);
    slotHash.reserve(cap);
}

void
Corpus::bindTelemetry(telemetry::MetricRegistry *registry)
{
    tel = registry ? telemetry::CorpusInstruments::resolve(*registry)
                   : telemetry::CorpusInstruments{};
    if (tel.size)
        tel.size->set(static_cast<int64_t>(seeds.size()));
}

void
Corpus::replaceAt(size_t idx, Seed seed, std::optional<uint64_t> hash)
{
    idIndex.erase(seeds[idx].id);
    idIndex[seed.id] = idx;
    seeds[idx] = std::move(seed);
    slotHash[idx] = hash;
    ++evictCount;
    if (tel.evictions)
        tel.evictions->add(1);
}

void
Corpus::addBaseline(Seed seed)
{
    seed.insertedAt = nextInsertion++;
    if (seeds.size() < cap) {
        idIndex[seed.id] = seeds.size();
        seeds.push_back(std::move(seed));
        slotHash.emplace_back();
        if (tel.size)
            tel.size->set(static_cast<int64_t>(seeds.size()));
        return;
    }
    // Baselines during (re)initialization replace the oldest entry.
    auto oldest = std::min_element(
        seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
            return a.insertedAt < b.insertedAt;
        });
    replaceAt(static_cast<size_t>(oldest - seeds.begin()),
              std::move(seed), std::nullopt);
}

bool
Corpus::offer(Seed seed, uint64_t cov_increment)
{
    return admit(std::move(seed), cov_increment, std::nullopt);
}

bool
Corpus::admit(Seed seed, uint64_t cov_increment,
              std::optional<uint64_t> hash)
{
    seed.coverageIncrement = cov_increment;
    seed.insertedAt = nextInsertion++;

    if (pol == SchedulingPolicy::CoverageGuided && cov_increment == 0) {
        // Generation-mode admission: only coverage-improving test
        // cases enter the corpus.
        ++rejectCount;
        if (tel.rejects)
            tel.rejects->add(1);
        return false;
    }

    if (seeds.size() < cap) {
        idIndex[seed.id] = seeds.size();
        seeds.push_back(std::move(seed));
        slotHash.push_back(hash);
        if (tel.admits) {
            tel.admits->add(1);
            tel.size->set(static_cast<int64_t>(seeds.size()));
        }
        return true;
    }

    if (pol == SchedulingPolicy::Fifo) {
        auto oldest = std::min_element(
            seeds.begin(), seeds.end(),
            [](const Seed &a, const Seed &b) {
                return a.insertedAt < b.insertedAt;
            });
        replaceAt(static_cast<size_t>(oldest - seeds.begin()),
                  std::move(seed), hash);
        if (tel.admits)
            tel.admits->add(1);
        return true;
    }

    // CoverageGuided: replace the seed with the lowest recorded
    // coverage improvement, but only when the newcomer beats it.
    auto weakest = std::min_element(
        seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
            return a.coverageIncrement < b.coverageIncrement;
        });
    if (weakest->coverageIncrement >= cov_increment) {
        ++rejectCount;
        if (tel.rejects)
            tel.rejects->add(1);
        return false;
    }
    replaceAt(static_cast<size_t>(weakest - seeds.begin()),
              std::move(seed), hash);
    if (tel.admits)
        tel.admits->add(1);
    return true;
}

const Seed *
Corpus::trySelect(Rng &rng, Prob prioritize_prob) const
{
    if (seeds.empty())
        return nullptr;
    if (tel.selects)
        tel.selects->add(1);
    if (pol == SchedulingPolicy::CoverageGuided &&
        rng.chance(prioritize_prob.num, prioritize_prob.den)) {
        // Prioritized selection samples the top quartile by recorded
        // coverage increment, keeping several promising seeds in
        // rotation instead of starving all but the single best.
        // nth_element keeps this O(n) instead of a full sort; only
        // the quartile membership matters because the pick inside it
        // is uniform.
        std::vector<const Seed *> ranked;
        ranked.reserve(seeds.size());
        for (const Seed &s : seeds)
            ranked.push_back(&s);
        const size_t top = std::max<size_t>(1, ranked.size() / 4);
        if (top < ranked.size()) {
            std::nth_element(
                ranked.begin(),
                ranked.begin() + static_cast<std::ptrdiff_t>(top) - 1,
                ranked.end(), [](const Seed *a, const Seed *b) {
                    return a->coverageIncrement > b->coverageIncrement;
                });
        }
        return ranked[rng.range(top)];
    }
    return &seeds[rng.range(seeds.size())];
}

const Seed *
Corpus::findSeed(uint64_t seed_id) const
{
    const auto it = idIndex.find(seed_id);
    return it == idIndex.end() ? nullptr : &seeds[it->second];
}

void
Corpus::updateIncrement(uint64_t seed_id, uint64_t cov_increment)
{
    const auto it = idIndex.find(seed_id);
    // The seed may have been evicted meanwhile; that is not an error.
    if (it == idIndex.end())
        return;
    seeds[it->second].coverageIncrement = cov_increment;
}

std::vector<size_t>
Corpus::rankTop(size_t k) const
{
    std::vector<size_t> ranked(seeds.size());
    for (size_t i = 0; i < ranked.size(); ++i)
        ranked[i] = i;
    const size_t n = std::min(k, ranked.size());
    // Deterministic total order so every shard exports the same set
    // for the same corpus state regardless of container layout.
    const auto better = [this](size_t a, size_t b) {
        const Seed &x = seeds[a];
        const Seed &y = seeds[b];
        if (x.coverageIncrement != y.coverageIncrement)
            return x.coverageIncrement > y.coverageIncrement;
        return x.insertedAt < y.insertedAt;
    };
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(n),
                      ranked.end(), better);
    ranked.resize(n);
    return ranked;
}

std::vector<Seed>
Corpus::exportTop(size_t k) const
{
    const std::vector<size_t> top = rankTop(k);
    std::vector<Seed> out;
    out.reserve(top.size());
    for (size_t idx : top)
        out.push_back(seeds[idx]);
    return out;
}

void
Corpus::hashResidents()
{
    for (size_t i = 0; i < seeds.size(); ++i) {
        if (!slotHash[i])
            slotHash[i] = seeds[i].contentHash();
    }
}

std::vector<SeedShare>
Corpus::exportTopShared(size_t k)
{
    hashResidents();
    // Exchange-relevant metadata: everything an importer's admission
    // or genealogy keeps. id/insertedAt/parentId are re-assigned on
    // import and deliberately absent.
    const auto sameExported = [](const Seed &a, const Seed &b) {
        return a.coverageIncrement == b.coverageIncrement &&
               a.originOp == b.originOp &&
               a.lineageDepth == b.lineageDepth &&
               a.energyAtCreation == b.energyAtCreation;
    };
    const std::vector<size_t> top = rankTop(k);
    std::vector<SeedShare> out;
    out.reserve(top.size());
    for (size_t idx : top) {
        const Seed &s = seeds[idx];
        const uint64_t hash = *slotHash[idx];
        auto [it, inserted] = publishCache.try_emplace(hash);
        if (inserted || !sameExported(*it->second, s))
            it->second = std::make_shared<const Seed>(s);
        out.push_back({it->second, hash});
    }
    // Keep only this export's blocks: a seed that stays in the top-K
    // is still published once, and one that left it is released
    // instead of accumulating for the life of the fleet.
    std::erase_if(publishCache, [&out](const auto &entry) {
        return std::none_of(out.begin(), out.end(),
                            [&entry](const SeedShare &share) {
                                return share.contentHash == entry.first;
                            });
    });
    return out;
}

size_t
Corpus::importShared(const std::vector<SeedShare> &shares,
                     uint64_t &next_seed_id)
{
    // Resident hashes come from the slot cache. A broadcast fleet
    // offers the same top-K exemplars at every barrier, and
    // re-identified copies must not be re-admitted as fresh stimuli.
    // The set is rebuilt per import because residents change between
    // barriers; corpora are small (BRAM-capacity bound) and the
    // hashes are cached, so this is cheap.
    hashResidents();
    std::unordered_set<uint64_t> resident;
    resident.reserve(seeds.size() + shares.size());
    for (const std::optional<uint64_t> &hash : slotHash)
        resident.insert(*hash);

    size_t admitted = 0;
    for (const SeedShare &share : shares) {
        if (!resident.insert(share.contentHash).second) {
            ++dupImportCount;
            if (tel.importsDuplicate)
                tel.importsDuplicate->add(1);
            continue;
        }
        Seed s = *share.seed;
        s.id = next_seed_id++;
        // The parent id belongs to the exporting shard's id space;
        // keeping it would alias an unrelated local seed. Imports
        // become lineage roots that retain their depth and operator
        // (docs/provenance.md).
        s.parentId = 0;
        const uint64_t increment = s.coverageIncrement;
        if (admit(std::move(s), increment, share.contentHash))
            ++admitted;
    }
    if (tel.importsAdmitted)
        tel.importsAdmitted->add(admitted);
    return admitted;
}

size_t
Corpus::importSeeds(std::vector<Seed> imported, uint64_t &next_seed_id)
{
    std::vector<SeedShare> shares;
    shares.reserve(imported.size());
    for (Seed &s : imported) {
        const uint64_t hash = s.contentHash();
        shares.push_back(
            {std::make_shared<const Seed>(std::move(s)), hash});
    }
    return importShared(shares, next_seed_id);
}

void
Corpus::saveState(soc::SnapshotWriter &out) const
{
    out.putU64(nextInsertion);
    out.putU64(evictCount);
    out.putU64(rejectCount);
    out.putU64(dupImportCount);
    out.putU32(static_cast<uint32_t>(seeds.size()));
    for (const Seed &s : seeds) {
        out.putU64(s.id);
        out.putU64(s.coverageIncrement);
        out.putU64(s.insertedAt);
        out.putU64(s.parentId);
        out.putU8(s.originOp);
        out.putU32(s.lineageDepth);
        out.putU64(s.energyAtCreation);
        writeSeedBlocks(out, s.blocks);
    }
}

bool
Corpus::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };

    if (in.remaining() < 4 * 8 + 4)
        return fail("truncated corpus header");
    nextInsertion = in.getU64();
    evictCount = in.getU64();
    rejectCount = in.getU64();
    dupImportCount = in.getU64();
    const uint32_t count = in.getU32();
    if (count > cap)
        return fail("corpus seed count exceeds capacity");

    seeds.clear();
    slotHash.clear();
    idIndex.clear();
    seeds.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        if (in.remaining() < 45)
            return fail("truncated corpus seed");
        Seed s;
        s.id = in.getU64();
        s.coverageIncrement = in.getU64();
        s.insertedAt = in.getU64();
        s.parentId = in.getU64();
        s.originOp = in.getU8();
        s.lineageDepth = in.getU32();
        s.energyAtCreation = in.getU64();
        if (!readSeedBlocks(in, s.blocks, error))
            return false;
        if (idIndex.count(s.id))
            return fail("duplicate seed id in corpus image");
        idIndex[s.id] = seeds.size();
        seeds.push_back(std::move(s));
        slotHash.emplace_back();
    }
    if (tel.size)
        tel.size->set(static_cast<int64_t>(seeds.size()));
    return true;
}

} // namespace turbofuzz::fuzzer
