#include "coverage/coverage_map.hh"

#include <algorithm>
#include <array>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "coverage/provenance.hh"
#include "rtl/driver.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::coverage
{

CoverageMap::CoverageMap(const DesignInstrumentation *di) : instr(di)
{
    TF_ASSERT(instr != nullptr, "CoverageMap requires instrumentation");
    bitmaps.resize(instr->modules().size());
    dirtyWords.resize(instr->modules().size());
    coveredPerModule.assign(instr->modules().size(), 0);
    for (size_t i = 0; i < bitmaps.size(); ++i) {
        const uint64_t points =
            instr->modules()[i].instrumentedPoints();
        bitmaps[i].assign((points + 63) / 64, 0);
        dirtyWords[i].assign((bitmaps[i].size() + 63) / 64, 0);
    }

    // Role-dependency mask per module: which RegRoles feed its index.
    moduleRoleMasks.reserve(instr->modules().size());
    for (const ModuleInstrumentation &m : instr->modules()) {
        uint64_t mask = 0;
        const auto &regs = m.module().registers();
        for (const Placement &p : m.placements())
            mask |= uint64_t{1} << static_cast<size_t>(
                        regs[p.regIndex].role);
        moduleRoleMasks.push_back(mask);
    }

    // Flatten every placement into an incremental-sweep entry,
    // grouped by the role of its register so a dirty-role step can
    // walk exactly the entries that may have moved. Register storage
    // is pointer-stable after design construction (the event driver
    // relies on the same property).
    const size_t mod_count = instr->modules().size();
    modIdx.assign(mod_count, 0);
    std::array<std::vector<IncEntry>, 64> byRole;
    for (size_t i = 0; i < mod_count; ++i) {
        const ModuleInstrumentation &m = instr->modules()[i];
        const auto &regs = m.module().registers();
        for (const Placement &p : m.placements()) {
            const rtl::Register &r = regs[p.regIndex];
            IncEntry e;
            e.widthMask = turbofuzz::mask(r.width);
            e.idxMask = turbofuzz::mask(m.indexBits());
            e.module = static_cast<uint32_t>(i);
            e.offset = p.offset;
            e.idxBits = static_cast<uint8_t>(m.indexBits());
            e.rot = static_cast<uint8_t>(p.offset % m.indexBits());
            e.wraps = p.wraps;
            e.role = static_cast<uint8_t>(r.role);
            if (!r.domain.empty()) {
                // Tabulate the whole domain -> contribution map.
                std::vector<uint64_t> tbl(r.domain.size());
                for (size_t d = 0; d < r.domain.size(); ++d)
                    tbl[d] =
                        placeValue(e, r.domain[d] & e.widthMask);
                placedDomPool.push_back(std::move(tbl));
                e.placedDom = placedDomPool.back().data();
                e.domSize =
                    static_cast<uint32_t>(r.domain.size());
            } else if (r.salt != 0) {
                e.salt = r.salt;
            } else {
                e.srcShift = r.srcShift;
            }
            byRole[static_cast<size_t>(r.role)].push_back(e);
        }
    }
    // Flatten into (role, module) slots. Within a role the entries
    // were appended in module order, so same-module entries are
    // already contiguous.
    for (size_t r = 0; r < 64; ++r) {
        roleSlotBegin[r] = static_cast<uint32_t>(slotModule.size());
        uint32_t last_mod = ~uint32_t{0};
        for (const IncEntry &e : byRole[r]) {
            if (e.module != last_mod) {
                slotModule.push_back(e.module);
                slotEntryBegin.push_back(
                    static_cast<uint32_t>(incEntries.size()));
                last_mod = e.module;
            }
            incEntries.push_back(e);
        }
        if (!byRole[r].empty())
            rolesWithEntries |= uint64_t{1} << r;
    }
    roleSlotBegin[64] = static_cast<uint32_t>(slotModule.size());
    slotEntryBegin.push_back(
        static_cast<uint32_t>(incEntries.size()));
    slotAgg.assign(slotModule.size(), 0);

    // Role-memo layout: one tag word plus one aggregate word per
    // slot, memoLines lines per role that has entries. Line i starts
    // with tag ~i, which no value mapping to line i can equal (its
    // low bits are ~i's complement), so an empty line never hits.
    uint32_t words = 0;
    for (size_t r = 0; r < 64; ++r) {
        memoBase[r] = words;
        const uint32_t nslots =
            roleSlotBegin[r + 1] - roleSlotBegin[r];
        if (nslots != 0)
            words += memoLines * (1 + nslots);
    }
    memoTbl.assign(words, 0);
    for (size_t r = 0; r < 64; ++r) {
        const uint32_t nslots =
            roleSlotBegin[r + 1] - roleSlotBegin[r];
        if (nslots == 0)
            continue;
        for (uint32_t i = 0; i < memoLines; ++i)
            memoTbl[memoBase[r] + i * (1 + nslots)] = ~uint64_t{i};
    }

    // Bitmaps are sized once here and never resized (reset, merge
    // and loadState write in place), so word pointers stay valid.
    for (std::vector<uint64_t> &bm : bitmaps)
        bitmapWords.push_back(bm.data());
}

uint64_t
CoverageMap::placeValue(const IncEntry &e, uint64_t v)
{
    // Exact replica of ModuleInstrumentation::computeIndex() for one
    // placement — the maintained module index is the XOR of these.
    if (e.wraps) {
        while (v >> e.idxBits)
            v = (v & e.idxMask) ^ (v >> e.idxBits);
        v = ((v << e.rot) | (v >> (e.idxBits - e.rot))) & e.idxMask;
    } else {
        v = (v << e.offset) & e.idxMask;
    }
    return v;
}

uint64_t
CoverageMap::contribFor(const IncEntry &e, uint64_t roleValue)
{
    if (e.placedDom)
        return e.placedDom[roleValue % e.domSize];
    uint64_t mapped;
    if (e.salt) {
        // EventDriver::mapToDomain's salted mix, verbatim.
        uint64_t z = roleValue ^ e.salt;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        mapped = z & e.widthMask;
    } else {
        mapped = (roleValue >> e.srcShift) & e.widthMask;
    }
    return placeValue(e, mapped);
}

void
CoverageMap::fillMemoLine(unsigned role, uint64_t value, uint64_t *line)
{
    // Memo miss: compute this value's slot aggregates once and cache
    // them. Lines are pure in (role value, instrumentation), so they
    // never need invalidation — small recurring roles (operand
    // indices, FSM states, op classes) hit almost always after
    // warmup.
    line[0] = value;
    for (uint32_t s = roleSlotBegin[role]; s < roleSlotBegin[role + 1];
         ++s) {
        uint64_t acc = 0;
        for (uint32_t k = slotEntryBegin[s]; k < slotEntryBegin[s + 1];
             ++k)
            acc ^= contribFor(incEntries[k], value);
        line[1 + (s - roleSlotBegin[role])] = acc;
    }
}

uint64_t
CoverageMap::refreshAllEntries(const std::array<uint64_t, 64> &roles)
{
    uint64_t roles_left = rolesWithEntries;
    while (roles_left) {
        const unsigned r = static_cast<unsigned>(
            __builtin_ctzll(roles_left));
        roles_left &= roles_left - 1;
        const uint64_t *line = memoLine(r, roles[r]);
        for (uint32_t s = roleSlotBegin[r]; s < roleSlotBegin[r + 1];
             ++s)
            slotAgg[s] = line[1 + (s - roleSlotBegin[r])];
    }
    std::fill(modIdx.begin(), modIdx.end(), 0);
    for (size_t s = 0; s < slotAgg.size(); ++s)
        modIdx[slotModule[s]] ^= slotAgg[s];
    uint64_t newly = 0;
    for (size_t i = 0; i < modIdx.size(); ++i)
        newly += markModuleIndex(i, modIdx[i]);
    return newly;
}

uint64_t
CoverageMap::markModule(size_t i)
{
    return markModuleIndex(i, instr->modules()[i].computeIndex());
}

uint64_t
CoverageMap::markModuleIndex(size_t i, uint64_t idx)
{
    uint64_t &word = bitmaps[i][idx / 64];
    const uint64_t bit = uint64_t{1} << (idx % 64);
    if (word & bit)
        return 0;
    word |= bit;
    dirtyWords[i][idx / 64 / 64] |= uint64_t{1} << (idx / 64 % 64);
    ++coveredPerModule[i];
    ++coveredTotal;
    if (prov)
        prov->record(pointKey(PointSpace::Mux,
                              static_cast<uint32_t>(i),
                              static_cast<uint32_t>(idx)));
    return 1;
}

// tflint: hot-path
uint64_t
CoverageMap::record()
{
    uint64_t newly = 0;
    for (size_t i = 0; i < bitmaps.size(); ++i)
        newly += markModule(i);
    return newly;
}

// tflint: hot-path
uint64_t
CoverageMap::recordTrace(rtl::EventDriver &drv,
                         const core::CommitInfo *commits, size_t n)
{
    uint64_t newly = 0;
    if (bitmaps.size() > 64) {
        // Designs beyond the changed-module mask width take the
        // straightforward dirty-role path.
        for (size_t c = 0; c < n; ++c) {
            if (c == 0) {
                drv.onCommit(commits[0]);
                newly += record();
                continue;
            }
            const uint64_t dirty = drv.onCommitDirty(commits[c]);
            if (!dirty)
                continue;
            for (size_t i = 0; i < bitmaps.size(); ++i) {
                if (moduleRoleMasks[i] & dirty)
                    newly += markModule(i);
            }
        }
        return newly;
    }
    if (n == 0)
        return 0; // no sweep: leave the tokens as they are
    const std::array<uint64_t, 64> &rv = drv.roleValues();
    // The maintained indices carry over from the previous sweep when
    // it was this map's sweep of this driver and nothing has touched
    // either since: the driver's roles are then exactly the ones the
    // aggregates were built from, and every module's index is still
    // marked (merges only OR bits in). Anything else — another
    // driver, another map, a reset or a restore on either side —
    // breaks a token and commit 0 takes the full refresh.
    const bool in_sync =
        sweptDriver == &drv && drv.lastSweptBy() == this;
    for (size_t c = 0; c < n; ++c) {
        uint64_t dirty;
        if (c == 0) {
            // Registers are not written during the sweep — it
            // computes from role values — so the first advance only
            // schedules whatever the sweep-ending materialization
            // needs to bring the registers back in sync.
            dirty = drv.advanceRolesFull(commits[0]);
            if (!in_sync) {
                newly += refreshAllEntries(rv);
                continue;
            }
        } else {
            dirty = drv.advanceRoles(commits[c]);
        }
        uint64_t roles = dirty & rolesWithEntries;
        if (!roles)
            continue; // no placed role moved: no index can have moved
        uint64_t changed = 0; // changed-index modules (count <= 64)
        while (roles) {
            const unsigned r = static_cast<unsigned>(
                __builtin_ctzll(roles));
            roles &= roles - 1;
            const uint64_t *line = memoLine(r, rv[r]);
            const uint32_t s0 = roleSlotBegin[r];
            const uint32_t s1 = roleSlotBegin[r + 1];
            for (uint32_t s = s0; s < s1; ++s) {
                const uint64_t na = line[1 + (s - s0)];
                const uint64_t d = slotAgg[s] ^ na;
                const uint32_t m = slotModule[s];
                modIdx[m] ^= d;
                slotAgg[s] = na;
                changed |= uint64_t{d != 0} << m;
            }
        }
        // A module whose maintained index did NOT change is already
        // marked at that index (at the latest by commit 0 of this
        // sweep or the previous one), so only changed indices need
        // the bitmap test. The ctz walk marks in module order, so
        // multi-module first-hits land in provenance exactly as the
        // full per-module loop would record them.
        while (changed) {
            const unsigned m = static_cast<unsigned>(
                __builtin_ctzll(changed));
            changed &= changed - 1;
            const uint64_t idx = modIdx[m];
            if (!((bitmapWords[m][idx / 64] >> (idx % 64)) & 1))
                newly += markModuleIndex(m, idx);
        }
    }
    // Registers lagged behind the role values during the loop; one
    // batched write restores the driver invariant (final values are
    // identical to per-commit writes: both are the mapping of each
    // role's LAST value).
    drv.materializeRegisters();
    sweptDriver = &drv;
    drv.markSweptBy(this);
    return newly;
}

uint64_t
CoverageMap::moduleCovered(size_t module_idx) const
{
    TF_ASSERT(module_idx < coveredPerModule.size(),
              "bad module index %zu", module_idx);
    return coveredPerModule[module_idx];
}

const std::string &
CoverageMap::moduleName(size_t module_idx) const
{
    return instr->modules()[module_idx].module().name();
}

uint64_t
CoverageMap::weightedFeedback() const
{
    uint64_t total = 0;
    const auto &mods = instr->modules();
    for (size_t i = 0; i < mods.size(); ++i) {
        const int shift = mods[i].weightShift;
        const uint64_t c = coveredPerModule[i];
        if (shift >= 0)
            total += c << shift;
        else
            total += c >> (-shift);
    }
    return total;
}

void
CoverageMap::reset()
{
    for (auto &bm : bitmaps)
        std::fill(bm.begin(), bm.end(), 0);
    for (auto &dw : dirtyWords)
        std::fill(dw.begin(), dw.end(), 0);
    std::fill(coveredPerModule.begin(), coveredPerModule.end(), 0);
    coveredTotal = 0;
    sweptDriver = nullptr; // current indices are no longer marked
}

bool
CoverageMap::compatibleWith(const CoverageMap &other) const
{
    if (other.instr == instr)
        return true;
    // Different instrumentation objects: equal bit positions must
    // denote the same DUT state, so the full index mapping has to
    // line up — identical modules and identical register placements.
    // (Shape alone is not enough: Baseline instrumentation shifts
    // registers by seed-dependent amounts, so two same-sized maps
    // from different seeds would OR misaligned states.)
    const auto &a = instr->modules();
    const auto &b = other.instr->modules();
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].module().name() != b[i].module().name() ||
            a[i].indexBits() != b[i].indexBits() ||
            a[i].scheme() != b[i].scheme())
            return false;
        const auto &pa = a[i].placements();
        const auto &pb = b[i].placements();
        if (pa.size() != pb.size())
            return false;
        for (size_t p = 0; p < pa.size(); ++p) {
            if (pa[p].regIndex != pb[p].regIndex ||
                pa[p].offset != pb[p].offset ||
                pa[p].wraps != pb[p].wraps)
                return false;
        }
    }
    return true;
}

bool
CoverageMap::compatibleWith(const FeedbackModel &other) const
{
    const auto *map = dynamic_cast<const CoverageMap *>(&other);
    return map != nullptr && compatibleWith(*map);
}

bool
CoverageMap::merge(const FeedbackModel &other, std::string *error)
{
    const auto *map = dynamic_cast<const CoverageMap *>(&other);
    if (!map) {
        if (error)
            *error = "mux feedback merge: model kind mismatch";
        return false;
    }
    return merge(*map, error);
}

bool
CoverageMap::merge(const CoverageMap &other, std::string *error)
{
    if (!compatibleWith(other)) {
        if (error)
            *error = "coverage merge rejected: maps track "
                     "incompatible instrumentations";
        return false;
    }
    for (size_t i = 0; i < bitmaps.size(); ++i) {
        uint64_t covered = 0;
        for (size_t w = 0; w < bitmaps[i].size(); ++w) {
            const uint64_t merged =
                bitmaps[i][w] | other.bitmaps[i][w];
            if (merged != bitmaps[i][w]) {
                bitmaps[i][w] = merged;
                dirtyWords[i][w / 64] |= uint64_t{1} << (w % 64);
            }
            covered += static_cast<uint64_t>(
                __builtin_popcountll(merged));
        }
        coveredTotal += covered - coveredPerModule[i];
        coveredPerModule[i] = covered;
    }
    return true;
}

// tflint: hot-path
void
CoverageMap::publishDelta(std::vector<SparseWords> &out_mux)
{
    out_mux.resize(bitmaps.size());
    for (size_t i = 0; i < bitmaps.size(); ++i) {
        SparseWords &d = out_mux[i];
        d.clear();
        for (size_t dw = 0; dw < dirtyWords[i].size(); ++dw) {
            uint64_t bits = dirtyWords[i][dw];
            if (!bits)
                continue;
            dirtyWords[i][dw] = 0;
            while (bits) {
                const unsigned b = static_cast<unsigned>(
                    __builtin_ctzll(bits));
                bits &= bits - 1;
                const size_t w = dw * 64 + b;
                d.index.push_back(static_cast<uint32_t>(w));
                d.value.push_back(bitmaps[i][w]);
            }
        }
    }
}

// tflint: hot-path
bool
CoverageMap::mergeDelta(const std::vector<SparseWords> &mux,
                        std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (mux.size() != bitmaps.size())
        return fail("coverage delta rejected: module count mismatch");
    for (size_t i = 0; i < mux.size(); ++i) {
        if (const char *why =
                checkSparseWords(mux[i], bitmaps[i].size())) {
            if (error)
                *error = std::string("coverage delta rejected: ") +
                         why;
            return false;
        }
    }
    for (size_t i = 0; i < mux.size(); ++i) {
        const SparseWords &d = mux[i];
        for (size_t k = 0; k < d.index.size(); ++k) {
            const uint32_t w = d.index[k];
            const uint64_t merged = bitmaps[i][w] | d.value[k];
            if (merged == bitmaps[i][w])
                continue;
            const uint64_t added = static_cast<uint64_t>(
                __builtin_popcountll(merged) -
                __builtin_popcountll(bitmaps[i][w]));
            bitmaps[i][w] = merged;
            dirtyWords[i][w / 64] |= uint64_t{1} << (w % 64);
            coveredPerModule[i] += added;
            coveredTotal += added;
        }
    }
    return true;
}

void
CoverageMap::saveState(soc::SnapshotWriter &out) const
{
    out.putU32(static_cast<uint32_t>(bitmaps.size()));
    for (size_t i = 0; i < bitmaps.size(); ++i) {
        out.putU32(static_cast<uint32_t>(bitmaps[i].size()));
        for (uint64_t word : bitmaps[i])
            out.putU64(word);
    }
}

bool
CoverageMap::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    sweptDriver = nullptr; // restored bitmaps replace the marks
    try {
        if (in.getU32() != bitmaps.size())
            return fail("coverage module count mismatch");
        coveredTotal = 0;
        for (size_t i = 0; i < bitmaps.size(); ++i) {
            if (in.getU32() != bitmaps[i].size())
                return fail("coverage bitmap size mismatch");
            uint64_t covered = 0;
            std::fill(dirtyWords[i].begin(), dirtyWords[i].end(), 0);
            for (size_t w = 0; w < bitmaps[i].size(); ++w) {
                const uint64_t word = in.getU64();
                bitmaps[i][w] = word;
                // Conservatively republish every covered word: the
                // restored map cannot know what its last publication
                // contained, and over-publication is a no-op under
                // the OR merge.
                if (word)
                    dirtyWords[i][w / 64] |= uint64_t{1} << (w % 64);
                covered += static_cast<uint64_t>(
                    __builtin_popcountll(word));
            }
            coveredPerModule[i] = covered;
            coveredTotal += covered;
        }
        return true;
    } catch (const soc::SnapshotFormatError &e) {
        return fail(e.what());
    }
}

} // namespace turbofuzz::coverage
