#include "soc/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::soc
{

const Memory::Page *
Memory::findPage(uint64_t addr) const
{
    const uint64_t num = addr / pageSize;
    if (num == cachedPageNum)
        return cachedPage;
    auto it = pages.find(num);
    if (it == pages.end())
        return nullptr;
    cachedPageNum = num;
    cachedPage = const_cast<Page *>(&it->second);
    return cachedPage;
}

Memory::Page &
Memory::pageFor(uint64_t addr)
{
    const uint64_t num = addr / pageSize;
    if (num == cachedPageNum)
        return *cachedPage;
    auto [it, inserted] = pages.try_emplace(num);
    if (inserted) {
        it->second.assign(pageSize, 0);
        if (journal)
            journal->createdPages.push_back(num);
    }
    cachedPageNum = num;
    cachedPage = &it->second;
    return it->second;
}

void
Memory::noteWrite(uint64_t addr, uint64_t len)
{
    // Bump every watch the range overlaps, and the global slot unless
    // one watch holds the whole range (bytes outside every watch are
    // fetched under the global slot).
    bool contained = false;
    for (FetchWatch &w : watches) {
        if (addr < w.base + w.size && addr + len > w.base) {
            ++w.epoch;
            contained |= addr >= w.base && addr + len <= w.base + w.size;
        }
    }
    if (!contained)
        ++globalEpoch;
}

void
Memory::writeSpan(uint64_t addr, const uint8_t *src, uint64_t len)
{
    if (journal) {
        for (uint64_t i = 0; i < len; ++i)
            write8(addr + i, src ? src[i] : 0);
        return;
    }
    while (len > 0) {
        const uint64_t off = addr % pageSize;
        const uint64_t chunk = std::min(len, pageSize - off);
        uint8_t *dst = pageFor(addr).data() + off;
        if (src) {
            std::memcpy(dst, src, chunk);
            src += chunk;
        } else {
            std::memset(dst, 0, chunk);
        }
        noteWrite(addr, chunk);
        addr += chunk;
        len -= chunk;
    }
}

void
Memory::bumpAllEpochs()
{
    ++globalEpoch;
    for (FetchWatch &w : watches)
        ++w.epoch;
}

void
Memory::addFetchWatch(uint64_t base, uint64_t size)
{
    watches.push_back({base, size, 1});
    // Slot numbering changed; cached snapshots must all revalidate.
    bumpAllEpochs();
}

void
Memory::clearFetchWatches()
{
    watches.clear();
    bumpAllEpochs();
}

Memory &
Memory::operator=(const Memory &other)
{
    // A wholesale content replacement cannot be journaled; make the
    // precondition explicit instead of silently breaking undo().
    TF_ASSERT(journal == nullptr,
              "detach the journal before copy-assigning a Memory");
    pages = other.pages;
    dropPageCache();
    bumpAllEpochs();
    return *this;
}

template <typename T>
T
Memory::readScalar(uint64_t addr) const
{
    // Fast path: the access stays within one page.
    const uint64_t off = addr % pageSize;
    if (off + sizeof(T) <= pageSize) {
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        T v;
        std::memcpy(&v, p->data() + off, sizeof(T));
        return v;
    }
    // Page-straddling access: byte-by-byte.
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(read8(addr + i)) << (8 * i);
    return v;
}

template <typename T>
void
Memory::writeScalar(uint64_t addr, T value)
{
    const uint64_t off = addr % pageSize;
    if (off + sizeof(T) <= pageSize) {
        Page &p = pageFor(addr);
        if (journal) {
            T old;
            std::memcpy(&old, p.data() + off, sizeof(T));
            journal->log.push_back(
                {addr, static_cast<uint64_t>(old),
                 static_cast<uint8_t>(sizeof(T))});
        }
        std::memcpy(p.data() + off, &value, sizeof(T));
        noteWrite(addr, sizeof(T));
        return;
    }
    // Page-straddling: byte writes journal themselves.
    for (size_t i = 0; i < sizeof(T); ++i)
        write8(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

uint8_t
Memory::read8(uint64_t addr) const
{
    const Page *p = findPage(addr);
    return p ? (*p)[addr % pageSize] : 0;
}

uint16_t
Memory::read16(uint64_t addr) const
{
    return readScalar<uint16_t>(addr);
}

uint32_t
Memory::read32(uint64_t addr) const
{
    return readScalar<uint32_t>(addr);
}

uint64_t
Memory::read64(uint64_t addr) const
{
    return readScalar<uint64_t>(addr);
}

void
Memory::write8(uint64_t addr, uint8_t value)
{
    uint8_t &slot = pageFor(addr)[addr % pageSize];
    if (journal)
        journal->log.push_back({addr, slot, 1});
    slot = value;
    noteWrite(addr, 1);
}

void
Memory::write16(uint64_t addr, uint16_t value)
{
    writeScalar(addr, value);
}

void
Memory::write32(uint64_t addr, uint32_t value)
{
    writeScalar(addr, value);
}

void
Memory::write64(uint64_t addr, uint64_t value)
{
    writeScalar(addr, value);
}

// tflint: hot-path
void
Memory::writeWords(uint64_t addr, const uint32_t *words, size_t n)
{
    if (journal) {
        for (size_t i = 0; i < n; ++i)
            write32(addr + 4 * i, words[i]);
        return;
    }
    // write32 stores host order, as this byte copy does.
    writeSpan(addr, reinterpret_cast<const uint8_t *>(words), 4 * n);
}

void
Memory::loadBlob(uint64_t addr, const uint8_t *data, size_t size)
{
    writeSpan(addr, data, size);
}

void
Memory::clearRange(uint64_t addr, uint64_t size)
{
    writeSpan(addr, nullptr, size);
}

void
Memory::reset()
{
    pages.clear();
    dropPageCache();
    bumpAllEpochs();
}

void
Memory::undo(const MemWriteJournal &j)
{
    TF_ASSERT(journal == nullptr,
              "detach the journal before undoing it");
    for (auto it = j.log.rbegin(); it != j.log.rend(); ++it) {
        switch (it->size) {
          case 1:
            write8(it->addr, static_cast<uint8_t>(it->oldValue));
            break;
          case 2:
            write16(it->addr, static_cast<uint16_t>(it->oldValue));
            break;
          case 4:
            write32(it->addr, static_cast<uint32_t>(it->oldValue));
            break;
          case 8:
            write64(it->addr, it->oldValue);
            break;
          default:
            panic("journal entry with bad size %u",
                  unsigned{it->size});
        }
    }
    // Pages the journaled writes allocated are all-zero again after
    // the byte undo above; drop them so page *residency* — which
    // saveState() serializes and snapshots embed — rewinds too.
    for (const uint64_t page_num : j.createdPages)
        pages.erase(page_num);
    dropPageCache();
    bumpAllEpochs();
}

void
Memory::saveState(SnapshotWriter &out) const
{
    out.putU64(pages.size());
    for (const auto &[pageNum, page] : pages) {
        out.putU64(pageNum);
        out.putBytes(page.data(), page.size());
    }
}

void
Memory::loadState(SnapshotReader &in)
{
    pages.clear();
    dropPageCache();
    bumpAllEpochs();
    const uint64_t count = in.getU64();
    // Each serialized page is a number plus pageSize bytes; reject a
    // count that cannot fit the buffer before allocating any pages.
    if (count > in.remaining() / (8 + pageSize))
        throw SnapshotFormatError(
            "memory page count exceeds snapshot buffer");
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t pageNum = in.getU64();
        Page page(pageSize);
        in.getBytes(page.data(), pageSize);
        pages.emplace(pageNum, std::move(page));
    }
}

Bram::Bram(size_t capacity_bytes) : capacityBytes(capacity_bytes)
{
}

size_t
Bram::append(const std::vector<uint8_t> &record)
{
    if (data.size() + record.size() > capacityBytes)
        return SIZE_MAX;
    const size_t offset = data.size();
    data.insert(data.end(), record.begin(), record.end());
    return offset;
}

std::vector<uint8_t>
Bram::read(size_t offset, size_t size) const
{
    TF_ASSERT(offset + size <= data.size(), "BRAM read out of range");
    return {data.begin() + static_cast<ptrdiff_t>(offset),
            data.begin() + static_cast<ptrdiff_t>(offset + size)};
}

} // namespace turbofuzz::soc
