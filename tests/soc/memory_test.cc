/** @file Sparse memory and BRAM model tests. */

#include <gtest/gtest.h>

#include <vector>

#include "soc/memory.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::soc
{
namespace
{

TEST(Memory, UntouchedReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read8(0), 0u);
    EXPECT_EQ(m.read64(0x80000000ull), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(Memory, ScalarRoundTrips)
{
    Memory m;
    m.write8(0x1000, 0xAB);
    m.write16(0x1002, 0xCDEF);
    m.write32(0x1004, 0x12345678);
    m.write64(0x1008, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(m.read8(0x1000), 0xABu);
    EXPECT_EQ(m.read16(0x1002), 0xCDEFu);
    EXPECT_EQ(m.read32(0x1004), 0x12345678u);
    EXPECT_EQ(m.read64(0x1008), 0xDEADBEEFCAFEF00Dull);
}

TEST(Memory, LittleEndianLayout)
{
    Memory m;
    m.write32(0x2000, 0x11223344);
    EXPECT_EQ(m.read8(0x2000), 0x44u);
    EXPECT_EQ(m.read8(0x2003), 0x11u);
}

TEST(Memory, PageStraddlingAccess)
{
    Memory m;
    const uint64_t addr = Memory::pageSize - 4;
    m.write64(addr, 0x0102030405060708ull);
    EXPECT_EQ(m.read64(addr), 0x0102030405060708ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(Memory, LoadBlobAndClearRange)
{
    Memory m;
    const uint8_t blob[] = {1, 2, 3, 4, 5};
    m.loadBlob(0x3000, blob, sizeof(blob));
    EXPECT_EQ(m.read8(0x3002), 3u);
    m.clearRange(0x3000, 5);
    EXPECT_EQ(m.read8(0x3002), 0u);
}

TEST(Memory, SparseDistantAddresses)
{
    Memory m;
    m.write8(0x0, 1);
    m.write8(0xFFFFFFFF0000ull, 2);
    EXPECT_EQ(m.read8(0x0), 1u);
    EXPECT_EQ(m.read8(0xFFFFFFFF0000ull), 2u);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(Memory, SnapshotRoundTrip)
{
    Memory m;
    m.write64(0x1000, 0xAABBCCDDEEFF0011ull);
    m.write8(0x999999, 0x77);

    SnapshotWriter w;
    m.saveState(w);

    Memory m2;
    m2.write8(0x5, 0x5); // will be replaced by load
    const auto buf = w.buffer();
    SnapshotReader r(buf);
    m2.loadState(r);
    EXPECT_EQ(m2.read64(0x1000), 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m2.read8(0x999999), 0x77u);
    EXPECT_EQ(m2.read8(0x5), 0u);
    EXPECT_EQ(m2.residentPages(), m.residentPages());
}

TEST(Memory, Reset)
{
    Memory m;
    m.write8(0x42, 9);
    m.reset();
    EXPECT_EQ(m.read8(0x42), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

/** Every resident page, serialized: the complete memory image. */
std::vector<uint8_t>
imageOf(const Memory &m)
{
    SnapshotWriter out;
    m.saveState(out);
    return out.takeBuffer();
}

/** Memory with a little content on the pages the tests rewrite. */
Memory
prefilled()
{
    Memory m;
    for (uint64_t a = 0x4000; a < 0x7000; a += 0x3F8)
        m.write64(a, 0x0123456789ABCDEFull ^ a);
    return m;
}

/**
 * The bulk writes against their oracles, per-word write32 and
 * per-byte write8: same bytes, same resident pages, for a
 * page-straddling range, an unaligned start and fresh pages.
 */
TEST(Memory, WriteWordsMatchesWrite32)
{
    std::vector<uint32_t> words(700);
    for (size_t i = 0; i < words.size(); ++i)
        words[i] = static_cast<uint32_t>(0x9E3779B9u * (i + 1));

    struct Range
    {
        uint64_t addr;
        size_t n;
    };
    for (const Range r : {Range{0x5000 - 40, 300}, Range{0x5002, 50},
                          Range{0x4FFE, 700}, Range{0x9000, 1},
                          Range{0x6000, 0}}) {
        Memory oracle = prefilled();
        for (size_t i = 0; i < r.n; ++i)
            oracle.write32(r.addr + 4 * i, words[i]);
        Memory fast = prefilled();
        fast.writeWords(r.addr, words.data(), r.n);
        EXPECT_EQ(imageOf(fast), imageOf(oracle))
            << std::hex << "writeWords at 0x" << r.addr;

        const auto *bytes =
            reinterpret_cast<const uint8_t *>(words.data());
        Memory blob_oracle = prefilled();
        Memory blob = prefilled();
        for (size_t i = 0; i < 4 * r.n; ++i)
            blob_oracle.write8(r.addr + i, bytes[i]);
        blob.loadBlob(r.addr, bytes, 4 * r.n);
        EXPECT_EQ(imageOf(blob), imageOf(blob_oracle))
            << std::hex << "loadBlob at 0x" << r.addr;

        for (size_t i = 0; i < 4 * r.n; ++i)
            blob_oracle.write8(r.addr + i, 0);
        blob.clearRange(r.addr, 4 * r.n);
        EXPECT_EQ(imageOf(blob), imageOf(blob_oracle))
            << std::hex << "clearRange at 0x" << r.addr;
    }
}

TEST(Memory, WriteWordsUnderJournalUndoesExactly)
{
    std::vector<uint32_t> words(2000, 0xA5A5A5A5u);
    Memory m = prefilled();
    const std::vector<uint8_t> before = imageOf(m);

    MemWriteJournal j;
    m.setJournal(&j);
    // Rewrites existing pages and allocates fresh ones.
    m.writeWords(0x5FF0, words.data(), words.size());
    m.clearRange(0x4100, 0x20);
    const uint8_t blob[] = {1, 2, 3};
    m.loadBlob(0x20FFF, blob, sizeof(blob));
    m.setJournal(nullptr);
    EXPECT_EQ(m.read32(0x5FF0), 0xA5A5A5A5u);

    m.undo(j);
    EXPECT_EQ(imageOf(m), before);
}

TEST(Memory, WriteWordsBumpsWatchedEpoch)
{
    // The watch ends mid-page, so one page chunk can straddle it.
    Memory m;
    m.addFetchWatch(0x10000, 0x3800);
    const uint32_t inside = m.fetchSlotFor(0x12000);
    ASSERT_NE(inside, 0u);
    const std::vector<uint32_t> words(0x3800 / 4, 0x13u);

    // A range wholly inside the watch moves only the watch's epoch.
    uint64_t watch_epoch = m.fetchEpochOfSlot(inside);
    uint64_t global_epoch = m.fetchEpochOfSlot(0);
    m.writeWords(0x10000, words.data(), words.size());
    EXPECT_NE(m.fetchEpochOfSlot(inside), watch_epoch);
    EXPECT_EQ(m.fetchEpochOfSlot(0), global_epoch);

    // A range running past the watch moves both, even within one
    // page chunk: the bytes beyond it are fetched under the global
    // slot.
    watch_epoch = m.fetchEpochOfSlot(inside);
    global_epoch = m.fetchEpochOfSlot(0);
    m.writeWords(0x13400, words.data(), 0x200);
    EXPECT_NE(m.fetchEpochOfSlot(inside), watch_epoch);
    EXPECT_NE(m.fetchEpochOfSlot(0), global_epoch);

    // A range outside every watch moves only the global slot.
    watch_epoch = m.fetchEpochOfSlot(inside);
    global_epoch = m.fetchEpochOfSlot(0);
    m.clearRange(0x30000, 64);
    EXPECT_EQ(m.fetchEpochOfSlot(inside), watch_epoch);
    EXPECT_NE(m.fetchEpochOfSlot(0), global_epoch);
}

TEST(MemoryJournal, UndoRestoresPriorContents)
{
    Memory m;
    m.write64(0x1000, 0x1111111111111111ull);
    m.write32(0x2000, 0x22222222u);
    m.write8(0x3000, 0x33);

    MemWriteJournal j;
    m.setJournal(&j);
    // Overlapping rewrites of existing bytes, fresh bytes, a
    // page-straddling store and repeated writes to one address.
    m.write64(0x1000, 0xAAAAAAAAAAAAAAAAull);
    m.write32(0x1004, 0xBBBBBBBBu);
    m.write16(0x2000, 0xCCCC);
    m.write8(0x3000, 0xDD);
    m.write8(0x3000, 0xEE);
    // Page-straddling store into otherwise untouched pages.
    m.write64(5 * Memory::pageSize - 3, 0x0123456789ABCDEFull);
    m.write64(0x9000, 0x4444444444444444ull);
    m.setJournal(nullptr);
    EXPECT_FALSE(j.empty());

    m.undo(j);
    EXPECT_EQ(m.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(m.read32(0x2000), 0x22222222u);
    EXPECT_EQ(m.read8(0x3000), 0x33u);
    EXPECT_EQ(m.read64(5 * Memory::pageSize - 3), 0u);
    EXPECT_EQ(m.read64(0x9000), 0u);
}

TEST(MemoryJournal, DetachedWritesAreNotJournaled)
{
    Memory m;
    m.write8(0x0, 0); // page resident before the journal attaches
    MemWriteJournal j;
    m.setJournal(&j);
    m.write8(0x10, 1);
    m.setJournal(nullptr);
    m.write8(0x20, 2); // not journaled
    EXPECT_EQ(j.size(), 1u);

    m.undo(j);
    EXPECT_EQ(m.read8(0x10), 0u); // undone
    EXPECT_EQ(m.read8(0x20), 2u); // untouched
}

TEST(MemoryJournal, UndoDropsPagesTheWritesCreated)
{
    Memory m;
    m.write8(0x1000, 0x11); // resident before the journal attaches
    const size_t resident_before = m.residentPages();

    MemWriteJournal j;
    m.setJournal(&j);
    m.write8(0x1001, 0x22);  // existing page: stays after undo
    m.write64(0x8000, 0x99); // fresh page: must vanish on undo
    m.setJournal(nullptr);
    EXPECT_EQ(m.residentPages(), resident_before + 1);

    // Snapshots serialize page residency, so undo must restore it
    // too — not just byte contents (mismatch-snapshot equivalence).
    m.undo(j);
    EXPECT_EQ(m.residentPages(), resident_before);
    EXPECT_EQ(m.read8(0x1000), 0x11u);
    EXPECT_EQ(m.read8(0x1001), 0u);
    EXPECT_EQ(m.read64(0x8000), 0u);
}

TEST(MemoryJournal, CopyDoesNotTransferJournal)
{
    Memory a;
    MemWriteJournal j;
    a.setJournal(&j);
    Memory b = a;
    b.write8(0x10, 7); // b has no journal attached
    EXPECT_TRUE(j.empty());
    a.setJournal(nullptr);
}

TEST(Bram, CapacityEnforced)
{
    Bram b(16);
    EXPECT_EQ(b.append({1, 2, 3, 4, 5, 6, 7, 8}), 0u);
    EXPECT_EQ(b.append({9, 10, 11, 12, 13, 14, 15, 16}), 8u);
    EXPECT_EQ(b.append({17}), SIZE_MAX);
    EXPECT_EQ(b.used(), 16u);
    EXPECT_EQ(b.capacity(), 16u);
}

TEST(Bram, ReadBack)
{
    Bram b(64);
    const std::vector<uint8_t> rec = {5, 6, 7};
    const size_t off = b.append(rec);
    EXPECT_EQ(b.read(off, 3), rec);
    b.clear();
    EXPECT_EQ(b.used(), 0u);
}

} // namespace
} // namespace turbofuzz::soc
