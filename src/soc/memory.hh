/**
 * @file
 * Sparse byte-addressable memory modelling the board's DDR4, plus a
 * small capacity-limited Bram model for on-chip seed storage.
 *
 * The DDR model backs the instruction segment the fuzzer commits
 * iterations into and the LFSR-filled data segment; it is sparse so
 * snapshots stay small.
 */

#ifndef TURBOFUZZ_SOC_MEMORY_HH
#define TURBOFUZZ_SOC_MEMORY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace turbofuzz::soc
{

class SnapshotWriter;
class SnapshotReader;

/**
 * Undo log of memory writes. While attached to a Memory, every write
 * appends the overwritten bytes; Memory::undo() replays the log
 * backwards to restore the pre-attachment contents bit-exactly. The
 * batched execution engine uses one journal per hart batch so that a
 * mid-batch divergence can rewind the commits that ran past it.
 */
class MemWriteJournal
{
  public:
    struct Entry
    {
        uint64_t addr;
        uint64_t oldValue; ///< little-endian, low `size` bytes valid
        uint8_t size;      ///< 1, 2, 4 or 8
    };

    /** Forget all entries; capacity is retained for reuse. */
    void
    clear()
    {
        log.clear();
        createdPages.clear();
    }
    bool empty() const { return log.empty() && createdPages.empty(); }
    size_t size() const { return log.size(); }
    const std::vector<Entry> &entries() const { return log; }

  private:
    friend class Memory;
    std::vector<Entry> log;
    /** Pages first allocated while attached; undo() drops them so
     *  page residency (which snapshots serialize) rewinds too. */
    std::vector<uint64_t> createdPages;
};

/** Sparse 64-bit address space with 4 KiB backing pages. */
class Memory
{
  public:
    static constexpr uint64_t pageSize = 4096;

    Memory() = default;

    // Copies duplicate contents only: a journal observes one Memory's
    // write stream and never transfers to another instance.
    Memory(const Memory &other)
        : pages(other.pages), watches(other.watches),
          globalEpoch(other.globalEpoch)
    {
    }
    Memory &operator=(const Memory &other);

    uint8_t read8(uint64_t addr) const;
    uint16_t read16(uint64_t addr) const;
    uint32_t read32(uint64_t addr) const;
    uint64_t read64(uint64_t addr) const;

    void write8(uint64_t addr, uint8_t value);
    void write16(uint64_t addr, uint16_t value);
    void write32(uint64_t addr, uint32_t value);
    void write64(uint64_t addr, uint64_t value);

    /**
     * Write @p n consecutive 32-bit words starting at @p addr: the
     * same bytes as n write32() calls, copied one page chunk at a
     * time with one fetch-epoch bump per chunk. With a journal
     * attached it falls back to per-word write32() so undo() stays
     * exact.
     */
    void writeWords(uint64_t addr, const uint32_t *words, size_t n);

    /** Copy a blob into memory starting at @p addr (chunked as
     *  writeWords()). */
    void loadBlob(uint64_t addr, const uint8_t *data, size_t size);

    /** Zero-fill a range (allocates pages; chunked as writeWords()). */
    void clearRange(uint64_t addr, uint64_t size);

    /** Drop every page (full reset). */
    void reset();

    /**
     * Attach (or with nullptr detach) a write journal. While attached
     * every write records the bytes it overwrites. The journal is
     * borrowed, never owned, and must outlive the attachment.
     */
    void setJournal(MemWriteJournal *j) { journal = j; }

    /**
     * Restore the contents from before @p j was attached by undoing
     * its entries newest-first. Requires no journal to be attached
     * (detach before rewinding). @p j is left unchanged; clear() it
     * before reuse.
     */
    void undo(const MemWriteJournal &j);

    /** Number of resident pages (for stats/snapshot sizing). */
    size_t residentPages() const { return pages.size(); }

    /**
     * Fetch-epoch protocol backing the ISS decode cache. A cached
     * decode snapshots the epoch of the range its pc lives in; any
     * write that could alias that range bumps the epoch, so a stale
     * snapshot forces revalidation (refetch + insn compare) and
     * self-modifying stimulus stays bit-exact.
     *
     * Registering watch ranges narrows the aliasing test: a write
     * inside a watch bumps only that watch's epoch, a write outside
     * every watch bumps the global epoch (which covers fetches from
     * unwatched addresses). With no watches registered every write
     * bumps the global epoch — conservative but always correct.
     *
     * A bulk write (writeWords, loadBlob, clearRange) bumps once per
     * page chunk rather than once per word. Readers only compare an
     * epoch for equality with their snapshot, so one bump makes every
     * snapshot of the slot stale exactly as many bumps would.
     */
    void addFetchWatch(uint64_t base, uint64_t size);

    /** Drop all watch ranges (epochs all bump). */
    void clearFetchWatches();

    /**
     * Epoch slot covering @p addr: 0 is the global slot, i+1 the i-th
     * watch. Recompute after addFetchWatch/clearFetchWatches.
     */
    uint32_t
    fetchSlotFor(uint64_t addr) const
    {
        for (size_t i = 0; i < watches.size(); ++i)
            if (addr - watches[i].base < watches[i].size)
                return static_cast<uint32_t>(i + 1);
        return 0;
    }

    /** Current epoch of a fetchSlotFor() slot. */
    uint64_t
    fetchEpochOfSlot(uint32_t slot) const
    {
        return slot == 0 ? globalEpoch : watches[slot - 1].epoch;
    }

    /** Serialize resident pages. */
    void saveState(SnapshotWriter &out) const;

    /** Restore from a snapshot (replaces all contents). */
    void loadState(SnapshotReader &in);

  private:
    using Page = std::vector<uint8_t>;

    struct FetchWatch
    {
        uint64_t base;
        uint64_t size;
        uint64_t epoch;
    };

    const Page *findPage(uint64_t addr) const;
    Page &pageFor(uint64_t addr);
    void noteWrite(uint64_t addr, uint64_t len);
    /** Write @p len bytes from @p src (zeros when null) a page chunk
     *  at a time; byte writes while a journal is attached. */
    void writeSpan(uint64_t addr, const uint8_t *src, uint64_t len);
    void bumpAllEpochs();

    void
    dropPageCache() const
    {
        cachedPageNum = ~uint64_t{0};
        cachedPage = nullptr;
    }

    /** Generic little-endian scalar access helpers. */
    template <typename T> T readScalar(uint64_t addr) const;
    template <typename T> void writeScalar(uint64_t addr, T value);

    std::map<uint64_t, Page> pages;
    MemWriteJournal *journal = nullptr;

    std::vector<FetchWatch> watches;
    uint64_t globalEpoch = 1;

    /** One-entry page cache; std::map nodes are pointer-stable, so
     *  only page removal/replacement invalidates it. */
    mutable uint64_t cachedPageNum = ~uint64_t{0};
    mutable Page *cachedPage = nullptr;
};

/**
 * On-chip BRAM region with a hard capacity, mirroring the paper's
 * BRAM-resident corpus option (faster but limited, §IV-A3).
 */
class Bram
{
  public:
    explicit Bram(size_t capacity_bytes);

    size_t capacity() const { return capacityBytes; }
    size_t used() const { return data.size(); }

    /**
     * Append a record; returns the offset, or SIZE_MAX when the record
     * does not fit.
     */
    size_t append(const std::vector<uint8_t> &record);

    /** Read back a record written by append(). */
    std::vector<uint8_t> read(size_t offset, size_t size) const;

    void clear() { data.clear(); }

  private:
    size_t capacityBytes;
    std::vector<uint8_t> data;
};

} // namespace turbofuzz::soc

#endif // TURBOFUZZ_SOC_MEMORY_HH
