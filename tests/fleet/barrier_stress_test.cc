/**
 * @file
 * Barrier / seed-exchange stress tests, sized to provoke races.
 *
 * These run in the ordinary suite as functional tests, but their
 * real job is the TSan CI leg (cmake --preset tsan): every
 * cross-thread handoff the fleet layer relies on is exercised here
 * with enough contention that a missing happens-before edge in
 * WorkerPool / the epoch barrier shows up as a
 * ThreadSanitizer report instead of a one-in-a-million corruption.
 *
 * The invariants under test (docs/static_analysis.md):
 *   - WorkerPool::wait() is a barrier: everything worker threads
 *     wrote before finishing their jobs is visible to the waiter,
 *     including plain (non-atomic) data.
 *   - submit() is safe from multiple threads concurrently, including
 *     while another thread is parked in wait().
 *   - A live FleetOrchestrator::run() (shard epochs on worker
 *     threads, barrier merges, seed exchange) is race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/fleet_config.hh"
#include "fleet/orchestrator.hh"
#include "fleet/worker_pool.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"

namespace turbofuzz::fleet
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
    return l;
}

/**
 * Epoch churn: each epoch submits one job per slot writing *plain*
 * uint64 slots plus a shared atomic counter; after wait() the main
 * thread reads every slot (and reuses them next epoch). A missing
 * release/acquire edge in the pool's barrier is a TSan hit; a lost
 * job is a value mismatch.
 */
TEST(BarrierStress, WorkerPoolEpochChurnPublishesPlainWrites)
{
    const unsigned threads = 8;
    const unsigned slots = 32;
    const unsigned epochs = 200;

    WorkerPool pool(threads);
    std::atomic<uint64_t> jobs{0};
    std::vector<uint64_t> plain(slots, 0); // non-atomic on purpose

    for (unsigned e = 1; e <= epochs; ++e) {
        for (unsigned s = 0; s < slots; ++s) {
            uint64_t *slot = &plain[s];
            pool.submit([slot, e, &jobs] {
                // Read-modify-write of the previous epoch's value:
                // also checks the main thread's inter-epoch writes
                // are visible to workers (submit is a release).
                *slot += e;
                jobs.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
        const uint64_t expect =
            static_cast<uint64_t>(e) * (e + 1) / 2;
        for (unsigned s = 0; s < slots; ++s)
            ASSERT_EQ(plain[s], expect) << "slot " << s
                                        << " epoch " << e;
    }
    EXPECT_EQ(jobs.load(), uint64_t{slots} * epochs);
}

/** Concurrent submitters + a waiter: the multi-producer pattern the
 *  distributed fleet (ROADMAP item 1) will lean on. */
TEST(BarrierStress, ConcurrentSubmittersSingleWaiter)
{
    const unsigned submitters = 6;
    const unsigned per_thread = 500;

    WorkerPool pool(4);
    std::atomic<uint64_t> done{0};

    std::vector<std::thread> producers;
    producers.reserve(submitters);
    for (unsigned t = 0; t < submitters; ++t) {
        producers.emplace_back([&pool, &done] {
            for (unsigned i = 0; i < per_thread; ++i)
                pool.submit([&done] {
                    done.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }
    for (std::thread &t : producers)
        t.join();
    pool.wait();
    EXPECT_EQ(done.load(), uint64_t{submitters} * per_thread);
}

/**
 * Regression: the fleet hands every shard thread the same library
 * through a const pointer, so const accessors must be genuinely
 * read-only. InstructionLibrary used to rebuild its active-set
 * lazily from pick()/contains()/active() under a mutable dirty
 * flag — two shards' first draws raced on the rebuild (found by
 * FleetRunWithLiveCounterMonitor under TSan). Rebuilds are now
 * eager in the constructor and mutators; this pins the fix by
 * hammering every const accessor from concurrent threads.
 */
TEST(BarrierStress, SharedInstructionLibraryConstReadsAreRaceFree)
{
    isa::InstructionLibrary shared = harness::makeDefaultLibrary();
    shared.setExtWeight(isa::Ext::M, 2.0); // mutate after construction
    const isa::InstructionLibrary &view = shared;

    const unsigned threads = 8;
    std::vector<std::thread> readers;
    readers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        readers.emplace_back([&view, t] {
            Rng rng(0x1000 + t);
            for (int i = 0; i < 2000; ++i) {
                const isa::Opcode op = view.pick(rng);
                ASSERT_TRUE(view.contains(op));
                ASSERT_GT(view.activeCount(), 0u);
            }
        });
    }
    for (auto &r : readers)
        r.join();
}

/**
 * A real fleet run — shard epochs on worker threads, barrier merges,
 * broadcast seed exchange — with many short epochs. This is the path
 * that stretches into the multi-process fleet; it must be TSan-clean
 * end to end.
 */
TEST(BarrierStress, FleetRunWithLiveCounterMonitor)
{
    FleetConfig fc;
    fc.fleetSeed = 99;
    fc.shardCount = 4;
    fc.budgetSec = 2.0;
    fc.epochSec = 0.25; // many barriers -> many exchanges
    fc.exchangeTopK = 2;

    harness::CampaignOptions co;
    co.timing = soc::turboFuzzProfile();
    fuzzer::FuzzerOptions fo;
    fo.instrsPerIteration = 500;

    FleetOrchestrator orch(fc, co, fo, &lib());
    const FleetResult result = orch.run();

    EXPECT_GT(result.totals.iterations, 0u);
    EXPECT_GT(result.seedsExchanged, 0u);
}

} // namespace
} // namespace turbofuzz::fleet
