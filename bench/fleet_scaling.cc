/**
 * @file
 * Fleet scaling bench: iterations/sec and merged coverage for
 * 1/2/4/8-shard fleets on the same per-shard simulated budget.
 *
 * This is the reproduction's stand-in for the paper's multi-board
 * scale-out claim: each shard models one FPGA running the full
 * on-fabric loop; the host merges coverage and exchanges top seeds
 * once per epoch. Expect merged coverage to grow with shard count
 * (diverse RNG streams explore different corners) while per-shard
 * iteration rate stays flat (shards never block each other inside an
 * epoch).
 *
 * Emits BENCH_fleet_scaling.json with one coverage trajectory per
 * fleet size plus the scalar throughput metrics.
 *
 * Host-parallel efficiency: shards-N-host-efficiency is
 * host1 * N / hostN — the host speedup over running the N shards'
 * work at serialized 1-shard cost. On an ideal N-core host the
 * shards overlap fully (hostN == host1) and the value approaches N;
 * on a single core the shards time-slice (hostN == N * host1) and
 * it sits near 1; it drops below the host's natural level when the
 * barrier path adds per-epoch host overhead that N independent runs
 * would not pay. CI gates this metric against the committed
 * baseline via tools/bench_regress.py --mode metrics — baseline and
 * current come from the same runner class and bench arguments, so a
 * barrier-path regression shows up as a relative drop rather than
 * hiding inside absolute wall-clock noise. The per-epoch
 * barrier-ns/merge-ns/exchange-ns series break such a drop down to
 * the barrier phase that caused it; the exchange-ns metric is the
 * registry's fleet.barrier.exchange_ns counter.
 */

#include "bench_util.hh"

#include <algorithm>

#include "common/fleet_config.hh"
#include "fleet/orchestrator.hh"

using namespace turbofuzz;
using namespace turbofuzz::bench;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const double budget = cfg.getDouble("budget", 20.0);
    const double epoch = cfg.getDouble("epoch", 2.0);
    const uint64_t seed =
        static_cast<uint64_t>(cfg.getInt("seed", 1));
    const int repeats = static_cast<int>(
        std::max<int64_t>(1, cfg.getInt("repeats", 1)));

    banner("Fleet scaling",
           "merged coverage and throughput vs shard count");

    const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    JsonResult json("fleet_scaling");
    json.meta("budget_sec", budget);
    json.meta("epoch_sec", epoch);
    json.meta("seed", static_cast<double>(seed));
    json.meta("repeats", static_cast<double>(repeats));

    TablePrinter table({"shards", "iters", "iters/sim-s",
                        "exec instr/sim-s", "merged cov",
                        "best shard cov", "host s", "host eff",
                        "barrier-ns", "merge-ns", "exchange-ns"});

    double host1 = 0.0; // 1-shard host-seconds (efficiency base)
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        FleetConfig fc;
        fc.fleetSeed = seed;
        fc.shardCount = shards;
        fc.epochSec = epoch;
        fc.budgetSec = budget;
        fc.exchangeTopK =
            static_cast<size_t>(cfg.getInt("top-k", 4));

        harness::CampaignOptions copts;
        copts.timing = soc::turboFuzzProfile();
        fuzzer::FuzzerOptions fopts;
        fopts.instrsPerIteration = static_cast<uint32_t>(
            cfg.getInt("instrs-per-iteration", 4000));

        // Fleet results are deterministic for a fixed config, so
        // every repeat yields identical coverage/throughput; only
        // host timing varies. Report the median-host-time repeat —
        // a single measurement window on a shared runner swings
        // ±20% under transient load, which would make the CI
        // efficiency gate flaky (CI runs --repeats=5).
        std::vector<fleet::FleetResult> runs;
        runs.reserve(static_cast<size_t>(repeats));
        for (int rep = 0; rep < repeats; ++rep) {
            fleet::FleetOrchestrator orch(fc, copts, fopts, &lib);
            runs.push_back(orch.run());
        }
        std::sort(runs.begin(), runs.end(),
                  [](const fleet::FleetResult &a,
                     const fleet::FleetResult &b) {
                      return a.hostSeconds < b.hostSeconds;
                  });
        const fleet::FleetResult &r = runs[runs.size() / 2];

        double best_shard = 0.0;
        for (const TimeSeries &s : r.shardCoverage)
            best_shard = std::max(best_shard, s.last());

        const double iter_rate =
            static_cast<double>(r.totals.iterations) / budget;
        const double exec_rate =
            static_cast<double>(r.totals.executedInstrs) / budget;

        if (shards == 1)
            host1 = r.hostSeconds;
        const double efficiency =
            r.hostSeconds > 0.0
                ? host1 * static_cast<double>(shards) /
                      r.hostSeconds
                : 0.0;

        // Per-epoch barrier timing: the series carry every epoch (x =
        // epoch deadline in simulated seconds, y = host nanoseconds);
        // the table shows the totals.
        uint64_t barrier_total = 0, merge_total = 0;
        TimeSeries barrier_series("barrier-ns");
        TimeSeries merge_series("merge-ns");
        TimeSeries exchange_series("exchange-ns");
        for (size_t e = 0; e < r.epochBarrierNs.size(); ++e) {
            const double t =
                fc.epochDeadline(static_cast<unsigned>(e));
            barrier_total += r.epochBarrierNs[e];
            barrier_series.record(
                t, static_cast<double>(r.epochBarrierNs[e]));
            if (e < r.epochMergeNs.size()) {
                merge_total += r.epochMergeNs[e];
                merge_series.record(
                    t, static_cast<double>(r.epochMergeNs[e]));
            }
            if (e < r.epochExchangeNs.size()) {
                exchange_series.record(
                    t, static_cast<double>(r.epochExchangeNs[e]));
            }
        }
        const uint64_t exchange_total =
            r.metrics.counterValue("fleet.barrier.exchange_ns");

        table.addRow({TablePrinter::integer(shards),
                      TablePrinter::integer(r.totals.iterations),
                      TablePrinter::num(iter_rate),
                      TablePrinter::num(exec_rate),
                      TablePrinter::integer(r.mergedFinalCoverage),
                      TablePrinter::num(best_shard, 0),
                      TablePrinter::num(r.hostSeconds, 3),
                      TablePrinter::num(efficiency, 3),
                      TablePrinter::integer(barrier_total),
                      TablePrinter::integer(merge_total),
                      TablePrinter::integer(exchange_total)});

        const std::string tag =
            "shards-" + std::to_string(shards);
        json.series(tag + "-coverage", r.mergedCoverage);
        json.series(tag + "-throughput", r.throughput);
        json.series(tag + "-barrier-ns", barrier_series);
        json.series(tag + "-merge-ns", merge_series);
        json.series(tag + "-exchange-ns", exchange_series);
        json.metric(tag + "-iters-per-sim-sec", iter_rate);
        json.metric(tag + "-exec-instr-per-sim-sec", exec_rate);
        json.metric(tag + "-merged-coverage",
                    static_cast<double>(r.mergedFinalCoverage));
        json.metric(tag + "-host-sec", r.hostSeconds);
        json.metric(tag + "-host-efficiency", efficiency);
        json.metric(tag + "-barrier-ns",
                    static_cast<double>(barrier_total));
        json.metric(tag + "-merge-ns",
                    static_cast<double>(merge_total));
        json.metric(tag + "-exchange-ns",
                    static_cast<double>(exchange_total));
    }

    table.print();
    json.write();
    return 0;
}
