/**
 * @file
 * End-to-end benchmark runner (perfbench/README.md).
 *
 * Runs one workload — `campaign`, `fleet` or `bughunt` — repeatedly
 * for a window of host time and writes every repetition's raw samples
 * to <run-dir>/raw.json: host-time spans measured around public calls
 * into the program, the simulated counters each repetition produced,
 * and (on traced repetitions) per-layer times from the benchmark's
 * own timers and the program's registry counters. run.py derives the
 * metrics, applies the correctness gate and prints the result; this
 * file only measures.
 *
 *   perfbench_runner --workload=campaign --seed=1 --seconds=20 \
 *                    --trace=0 --run-dir=DIR [--budget-scale=1]
 *
 * --trace=0 runs untraced repetitions only. --trace=1 alternates
 * untraced and traced repetitions (stage timing on, benchmark spans
 * recorded into a telemetry::TraceRecorder and written as
 * <run-dir>/trace.json), so the two can be compared for identical
 * simulated counters and for tracing overhead.
 */

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/fleet_config.hh"
#include "common/logging.hh"
#include "fleet/orchestrator.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"
#include "soc/snapshot.hh"
#include "telemetry/clock.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "triage/minimizer.hh"
#include "triage/replay.hh"
#include "triage/signature.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace turbofuzz;
using telemetry::nowNs;

namespace
{

// Workload sizes at --budget-scale=1 (simulated seconds). The
// README explains why each workload exists.
constexpr double campaignBudgetSec = 40.0;
constexpr double fleetBudgetSec = 6.0;
constexpr double fleetEpochSec = 0.5;
constexpr unsigned fleetShards = 8;
constexpr unsigned fleetWorkers = 4;
constexpr uint32_t fleetCheckpointEvery = 5;
constexpr double bugCapSec = 24.0;
constexpr uint32_t minimizeReplays = 256;
constexpr uint32_t instrsPerIteration = 4000;

/** Set-up-only samples taken before each repetition. */
constexpr int setupSamplesPerRep = 4;

/** Concurrent copies of a single-threaded workload per round. */
constexpr unsigned replicas = 4;

/** Offset from --seed to the held-out seed (README "Seeds"). */
constexpr uint64_t heldOutSeedOffset = 1000003;

/** Minimal ordered JSON object writer (values pre-rendered). */
class Json
{
  public:
    Json &
    integer(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }

    Json &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + telemetry::jsonEscape(v) + "\"");
    }

    Json &
    obj(const std::string &key, const Json &v)
    {
        return raw(key, v.render());
    }

    Json &
    raw(const std::string &key, std::string rendered)
    {
        rows.emplace_back(key, std::move(rendered));
        return *this;
    }

    std::string
    render() const
    {
        std::string out = "{";
        for (size_t i = 0; i < rows.size(); ++i) {
            out += i ? ", \"" : "\"";
            out += telemetry::jsonEscape(rows[i].first) + "\": ";
            out += rows[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> rows;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

/** Host CPU seconds (user + system) this process has used so far. */
double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Peak resident set size of this process so far, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Times @p fn, adds the duration to @p total_ns and, when @p rec is
 * set, records it as a span named @p name. Returns fn's result.
 */
template <typename Fn>
auto
timed(telemetry::TraceRecorder *rec, const char *name,
      uint64_t &total_ns, Fn &&fn)
{
    struct Guard
    {
        telemetry::TraceRecorder *rec;
        const char *name;
        uint64_t &total;
        uint64_t begin = nowNs();
        ~Guard()
        {
            const uint64_t end = nowNs();
            total += end - begin;
            if (rec)
                rec->recordSpan(name, begin, end);
        }
    } guard{rec, name, total_ns};
    return fn();
}

/**
 * StimulusGenerator decorator that times generate() and feedback() —
 * the fuzzer layer's share of a campaign — and records each call as a
 * span. Used on traced repetitions only; every other call forwards
 * unchanged, so the campaign behaves exactly as with the bare
 * generator.
 */
class TimedGenerator final : public fuzzer::StimulusGenerator
{
  public:
    TimedGenerator(std::unique_ptr<fuzzer::StimulusGenerator> inner,
                   telemetry::TraceRecorder *recorder)
        : gen(std::move(inner)), rec(recorder)
    {}

    fuzzer::IterationInfo
    generate(soc::Memory &mem) override
    {
        return timed(rec, "fuzzer.generate", generateNs,
                     [&] { return gen->generate(mem); });
    }

    void
    feedback(const fuzzer::IterationInfo &info,
             uint64_t cov_increment) override
    {
        timed(rec, "fuzzer.feedback", feedbackNs, [&] {
            gen->feedback(info, cov_increment);
            return 0;
        });
    }

    const fuzzer::MemoryLayout &layout() const override
    {
        return gen->layout();
    }
    bool usesExceptionTemplates() const override
    {
        return gen->usesExceptionTemplates();
    }
    std::string_view name() const override { return gen->name(); }
    void bindTelemetry(telemetry::MetricRegistry *reg) override
    {
        gen->bindTelemetry(reg);
    }
    size_t importSeeds(std::vector<fuzzer::Seed> seeds) override
    {
        return gen->importSeeds(std::move(seeds));
    }
    std::vector<fuzzer::Seed> exportTopSeeds(size_t k) const override
    {
        return gen->exportTopSeeds(k);
    }
    size_t
    importSharedSeeds(
        const std::vector<fuzzer::SeedShare> &shares) override
    {
        return gen->importSharedSeeds(shares);
    }
    std::vector<fuzzer::SeedShare>
    exportTopSharedSeeds(size_t k) override
    {
        return gen->exportTopSharedSeeds(k);
    }
    std::optional<fuzzer::ReplayEnv> replayEnv() const override
    {
        return gen->replayEnv();
    }
    bool checkpointSave(soc::SnapshotWriter &out) const override
    {
        return gen->checkpointSave(out);
    }
    bool checkpointLoad(soc::SnapshotReader &in,
                        std::string *error) override
    {
        return gen->checkpointLoad(in, error);
    }

    uint64_t generateNs = 0;
    uint64_t feedbackNs = 0;

  private:
    std::unique_ptr<fuzzer::StimulusGenerator> gen;
    telemetry::TraceRecorder *rec;
};

/** One repetition's raw samples. */
struct Rep
{
    bool traced = false;
    uint64_t wallNs = 0;    ///< whole repetition (setup included)
    uint64_t setupNs = 0;   ///< campaign/orchestrator construction
    uint64_t spannedNs = 0; ///< time inside benchmark-timed calls
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Json counters; ///< simulated results; must repeat exactly
    Json timings;  ///< other host-time samples (e.g. resume)
    Json layers;   ///< per-layer raw values (traced reps only)
    std::vector<double> iterationUs; ///< traced reps only

    std::string
    render() const
    {
        std::vector<std::string> us;
        us.reserve(iterationUs.size());
        for (double v : iterationUs) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f", v);
            us.emplace_back(buf);
        }
        Json j;
        j.integer("traced", traced ? 1 : 0)
            .integer("wall_ns", wallNs)
            .integer("setup_ns", setupNs)
            .integer("spanned_ns", spannedNs)
            .integer("attempted", attempted)
            .integer("failed", failed)
            .obj("counters", counters)
            .obj("timings", timings)
            .obj("layers", layers)
            .raw("iteration_us", jsonArray(us));
        return j.render();
    }
};

/** Registry counters the layer table reads, copied as raw values. */
void
copyRegistryCounters(const telemetry::MetricsSnapshot &snap, Json &out)
{
    static const char *const names[] = {
        "campaign.generate_ns",       "engine.batch.dut_ns",
        "engine.batch.ref_ns",        "engine.batch.diff_ns",
        "engine.batch.sweep_ns",      "engine.rewinds",
        "engine.decode_cache.hit",    "engine.decode_cache.miss",
        "engine.superblock.entered",  "engine.superblock.side_exit",
        "fleet.barrier_ns",           "fleet.barrier.exchange_ns",
        "fleet.barrier.merge_ns",     "fleet.barrier.reduce_ns",
        "fleet.barrier.io_overlap_ns", "fleet.checkpoints",
    };
    for (const char *name : names)
        out.integer(name, snap.counterValue(name));
}

/** Sums registry snapshots of several campaigns. */
telemetry::MetricsSnapshot
mergeAll(const std::vector<telemetry::MetricsSnapshot> &snaps)
{
    telemetry::MetricsSnapshot total;
    for (const auto &s : snaps) {
        std::string error;
        if (!total.merge(s, &error))
            fatal("registry merge failed: %s", error.c_str());
    }
    return total;
}

struct Params
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string runDir;
};

harness::CampaignOptions
campaignOptions(uint64_t seed, bool traced)
{
    harness::CampaignOptions c;
    c.timing = soc::turboFuzzProfile();
    c.checkMode = checker::DiffChecker::Mode::PerInstruction;
    c.seed = seed;
    c.stageTiming = traced;
    return c;
}

fuzzer::FuzzerOptions
fuzzerOptions(uint64_t seed)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    o.instrsPerIteration = instrsPerIteration;
    return o;
}

/** A campaign plus the decorator inside it (traced reps only). */
struct BuiltCampaign
{
    std::unique_ptr<harness::Campaign> campaign;
    TimedGenerator *timedGen = nullptr;
};

BuiltCampaign
buildCampaign(const harness::CampaignOptions &opts, uint64_t seed,
              const isa::InstructionLibrary &lib,
              telemetry::TraceRecorder *rec)
{
    std::unique_ptr<fuzzer::StimulusGenerator> gen =
        std::make_unique<fuzzer::TurboFuzzGenerator>(
            fuzzerOptions(seed), &lib);
    BuiltCampaign b;
    if (rec) {
        auto wrapped =
            std::make_unique<TimedGenerator>(std::move(gen), rec);
        b.timedGen = wrapped.get();
        gen = std::move(wrapped);
    }
    b.campaign =
        std::make_unique<harness::Campaign>(opts, std::move(gen));
    return b;
}

/**
 * Runs @p c until its simulated clock reaches @p budget_sec (or the
 * first mismatch when @p stop_on_mismatch), timing each
 * runIteration() on traced reps. Returns true on a mismatch.
 */
bool
drive(harness::Campaign &c, double budget_sec, bool stop_on_mismatch,
      telemetry::TraceRecorder *rec, Rep &rep)
{
    bool mismatch = false;
    while (c.nowSec() < budget_sec) {
        if (rec) {
            uint64_t ns = 0;
            mismatch = timed(rec, "harness.iteration", ns, [&] {
                           return c.runIteration();
                       }).mismatch;
            rep.spannedNs += ns;
            rep.iterationUs.push_back(static_cast<double>(ns) * 1e-3);
        } else {
            mismatch = c.runIteration().mismatch;
        }
        if (mismatch && stop_on_mismatch)
            break;
    }
    return mismatch;
}

// --- campaign --------------------------------------------------------

Rep
campaignRep(const Params &p, uint64_t seed,
            const isa::InstructionLibrary &lib,
            telemetry::TraceRecorder *rec)
{
    Rep rep;
    rep.traced = rec != nullptr;
    const uint64_t start = nowNs();
    const BuiltCampaign b =
        timed(rec, "harness.setup", rep.setupNs, [&] {
            return buildCampaign(campaignOptions(seed, rep.traced), seed,
                                 lib, rec);
        });
    harness::Campaign &c = *b.campaign;
    drive(c, campaignBudgetSec * p.scale, false, rec, rep);
    rep.wallNs = nowNs() - start;
    rep.spannedNs += rep.setupNs;

    rep.attempted = c.iterations();
    rep.failed = c.mismatchedIterations(); // clean core: none expected
    rep.counters.integer("iterations", c.iterations())
        .integer("commits", c.executedInstructions())
        .integer("generated", c.generatedInstructions())
        .integer("coverage", c.coverageMap().totalCovered())
        .integer("mismatches", c.mismatchedIterations())
        .num("sim_s", c.nowSec());
    if (rec) {
        rep.layers.integer("fuzzer.generate_ns", b.timedGen->generateNs)
            .integer("fuzzer.feedback_ns", b.timedGen->feedbackNs);
        copyRegistryCounters(c.metrics().snapshot(), rep.layers);
    }
    return rep;
}

uint64_t
campaignSetupNs(uint64_t seed, const isa::InstructionLibrary &lib)
{
    uint64_t ns = 0;
    timed(nullptr, "", ns, [&] {
        return buildCampaign(campaignOptions(seed, false), seed, lib,
                             nullptr);
    });
    return ns;
}

// --- fleet -----------------------------------------------------------

FleetConfig
fleetConfig(const Params &p, uint64_t seed, bool traced)
{
    FleetConfig fc;
    fc.fleetSeed = seed;
    fc.shardCount = fleetShards;
    fc.workerThreads = fleetWorkers;
    fc.epochSec = fleetEpochSec * p.scale;
    fc.budgetSec = fleetBudgetSec * p.scale;
    fc.checkpointEveryEpochs = fleetCheckpointEvery;
    fc.checkpointPath = p.runDir + "/fleet.ckpt";
    fc.stageTiming = traced;
    return fc;
}

std::unique_ptr<fleet::FleetOrchestrator>
buildFleet(const FleetConfig &fc, uint64_t seed,
           const isa::InstructionLibrary &lib)
{
    return std::make_unique<fleet::FleetOrchestrator>(
        fc, campaignOptions(seed, fc.stageTiming), fuzzerOptions(seed),
        &lib);
}

Rep
fleetRep(const Params &p, uint64_t seed,
         const isa::InstructionLibrary &lib,
         telemetry::TraceRecorder *rec)
{
    Rep rep;
    rep.traced = rec != nullptr;
    const FleetConfig fc = fleetConfig(p, seed, rep.traced);
    std::filesystem::remove(fc.checkpointPath);

    const uint64_t start = nowNs();
    auto orch = timed(rec, "fleet.setup", rep.setupNs,
                      [&] { return buildFleet(fc, seed, lib); });
    const double cpu0 = processCpuSec();
    uint64_t run_ns = 0;
    const fleet::FleetResult result =
        timed(rec, "fleet.run", run_ns, [&] { return orch->run(); });
    const double cpu_s = processCpuSec() - cpu0;
    orch.reset();
    rep.wallNs = nowNs() - start;
    rep.spannedNs = rep.setupNs + run_ns;

    // Resume: restore the last periodic checkpoint into a fresh
    // orchestrator and finish the budget; the combined run must equal
    // the uninterrupted one. Timed apart from the repetition.
    std::error_code ec;
    uint64_t ckpt_bytes =
        std::filesystem::file_size(fc.checkpointPath, ec);
    if (ec)
        ckpt_bytes = 0; // no checkpoint: the restore below fails
    uint64_t resume_ns = 0;
    std::string error;
    std::optional<soc::Snapshot> snap =
        timed(rec, "soc.load_checkpoint", resume_ns, [&] {
            return soc::Snapshot::tryLoadFile(fc.checkpointPath, &error);
        });
    FleetConfig resume_fc = fc;
    resume_fc.checkpointEveryEpochs = 0;
    auto resumed = buildFleet(resume_fc, seed, lib);
    const bool restored =
        snap && timed(rec, "fleet.restore_checkpoint", resume_ns, [&] {
            return resumed->restoreCheckpoint(*snap, &error);
        });
    snap.reset();
    bool resume_matches = false;
    if (restored) {
        const fleet::FleetResult tail = resumed->run();
        resume_matches =
            tail.mergedFinalCoverage == result.mergedFinalCoverage &&
            tail.totals.iterations == result.totals.iterations &&
            tail.totals.executedInstrs == result.totals.executedInstrs &&
            tail.seedsAdmitted == result.seedsAdmitted;
    } else {
        warn("fleet checkpoint failed to restore: %s", error.c_str());
    }
    resumed.reset();
    std::filesystem::remove(fc.checkpointPath);

    rep.attempted = result.totals.iterations + 1;
    rep.failed = result.totals.mismatches + (resume_matches ? 0 : 1);
    rep.counters.integer("iterations", result.totals.iterations)
        .integer("commits", result.totals.executedInstrs)
        .integer("coverage", result.mergedFinalCoverage)
        .integer("mismatches", result.totals.mismatches)
        .integer("seeds_exchanged", result.seedsExchanged)
        .integer("seeds_admitted", result.seedsAdmitted)
        .integer("epochs", result.epochs)
        .integer("checkpoints",
                 result.metrics.counterValue("fleet.checkpoints"))
        .integer("checkpoint_bytes", ckpt_bytes)
        .integer("resume_matches", resume_matches ? 1 : 0);
    rep.timings.integer("resume_ns", resume_ns)
        .integer("run_ns", run_ns)
        .num("cpu_s", cpu_s)
        .integer("workers", fleetWorkers);
    if (rec)
        copyRegistryCounters(result.metrics, rep.layers);
    return rep;
}

uint64_t
fleetSetupNs(const Params &p, uint64_t seed,
             const isa::InstructionLibrary &lib)
{
    uint64_t ns = 0;
    timed(nullptr, "", ns,
          [&] { return buildFleet(fleetConfig(p, seed, false), seed, lib); });
    return ns;
}

// --- bughunt ---------------------------------------------------------

harness::CampaignOptions
bugOptions(const core::BugInfo &bug, uint64_t seed, bool traced)
{
    harness::CampaignOptions opts = campaignOptions(seed, traced);
    opts.coreKind = bug.design;
    opts.bugs = core::BugSet::single(bug.id);
    opts.rv64aEnabled = bug.id != core::BugId::C8; // ships without A
    opts.stopOnMismatch = true;
    opts.maxReproducers = 1;
    return opts;
}

Rep
bughuntRep(const Params &p, uint64_t seed,
           const isa::InstructionLibrary &lib,
           telemetry::TraceRecorder *rec)
{
    Rep rep;
    rep.traced = rec != nullptr;
    const double cap = bugCapSec * p.scale;
    uint64_t detected = 0, confirmed = 0, iterations = 0, commits = 0,
             coverage = 0, replays = 0;
    double detect_sim_s = 0.0;
    uint64_t gen_ns = 0, fb_ns = 0, confirm_ns = 0, minimize_ns = 0,
             recheck_ns = 0;
    std::vector<telemetry::MetricsSnapshot> snaps;
    std::vector<std::string> bugs;

    const uint64_t start = nowNs();
    for (const core::BugInfo &bug : core::allBugs()) {
        const BuiltCampaign b =
            timed(rec, "harness.setup", rep.setupNs, [&] {
                return buildCampaign(bugOptions(bug, seed, rep.traced), seed,
                                     lib, rec);
            });
        harness::Campaign &c = *b.campaign;
        const bool hit = drive(c, cap, true, rec, rep);
        iterations += c.iterations();
        commits += c.executedInstructions();
        coverage += c.coverageMap().totalCovered();
        detect_sim_s += hit ? c.nowSec() : cap;
        if (rec) {
            gen_ns += b.timedGen->generateNs;
            fb_ns += b.timedGen->feedbackNs;
            snaps.push_back(c.metrics().snapshot());
        }

        Json row;
        row.str("bug", std::string(bug.label))
            .integer("detected", hit ? 1 : 0)
            .num("sim_s", c.nowSec())
            .integer("iterations", c.iterations());
        ++rep.attempted; // the hunt itself
        if (hit) {
            ++detected;
            rep.attempted += 2; // confirmation + minimized recheck
            if (c.reproducers().empty()) {
                rep.failed += 2;
                bugs.push_back(row.render());
                continue;
            }
            const triage::Reproducer &r = c.reproducers().front();
            const bool ok = timed(rec, "triage.confirm", confirm_ns, [&] {
                return triage::ReplayHarness::verifyDeterministic(r);
            });
            const triage::MinimizeResult red =
                timed(rec, "triage.minimize", minimize_ns, [&] {
                    return triage::Minimizer({minimizeReplays, true})
                        .minimize(r);
                });
            // The minimized stimulus must still replay to the bug's
            // original signature.
            const triage::BugSignature sig = triage::canonicalize(r);
            const bool same =
                timed(rec, "triage.recheck", recheck_ns, [&] {
                    const triage::ReplayResult out =
                        triage::ReplayHarness::replay(red.minimized);
                    return out.mismatched &&
                           triage::ReplayHarness::confirms(
                               red.minimized, out) &&
                           triage::canonicalize(red.minimized) == sig;
                });
            confirmed += ok ? 1 : 0;
            rep.failed += (ok ? 0 : 1) + (same && red.confirmed ? 0 : 1);
            replays += red.replays;
            row.str("signature", sig.key())
                .integer("minimized_instrs", red.minimizedInstrs)
                .integer("replays", red.replays);
        }
        bugs.push_back(row.render());
    }
    rep.wallNs = nowNs() - start;
    rep.spannedNs += rep.setupNs + confirm_ns + minimize_ns + recheck_ns;

    rep.counters.integer("bugs_detected", detected)
        .integer("bugs_confirmed", confirmed)
        .num("detect_sim_s", detect_sim_s)
        .integer("iterations", iterations)
        .integer("commits", commits)
        .integer("coverage", coverage)
        .integer("triage_replays", replays)
        .raw("bugs", jsonArray(bugs));
    if (rec) {
        rep.layers.integer("fuzzer.generate_ns", gen_ns)
            .integer("fuzzer.feedback_ns", fb_ns)
            .integer("triage.confirm_ns", confirm_ns)
            .integer("triage.minimize_ns", minimize_ns)
            .integer("triage.recheck_ns", recheck_ns);
        copyRegistryCounters(mergeAll(snaps), rep.layers);
    }
    return rep;
}

uint64_t
bughuntSetupNs(uint64_t seed, const isa::InstructionLibrary &lib)
{
    uint64_t ns = 0;
    for (const core::BugInfo &bug : core::allBugs()) {
        timed(nullptr, "", ns, [&] {
            return buildCampaign(bugOptions(bug, seed, false), seed, lib,
                                 nullptr);
        });
    }
    return ns;
}

// --- main ------------------------------------------------------------

Json
buildMeta(const Params &p)
{
    Json m;
#if defined(__clang__)
    m.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    m.str("compiler", std::string("gcc ") + __VERSION__);
#else
    m.str("compiler", "unknown");
#endif
#if defined(__OPTIMIZE__)
    m.integer("optimized", 1);
#else
    m.integer("optimized", 0);
#endif
    m.str("build_type", PERFBENCH_BUILD_TYPE)
        .integer("nproc", std::thread::hardware_concurrency())
        .str("workload", p.workload)
        .integer("seed", p.seed)
        .integer("held_out_seed", p.seed + heldOutSeedOffset)
        .num("budget_scale", p.scale);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    Params p;
    p.workload = cfg.getString("workload", "");
    p.seed = static_cast<uint64_t>(cfg.getInt("seed", 1));
    p.seconds = cfg.getDouble("seconds", 10.0);
    p.trace = cfg.getInt("trace", 0) != 0;
    p.scale = cfg.getDouble("budget-scale", 1.0);
    p.runDir = cfg.getString("run-dir", "");
    if (p.runDir.empty())
        fatal("--run-dir is required");
    if (!(p.scale > 0.0) || !(p.seconds >= 0.0))
        fatal("--budget-scale must be > 0 and --seconds >= 0");

    const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    using RepFn = Rep (*)(const Params &, uint64_t,
                          const isa::InstructionLibrary &,
                          telemetry::TraceRecorder *);
    RepFn rep_fn = nullptr;
    std::function<uint64_t()> setup_fn;
    if (p.workload == "campaign") {
        rep_fn = campaignRep;
        setup_fn = [&] { return campaignSetupNs(p.seed, lib); };
    } else if (p.workload == "fleet") {
        rep_fn = fleetRep;
        setup_fn = [&] { return fleetSetupNs(p, p.seed, lib); };
    } else if (p.workload == "bughunt") {
        rep_fn = bughuntRep;
        setup_fn = [&] { return bughuntSetupNs(p.seed, lib); };
    } else {
        fatal("unknown --workload '%s' (campaign|fleet|bughunt)",
              p.workload.c_str());
    }

    // Rounds until the next one would overrun the window (at least
    // two, so the determinism gate always compares); with --trace=1
    // untraced and traced rounds alternate. Round 0 runs the workload
    // once, alone, so the peak-memory reading is one workload's. Later
    // rounds of the single-threaded workloads run `replicas` identical
    // copies at once (README "Noise"). Each copy takes its set-up
    // samples first, so they see the conditions of the repetitions.
    const unsigned width = p.workload == "fleet" ? 1 : replicas;
    telemetry::TraceRecorder recorder;
    std::vector<std::string> setup, reps;
    double peak_rss_mb = 0.0;
    const uint64_t window_start = nowNs();
    uint64_t last_round_ns = 0;
    const auto room_left = [&] {
        return static_cast<double>(nowNs() - window_start +
                                   last_round_ns) * 1e-9 <=
               p.seconds;
    };
    for (size_t i = 0; i < 2 || room_left(); ++i) {
        const bool traced = p.trace && i % 2 == 1;
        const unsigned n = i == 0 ? 1 : width;
        std::vector<std::vector<uint64_t>> round_setup(n);
        std::vector<Rep> round(n);
        std::vector<std::exception_ptr> errors(n);
        const uint64_t round_start = nowNs();
        {
            std::vector<std::jthread> threads;
            for (unsigned k = 0; k < n; ++k) {
                threads.emplace_back([&, k] {
                    try {
                        for (int j = 0; j < setupSamplesPerRep; ++j)
                            round_setup[k].push_back(setup_fn());
                        round[k] = rep_fn(p, p.seed, lib,
                                          traced ? &recorder : nullptr);
                    } catch (...) {
                        errors[k] = std::current_exception();
                    }
                });
            }
        }
        last_round_ns = nowNs() - round_start;
        for (unsigned k = 0; k < n; ++k) {
            if (errors[k])
                std::rethrow_exception(errors[k]);
            for (uint64_t ns : round_setup[k])
                setup.push_back(std::to_string(ns));
            reps.push_back(round[k].render());
        }
        if (i == 0)
            peak_rss_mb = peakRssMb();
    }
    // The traced run also records the held-out seed's simulated
    // counters, untimed.
    std::string held_out = "null";
    if (p.trace) {
        held_out = rep_fn(p, p.seed + heldOutSeedOffset, lib, nullptr)
                       .render();
        std::string error;
        if (!recorder.writeFile(p.runDir + "/trace.json", &error))
            fatal("cannot write trace: %s", error.c_str());
    }

    Json doc;
    doc.obj("meta", buildMeta(p))
        .raw("setup_ns", jsonArray(setup))
        .raw("reps", jsonArray(reps))
        .raw("held_out", held_out)
        .num("peak_rss_mb", peak_rss_mb);

    const std::string path = p.runDir + "/raw.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    const std::string text = doc.render() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    if (std::fclose(f) != 0 || !ok)
        fatal("cannot write %s", path.c_str());
    return 0;
}
