/**
 * @file
 * Feedback-model A/B bench: coverage models and mutation schedulers
 * compared on the injected-bug catalog and on clean-core throughput.
 *
 * For every feedback model (mux | csr | edges | composite) the bench
 * runs one TurboFuzz campaign per catalog bug (stop on first
 * mismatch, simulated cap --hw-cap) and reports bugs found, mean
 * time-to-detection and host commits/sec; a clean-core campaign per
 * model/scheduler combination then reports the coverage each signal
 * reaches within --budget simulated seconds. The JSON lands in
 * BENCH_feedback_models.json for CI trend tracking.
 */

#include "bench_util.hh"

#include "fuzzer/generator.hh"
#include "telemetry/clock.hh"

using namespace turbofuzz;
using namespace turbofuzz::bench;

namespace
{

struct ModelRun
{
    coverage::CoverageModelKind kind;
    unsigned bugsFound = 0;
    double meanDetectSec = 0.0;
    double commitsPerSec = 0.0;
};

/** Run until the first mismatch; returns simulated seconds (or -1). */
double
timeToBug(harness::Campaign &campaign, double cap_sec)
{
    while (campaign.nowSec() < cap_sec) {
        const auto r = campaign.runIteration();
        if (r.mismatch)
            return campaign.nowSec();
    }
    return -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const uint64_t seed = static_cast<uint64_t>(cfg.getInt("seed", 1));
    const double hw_cap = cfg.getDouble("hw-cap", 15.0);
    const double budget = cfg.getDouble("budget", 4.0);

    banner("Feedback A/B",
           "Coverage models and schedulers on the bug catalog");

    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    JsonResult json("feedback_models");
    json.meta("seed", static_cast<double>(seed));
    json.meta("hw_cap_sec", hw_cap);
    json.meta("budget_sec", budget);

    const coverage::CoverageModelKind kinds[] = {
        coverage::CoverageModelKind::Mux,
        coverage::CoverageModelKind::Csr,
        coverage::CoverageModelKind::HitCount,
        coverage::CoverageModelKind::Composite,
    };

    // --- Part A: bug detection per model -----------------------------
    TablePrinter bug_table({"Model", "Bugs Found", "Bugs Total",
                            "Mean Detect (s)", "Commits/s (host)"});
    for (const auto kind : kinds) {
        ModelRun run{kind};
        double detect_sum = 0.0;
        const telemetry::WallClock clock;
        uint64_t commits = 0;
        for (const core::BugInfo &bug : core::allBugs()) {
            auto opts = turboFuzzCampaign(seed);
            opts.coreKind = bug.design;
            opts.bugs = core::BugSet::single(bug.id);
            opts.rv64aEnabled = bug.id != core::BugId::C8;
            opts.stopOnMismatch = true;
            opts.coverageModel = kind;
            harness::Campaign c(
                opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                          turboFuzzOptions(seed), &lib));
            const double t = timeToBug(c, hw_cap);
            commits += c.executedInstructions();
            if (t > 0) {
                ++run.bugsFound;
                detect_sum += t;
            }
        }
        const double host_sec = clock.elapsedSec();
        run.commitsPerSec =
            host_sec > 0.0 ? static_cast<double>(commits) / host_sec
                           : 0.0;
        run.meanDetectSec =
            run.bugsFound ? detect_sum / run.bugsFound : -1.0;

        const std::string name(coverage::coverageModelName(kind));
        bug_table.addRow(
            {name, TablePrinter::integer(run.bugsFound),
             TablePrinter::integer(core::allBugs().size()),
             run.bugsFound ? TablePrinter::num(run.meanDetectSec, 2)
                           : std::string("n/f"),
             TablePrinter::num(run.commitsPerSec, 0)});
        json.metric(name + "_bugs_found", run.bugsFound);
        json.metric(name + "_mean_detect_sec", run.meanDetectSec);
        json.metric(name + "_commits_per_sec", run.commitsPerSec);
    }
    bug_table.print();

    // --- Part B: clean-core coverage per model x scheduler -----------
    std::printf("\n");
    TablePrinter cov_table({"Model", "Scheduler", "Mux Coverage",
                            "Model Signal", "Iterations"});
    for (const auto kind : kinds) {
        for (const auto sched : {fuzzer::SchedulerKind::Static,
                                 fuzzer::SchedulerKind::Bandit}) {
            auto opts = turboFuzzCampaign(seed);
            opts.coverageModel = kind;
            auto fopts = turboFuzzOptions(seed);
            fopts.scheduler = sched;
            harness::Campaign c(
                opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                          fopts, &lib));
            c.run(budget);

            const std::string model(
                coverage::coverageModelName(kind));
            const std::string policy(
                fuzzer::schedulerKindName(sched));
            cov_table.addRow(
                {model, policy,
                 TablePrinter::integer(
                     c.coverageMap().totalCovered()),
                 TablePrinter::integer(c.feedbackModel().newlyHit()),
                 TablePrinter::integer(c.iterations())});
            json.metric(model + "_" + policy + "_mux_coverage",
                        static_cast<double>(
                            c.coverageMap().totalCovered()));
            json.metric(model + "_" + policy + "_signal",
                        static_cast<double>(
                            c.feedbackModel().newlyHit()));
        }
    }
    cov_table.print();

    std::printf("\nnote: mux is the paper's default feedback; csr "
                "(ProcessorFuzz-style) and edges (bucketed hit "
                "counts) reward behaviours mux coverage saturates "
                "on.\n");
    json.write();
    return 0;
}
