/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the hot
 * primitives — LFSR stepping, instruction encode/decode, block
 * generation, mutation, coverage-index computation, ISS stepping and
 * full lockstep iterations.
 */

#include <benchmark/benchmark.h>

#include "common/lfsr.hh"
#include "coverage/coverage_map.hh"
#include "fuzzer/generator.hh"
#include "fuzzer/turbofuzzer.hh"
#include "harness/campaign.hh"
#include "isa/encoding.hh"
#include "rtl/cores.hh"
#include "rtl/driver.hh"
#include "triage/replay.hh"

using namespace turbofuzz;

namespace
{

void
BM_GaloisLfsrStep(benchmark::State &state)
{
    GaloisLfsr lfsr(64, 0xBEEF);
    for (auto _ : state)
        benchmark::DoNotOptimize(lfsr.step());
}
BENCHMARK(BM_GaloisLfsrStep);

void
BM_EncodeDecode(benchmark::State &state)
{
    isa::Operands o;
    o.rd = 10;
    o.rs1 = 11;
    o.rs2 = 12;
    uint32_t word = isa::encode(isa::Opcode::Add, o);
    for (auto _ : state) {
        benchmark::DoNotOptimize(isa::decode(word));
        word ^= 1u << 20; // vary rs2 field
        word ^= 1u << 20;
    }
}
BENCHMARK(BM_EncodeDecode);

void
BM_BlockGeneration(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    fuzzer::MemoryLayout layout;
    fuzzer::BlockBuilder builder(layout, &lib, fuzzer::GenProbs{});
    Rng rng(1);
    for (auto _ : state) {
        fuzzer::SeedBlock block;
        builder.buildRandomBlockInto(block, rng);
        benchmark::DoNotOptimize(block);
    }
}
BENCHMARK(BM_BlockGeneration);

void
BM_OperandMutation(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    fuzzer::MemoryLayout layout;
    fuzzer::BlockBuilder builder(layout, &lib, fuzzer::GenProbs{});
    Rng rng(1);
    fuzzer::SeedBlock block;
    builder.buildRandomBlockInto(block, rng);
    for (auto _ : state) {
        builder.mutateOperands(block, rng);
        benchmark::DoNotOptimize(block);
    }
}
BENCHMARK(BM_OperandMutation);

/**
 * One generation pipeline pass at the paper's 4,000 instructions:
 * generateIteration (blocks, fix-up, memory image) plus reportResult
 * (corpus feedback). Every fourth iteration reports a coverage gain,
 * so seeds are archived and the mutation modes run too.
 * items_per_second is generated instructions per host second.
 */
void
BM_GenerateIteration(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 4000;
    fuzzer::TurboFuzzer fz(fopts, &lib);
    soc::Memory mem;
    uint64_t generated = 0;
    for (auto _ : state) {
        const fuzzer::IterationInfo info = fz.generateIteration(mem);
        fz.reportResult(info, info.iterationIndex % 4 == 0 ? 1 : 0);
        generated += info.generatedInstrs;
    }
    state.SetItemsProcessed(static_cast<int64_t>(generated));
}
BENCHMARK(BM_GenerateIteration)->Unit(benchmark::kMicrosecond);

void
BM_CoverageIndex(benchmark::State &state)
{
    auto design = rtl::buildRocketLike();
    coverage::DesignInstrumentation instr(
        design.get(), coverage::Scheme::Optimized, 15, 1);
    for (auto _ : state) {
        uint64_t acc = 0;
        for (const auto &m : instr.modules())
            acc ^= m.computeIndex();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_CoverageIndex);

/**
 * The engine's sweep stage on its own: consecutive 64-commit
 * recordTrace() calls on one driver and one map (state carries from
 * sweep to sweep, as in a campaign) over DUT commits captured once
 * from a clean Rocket campaign. items_per_second reports swept
 * commits per host second.
 */
void
BM_CoverageSweep(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    static const std::vector<core::CommitInfo> commits = [] {
        std::vector<core::CommitInfo> out;
        harness::CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.commitObserver = [&out](const core::CommitInfo &ci) {
            out.push_back(ci);
        };
        fuzzer::FuzzerOptions fopts;
        fopts.instrsPerIteration = 1000;
        harness::Campaign campaign(
            opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                      fopts, &lib));
        while (out.size() < (size_t{1} << 16))
            campaign.runIteration();
        out.resize(out.size() / 64 * 64);
        return out;
    }();

    auto design = rtl::buildRocketLike();
    rtl::EventDriver drv(design.get());
    coverage::DesignInstrumentation instr(
        design.get(), coverage::Scheme::Optimized, 15, 1);
    coverage::CoverageMap map(&instr);
    size_t at = 0;
    uint64_t swept = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.recordTrace(drv, commits.data() + at, 64));
        at = (at + 64) % commits.size();
        swept += 64;
    }
    state.SetItemsProcessed(static_cast<int64_t>(swept));
}
BENCHMARK(BM_CoverageSweep);

void
BM_IssStep(benchmark::State &state)
{
    soc::Memory mem;
    // A small loop: addi x1, x1, 1 ; jal x0, -4.
    isa::Operands a;
    a.rd = 1;
    a.rs1 = 1;
    a.imm = 1;
    mem.write32(0x1000, isa::encode(isa::Opcode::Addi, a));
    isa::Operands j;
    j.rd = 0;
    j.imm = -4;
    mem.write32(0x1004, isa::encode(isa::Opcode::Jal, j));
    core::Iss::Options o;
    o.resetPc = 0x1000;
    core::Iss iss(&mem, o);
    for (auto _ : state)
        benchmark::DoNotOptimize(iss.step());
}
BENCHMARK(BM_IssStep);

/**
 * Decode-cache margin: per-step cost with steady-state hits (arg 1)
 * vs the cache disabled so every step pays a full isa::decode
 * (arg 0). A 256-instruction straight-line loop re-executed from the
 * same PCs, so the cached leg runs at ~100% hit rate after lap one.
 */
void
BM_DecodeCache(benchmark::State &state)
{
    soc::Memory mem;
    constexpr uint64_t pc0 = 0x1000;
    constexpr int n = 256;
    isa::Operands a;
    a.rd = 1;
    a.rs1 = 1;
    a.imm = 1;
    for (int i = 0; i < n; ++i)
        mem.write32(pc0 + 4 * i, isa::encode(isa::Opcode::Addi, a));
    isa::Operands j;
    j.rd = 0;
    j.imm = -4 * n;
    mem.write32(pc0 + 4 * n, isa::encode(isa::Opcode::Jal, j));
    core::Iss::Options o;
    o.resetPc = pc0;
    o.decodeCache = state.range(0) != 0;
    core::Iss iss(&mem, o);
    for (auto _ : state)
        benchmark::DoNotOptimize(iss.step());
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(iss.decodeCacheEnabled() ? "cache-hit"
                                            : "cold-decode");
}
BENCHMARK(BM_DecodeCache)->Arg(0)->Arg(1);

void
BM_FullIteration(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    auto opts = harness::CampaignOptions{};
    opts.timing = soc::turboFuzzProfile();
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    harness::Campaign campaign(
        opts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib));
    for (auto _ : state)
        benchmark::DoNotOptimize(campaign.runIteration());
}
BENCHMARK(BM_FullIteration)->Unit(benchmark::kMicrosecond);

/**
 * The acceptance benchmark of the batched execution engine: full
 * campaign iterations at a given engine batch size. items_per_second
 * reports committed instructions per host second — the engine
 * contract requires batch >= 64 to beat batch=1 (the classic
 * lockstep loop) by >= 1.3x while producing bit-identical results
 * (tests/engine/).
 */
void
BM_EngineIterationBatch(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    auto opts = harness::CampaignOptions{};
    opts.timing = soc::turboFuzzProfile();
    opts.batchSize = static_cast<uint64_t>(state.range(0));
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    harness::Campaign campaign(
        opts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib));
    uint64_t commits = 0;
    for (auto _ : state) {
        const harness::IterationResult r = campaign.runIteration();
        commits += r.executedTotal;
    }
    state.SetItemsProcessed(static_cast<int64_t>(commits));
}
BENCHMARK(BM_EngineIterationBatch)
    ->Arg(1)
    ->Arg(7)
    ->Arg(64)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/**
 * Per-stage engine time breakdown via the telemetry stage
 * instruments: full campaign iterations with stageTiming enabled, at
 * batch 1 (the classic lockstep loop) and batch 64 (the default).
 * The reported counters are the share of engine time each pipeline
 * stage consumed (dut/ref/diff/sweep, in percent) — the breakdown
 * behind the batching speedup: larger batches amortize per-batch
 * stage entry costs and shift time into the fused sweep.
 * items_per_second reports committed instructions per host second
 * *with timing on*, i.e. the stage-timing overhead is visible as the
 * gap to BM_EngineIterationBatch at the same batch size.
 */
void
BM_EngineStageBreakdown(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    auto opts = harness::CampaignOptions{};
    opts.timing = soc::turboFuzzProfile();
    opts.batchSize = static_cast<uint64_t>(state.range(0));
    opts.stageTiming = true;
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    harness::Campaign campaign(
        opts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib));
    uint64_t commits = 0;
    for (auto _ : state) {
        const harness::IterationResult r = campaign.runIteration();
        commits += r.executedTotal;
    }
    state.SetItemsProcessed(static_cast<int64_t>(commits));

    const telemetry::MetricsSnapshot snap =
        campaign.metrics().snapshot();
    const double dut =
        static_cast<double>(snap.counterValue("engine.batch.dut_ns"));
    const double ref =
        static_cast<double>(snap.counterValue("engine.batch.ref_ns"));
    const double diff = static_cast<double>(
        snap.counterValue("engine.batch.diff_ns"));
    const double sweep = static_cast<double>(
        snap.counterValue("engine.batch.sweep_ns"));
    const double total = dut + ref + diff + sweep;
    if (total > 0.0) {
        state.counters["dut_pct"] = 100.0 * dut / total;
        state.counters["ref_pct"] = 100.0 * ref / total;
        state.counters["diff_pct"] = 100.0 * diff / total;
        state.counters["sweep_pct"] = 100.0 * sweep / total;
    }
}
BENCHMARK(BM_EngineStageBreakdown)
    ->Arg(1)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/**
 * The acceptance benchmark of snapshot warm-start: full campaign
 * iterations with (arg=1) and without (arg=0) the post-preamble
 * snapshot restore. items_per_second reports committed instructions
 * per host second; warm start must beat cold start while producing
 * bit-identical campaign results (tests/engine/ warm equivalence
 * suite). The margin scales with the preamble share of the
 * iteration — the constant prefix is executed and lockstep-checked
 * on every cold iteration, and only swept on warm ones.
 */
void
BM_WarmStartIteration(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    auto opts = harness::CampaignOptions{};
    opts.timing = soc::turboFuzzProfile();
    opts.warmStart = state.range(0) != 0;
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    harness::Campaign campaign(
        opts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib));
    uint64_t commits = 0;
    for (auto _ : state) {
        const harness::IterationResult r = campaign.runIteration();
        commits += r.executedTotal;
    }
    state.SetItemsProcessed(static_cast<int64_t>(commits));
    state.SetLabel(opts.warmStart ? "warm" : "cold");
}
BENCHMARK(BM_WarmStartIteration)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/**
 * Provenance observer overhead (docs/provenance.md): full campaign
 * iterations at the default batch size (64) with first-hit
 * attribution off (arg=0) and on (arg=1). On the hot path
 * provenance costs one null-pointer test per newly-admitted
 * coverage point when off; when on it adds a ledger insert per
 * *first* hit plus a few forensics-ring pushes per iteration —
 * amortizing toward the pointer test as coverage saturates.
 * items_per_second reports committed instructions per host second;
 * bench_regress.py holds both arms within the 10% gate.
 */
void
BM_ProvenanceOverhead(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    auto opts = harness::CampaignOptions{};
    opts.timing = soc::turboFuzzProfile();
    opts.batchSize = 64;
    opts.provenance = state.range(0) != 0;
    fuzzer::FuzzerOptions fopts;
    fopts.instrsPerIteration = 1000;
    harness::Campaign campaign(
        opts,
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, &lib));
    uint64_t commits = 0;
    for (auto _ : state) {
        const harness::IterationResult r = campaign.runIteration();
        commits += r.executedTotal;
    }
    state.SetItemsProcessed(static_cast<int64_t>(commits));
    state.SetLabel(opts.provenance ? "provenance" : "baseline");
}
BENCHMARK(BM_ProvenanceOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/**
 * Warm-start on the triage replay path: cold ReplayHarness::replay
 * (full re-materialization + preamble re-execution per replay)
 * versus the warm ReplayHarness::Context the minimizer uses (base
 * image copy + post-prefix snapshot restore). Replay carries no
 * coverage/RTL hooks, so the preamble share — and the warm margin —
 * is larger than in full campaign iterations; this is the cost that
 * multiplies by ~130 ddmin replays per minimized bug.
 */
void
BM_WarmStartReplay(benchmark::State &state)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    static const triage::Reproducer repro = [] {
        harness::CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.coreKind = core::CoreKind::Cva6;
        opts.bugs = core::BugSet::single(core::BugId::C5);
        fuzzer::FuzzerOptions fopts;
        fopts.instrsPerIteration = 1000;
        harness::Campaign campaign(
            opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                      fopts, &lib));
        for (int i = 0; i < 5000 && campaign.reproducers().empty();
             ++i)
            campaign.runIteration();
        if (campaign.reproducers().empty())
            std::abort(); // C5 fires within the budget by construction
        return campaign.reproducers().front();
    }();

    const bool warm = state.range(0) != 0;
    const triage::ReplayHarness::Context ctx(repro);
    uint64_t commits = 0;
    for (auto _ : state) {
        const triage::ReplayResult r =
            warm ? ctx.replay(repro)
                 : triage::ReplayHarness::replay(repro);
        benchmark::DoNotOptimize(r.mismatched);
        commits += r.executed;
    }
    state.SetItemsProcessed(static_cast<int64_t>(commits));
    state.SetLabel(warm ? "warm" : "cold");
}
BENCHMARK(BM_WarmStartReplay)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
