#include "engine/warm_start.hh"

#include "checker/diff_checker.hh"
#include "engine/execution_engine.hh"
#include "soc/memory.hh"

namespace turbofuzz::engine
{

bool
WarmStart::eligible(const IterationPolicy &policy) const
{
    // Cold start evaluates the stop policy after every prefix commit.
    // Clean-end cannot fire (prefix PCs precede the fuzzing region),
    // traps cannot fire (capture rejected trapping prefixes), so the
    // step cap is the single condition that could end an iteration
    // inside the prefix — in which case the caller must cold-start.
    return policy.stepCap > prefixTrace.size();
}

std::optional<WarmStart>
captureWarmStart(const WarmStartSpec &spec)
{
    const uint64_t n = spec.prefixCode.size();
    if (n == 0)
        return std::nullopt;

    // Sandboxed lockstep pair: the prefix performs no data accesses,
    // so a memory holding only the prefix words reproduces exactly
    // the execution a campaign iteration's prefix performs.
    soc::Memory dut_mem;
    for (uint64_t i = 0; i < n; ++i)
        dut_mem.write32(spec.entryPc + 4 * i, spec.prefixCode[i]);
    soc::Memory ref_mem = dut_mem;

    // The sandbox harts step the prefix once: a decode cache would
    // only be allocated, never reused (the cache is bit-identical on
    // and off, so the captured trace and state do not depend on it).
    core::Iss::Options dut_opts = spec.dutOpts;
    core::Iss::Options ref_opts = spec.refOpts;
    dut_opts.decodeCache = false;
    ref_opts.decodeCache = false;
    core::Iss dut(&dut_mem, dut_opts);
    core::Iss ref(&ref_mem, ref_opts);
    for (core::Iss *c : {&dut, &ref}) {
        for (const auto &[base, size] : spec.accessRanges)
            c->addAccessRange(base, size);
    }
    dut.reset(spec.entryPc);
    ref.reset(spec.entryPc);

    WarmStart ws;
    ws.entryPc = spec.entryPc;
    core::CommitTrace ref_trace;
    dut.stepMany(ws.prefixTrace, n,
                 [](const core::CommitInfo &) { return false; });
    ref.stepMany(ref_trace, n,
                 [](const core::CommitInfo &) { return false; });

    // The prefix must be provably constant per iteration: every
    // commit untrapped, in program order, falling through to its
    // successor, and performing no memory access. Anything else
    // (most plausibly an injected bug perturbing the prefix) makes
    // warm start unsound — callers fall back to cold start.
    for (uint64_t i = 0; i < n; ++i) {
        const core::CommitInfo &ci = ws.prefixTrace[i];
        if (ci.trapped || ci.memAccess ||
            ci.pc != spec.entryPc + 4 * i || ci.nextPc != ci.pc + 4)
            return std::nullopt;
    }

    // Differential check with the checker the campaign uses: if the
    // strictest (per-instruction) compare finds no divergence in the
    // constant prefix at capture time, no campaign iteration can
    // report one there either.
    checker::DiffChecker chk(checker::DiffChecker::Mode::PerInstruction);
    if (chk.compareTrace(ws.prefixTrace.data(), ref_trace.data(), n))
        return std::nullopt;

    ws.dutArch = dut.state();
    ws.refArch = ref.state();
    return ws;
}

} // namespace turbofuzz::engine
