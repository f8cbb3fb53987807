#include "harness/campaign.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fuzzer/exception_templates.hh"
#include "telemetry/clock.hh"

namespace turbofuzz::harness
{

namespace
{

/** Zero the words overlapping [from, to): [from & ~3, roundup4(to)). */
void
scrubRange(soc::Memory &mem, uint64_t from, uint64_t to)
{
    const uint64_t lo = from & ~uint64_t{3};
    mem.clearRange(lo, ((to + 3) & ~uint64_t{3}) - lo);
}

} // namespace

isa::InstructionLibrary
makeDefaultLibrary()
{
    isa::InstructionLibrary lib;
    lib.exclude(isa::Opcode::Mret);
    lib.setExtWeight(isa::Ext::System, 0.1);
    return lib;
}

Campaign::Campaign(CampaignOptions options,
                   std::unique_ptr<fuzzer::StimulusGenerator> generator)
    : opts(std::move(options)), gen(std::move(generator)),
      checker_(opts.checkMode)
{
    TF_ASSERT(gen != nullptr, "campaign requires a generator");

    core::Iss::Options dut_opts;
    dut_opts.bugs = opts.bugs;
    dut_opts.rv64aEnabled = opts.rv64aEnabled;
    dut_opts.resetPc = gen->layout().instrBase;
    dut_opts.decodeCache = opts.decodeCache;
    dutCore = std::make_unique<core::Iss>(&dutMem, dut_opts);

    core::Iss::Options ref_opts;
    ref_opts.rv64aEnabled = opts.rv64aEnabled;
    ref_opts.resetPc = gen->layout().instrBase;
    ref_opts.decodeCache = opts.decodeCache;
    refCore = std::make_unique<core::Iss>(&refMem, ref_opts);

    // Accessible ranges: instruction segment, data segment, handler.
    const fuzzer::MemoryLayout &lay = gen->layout();
    for (core::Iss *c : {dutCore.get(), refCore.get()}) {
        c->addAccessRange(lay.instrBase, lay.instrSize);
        c->addAccessRange(lay.dataBase, lay.dataSize);
        c->addAccessRange(lay.handlerBase, 4096);
    }

    // Fetch watches narrow decode-cache invalidation: only writes
    // into the code-bearing regions bump those regions' fetch
    // epochs, so the steady store traffic into the data segment
    // leaves cached decodes of instruction/handler words current.
    // (Code executed from anywhere else is guarded by the global
    // epoch, which every non-watch write bumps — always correct.)
    for (soc::Memory *m : {&dutMem, &refMem}) {
        m->addFetchWatch(lay.instrBase, lay.instrSize);
        m->addFetchWatch(lay.handlerBase, 4096);
    }

    design = rtl::buildCore(opts.coreKind);
    driver = std::make_unique<rtl::EventDriver>(design.get());
    instr = std::make_unique<coverage::DesignInstrumentation>(
        design.get(), opts.covScheme, opts.maxStateSize, opts.seed);
    covMap = std::make_unique<coverage::CoverageMap>(instr.get());

    // Pluggable feedback. The mux map is part of every configuration
    // (it is the reported metric and drives the RTL event model); a
    // weight-0 composite entry sweeps it without letting it into the
    // increment. Mux takes the raw map — the exact historical path.
    using coverage::CompositeFeedback;
    using coverage::CoverageModelKind;
    switch (opts.coverageModel) {
      case CoverageModelKind::Mux:
        feedback_ = covMap.get();
        break;
      case CoverageModelKind::Csr:
        csrModel_ = std::make_unique<coverage::CsrTransitionModel>();
        composite_ = std::make_unique<CompositeFeedback>(
            std::vector<CompositeFeedback::Part>{
                {covMap.get(), 0}, {csrModel_.get(), 1}});
        feedback_ = composite_.get();
        break;
      case CoverageModelKind::HitCount:
        hitModel_ = std::make_unique<coverage::HitCountModel>();
        composite_ = std::make_unique<CompositeFeedback>(
            std::vector<CompositeFeedback::Part>{
                {covMap.get(), 0}, {hitModel_.get(), 1}});
        feedback_ = composite_.get();
        break;
      case CoverageModelKind::Composite:
        csrModel_ = std::make_unique<coverage::CsrTransitionModel>();
        hitModel_ = std::make_unique<coverage::HitCountModel>();
        composite_ = std::make_unique<CompositeFeedback>(
            std::vector<CompositeFeedback::Part>{
                {covMap.get(), opts.feedbackWeightMux},
                {csrModel_.get(), opts.feedbackWeightCsr},
                {hitModel_.get(), opts.feedbackWeightHit}});
        feedback_ = composite_.get();
        break;
    }

    // Provenance: bind the first-hit ledger into the active feedback
    // model tree (a composite forwards to every part, so the mux map
    // and any auxiliary models all record into the one ledger). With
    // provenance off no model ever sees a ledger pointer.
    if (opts.provenance) {
        ledger_.setShard(opts.provenanceShard);
        feedback_->bindProvenance(&ledger_);
        forensics_ =
            telemetry::ForensicsRing(opts.forensicsCapacity);
    }

    plat = std::make_unique<soc::Platform>(opts.timing, &clock);

    engine_ = std::make_unique<engine::ExecutionEngine>(
        dutCore.get(), refCore.get(), &checker_, opts.batchSize);

    // Telemetry: resolve every instrument once (stable pointers into
    // the registry); the iteration loop then only does plain adds.
    // The generator forwards the registry to its corpus so scheduler
    // decisions are observable without polling.
    engineIns = telemetry::EngineInstruments::resolve(metrics_);
    fastPathIns = telemetry::FastPathInstruments::resolve(metrics_);
    mIterations = metrics_.counter("campaign.iterations");
    mCommits = metrics_.counter("campaign.commits");
    mTraps = metrics_.counter("campaign.traps");
    mMismatches = metrics_.counter("campaign.mismatches");
    mNewCoverage = metrics_.counter("campaign.new_coverage");
    mWarmIters = metrics_.counter("campaign.warm_iterations");
    mGenerateNs = metrics_.counter("campaign.generate_ns");
    mIterCommits = metrics_.histogram("campaign.iteration.commits");
    gen->bindTelemetry(&metrics_);

    // Warm start: capture the post-prefix lockstep snapshot once.
    // replayEnv() doubles as the layout contract — a generator that
    // provides it guarantees every iteration begins with
    // preambleCode(env) at instrBase, exactly what standalone replay
    // already relies on. Capture failure (a bug perturbing the
    // prefix) silently falls back to cold start, which is always
    // correct.
    if (opts.warmStart) {
        if (const auto env = gen->replayEnv()) {
            engine::WarmStartSpec spec;
            spec.dutOpts = dut_opts;
            spec.refOpts = ref_opts;
            spec.prefixCode = fuzzer::TurboFuzzer::warmPrefixCode(*env);
            spec.entryPc = lay.instrBase;
            spec.accessRanges = {{lay.instrBase, lay.instrSize},
                                 {lay.dataBase, lay.dataSize},
                                 {lay.handlerBase, 4096}};
            warm = engine::captureWarmStart(spec);
            warmFirstBlockPc =
                lay.instrBase +
                4ull * fuzzer::TurboFuzzer::preambleCode(*env).size();
        }
    }
}

IterationResult
Campaign::runIteration()
{
    const fuzzer::MemoryLayout &lay = gen->layout();
    IterationResult result;

    // Trace sampling is decided once per iteration so a sampled
    // iteration's spans form a complete stack; unsampled iterations
    // pass a null recorder everywhere (pointer-test cost only).
    telemetry::TraceRecorder *tr =
        (opts.trace && opts.trace->sampleIteration(iterCount))
            ? opts.trace
            : nullptr;
    telemetry::TraceSpan iterSpan(tr, "campaign.iteration");

    if (!startupCharged) {
        plat->chargeStartup();
        startupCharged = true;
    }

    // 1. Test generation (into the DUT memory), mirrored to the REF.
    fuzzer::IterationInfo info;
    {
        telemetry::ScopedStage stage(
            tr, opts.stageTiming ? mGenerateNs : nullptr,
            "fuzzer.generate");
        info = gen->generate(dutMem);
    }

    // Scrub residue the generation did not overwrite: tail bytes of
    // longer earlier iterations past this codeBoundary, stray stores
    // beyond it, and stores past the freshly reinstalled trap
    // handler. A fresh (all-zero) memory then reproduces this
    // iteration's image exactly, which is what lets a reproducer
    // replay standalone (see docs/triage.md).
    if (instrDirtyHigh > info.codeBoundary)
        scrubRange(dutMem, info.codeBoundary, instrDirtyHigh);
    instrDirtyHigh = info.codeBoundary;
    const uint64_t handler_code_end =
        lay.handlerBase +
        4ull * fuzzer::ExceptionTemplates::handlerLength();
    if (handlerDirtyHigh > handler_code_end)
        scrubRange(dutMem, handler_code_end, handlerDirtyHigh);
    handlerDirtyHigh = handler_code_end;

    refMem = dutMem;
    result.generated = info.generatedInstrs;

    // Provenance context: everything the feedback models record into
    // the ledger this iteration attributes to (iteration, parent
    // seed, dominant operator, sim time). simTimeSec and iteration
    // replay deterministically across checkpoint/resume; wallNs is
    // informational only (coverage/provenance.hh).
    if (opts.provenance) {
        ledger_.setContext(iterCount, info.parentSeedId,
                           info.dominantOp(), clock.seconds(),
                           telemetry::nowNs());
        telemetry::ForensicsEvent ev;
        ev.simTimeSec = clock.seconds();
        ev.iteration = iterCount;
        ev.kind = static_cast<uint8_t>(
            telemetry::ForensicsKind::SeedSelect);
        ev.a = info.parentSeedId;
        ev.b = info.dominantOp();
        ev.c = info.generatedInstrs;
        forensics_.push(ev);
        if (info.opGenerate + info.opDelete + info.opRetain > 0) {
            ev.kind = static_cast<uint8_t>(
                telemetry::ForensicsKind::SchedulerOp);
            ev.a = info.opGenerate;
            ev.b = info.opDelete;
            ev.c = info.opRetain;
            forensics_.push(ev);
        }
    }

    const uint64_t step_cap =
        static_cast<uint64_t>(opts.stepCapFactor *
                              static_cast<double>(
                                  info.generatedInstrs)) +
        opts.stepCapSlack;

    // 2. Iteration entry: warm-start by restoring the post-prefix
    //    snapshot (the engine installs the hart states), or cold
    //    reset both harts to the iteration entry. The layout guard
    //    re-checks per iteration that the generated code still
    //    matches the captured prefix contract.
    const bool use_warm =
        warm && info.entryPc == warm->entryPc &&
        info.firstBlockPc == warmFirstBlockPc &&
        step_cap > warm->prefixCommits();
    if (use_warm)
        ++warmIterCount;
    else {
        dutCore->reset(info.entryPc);
        refCore->reset(info.entryPc);
    }

    // 3. Batched pipeline execution: DUT batch -> REF batch -> batch
    //    diff -> coverage sweep (engine::ExecutionEngine). On a
    //    mismatch the engine leaves harts and memory in the exact
    //    state the per-commit lockstep loop would have stopped in.
    engine::IterationPolicy policy;
    policy.codeBoundary = info.codeBoundary;
    policy.handlerBase = lay.handlerBase;
    policy.fuzzRegionStart = info.firstBlockPc;
    policy.fuzzRegionEnd =
        info.fuzzRegionEnd ? info.fuzzRegionEnd : info.codeBoundary;
    policy.resumeTraps = gen->usesExceptionTemplates();
    policy.stepCap = step_cap;
    policy.trapStormLimit = opts.trapStormLimit;
    policy.instrBase = lay.instrBase;
    policy.instrSize = lay.instrSize;
    policy.handlerSize = 4096;

    engine::ExecutionEngine::Hooks hooks;
    hooks.driver = driver.get();
    hooks.coverage = feedback_;
    if (opts.commitObserver)
        hooks.observer = &opts.commitObserver;
    if (opts.stageTiming)
        hooks.instruments = &engineIns;
    hooks.fastpath = &fastPathIns;
    hooks.trace = tr;

    engine::IterationOutcome out;
    {
        telemetry::TraceSpan span(tr, "engine.iteration");
        out = engine_->runIteration(policy, hooks,
                                    use_warm ? &*warm : nullptr);
    }

    result.executedTotal = out.executedTotal;
    result.executedFuzz = out.executedFuzz;
    result.newCoverage = out.newCoverage;
    result.traps = out.traps;

    // Stores that dirtied memory outside the regions generation
    // rewrites feed the next iteration's scrub.
    instrDirtyHigh = std::max(instrDirtyHigh, out.instrDirtyHigh);
    handlerDirtyHigh =
        std::max(handlerDirtyHigh, out.handlerDirtyHigh);

    if (out.mismatch) {
        result.mismatch = true;
        if (!mismatchInfo) {
            mismatchInfo = *out.mismatch;
            snapshot = checker::captureMismatchSnapshot(
                *out.mismatch, *dutCore, *refCore, clock.seconds());
        }
        captureReproducer(*out.mismatch, info,
                          out.mismatchCommitIndex);
    }

    // Forensics: coverage delta, trap and mismatch markers; on a
    // captured mismatch the ring is dumped so the events leading up
    // to the divergence ride alongside the reproducer.
    if (opts.provenance) {
        telemetry::ForensicsEvent ev;
        ev.simTimeSec = clock.seconds();
        ev.iteration = iterCount;
        ev.kind = static_cast<uint8_t>(
            telemetry::ForensicsKind::CoverageDelta);
        ev.a = result.newCoverage;
        ev.b = feedback_->newlyHit();
        forensics_.push(ev);
        if (result.traps > 0) {
            ev.kind =
                static_cast<uint8_t>(telemetry::ForensicsKind::Trap);
            ev.a = result.traps;
            ev.b = ev.c = 0;
            forensics_.push(ev);
        }
        if (result.mismatch) {
            ev.kind = static_cast<uint8_t>(
                telemetry::ForensicsKind::Mismatch);
            ev.a = result.executedTotal;
            ev.b = ev.c = 0;
            forensics_.push(ev);
            if (forensicsDumps_.size() < opts.maxReproducers)
                forensicsDumps_.push_back(forensics_.toJson());
        }
    }

    // 5. Coverage feedback to the generator (corpus update).
    gen->feedback(info, result.newCoverage);

    // 6. Simulated-time accounting.
    plat->chargeIteration(result.generated, result.executedTotal);

    ++iterCount;
    executedTotal += result.executedTotal;
    executedFuzzTotal += result.executedFuzz;
    generatedTotal += result.generated;
    if (result.mismatch)
        ++mismatchCount;

    // 7. Metrics (plain adds; instruments resolved at construction).
    mIterations->add(1);
    mCommits->add(result.executedTotal);
    mTraps->add(result.traps);
    mNewCoverage->add(result.newCoverage);
    if (result.mismatch)
        mMismatches->add(1);
    if (use_warm)
        mWarmIters->add(1);
    mIterCommits->record(result.executedTotal);
    return result;
}

TimeSeries
Campaign::run(double budget_sec)
{
    TimeSeries series(std::string(gen->name()));
    runSlice(budget_sec, series);
    return series;
}

bool
Campaign::runSlice(double deadline_sec, TimeSeries &series)
{
    series.setDecimation(opts.sampleDecimation);
    while (clock.seconds() < deadline_sec) {
        const IterationResult r = runIteration();
        series.record(clock.seconds(),
                      static_cast<double>(covMap->totalCovered()));
        if (r.mismatch && opts.stopOnMismatch)
            return false;
    }
    return true;
}

size_t
Campaign::injectSeeds(std::vector<fuzzer::Seed> seeds)
{
    return gen->importSeeds(std::move(seeds));
}

size_t
Campaign::injectSharedSeeds(
    const std::vector<fuzzer::SeedShare> &shares)
{
    return gen->importSharedSeeds(shares);
}

void
Campaign::publishCoverageDelta(coverage::CoverageDelta &out)
{
    out.clear();
    covMap->publishDelta(out.mux);
    if (csrModel_)
        csrModel_->publishDelta(out.csr);
    if (hitModel_)
        hitModel_->publishDelta(out.edges);
    // Empty unless provenance is on — the ledger only fills when
    // bound into the models.
    ledger_.drainFreshHits(out.firstHits);
}

void
Campaign::captureReproducer(const checker::Mismatch &mm,
                            const fuzzer::IterationInfo &info,
                            uint64_t iteration_commit_index)
{
    if (repros.size() >= opts.maxReproducers)
        return;
    const auto env = gen->replayEnv();
    if (!env)
        return; // generator cannot re-materialize past iterations

    triage::Reproducer r;
    r.coreKind = opts.coreKind;
    r.bugsRaw = opts.bugs.raw();
    r.rv64aEnabled = opts.rv64aEnabled;
    r.checkMode = opts.checkMode;
    r.resumeTraps = gen->usesExceptionTemplates();
    r.stepCapFactor = opts.stepCapFactor;
    r.stepCapSlack = opts.stepCapSlack;
    r.trapStormLimit = opts.trapStormLimit;
    r.env = *env;
    r.iteration = info;
    r.mismatch = mm;
    r.commitIndex = iteration_commit_index;
    r.detectSimTimeSec = clock.seconds();
    repros.push_back(std::move(r));
}

double
Campaign::prevalence() const
{
    return executedTotal
               ? static_cast<double>(executedFuzzTotal) /
                     static_cast<double>(executedTotal)
               : 0.0;
}

namespace
{

// v2: auxiliary feedback-model states follow the mux coverage map.
// v3: telemetry metric state trails the generator blob (census-
//     validated on load; see telemetry::MetricRegistry::loadState).
// v4: provenance trailer last (census flag; ledger + forensics ring
//     + mismatch dumps when enabled), so a provenance-off campaign's
//     state stays a byte-level prefix match of a provenance-on one
//     up to the trailer.
constexpr uint32_t campaignStateVersion = 4;

} // namespace

bool
Campaign::saveState(soc::SnapshotWriter &out) const
{
    // Generator state first, into a scratch writer: a generator that
    // cannot checkpoint aborts the save before any bytes are
    // emitted, and the length prefix lets loadState() bound-check
    // the blob.
    soc::SnapshotWriter gen_state;
    if (!gen->checkpointSave(gen_state))
        return false;

    out.putU32(campaignStateVersion);
    out.putU64(clock.now());
    out.putU64(iterCount);
    out.putU64(executedTotal);
    out.putU64(executedFuzzTotal);
    out.putU64(generatedTotal);
    out.putU64(mismatchCount);
    out.putU8(startupCharged ? 1 : 0);
    out.putU64(instrDirtyHigh);
    out.putU64(handlerDirtyHigh);
    out.putU64(checker_.commitsChecked());

    dutCore->saveState(out);
    refCore->saveState(out);
    // Only the DUT memory is serialized: the REF memory is replaced
    // wholesale (refMem = dutMem) before the next iteration executes,
    // so its between-iteration contents are dead state. The DUT
    // memory must round-trip exactly — including page *residency* —
    // because future mismatch snapshots embed its resident pages.
    dutMem.saveState(out);
    driver->saveState(out);
    covMap->saveState(out);

    // Auxiliary feedback models, in fixed (csr, edges) order. The
    // census bitmask distinguishes the model *kinds*, so a csr-only
    // checkpoint cannot be misparsed by an edges-only campaign.
    out.putU8(coverage::auxModelCensus(csrModel_ != nullptr,
                                       hitModel_ != nullptr));
    if (csrModel_)
        csrModel_->saveState(out);
    if (hitModel_)
        hitModel_->saveState(out);

    out.putU8(mismatchInfo ? 1 : 0);
    if (mismatchInfo)
        checker::writeMismatch(out, *mismatchInfo);
    const std::vector<uint8_t> snap_image = snapshot.serialize();
    out.putU32(static_cast<uint32_t>(snap_image.size()));
    out.putBytes(snap_image.data(), snap_image.size());

    out.putU32(static_cast<uint32_t>(repros.size()));
    for (const triage::Reproducer &r : repros) {
        const std::vector<uint8_t> blob = r.serialize();
        out.putU32(static_cast<uint32_t>(blob.size()));
        out.putBytes(blob.data(), blob.size());
    }

    const std::vector<uint8_t> &gen_blob = gen_state.buffer();
    out.putU32(static_cast<uint32_t>(gen_blob.size()));
    out.putBytes(gen_blob.data(), gen_blob.size());

    // v3: metric state, so resumed campaigns report cumulative
    // counters rather than restarting the telemetry from zero.
    metrics_.saveState(out);

    // v4: provenance trailer. The census flag makes a checkpoint
    // from a provenance-on campaign unloadable by an off one (and
    // vice versa) with a typed error instead of a misparse.
    out.putU8(opts.provenance ? 1 : 0);
    if (opts.provenance) {
        ledger_.saveState(out);
        forensics_.saveState(out);
        out.putU32(static_cast<uint32_t>(forensicsDumps_.size()));
        for (const std::string &dump : forensicsDumps_)
            out.putString(dump);
    }
    return true;
}

bool
Campaign::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    TF_ASSERT(iterCount == 0,
              "campaign state can only be restored into a fresh "
              "campaign");

    try {
        if (in.remaining() < 4 + 9 * 8 + 2)
            return fail("truncated campaign state header");
        if (in.getU32() != campaignStateVersion)
            return fail("unsupported campaign state version");
        clock.restore(in.getU64());
        iterCount = in.getU64();
        executedTotal = in.getU64();
        executedFuzzTotal = in.getU64();
        generatedTotal = in.getU64();
        mismatchCount = in.getU64();
        startupCharged = in.getU8() != 0;
        instrDirtyHigh = in.getU64();
        handlerDirtyHigh = in.getU64();
        // The checker of a fresh campaign starts at zero; advancing
        // it reproduces the checkpointed commit counter so future
        // Mismatch::instrIndex values line up.
        checker_.skipCommits(in.getU64());

        dutCore->loadState(in);
        refCore->loadState(in);
        dutMem.loadState(in);
        refMem = dutMem;
        if (!driver->loadState(in, error))
            return false;
        if (!covMap->loadState(in, error))
            return false;

        const uint8_t aux_census = in.getU8();
        const uint8_t aux_expected = coverage::auxModelCensus(
            csrModel_ != nullptr, hitModel_ != nullptr);
        if (aux_census != aux_expected) {
            return fail("feedback model census mismatch (checkpoint "
                        "from a different --coverage-model?)");
        }
        if (csrModel_ && !csrModel_->loadState(in, error))
            return false;
        if (hitModel_ && !hitModel_->loadState(in, error))
            return false;

        mismatchInfo.reset();
        if (in.getU8() != 0) {
            checker::Mismatch mm{};
            if (!checker::readMismatch(in, mm, error))
                return false;
            mismatchInfo = mm;
        }
        const uint32_t snap_size = in.getU32();
        if (snap_size > in.remaining())
            return fail("mismatch snapshot size exceeds buffer");
        std::vector<uint8_t> snap_image(snap_size);
        in.getBytes(snap_image.data(), snap_size);
        std::string snap_error;
        auto snap = soc::Snapshot::tryDeserialize(snap_image,
                                                  &snap_error);
        if (!snap)
            return fail("embedded mismatch snapshot: " + snap_error);
        snapshot = std::move(*snap);

        repros.clear();
        const uint32_t repro_count = in.getU32();
        if (repro_count > opts.maxReproducers)
            return fail("reproducer count exceeds campaign limit");
        for (uint32_t i = 0; i < repro_count; ++i) {
            const uint32_t size = in.getU32();
            if (size > in.remaining())
                return fail("reproducer size exceeds buffer");
            std::vector<uint8_t> blob(size);
            in.getBytes(blob.data(), size);
            std::string repro_error;
            auto r = triage::Reproducer::tryDeserialize(blob,
                                                        &repro_error);
            if (!r)
                return fail("embedded reproducer: " + repro_error);
            repros.push_back(std::move(*r));
        }

        const uint32_t gen_size = in.getU32();
        if (gen_size > in.remaining())
            return fail("generator state size exceeds buffer");
        std::vector<uint8_t> gen_blob(gen_size);
        in.getBytes(gen_blob.data(), gen_size);
        soc::SnapshotReader gen_reader(gen_blob);
        if (!gen->checkpointLoad(gen_reader, error))
            return false;
        if (!gen_reader.exhausted())
            return fail("trailing bytes in generator state");

        if (!metrics_.loadState(in, error))
            return false;

        const uint8_t prov_census = in.getU8();
        if ((prov_census != 0) != opts.provenance) {
            return fail("provenance census mismatch (checkpoint "
                        "from a run with provenance toggled?)");
        }
        if (opts.provenance) {
            if (!ledger_.loadState(in, error))
                return false;
            if (!forensics_.loadState(in, error))
                return false;
            forensicsDumps_.clear();
            const uint32_t dumps = in.getU32();
            if (dumps > opts.maxReproducers)
                return fail("forensics dump count exceeds campaign "
                            "limit");
            for (uint32_t i = 0; i < dumps; ++i)
                forensicsDumps_.push_back(in.getString());
        }
        return true;
    } catch (const soc::SnapshotFormatError &e) {
        return fail(e.what());
    }
}

} // namespace turbofuzz::harness
