#include "fuzzer/turbofuzzer.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "fuzzer/exception_templates.hh"
#include "isa/csr.hh"
#include "isa/encoding.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{

using isa::Opcode;
using isa::Operands;

TurboFuzzer::TurboFuzzer(FuzzerOptions options,
                         const isa::InstructionLibrary *library)
    : opts(options), lib(library),
      builder(options.layout, library, options.genProbs),
      seedCorpus(options.corpusCapacity, options.scheduling),
      sched(MutationScheduler::make(
          options.scheduler, options.mutGenSixteenths,
          options.mutDelSixteenths, options.corpusPrioritize)),
      ctx(options.layout), rng(options.seed)
{
    TF_ASSERT(opts.instrsPerIteration >= 8,
              "iteration size too small");
}

std::vector<SeedBlock>
TurboFuzzer::chooseBlocks(IterationInfo &info)
{
    std::vector<SeedBlock> blocks;
    blocks.reserve(lastBlockCount + lastBlockCount / 8 + 8);
    info.parentSeedId = 0;

    // Seed selection with per-seed energy: a seed with residual
    // energy is reused without consuming selection randomness; the
    // static policy always assigns energy 1, reproducing the
    // historical select-every-iteration RNG stream bit-exactly.
    const Seed *selected = nullptr;
    if (seedCorpus.size() > 0) {
        if (stickyEnergy > 0)
            selected = seedCorpus.findSeed(stickySeedId);
        if (!selected) {
            selected =
                seedCorpus.trySelect(rng, sched->prioritizeProb());
            if (selected) {
                stickySeedId = selected->id;
                stickyEnergy =
                    sched->seedEnergy(selected->coverageIncrement);
            }
        }
        if (stickyEnergy > 0)
            --stickyEnergy;
    }
    const Seed *seed = nullptr;
    if (selected && !selected->blocks.empty()) {
        seed = selected;
        info.parentSeedId = selected->id;
    }

    uint64_t emitted = 0;
    size_t cursor = 0;
    while (emitted < opts.instrsPerIteration) {
        const bool mutate =
            seed != nullptr &&
            rng.chance(opts.mutationMode.num, opts.mutationMode.den);
        if (mutate) {
            switch (sched->pickOp(rng)) {
              case MutOp::Generate:
                // Generation: insert a fresh random block here.
                ++info.opGenerate;
                builder.buildRandomBlockInto(blocks.emplace_back(), rng);
                break;
              case MutOp::Delete:
                // Deletion: skip the seed block (elimination flag).
                ++info.opDelete;
                cursor = (cursor + 1) % seed->blocks.size();
                continue;
              case MutOp::Retain: {
                ++info.opRetain;
                // Retention: keep the block, optionally mutating the
                // prime's operands; original jump target preserved
                // for the fix-up pass to validate.
                SeedBlock kept = seed->blocks[cursor];
                cursor = (cursor + 1) % seed->blocks.size();
                if (rng.chance(opts.retainMutate.num,
                               opts.retainMutate.den)) {
                    builder.mutateOperands(kept, rng);
                }
                blocks.push_back(std::move(kept));
                break;
              }
            }
        } else {
            builder.buildRandomBlockInto(blocks.emplace_back(), rng);
            if (seed)
                cursor = (cursor + 1) % seed->blocks.size();
        }
        blocks.back().position =
            static_cast<uint32_t>(blocks.size() - 1);
        emitted += blocks.back().instrCount();
    }
    return blocks;
}

void
TurboFuzzer::fixupControlFlow(std::vector<SeedBlock> &blocks,
                              std::span<const uint64_t> block_addrs)
{
    const auto nblocks = static_cast<int64_t>(blocks.size());
    for (int64_t i = 0; i < nblocks; ++i) {
        SeedBlock &b = blocks[i];
        if (!b.isControlFlow)
            continue;

        // Jump-target selection against the global address table.
        int64_t target = -1;
        if (b.targetBlock >= 0 && b.targetBlock < nblocks &&
            b.targetBlock != i) {
            // Retained block whose target still exists: preserve it.
            target = b.targetBlock;
        } else if (opts.controlFlowOpt) {
            // Range-limited targets, biased forward so loops stay
            // the exception rather than the rule.
            const bool backward =
                i > 0 && rng.chance(opts.backwardJump.num,
                                    opts.backwardJump.den);
            int64_t lo, hi;
            if (backward) {
                lo = std::max<int64_t>(0, i - opts.jumpRangeBlocks);
                hi = i - 1;
            } else {
                lo = std::min<int64_t>(nblocks - 1, i + 1);
                hi = std::min<int64_t>(nblocks - 1,
                                       i + opts.jumpRangeBlocks);
            }
            target = lo + static_cast<int64_t>(
                              rng.range(static_cast<uint64_t>(
                                  hi - lo + 1)));
            if (target == i)
                target = (i + 1 < nblocks) ? i + 1 : std::max<int64_t>(
                                                         0, i - 1);
        } else {
            // Unconstrained forward jumps: uniform over [i+1, L-1]
            // (the eq. 1 regime responsible for instruction skipping).
            if (i + 1 >= nblocks)
                target = i; // degenerate tail: self keeps decode legal
            else
                target = i + 1 +
                         static_cast<int64_t>(rng.range(
                             static_cast<uint64_t>(nblocks - 1 - i)));
        }
        patchBlockTarget(b, i, target, block_addrs);
    }
}

std::vector<uint32_t>
TurboFuzzer::warmPrefixCode(const ReplayEnv &env)
{
    const MemoryLayout &lay = env.layout;

    // Constant prefix: x31 = dataBase; mtvec = handler; bootstrap
    // boilerplate. None of these instructions loads or stores memory,
    // so their execution — and therefore the post-prefix
    // architectural state — is a pure function of the environment.
    // This is the property the warm-start capture relies on; the
    // data-dependent FP loads live in preambleCode()'s tail instead.
    std::vector<uint32_t> prefix;
    {
        Operands o;
        o.rd = MemoryLayout::regDataBase;
        o.imm = static_cast<int64_t>(lay.dataBase >> 12);
        prefix.push_back(isa::encode(Opcode::Lui, o));
        Operands h;
        h.rd = MemoryLayout::regScratch;
        h.imm = static_cast<int64_t>(lay.handlerBase >> 12);
        prefix.push_back(isa::encode(Opcode::Lui, h));
        Operands w;
        w.rd = 0;
        w.rs1 = MemoryLayout::regScratch;
        w.csr = isa::csr::mtvec;
        prefix.push_back(isa::encode(Opcode::Csrrw, w));
    }
    // Bootstrap boilerplate (software-flow register/CSR init model):
    // lui/addi pairs materializing values into every register, padded
    // with context churn, executed before the fuzzing region. The
    // routine is NON-randomized (identical every iteration), like the
    // setup code the paper describes — it contributes coverage once
    // and then only costs execution time.
    if (env.bootstrapInstrs > 0) {
        Rng boot_rng(hashLabel("bootstrap") ^ env.fuzzerSeed);
        for (uint32_t i = 0; i < env.bootstrapInstrs; ++i) {
            Operands o;
            o.rd = static_cast<uint8_t>(1 + (i % 28));
            if (i % 2 == 0) {
                o.imm = static_cast<int64_t>(boot_rng.range(1 << 20));
                prefix.push_back(isa::encode(Opcode::Lui, o));
            } else {
                o.rs1 = o.rd;
                o.imm = static_cast<int64_t>(boot_rng.range(4096)) -
                        2048;
                prefix.push_back(isa::encode(Opcode::Addi, o));
            }
        }
    }
    return prefix;
}

std::vector<uint32_t>
TurboFuzzer::preambleCode(const ReplayEnv &env)
{
    // Constant prefix first, then the FP register file seeded from
    // the iteration's LFSR data (so FP operand classes vary per
    // iteration instead of starting at all-zero). The FP loads come
    // LAST: their loaded values depend on the per-iteration data
    // fill, so they are the part of the preamble warm-started
    // iterations still execute live.
    std::vector<uint32_t> preamble = warmPrefixCode(env);
    for (unsigned f = 0; f < 32; ++f) {
        Operands ld;
        ld.rd = static_cast<uint8_t>(f);
        ld.rs1 = MemoryLayout::regDataBase;
        ld.imm = static_cast<int64_t>(8 * f);
        preamble.push_back(isa::encode(Opcode::Fld, ld));
    }
    return preamble;
}

void
TurboFuzzer::fillDataSegment(const ReplayEnv &env,
                             uint64_t iteration_index,
                             soc::Memory &mem)
{
    const MemoryLayout &lay = env.layout;

    // Data segment fill from a uniquely-seeded LFSR (§IV-C), salted
    // with special FP values (zeros, infinities, NaNs, denormals —
    // boxed single and double variants) so that FP corner-operand
    // combinations are reachable. Purely random 64-bit patterns
    // essentially never decode to +-0.0 or inf.
    static constexpr uint64_t fpSpecials[] = {
        0x0000000000000000ull,         // +0.0
        0x8000000000000000ull,         // -0.0
        0x7FF0000000000000ull,         // +inf
        0xFFF0000000000000ull,         // -inf
        0x7FF8000000000000ull,         // qNaN
        0x0000000000000001ull,         // smallest denormal
        0x3FF0000000000000ull,         // 1.0
        0xFFFFFFFF00000000ull,         // boxed +0.0f
        0xFFFFFFFF80000000ull,         // boxed -0.0f
        0xFFFFFFFF7F800000ull,         // boxed +inf f
        0xFFFFFFFFFF800000ull,         // boxed -inf f
        0xFFFFFFFF7FC00000ull,         // boxed qNaN f
        0xFFFFFFFF00000001ull,         // boxed denormal f
        0xFFFFFFFF3F800000ull,         // boxed 1.0f
        0x7FEFFFFFFFFFFFFFull,         // DBL_MAX
        0xFFFFFFFF7F7FFFFFull,         // boxed FLT_MAX
    };
    FibonacciLfsr lfsr(64, env.fuzzerSeed ^ (iteration_index + 1));
    for (uint64_t off = 0; off < lay.dataSize; off += 8) {
        uint64_t word = lfsr.stepBits(64);
        if ((word & 0x7) == 0) { // ~1/8 of words carry a special
            word = fpSpecials[(word >> 3) %
                              (sizeof(fpSpecials) / 8)];
        }
        mem.write64(lay.dataBase + off, word);
    }
}

uint64_t
TurboFuzzer::materializeIteration(const ReplayEnv &env,
                                  const IterationInfo &info,
                                  soc::Memory &mem)
{
    return materializeIteration(env, info, mem, preambleCode(env));
}

uint64_t
TurboFuzzer::materializeIteration(const ReplayEnv &env,
                                  const IterationInfo &info,
                                  soc::Memory &mem,
                                  const std::vector<uint32_t> &preamble)
{
    ExceptionTemplates::install(mem, env.layout);
    fillDataSegment(env, info.iterationIndex, mem);

    TF_ASSERT(env.layout.instrBase + 4ull * preamble.size() ==
                  info.firstBlockPc,
              "preamble does not match the iteration's layout");

    // Preamble and blocks are one contiguous run of words: stage them
    // through a stack buffer and commit it a page-sized piece at a
    // time (same bytes as per-word write32, far fewer epoch bumps).
    std::array<uint32_t, soc::Memory::pageSize / 4> staged;
    size_t fill = 0;
    uint64_t addr = env.layout.instrBase;
    auto stage = [&](std::span<const uint32_t> words) {
        while (!words.empty()) {
            const size_t n = std::min(words.size(), staged.size() - fill);
            std::copy_n(words.begin(), n, staged.begin() + fill);
            fill += n;
            words = words.subspan(n);
            if (fill == staged.size()) {
                mem.writeWords(addr, staged.data(), fill);
                addr += 4ull * fill;
                fill = 0;
            }
        }
    };
    stage(preamble);
    for (const SeedBlock &b : info.blocks)
        stage({b.insns.data(), b.insns.size()});
    mem.writeWords(addr, staged.data(), fill);
    return addr + 4ull * fill;
}

IterationInfo
TurboFuzzer::generateIteration(soc::Memory &mem)
{
    const MemoryLayout &lay = opts.layout;
    const ReplayEnv env = replayEnv();
    ctx.beginIteration();
    iterArena.reset();

    IterationInfo info;
    info.iterationIndex = iterCounter++;
    info.entryPc = lay.instrBase;

    // 1. The iteration preamble (deterministic in the environment)
    //    fixes where the fuzzing region starts.
    if (!preambleCached) {
        cachedPreamble = preambleCode(env);
        preambleCached = true;
    }
    const std::vector<uint32_t> &preamble = cachedPreamble;
    const size_t preamble_len = preamble.size();
    uint64_t addr = lay.instrBase + 4ull * preamble_len;
    info.firstBlockPc = addr;

    // 2. Choose the iteration's blocks (direct + mutation modes).
    info.blocks = chooseBlocks(info);
    lastBlockCount = info.blocks.size();

    // 3. Lay out blocks, recording the global address table
    //    (iteration-lifetime scratch: arena storage).
    uint64_t *block_addrs =
        iterArena.allocN<uint64_t>(info.blocks.size());
    size_t naddrs = 0;
    for (SeedBlock &b : info.blocks) {
        if (!ctx.hasRoom(b.instrCount() +
                         static_cast<uint32_t>(preamble_len))) {
            warn("instruction segment full; truncating iteration");
            info.blocks.resize(naddrs);
            break;
        }
        block_addrs[naddrs++] = addr;
        ctx.recordBlock(addr, b.instrCount());
        addr += 4ull * b.instrCount();
        info.generatedInstrs += b.instrCount();
    }

    // 4. Control-flow fix-up + operand rebinding.
    fixupControlFlow(info.blocks, {block_addrs, naddrs});

    // 5. Commit the complete memory image (templates, data fill,
    //    preamble, blocks) through the same path replay uses.
    const uint64_t boundary =
        materializeIteration(env, info, mem, preamble);
    ctx.finalize();
    info.codeBoundary = ctx.codeBoundary();
    TF_ASSERT(info.blocks.empty() || boundary == info.codeBoundary,
              "materialized image disagrees with layout context");
    return info;
}

void
TurboFuzzer::reportResult(const IterationInfo &info,
                          uint64_t cov_increment)
{
    // Scheduling feedback: the coverage profit of the operators this
    // iteration used (bandit arm statistics; no-op for Static).
    sched->reportIteration(cov_increment);

    // Mutation-mode feedback: refresh the parent's increment.
    if (info.parentSeedId != 0)
        seedCorpus.updateIncrement(info.parentSeedId, cov_increment);

    // Generation-mode admission: archive the iteration as a seed,
    // with its genealogy (docs/provenance.md). The fields are
    // observational — admission and selection never read them.
    Seed s;
    s.id = nextSeedId++;
    s.blocks = info.blocks;
    s.parentId = info.parentSeedId;
    s.originOp = info.dominantOp();
    s.energyAtCreation = sched->seedEnergy(cov_increment);
    if (info.parentSeedId != 0) {
        const Seed *parent = seedCorpus.findSeed(info.parentSeedId);
        s.lineageDepth = parent ? parent->lineageDepth + 1 : 1;
    }
    seedCorpus.offer(std::move(s), cov_increment);
}

void
TurboFuzzer::addSeed(Seed seed)
{
    seed.id = nextSeedId++;
    seedCorpus.addBaseline(std::move(seed));
}

size_t
TurboFuzzer::importSeeds(std::vector<Seed> seeds)
{
    return seedCorpus.importSeeds(std::move(seeds), nextSeedId);
}

std::vector<Seed>
TurboFuzzer::exportTopSeeds(size_t k) const
{
    return seedCorpus.exportTop(k);
}

size_t
TurboFuzzer::importSharedSeeds(const std::vector<SeedShare> &shares)
{
    return seedCorpus.importShared(shares, nextSeedId);
}

std::vector<SeedShare>
TurboFuzzer::exportTopSharedSeeds(size_t k)
{
    return seedCorpus.exportTopShared(k);
}

void
TurboFuzzer::saveState(soc::SnapshotWriter &out) const
{
    out.putU64(rng.rawState());
    out.putU64(iterCounter);
    out.putU64(nextSeedId);
    out.putU64(stickySeedId);
    out.putU32(stickyEnergy);
    seedCorpus.saveState(out);
    // Kind tag first: a checkpoint from a different --scheduler is
    // rejected with a diagnostic instead of misparsing policy state.
    out.putU8(static_cast<uint8_t>(opts.scheduler));
    sched->saveState(out);
}

bool
TurboFuzzer::loadState(soc::SnapshotReader &in, std::string *error)
{
    if (in.remaining() < 4 * 8 + 4) {
        if (error)
            *error = "truncated fuzzer state";
        return false;
    }
    rng.setRawState(in.getU64());
    iterCounter = in.getU64();
    nextSeedId = in.getU64();
    stickySeedId = in.getU64();
    stickyEnergy = in.getU32();
    if (!seedCorpus.loadState(in, error))
        return false;
    if (in.remaining() < 1 ||
        in.getU8() != static_cast<uint8_t>(opts.scheduler)) {
        if (error)
            *error = "scheduler kind mismatch (checkpoint from a "
                     "different --scheduler?)";
        return false;
    }
    return sched->loadState(in, error);
}

} // namespace turbofuzz::fuzzer
