#include "baselines/cascade.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "isa/encoding.hh"

namespace turbofuzz::baselines
{

using fuzzer::IterationInfo;
using fuzzer::MemoryLayout;
using fuzzer::SeedBlock;
using isa::Opcode;
using isa::Operands;

namespace
{
/** Cascade emits fully valid programs: no traps by construction. */
fuzzer::GenProbs
cascadeProbs()
{
    fuzzer::GenProbs p;
    p.validRmOnly = true;
    // Control flow is inserted explicitly as the block chain.
    p.controlFlowShare = {0, 1};
    return p;
}

/** Cascade's own library view: no System primes (programs must
 *  terminate cleanly), but CSR accesses stay enabled — Cascade
 *  produces valid privileged interactions. */
isa::InstructionLibrary
cascadeLibrary(const isa::InstructionLibrary *base)
{
    isa::InstructionLibrary l = *base;
    l.setExtEnabled(isa::Ext::System, false);
    return l;
}
} // namespace

CascadeGenerator::CascadeGenerator(
    uint64_t seed, const isa::InstructionLibrary *library,
    uint32_t instrs_per_iter)
    : memLayout(), ownLib(cascadeLibrary(library)),
      builder(memLayout, &ownLib, cascadeProbs()),
      rng(seed ^ 0xCA5CADE), targetInstrs(instrs_per_iter)
{
}

IterationInfo
CascadeGenerator::generate(soc::Memory &mem)
{
    IterationInfo info;
    info.iterationIndex = iterCounter++;
    info.entryPc = memLayout.instrBase;

    // Data segment fill (programs load from it).
    Rng data_rng = rng.split("data");
    for (uint64_t off = 0; off < memLayout.dataSize; off += 8)
        mem.write64(memLayout.dataBase + off, data_rng.next());

    // Preamble: x31 = data base, then Cascade's per-program setup
    // routine (register initialization), which executes outside the
    // fuzzing region — the ~7% overhead behind its 0.93 prevalence.
    std::vector<uint32_t> preamble;
    {
        Operands o;
        o.rd = MemoryLayout::regDataBase;
        o.imm = static_cast<int64_t>(memLayout.dataBase >> 12);
        preamble.push_back(isa::encode(Opcode::Lui, o));
    }
    Rng init_rng = rng.split("init");
    for (unsigned r = 1; r <= 6; ++r) {
        Operands hi;
        hi.rd = static_cast<uint8_t>(r);
        hi.imm = static_cast<int64_t>(init_rng.range(1 << 20));
        preamble.push_back(isa::encode(Opcode::Lui, hi));
        Operands lo;
        lo.rd = static_cast<uint8_t>(r);
        lo.rs1 = static_cast<uint8_t>(r);
        lo.imm = static_cast<int64_t>(init_rng.range(4096)) - 2048;
        preamble.push_back(isa::encode(Opcode::Addi, lo));
    }

    // Build non-control-flow bodies: blocks of straight-line work.
    std::vector<SeedBlock> blocks;
    uint32_t emitted = 0;
    while (emitted + 2 < targetInstrs) {
        SeedBlock b;
        builder.buildRandomBlockInto(b, rng);
        if (b.isControlFlow)
            continue; // control flow is added as explicit chaining
        emitted += b.instrCount() + 1; // +1 for the chaining jump
        blocks.push_back(std::move(b));
    }

    // Shuffle memory order; logical order remains 0..N-1 via an
    // explicit permutation chain (intricate layout, guaranteed
    // termination — every block executes exactly once).
    std::vector<uint32_t> mem_order(blocks.size());
    std::iota(mem_order.begin(), mem_order.end(), 0);
    for (size_t i = mem_order.size(); i > 1; --i)
        std::swap(mem_order[i - 1], mem_order[rng.range(i)]);

    // Lay out blocks in shuffled memory order; each block gets one
    // extra jal slot for the chain to its logical successor. After
    // the last block comes the teardown routine (register dump),
    // excluded from the fuzzing region. One extra preamble slot is
    // reserved for the entry jump into logical block 0 (which may
    // sit anywhere in memory after the shuffle).
    const size_t entry_jump_idx = preamble.size();
    preamble.push_back(0); // patched below
    uint64_t addr = memLayout.instrBase + 4ull * preamble.size();
    info.firstBlockPc = addr;
    std::vector<uint64_t> base_of(blocks.size());
    for (uint32_t bi : mem_order) {
        base_of[bi] = addr;
        addr += 4ull * (blocks[bi].instrCount() + 1);
    }
    info.fuzzRegionEnd = addr;

    // Teardown: dump x1..x8 to the data segment (result comparison
    // happens on this dump in the real system). The dump base is
    // re-materialized since fuzzed code may clobber any register.
    std::vector<uint32_t> teardown;
    {
        Operands hi;
        hi.rd = MemoryLayout::regScratch;
        hi.imm = static_cast<int64_t>(memLayout.dataBase >> 12);
        teardown.push_back(isa::encode(Opcode::Lui, hi));
    }
    for (unsigned r = 1; r <= 8; ++r) {
        Operands s;
        s.rs1 = MemoryLayout::regScratch;
        s.rs2 = static_cast<uint8_t>(r);
        s.imm = static_cast<int64_t>(8 * r);
        teardown.push_back(isa::encode(Opcode::Sd, s));
    }
    const uint64_t teardown_base = addr;
    addr += 4ull * teardown.size();
    info.codeBoundary = addr;

    // Chain jumps: logical block i ends with jal x0 -> block i+1;
    // the last block jumps into the teardown routine.
    for (size_t i = 0; i < blocks.size(); ++i) {
        const uint64_t jump_addr =
            base_of[i] + 4ull * blocks[i].instrCount();
        const uint64_t target = (i + 1 < blocks.size())
                                    ? base_of[i + 1]
                                    : teardown_base;
        const int64_t delta = static_cast<int64_t>(target) -
                              static_cast<int64_t>(jump_addr);
        TF_ASSERT(delta >= -(1 << 20) && delta < (1 << 20),
                  "cascade chain jump out of range");
        Operands j;
        j.rd = 0;
        j.imm = delta;
        blocks[i].insns.push_back(isa::encode(Opcode::Jal, j));
        blocks[i].isControlFlow = true;
        blocks[i].targetBlock =
            (i + 1 < blocks.size()) ? static_cast<int32_t>(i + 1) : -1;
        blocks[i].position = static_cast<uint32_t>(i);
    }

    // Patch the entry jump to logical block 0.
    if (!blocks.empty()) {
        const uint64_t jump_pc =
            memLayout.instrBase + 4ull * entry_jump_idx;
        Operands j;
        j.rd = 0;
        j.imm = static_cast<int64_t>(base_of[0]) -
                static_cast<int64_t>(jump_pc);
        preamble[entry_jump_idx] = isa::encode(Opcode::Jal, j);
    }

    // Commit to memory.
    uint64_t p = memLayout.instrBase;
    for (uint32_t insn : preamble) {
        mem.write32(p, insn);
        p += 4;
    }
    uint64_t t = teardown_base;
    for (uint32_t insn : teardown) {
        mem.write32(t, insn);
        t += 4;
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
        uint64_t a = base_of[i];
        for (uint32_t insn : blocks[i].insns) {
            mem.write32(a, insn);
            a += 4;
        }
        info.generatedInstrs += blocks[i].instrCount();
    }
    info.blocks = std::move(blocks);
    return info;
}

} // namespace turbofuzz::baselines
