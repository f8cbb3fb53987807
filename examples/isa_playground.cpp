/**
 * @file
 * ISA playground: configure the instruction library like the VIO
 * interface would, generate a few blocks in direct mode, disassemble
 * them, and execute them on the reference ISS.
 *
 * Usage: isa_playground [--seed=N] [--no-fp=true] [--blocks=8]
 */

#include <cstdio>

#include "common/config.hh"
#include "core/iss.hh"
#include "fuzzer/block_builder.hh"
#include "isa/disasm.hh"

using namespace turbofuzz;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const uint64_t seed = static_cast<uint64_t>(cfg.getInt("seed", 7));
    const int nblocks = static_cast<int>(cfg.getInt("blocks", 8));

    // VIO-style library configuration.
    isa::InstructionLibrary library;
    library.exclude(isa::Opcode::Mret);
    if (cfg.getBool("no-fp", false)) {
        library.setExtEnabled(isa::Ext::F, false);
        library.setExtEnabled(isa::Ext::D, false);
        std::printf("FP categories disabled (%zu opcodes active)\n\n",
                    library.activeCount());
    }

    fuzzer::MemoryLayout layout;
    fuzzer::BlockBuilder builder(layout, &library, fuzzer::GenProbs{});
    Rng rng(seed);

    // Generate and disassemble blocks.
    soc::Memory mem;
    uint64_t addr = layout.instrBase;
    std::printf("direct-mode instruction blocks:\n");
    for (int b = 0; b < nblocks; ++b) {
        fuzzer::SeedBlock block;
        builder.buildRandomBlockInto(block, rng);
        std::printf("block %d (%u instrs%s):\n", b, block.instrCount(),
                    block.isControlFlow ? ", control-flow" : "");
        for (size_t i = 0; i < block.insns.size(); ++i) {
            std::printf("  %08llx: %-30s%s\n",
                        static_cast<unsigned long long>(addr),
                        isa::disassemble(block.insns[i]).c_str(),
                        i == block.primeIdx ? "  <- prime" : "");
            mem.write32(addr, block.insns[i]);
            addr += 4;
        }
    }

    // Execute the straight-line stream on the reference ISS.
    core::Iss::Options opts;
    opts.resetPc = layout.instrBase;
    core::Iss hart(&mem, opts);
    hart.addAccessRange(layout.instrBase, layout.instrSize);
    hart.addAccessRange(layout.dataBase, layout.dataSize);

    std::printf("\nexecuting on the reference ISS:\n");
    const uint64_t end = addr;
    unsigned steps = 0, traps = 0;
    while (hart.state().pc < end && steps < 256) {
        const core::CommitInfo ci = hart.step();
        ++steps;
        if (ci.trapped) {
            ++traps;
            std::printf("  trap at %08llx (cause %llu) -> handler\n",
                        static_cast<unsigned long long>(ci.pc),
                        static_cast<unsigned long long>(ci.trapCause));
            break; // no handler installed in this demo
        }
    }
    std::printf("executed %u instructions (%u traps); final "
                "minstret = %llu\n",
                steps, traps,
                static_cast<unsigned long long>(
                    hart.state().minstret));
    return 0;
}
