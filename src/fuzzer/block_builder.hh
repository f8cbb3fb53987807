/**
 * @file
 * Instruction-block construction (paper §IV-B).
 *
 * Direct mode: an LFSR selects a prime instruction from the
 * configurable instruction library and the builder bundles it with
 * the affiliated instructions its architectural constraints require
 * (address materialization for memory ops, alignment masking for
 * atomics, operand staging for indirect jumps), then the unified
 * operand-assignment step fills the bit fields with generated values.
 *
 * Mutation support: operand substitution and field-level bit flips on
 * a block's prime instruction, preserving the opcode so the result
 * stays architecturally valid (validated by re-decode).
 */

#ifndef TURBOFUZZ_FUZZER_BLOCK_BUILDER_HH
#define TURBOFUZZ_FUZZER_BLOCK_BUILDER_HH

#include <cstdint>
#include <span>

#include "common/config.hh"
#include "common/lfsr.hh"
#include "common/rng.hh"
#include "fuzzer/context.hh"
#include "fuzzer/seed.hh"
#include "isa/encoding.hh"
#include "isa/instruction_library.hh"

namespace turbofuzz::fuzzer
{

/** Tunable generation probabilities (paper defaults). */
struct GenProbs
{
    /** P(load reads the data region; else instruction region). */
    Prob memDataRegion{3, 4};

    /**
     * P(prime is a control-flow instruction), applied per block.
     * Blocks average ~2.5 instructions, so 2/5 of blocks yields the
     * observed >1/6 per-instruction control-flow share (Fig. 4) and
     * the paper's 1:5 analysis scenario.
     */
    Prob controlFlowShare{2, 5};

    /** Maximum filler ALU instructions preceding the prime. */
    unsigned maxFiller = 3;

    /**
     * Restrict FP rounding modes to valid static encodings. Cascade
     * constructs fully valid programs by design; the TurboFuzzer
     * leaves this off so rm-related traps stay reachable.
     */
    bool validRmOnly = false;
};

/** Builds and mutates instruction blocks. */
class BlockBuilder
{
  public:
    /**
     * @param layout  Memory layout contract.
     * @param library Instruction library to draw primes from.
     * @param probs   Generation probabilities.
     */
    BlockBuilder(const MemoryLayout &layout,
                 const isa::InstructionLibrary *library, GenProbs probs);

    /**
     * Direct-mode generation: build one block around an LFSR-selected
     * prime into @p block, which must be freshly constructed (e.g.
     * `blocks.emplace_back()`). Control-flow immediates are left as
     * placeholders; the emitter's fix-up pass assigns targets from
     * the global address table.
     */
    void buildRandomBlockInto(SeedBlock &block, Rng &rng);

    /**
     * Mutation-mode operand work: substitute operands / flip operand
     * field bits of the block's prime instruction.
     */
    void mutateOperands(SeedBlock &block, Rng &rng) const;

    const MemoryLayout &layout() const { return memLayout; }

  private:
    /** Random CSR address for Zicsr primes (mtvec excluded). */
    uint16_t pickCsr(Rng &rng) const;

    /** Random operands for @p op (no control-flow targets). */
    isa::Operands randomOperands(isa::Opcode op, Rng &rng) const;

    MemoryLayout memLayout;
    const isa::InstructionLibrary *lib;
    GenProbs genProbs;
};

/**
 * Split a signed 32-bit pc-relative delta into the auipc/addi
 * (%pcrel_hi / %pcrel_lo) immediate pair.
 */
void pcrelHiLo(int64_t delta, int64_t &hi20, int64_t &lo12);

/**
 * Patch the control-flow prime of @p block (at index @p block_idx in
 * the layout @p block_addrs) to jump to block @p target: encode the
 * B/J immediate, or re-stage the jalr auipc/addi address pair.
 * Branch targets beyond the ±4 KiB B-format range are clamped toward
 * the source block. Deterministic — the shared core of the fuzzer's
 * fix-up pass and the triage minimizer's re-layout; only target
 * *selection* differs between the two.
 * @return the (possibly clamped) final target index.
 */
int64_t patchBlockTarget(SeedBlock &block, int64_t block_idx,
                         int64_t target,
                         std::span<const uint64_t> block_addrs);

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_BLOCK_BUILDER_HH
