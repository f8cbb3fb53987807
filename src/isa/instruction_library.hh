/**
 * @file
 * The TurboFuzzer's configurable instruction library.
 *
 * Mirrors the paper's "dynamically configurable repository that
 * contains the complete RISC-V instruction set" (§IV-B2): individual
 * instruction subsets (I, M, F, A, Zicsr, ...) are organized into
 * categories that can be activated or deactivated through the VIO-style
 * configuration interface, and the library can be extended or replaced
 * to track future ISA changes.
 */

#ifndef TURBOFUZZ_ISA_INSTRUCTION_LIBRARY_HH
#define TURBOFUZZ_ISA_INSTRUCTION_LIBRARY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "isa/opcodes.hh"

namespace turbofuzz::isa
{

/**
 * A filtered, weighted view over the opcode table from which the
 * fuzzer's random generation module draws prime instructions.
 */
class InstructionLibrary
{
  public:
    /** Construct with every extension category enabled. */
    InstructionLibrary();

    /** Enable or disable an extension category (VIO toggle). */
    void setExtEnabled(Ext ext, bool enabled);

    /** Whether a category is currently enabled. */
    bool extEnabled(Ext ext) const;

    /**
     * Exclude a single opcode even when its category is enabled
     * (e.g. disallow ecall in pure random streams).
     */
    void exclude(Opcode op);

    /** Remove a previous exclusion. */
    void include(Opcode op);

    /**
     * Relative selection weight for a category; default 1.0. The
     * generator biases prime-instruction selection by these weights,
     * mirroring how the hardware library packs categories into LFSR
     * decode ranges.
     */
    void setExtWeight(Ext ext, double weight);

    /** Currently selectable opcodes (rebuilt eagerly on change). */
    const std::vector<Opcode> &active() const;

    /**
     * Draw a random opcode honoring enables, exclusions and weights:
     * one uniform() draw u, then the first opcode whose cumulative
     * weight exceeds u * total (the upper_bound of that product).
     */
    Opcode pick(Rng &rng) const;

    /**
     * pick() looks its answer up in a guide table of 2^pickGuideBits
     * entries, indexed by the top bits of u: each entry holds the
     * upper_bound of the smallest product its bucket can produce, so
     * a short forward scan from it lands on the exact upper_bound.
     */
    static constexpr unsigned pickGuideBits = 10;

    /** Number of currently selectable opcodes. */
    size_t activeCount() const { return active().size(); }

    /** True if @p op is currently selectable. */
    bool contains(Opcode op) const;

  private:
    // Rebuilt eagerly by the constructor and every mutator — never
    // from a const accessor. The fleet shares one library across
    // shard threads through a const pointer, so const reads must be
    // genuinely read-only (tests/fleet/barrier_stress_test.cc pins
    // this under TSan; lazy mutable rebuild was a data race).
    void rebuild();

    std::array<bool, static_cast<size_t>(Ext::NumExts)> enabled;
    std::array<double, static_cast<size_t>(Ext::NumExts)> weights;
    std::vector<bool> excluded;

    std::vector<Opcode> activeOps;
    std::vector<double> cumWeights;
    std::vector<uint16_t> pickGuide; ///< see pickGuideBits
};

} // namespace turbofuzz::isa

#endif // TURBOFUZZ_ISA_INSTRUCTION_LIBRARY_HH
