/**
 * @file
 * RISC-V instruction encoding and decoding.
 *
 * The encoder is used by the fuzzer's operand-assignment module to
 * commit generated instruction fields into executable 32-bit words;
 * the decoder is used by the ISS, disassembler and mutation engine.
 */

#ifndef TURBOFUZZ_ISA_ENCODING_HH
#define TURBOFUZZ_ISA_ENCODING_HH

#include <cstdint>

#include "isa/opcodes.hh"

namespace turbofuzz::isa
{

/**
 * Operand fields of an instruction, in decoded (architectural) form.
 *
 * Interpretation of @c imm by format:
 *  - I/S/B/J: sign-extended byte offset / immediate
 *  - U: the 20-bit payload placed in bits [31:12]
 *  - IShift/IShiftW: the shift amount
 */
struct Operands
{
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t rs3 = 0;
    int64_t imm = 0;
    uint8_t rm = 0;   ///< FP rounding-mode field
    uint16_t csr = 0; ///< CSR address for Zicsr ops
    bool aq = false;  ///< AMO acquire bit
    bool rl = false;  ///< AMO release bit
};

/** Result of decoding a 32-bit instruction word. */
struct Decoded
{
    bool valid = false;
    Opcode op = Opcode::NumOpcodes;
    Operands ops;
    const InstrDesc *desc = nullptr;
};

/** Encode @p op with @p ops into a 32-bit instruction word. */
uint32_t encode(Opcode op, const Operands &ops);

/** Decode a 32-bit instruction word; invalid words yield !valid. */
Decoded decode(uint32_t insn);

/**
 * Exactly `decode(insn).valid && decode(insn).op == op`, without
 * extracting operands: @p op's own match/mask test plus the few
 * entries decode() would try first that could also match.
 */
bool decodesAs(uint32_t insn, Opcode op);

/** Match/mask pair identifying an instruction (riscv-opcodes style). */
struct MatchMask
{
    uint32_t match;
    uint32_t mask;
};

/** The match/mask pair for @p op (useful for tests and mutation). */
MatchMask matchMaskOf(Opcode op);

} // namespace turbofuzz::isa

#endif // TURBOFUZZ_ISA_ENCODING_HH
