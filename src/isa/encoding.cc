#include "isa/encoding.hh"

#include <array>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace turbofuzz::isa
{

namespace
{

/** Compute the match/mask pair for a descriptor. */
MatchMask
computeMatchMask(const InstrDesc &d)
{
    uint32_t match = d.opcode7;
    uint32_t msk = 0x7F;

    auto fix_f3 = [&]() {
        if (d.funct3 >= 0) {
            match |= static_cast<uint32_t>(d.funct3) << 12;
            msk |= 0x7000;
        }
    };
    auto fix_f7 = [&]() {
        if (d.funct7 >= 0) {
            match |= static_cast<uint32_t>(d.funct7) << 25;
            msk |= 0xFE000000;
        }
    };
    auto fix_rs2 = [&]() {
        if (d.rs2Field >= 0) {
            match |= static_cast<uint32_t>(d.rs2Field) << 20;
            msk |= 0x01F00000;
        }
    };

    switch (d.fmt) {
      case Format::R:
        fix_f3();
        fix_f7();
        break;
      case Format::R4:
        // Only the 2-bit fmt field [26:25] is fixed; rm and rs3 live.
        match |= static_cast<uint32_t>(d.funct7) << 25;
        msk |= 0x06000000;
        break;
      case Format::I:
      case Format::S:
      case Format::B:
      case Format::Csr:
      case Format::CsrI:
        fix_f3();
        break;
      case Format::IShift:
        fix_f3();
        // 6-bit shamt on RV64: only imm[11:6] are fixed.
        match |= (static_cast<uint32_t>(d.funct7) << 25) & 0xFC000000;
        msk |= 0xFC000000;
        break;
      case Format::IShiftW:
        fix_f3();
        fix_f7();
        break;
      case Format::U:
      case Format::J:
        break;
      case Format::Amo:
        fix_f3();
        // funct5 fixed; aq/rl (bits 26:25) live.
        match |= (static_cast<uint32_t>(d.funct7) << 25) & 0xF8000000;
        msk |= 0xF8000000;
        fix_rs2();
        break;
      case Format::FpR:
        fix_f7();
        break;
      case Format::FpR2:
        fix_f7();
        fix_rs2();
        break;
      case Format::FpCmp:
        fix_f3();
        fix_f7();
        fix_rs2();
        break;
      case Format::Sys:
        fix_f3();
        if (d.op == Opcode::Ecall || d.op == Opcode::Ebreak ||
            d.op == Opcode::Mret) {
            // Entire word is fixed for ecall/ebreak/mret; the
            // rs2Field slot holds the full imm12 funct code.
            match |= static_cast<uint32_t>(d.rs2Field) << 20;
            msk = 0xFFFFFFFF;
        }
        break;
    }
    return {match, msk};
}

/** Decode acceleration: descriptors bucketed by major opcode. */
struct DecodeEntry
{
    MatchMask mm;
    const InstrDesc *desc;
};

const std::array<std::vector<DecodeEntry>, 128> &
decodeBuckets()
{
    static const auto buckets = [] {
        std::array<std::vector<DecodeEntry>, 128> b{};
        for (const auto &d : allDescs())
            b[d.opcode7].push_back({computeMatchMask(d), &d});
        return b;
    }();
    return buckets;
}

/**
 * decodesAs() tables, indexed by opcode: the opcode's match/mask and
 * the match/masks of the entries ahead of it in its decode bucket
 * that some word could match together with it. Entries that can
 * never match alongside it cannot change decode()'s first match.
 */
struct DecodeGuard
{
    MatchMask mm;
    std::vector<MatchMask> shadowedBy;
};

const std::vector<DecodeGuard> &
decodeGuards()
{
    static const auto guards = [] {
        std::vector<DecodeGuard> g(numOpcodes());
        for (const auto &bucket : decodeBuckets()) {
            for (size_t i = 0; i < bucket.size(); ++i) {
                const MatchMask mm = bucket[i].mm;
                DecodeGuard &guard =
                    g[static_cast<size_t>(bucket[i].desc->op)];
                guard.mm = mm;
                for (size_t j = 0; j < i; ++j) {
                    const MatchMask other = bucket[j].mm;
                    if (((mm.match ^ other.match) & mm.mask &
                         other.mask) == 0)
                        guard.shadowedBy.push_back(other);
                }
            }
        }
        return g;
    }();
    return guards;
}

/** Extract decoded operands for a matched descriptor. */
Operands
extractOperands(uint32_t insn, const InstrDesc &d)
{
    Operands ops;
    ops.rd = static_cast<uint8_t>(bits(insn, 11, 7));
    ops.rs1 = static_cast<uint8_t>(bits(insn, 19, 15));
    ops.rs2 = static_cast<uint8_t>(bits(insn, 24, 20));
    switch (d.fmt) {
      case Format::R:
      case Format::FpR:
      case Format::FpCmp:
        ops.rm = static_cast<uint8_t>(bits(insn, 14, 12));
        break;
      case Format::R4:
        ops.rs3 = static_cast<uint8_t>(bits(insn, 31, 27));
        ops.rm = static_cast<uint8_t>(bits(insn, 14, 12));
        break;
      case Format::I:
        ops.imm = sext(bits(insn, 31, 20), 12);
        break;
      case Format::IShift:
        ops.imm = static_cast<int64_t>(bits(insn, 25, 20));
        break;
      case Format::IShiftW:
        ops.imm = static_cast<int64_t>(bits(insn, 24, 20));
        break;
      case Format::S:
        ops.imm = sext((bits(insn, 31, 25) << 5) | bits(insn, 11, 7), 12);
        break;
      case Format::B:
        ops.imm = sext((bit(insn, 31) << 12) | (bit(insn, 7) << 11) |
                           (bits(insn, 30, 25) << 5) |
                           (bits(insn, 11, 8) << 1),
                       13);
        break;
      case Format::U:
        ops.imm = static_cast<int64_t>(bits(insn, 31, 12));
        break;
      case Format::J:
        ops.imm = sext((bit(insn, 31) << 20) | (bits(insn, 19, 12) << 12) |
                           (bit(insn, 20) << 11) | (bits(insn, 30, 21) << 1),
                       21);
        break;
      case Format::Amo:
        ops.aq = bit(insn, 26);
        ops.rl = bit(insn, 25);
        break;
      case Format::FpR2:
        ops.rm = static_cast<uint8_t>(bits(insn, 14, 12));
        break;
      case Format::Csr:
        ops.csr = static_cast<uint16_t>(bits(insn, 31, 20));
        break;
      case Format::CsrI:
        ops.csr = static_cast<uint16_t>(bits(insn, 31, 20));
        ops.imm = static_cast<int64_t>(bits(insn, 19, 15)); // zimm
        break;
      case Format::Sys:
        ops.imm = static_cast<int64_t>(bits(insn, 31, 20));
        break;
    }
    return ops;
}

} // namespace

// tflint: hot-path
bool
decodesAs(uint32_t insn, Opcode op)
{
    const DecodeGuard &g = decodeGuards()[static_cast<size_t>(op)];
    if ((insn & g.mm.mask) != g.mm.match)
        return false;
    for (const MatchMask &other : g.shadowedBy)
        if ((insn & other.mask) == other.match)
            return false;
    return true;
}

MatchMask
matchMaskOf(Opcode op)
{
    return computeMatchMask(descOf(op));
}

uint32_t
encode(Opcode op, const Operands &ops)
{
    const InstrDesc &d = descOf(op);
    uint32_t insn = d.opcode7;
    const uint32_t rd = ops.rd & 0x1F;
    const uint32_t rs1 = ops.rs1 & 0x1F;
    const uint32_t rs2 = ops.rs2 & 0x1F;
    const uint64_t imm = static_cast<uint64_t>(ops.imm);

    switch (d.fmt) {
      case Format::R:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 | rs2 << 20 |
                static_cast<uint32_t>(d.funct7) << 25;
        break;
      case Format::R4:
        insn |= rd << 7 | (ops.rm & 0x7u) << 12 | rs1 << 15 | rs2 << 20 |
                static_cast<uint32_t>(d.funct7) << 25 |
                (ops.rs3 & 0x1Fu) << 27;
        break;
      case Format::I:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 | static_cast<uint32_t>(imm & 0xFFF) << 20;
        break;
      case Format::IShift:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 | static_cast<uint32_t>(imm & 0x3F) << 20 |
                (static_cast<uint32_t>(d.funct7) << 25 & 0xFC000000);
        break;
      case Format::IShiftW:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 | static_cast<uint32_t>(imm & 0x1F) << 20 |
                static_cast<uint32_t>(d.funct7) << 25;
        break;
      case Format::S:
        insn |= static_cast<uint32_t>(bits(imm, 4, 0)) << 7 |
                static_cast<uint32_t>(d.funct3) << 12 | rs1 << 15 |
                rs2 << 20 | static_cast<uint32_t>(bits(imm, 11, 5)) << 25;
        break;
      case Format::B:
        insn |= static_cast<uint32_t>(bit(imm, 11)) << 7 |
                static_cast<uint32_t>(bits(imm, 4, 1)) << 8 |
                static_cast<uint32_t>(d.funct3) << 12 | rs1 << 15 |
                rs2 << 20 |
                static_cast<uint32_t>(bits(imm, 10, 5)) << 25 |
                static_cast<uint32_t>(bit(imm, 12)) << 31;
        break;
      case Format::U:
        insn |= rd << 7 | static_cast<uint32_t>(imm & 0xFFFFF) << 12;
        break;
      case Format::J:
        insn |= rd << 7 |
                static_cast<uint32_t>(bits(imm, 19, 12)) << 12 |
                static_cast<uint32_t>(bit(imm, 11)) << 20 |
                static_cast<uint32_t>(bits(imm, 10, 1)) << 21 |
                static_cast<uint32_t>(bit(imm, 20)) << 31;
        break;
      case Format::Amo:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 |
                ((d.rs2Field >= 0) ? static_cast<uint32_t>(d.rs2Field)
                                   : rs2)
                    << 20 |
                (ops.rl ? 1u << 25 : 0) | (ops.aq ? 1u << 26 : 0) |
                (static_cast<uint32_t>(d.funct7) << 25 & 0xF8000000);
        break;
      case Format::FpR:
        insn |= rd << 7 | (ops.rm & 0x7u) << 12 | rs1 << 15 | rs2 << 20 |
                static_cast<uint32_t>(d.funct7) << 25;
        break;
      case Format::FpR2:
        insn |= rd << 7 | (ops.rm & 0x7u) << 12 | rs1 << 15 |
                static_cast<uint32_t>(d.rs2Field) << 20 |
                static_cast<uint32_t>(d.funct7) << 25;
        break;
      case Format::FpCmp:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 |
                ((d.rs2Field >= 0) ? static_cast<uint32_t>(d.rs2Field)
                                   : rs2)
                    << 20 |
                static_cast<uint32_t>(d.funct7) << 25;
        break;
      case Format::Csr:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                rs1 << 15 | static_cast<uint32_t>(ops.csr & 0xFFF) << 20;
        break;
      case Format::CsrI:
        insn |= rd << 7 | static_cast<uint32_t>(d.funct3) << 12 |
                static_cast<uint32_t>(imm & 0x1F) << 15 |
                static_cast<uint32_t>(ops.csr & 0xFFF) << 20;
        break;
      case Format::Sys:
        if (d.op == Opcode::Ecall)
            insn = 0x00000073;
        else if (d.op == Opcode::Ebreak)
            insn = 0x00100073;
        else if (d.op == Opcode::Mret)
            insn = 0x30200073;
        else if (d.op == Opcode::Fence)
            insn = 0x0FF0000F; // fence iorw, iorw
        else
            panic("unhandled Sys opcode in encode()");
        break;
    }
    return insn;
}

Decoded
decode(uint32_t insn)
{
    Decoded result;
    const auto &bucket = decodeBuckets()[insn & 0x7F];
    for (const auto &entry : bucket) {
        if ((insn & entry.mm.mask) == entry.mm.match) {
            result.valid = true;
            result.op = entry.desc->op;
            result.desc = entry.desc;
            result.ops = extractOperands(insn, *entry.desc);
            return result;
        }
    }
    return result;
}

} // namespace turbofuzz::isa
