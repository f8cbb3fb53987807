/** @file Encode/decode round-trip and reference-encoding tests. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "isa/encoding.hh"
#include "isa/opcodes.hh"

namespace turbofuzz::isa
{
namespace
{

/** Known-good encodings cross-checked against the RISC-V spec. */
TEST(Encoding, ReferenceWords)
{
    Operands o;

    // addi a0, a1, -1  -> 0xfff58513
    o = {};
    o.rd = 10;
    o.rs1 = 11;
    o.imm = -1;
    EXPECT_EQ(encode(Opcode::Addi, o), 0xfff58513u);

    // add a0, a1, a2 -> 0x00c58533
    o = {};
    o.rd = 10;
    o.rs1 = 11;
    o.rs2 = 12;
    EXPECT_EQ(encode(Opcode::Add, o), 0x00c58533u);

    // lui t0, 0x12345 -> 0x123452b7
    o = {};
    o.rd = 5;
    o.imm = 0x12345;
    EXPECT_EQ(encode(Opcode::Lui, o), 0x123452b7u);

    // jal ra, 8 -> 0x008000ef
    o = {};
    o.rd = 1;
    o.imm = 8;
    EXPECT_EQ(encode(Opcode::Jal, o), 0x008000efu);

    // beq a0, a1, 16 -> 0x00b50863
    o = {};
    o.rs1 = 10;
    o.rs2 = 11;
    o.imm = 16;
    EXPECT_EQ(encode(Opcode::Beq, o), 0x00b50863u);

    // ld a0, 16(sp) -> 0x01013503
    o = {};
    o.rd = 10;
    o.rs1 = 2;
    o.imm = 16;
    EXPECT_EQ(encode(Opcode::Ld, o), 0x01013503u);

    // sd a0, 8(sp) -> 0x00a13423
    o = {};
    o.rs1 = 2;
    o.rs2 = 10;
    o.imm = 8;
    EXPECT_EQ(encode(Opcode::Sd, o), 0x00a13423u);

    // srai a0, a0, 63 -> 0x43f55513
    o = {};
    o.rd = 10;
    o.rs1 = 10;
    o.imm = 63;
    EXPECT_EQ(encode(Opcode::Srai, o), 0x43f55513u);

    // ecall / ebreak fixed words.
    EXPECT_EQ(encode(Opcode::Ecall, {}), 0x00000073u);
    EXPECT_EQ(encode(Opcode::Ebreak, {}), 0x00100073u);

    // fadd.s fa0, fa1, fa2 (rm=RNE) -> 0x00c58553
    o = {};
    o.rd = 10;
    o.rs1 = 11;
    o.rs2 = 12;
    o.rm = 0;
    EXPECT_EQ(encode(Opcode::FaddS, o), 0x00c58553u);

    // csrrw a0, fcsr(0x003), a1 -> 0x00359573
    o = {};
    o.rd = 10;
    o.rs1 = 11;
    o.csr = 0x003;
    EXPECT_EQ(encode(Opcode::Csrrw, o), 0x00359573u);

    // mul a0, a1, a2 -> 0x02c58533
    o = {};
    o.rd = 10;
    o.rs1 = 11;
    o.rs2 = 12;
    EXPECT_EQ(encode(Opcode::Mul, o), 0x02c58533u);

    // amoadd.w a0, a1, (a2) -> 0x00b6252f
    o = {};
    o.rd = 10;
    o.rs1 = 12;
    o.rs2 = 11;
    EXPECT_EQ(encode(Opcode::AmoaddW, o), 0x00b6252fu);
}

TEST(Encoding, DecodeInvalidWords)
{
    EXPECT_FALSE(decode(0x00000000u).valid);
    EXPECT_FALSE(decode(0xFFFFFFFFu).valid);
    // System opcode with unknown funct: wfi (not modelled).
    EXPECT_FALSE(decode(0x10500073u).valid);
}

TEST(Encoding, MretRoundTrip)
{
    EXPECT_EQ(encode(Opcode::Mret, {}), 0x30200073u);
    const Decoded d = decode(0x30200073u);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.op, Opcode::Mret);
}

/**
 * decodesAs() against its oracle, decode(). Every opcode's own match
 * word with random don't-care bits exercises the first-match order
 * inside a bucket; uniformly random words cover the rest. (No two
 * entries of today's table can match one word, so this is also the
 * check that a future overlapping entry is shadowed correctly.)
 */
TEST(Encoding, DecodesAsMatchesDecode)
{
    Rng rng(2026);
    uint64_t checked = 0;
    auto check = [&](uint32_t w) {
        const Decoded d = decode(w);
        for (const auto &desc : allDescs()) {
            const bool expect = d.valid && d.op == desc.op;
            if (decodesAs(w, desc.op) != expect) {
                ADD_FAILURE() << std::hex << "word 0x" << w << " op "
                              << desc.mnemonic << " expected "
                              << expect;
                return false;
            }
        }
        ++checked;
        return true;
    };
    for (const auto &desc : allDescs()) {
        const MatchMask mm = matchMaskOf(desc.op);
        for (int i = 0; i < 2000; ++i) {
            const auto noise = static_cast<uint32_t>(rng.next());
            ASSERT_TRUE(check(mm.match | (noise & ~mm.mask)));
        }
    }
    for (int i = 0; i < 1000000; ++i)
        ASSERT_TRUE(check(static_cast<uint32_t>(rng.next())));
    EXPECT_GE(checked, 1000000u);
}

/** Generate legal random operands for a given format. */
Operands
randomOperands(const InstrDesc &d, Rng &rng)
{
    Operands o;
    o.rd = static_cast<uint8_t>(rng.range(32));
    o.rs1 = static_cast<uint8_t>(rng.range(32));
    o.rs2 = static_cast<uint8_t>(rng.range(32));
    o.rs3 = static_cast<uint8_t>(rng.range(32));
    o.rm = static_cast<uint8_t>(rng.range(5));
    o.csr = 0x003;
    switch (d.fmt) {
      case Format::I:
        o.imm = static_cast<int64_t>(rng.range(4096)) - 2048;
        break;
      case Format::IShift:
        o.imm = static_cast<int64_t>(rng.range(64));
        break;
      case Format::IShiftW:
        o.imm = static_cast<int64_t>(rng.range(32));
        break;
      case Format::S:
        o.imm = static_cast<int64_t>(rng.range(4096)) - 2048;
        break;
      case Format::B:
        o.imm = (static_cast<int64_t>(rng.range(4096)) - 2048) * 2;
        break;
      case Format::U:
        o.imm = static_cast<int64_t>(rng.range(1 << 20));
        break;
      case Format::J:
        o.imm =
            (static_cast<int64_t>(rng.range(1 << 20)) - (1 << 19)) * 2;
        break;
      case Format::CsrI:
        o.imm = static_cast<int64_t>(rng.range(32));
        break;
      case Format::Amo:
        o.aq = rng.chance(1, 2);
        o.rl = rng.chance(1, 2);
        break;
      default:
        break;
    }
    return o;
}

/** Property: encode(decode(x)) == x field-wise for every opcode. */
class RoundTrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RoundTrip, EncodeDecode)
{
    const InstrDesc &d = allDescs()[GetParam()];
    Rng rng(0xC0FFEE ^ GetParam());
    for (int i = 0; i < 200; ++i) {
        const Operands in = randomOperands(d, rng);
        const uint32_t word = encode(d.op, in);
        const Decoded out = decode(word);
        ASSERT_TRUE(out.valid)
            << d.mnemonic << " word 0x" << std::hex << word;
        ASSERT_EQ(out.op, d.op) << d.mnemonic << " decoded as "
                                << out.desc->mnemonic;
        // Field-wise comparison honoring which fields are live.
        const bool has_rd_field =
            d.fmt != Format::Sys && d.fmt != Format::CsrI &&
            d.fmt != Format::S && d.fmt != Format::B;
        if (has_rd_field)
            EXPECT_EQ(out.ops.rd & 0x1F, in.rd & 0x1F) << d.mnemonic;
        if (d.has(FlagReadsRs1))
            EXPECT_EQ(out.ops.rs1 & 0x1F, in.rs1 & 0x1F) << d.mnemonic;
        if (d.has(FlagReadsRs2) && d.rs2Field < 0 && d.fmt != Format::Amo)
            EXPECT_EQ(out.ops.rs2 & 0x1F, in.rs2 & 0x1F) << d.mnemonic;
        if (d.fmt == Format::R4)
            EXPECT_EQ(out.ops.rs3 & 0x1F, in.rs3 & 0x1F) << d.mnemonic;
        if (d.has(FlagHasRm))
            EXPECT_EQ(out.ops.rm, in.rm) << d.mnemonic;
        switch (d.fmt) {
          case Format::I:
          case Format::IShift:
          case Format::IShiftW:
          case Format::S:
          case Format::B:
          case Format::U:
          case Format::J:
          case Format::CsrI:
            EXPECT_EQ(out.ops.imm, in.imm) << d.mnemonic;
            break;
          case Format::Amo:
            EXPECT_EQ(out.ops.aq, in.aq) << d.mnemonic;
            EXPECT_EQ(out.ops.rl, in.rl) << d.mnemonic;
            break;
          default:
            break;
        }
        if (d.fmt == Format::Csr || d.fmt == Format::CsrI)
            EXPECT_EQ(out.ops.csr, in.csr) << d.mnemonic;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, RoundTrip,
    ::testing::Range<size_t>(0, numOpcodes()),
    [](const ::testing::TestParamInfo<size_t> &param_info) {
        std::string name(
            allDescs()[param_info.param].mnemonic);
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

} // namespace
} // namespace turbofuzz::isa
