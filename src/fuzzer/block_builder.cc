#include "fuzzer/block_builder.hh"

#include <array>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/csr.hh"
#include "isa/encoding.hh"

namespace turbofuzz::fuzzer
{

using isa::Opcode;
using isa::Operands;
namespace csr = isa::csr;

void
pcrelHiLo(int64_t delta, int64_t &hi20, int64_t &lo12)
{
    // Standard %pcrel split: hi = (delta + 0x800) >> 12, lo carries
    // the sign-extended remainder.
    hi20 = (delta + 0x800) >> 12;
    lo12 = delta - (hi20 << 12);
    TF_ASSERT(lo12 >= -2048 && lo12 <= 2047, "pcrel lo out of range");
}

BlockBuilder::BlockBuilder(const MemoryLayout &layout,
                           const isa::InstructionLibrary *library,
                           GenProbs probs)
    : memLayout(layout), lib(library), genProbs(probs)
{
    TF_ASSERT(lib != nullptr, "BlockBuilder requires a library");
}

uint16_t
BlockBuilder::pickCsr(Rng &rng) const
{
    // Write-safe CSR population; mtvec is excluded so the exception
    // templates keep working, which is what guarantees iteration
    // survival (§IV-C "templates with execution guarantee").
    static constexpr std::array<uint16_t, 14> pool = {
        csr::fflags, csr::frm, csr::fcsr, csr::mscratch,
        csr::sscratch, csr::mepc, csr::mcause, csr::mtval,
        csr::stval, csr::sepc, csr::scause, csr::minstret,
        csr::mcycle, csr::misa,
    };
    return pool[rng.range(pool.size())];
}

Operands
BlockBuilder::randomOperands(Opcode op, Rng &rng) const
{
    const isa::InstrDesc &d = isa::descOf(op);
    Operands o;
    o.rd = static_cast<uint8_t>(rng.range(32));
    o.rs1 = static_cast<uint8_t>(rng.range(32));
    o.rs2 = static_cast<uint8_t>(rng.range(32));
    o.rs3 = static_cast<uint8_t>(rng.range(32));
    // Mostly-valid rounding modes; reserved encodings (5/6) and DYN
    // stay reachable so rm-related traps are exercised, but rarely
    // enough that the exception templates keep prevalence high.
    if (genProbs.validRmOnly) {
        o.rm = static_cast<uint8_t>(rng.range(5));
    } else {
        const uint64_t rm_roll = rng.range(64);
        o.rm = rm_roll < 61 ? static_cast<uint8_t>(rm_roll % 5)
                            : (rm_roll < 63
                                   ? csr::rmDYN
                                   : static_cast<uint8_t>(
                                         5 + rm_roll % 2));
    }
    o.csr = pickCsr(rng);
    o.aq = rng.chance(1, 4);
    o.rl = rng.chance(1, 4);

    switch (d.fmt) {
      case isa::Format::I:
        o.imm = static_cast<int64_t>(rng.range(4096)) - 2048;
        break;
      case isa::Format::IShift:
        o.imm = static_cast<int64_t>(rng.range(64));
        break;
      case isa::Format::IShiftW:
        o.imm = static_cast<int64_t>(rng.range(32));
        break;
      case isa::Format::S:
        o.imm = static_cast<int64_t>(rng.range(4096)) - 2048;
        break;
      case isa::Format::U:
        o.imm = static_cast<int64_t>(rng.range(1 << 20));
        break;
      case isa::Format::CsrI:
        o.imm = static_cast<int64_t>(rng.range(32));
        break;
      case isa::Format::B:
      case isa::Format::J:
        o.imm = 0; // placeholder; fix-up assigns block targets
        break;
      default:
        break;
    }
    return o;
}

// tflint: hot-path
void
BlockBuilder::buildRandomBlockInto(SeedBlock &block, Rng &rng)
{
    TF_ASSERT(block.insns.empty(), "block must be freshly constructed");
    Opcode prime;
    if (rng.chance(genProbs.controlFlowShare.num,
                   genProbs.controlFlowShare.den)) {
        // Control-flow primes at the observed 1:5-ish mix. The pool
        // is beq-heavy: random 64-bit operands are rarely equal, so
        // the overall taken-rate lands near the ~0.3 the executed-
        // fraction measurements imply (jal/jalr still arrive through
        // the general library path).
        static constexpr std::array<Opcode, 8> cfOps = {
            Opcode::Beq, Opcode::Beq,  Opcode::Beq, Opcode::Bne,
            Opcode::Blt, Opcode::Bge, Opcode::Bltu, Opcode::Bgeu,
        };
        prime = cfOps[rng.range(cfOps.size())];
        if (!lib->contains(prime))
            prime = lib->pick(rng);
    } else {
        prime = lib->pick(rng);
    }
    const isa::InstrDesc &d = isa::descOf(prime);

    // Filler: simple register-register work ahead of the prime keeps
    // the architectural context churning (these are still fuzzing
    // instructions). The LFSR-guided initial count is the "general
    // guidance" the paper describes.
    const unsigned filler = static_cast<unsigned>(
        rng.range(genProbs.maxFiller + 1));
    static constexpr std::array<Opcode, 6> fillerOps = {
        Opcode::Addi, Opcode::Add, Opcode::Xor,
        Opcode::Slli, Opcode::Andi, Opcode::Sub,
    };
    for (unsigned i = 0; i < filler; ++i) {
        const Opcode fop = fillerOps[rng.range(fillerOps.size())];
        block.insns.push_back(isa::encode(fop, randomOperands(fop, rng)));
    }

    Operands o = randomOperands(prime, rng);

    // Affiliated instructions establishing prerequisites.
    if (d.isMemAccess() || d.has(isa::FlagAtomic)) {
        const bool data_region =
            d.has(isa::FlagStore) || d.has(isa::FlagAtomic) ||
            rng.chance(genProbs.memDataRegion.num,
                       genProbs.memDataRegion.den);

        Operands addr;
        addr.rd = MemoryLayout::regScratch;
        if (data_region) {
            // Self-contained staging: lui x30, dataBase ; addi x30,
            // x30, off. Fuzzed instructions are free to clobber any
            // register, so blocks never rely on live-in state.
            Operands hi;
            hi.rd = MemoryLayout::regScratch;
            hi.imm = static_cast<int64_t>(memLayout.dataBase >> 12);
            block.insns.push_back(isa::encode(Opcode::Lui, hi));
            addr.rs1 = MemoryLayout::regScratch;
            addr.imm = static_cast<int64_t>(
                rng.range(memLayout.dataSize < 2048
                              ? memLayout.dataSize
                              : 2048));
            block.insns.push_back(isa::encode(Opcode::Addi, addr));
        } else {
            // Instruction-region read: auipc x30, 0 (+ small offset).
            addr.rs1 = 0;
            addr.imm = 0;
            block.insns.push_back(isa::encode(Opcode::Auipc, addr));
        }

        if (d.has(isa::FlagAtomic)) {
            // Alignment mask: andi x30, x30, -size.
            Operands align;
            align.rd = MemoryLayout::regScratch;
            align.rs1 = MemoryLayout::regScratch;
            align.imm = d.has(isa::FlagWordOp) ? -4 : -8;
            block.insns.push_back(isa::encode(Opcode::Andi, align));
            o.imm = 0;
        } else {
            // Keep the prime's own displacement small so the access
            // stays inside the mapped window.
            o.imm = static_cast<int64_t>(rng.range(64));
        }
        o.rs1 = MemoryLayout::regScratch;
    }

    if (d.has(isa::FlagJalr)) {
        // Target register staging: auipc/addi pair, patched by the
        // fix-up pass once block addresses are known.
        Operands hi;
        hi.rd = MemoryLayout::regScratch;
        hi.imm = 0;
        block.insns.push_back(isa::encode(Opcode::Auipc, hi));
        Operands lo;
        lo.rd = MemoryLayout::regScratch;
        lo.rs1 = MemoryLayout::regScratch;
        lo.imm = 0;
        block.insns.push_back(isa::encode(Opcode::Addi, lo));
        o.rs1 = MemoryLayout::regScratch;
        o.imm = 0;
    }

    block.primeIdx = static_cast<uint32_t>(block.insns.size());
    block.insns.push_back(isa::encode(prime, o));
    block.isControlFlow = d.isControlFlow();
    block.targetBlock = -1;

    // Architectural validation before the block can be committed.
    TF_ASSERT(isa::decodesAs(block.insns[block.primeIdx], prime),
              "generated prime failed validation");
}

void
BlockBuilder::mutateOperands(SeedBlock &block, Rng &rng) const
{
    TF_ASSERT(block.primeIdx < block.insns.size(), "corrupt block");
    uint32_t &word = block.insns[block.primeIdx];
    const isa::Decoded d = isa::decode(word);
    if (!d.valid)
        return;

    Operands o = d.ops;
    // Operand substitution / targeted bit flips; opcode preserved.
    // rs1 of memory ops and indirect jumps carries the affiliated
    // address materialization and must stay bound to the scratch
    // register ("coverage-sensitive operand rebinding" keeps such
    // structural operands intact).
    const bool rs1_bound =
        d.desc->isMemAccess() || d.desc->has(isa::FlagJalr) ||
        d.desc->has(isa::FlagAtomic);
    switch (rng.range(4)) {
      case 0:
        if (!d.desc->has(isa::FlagBranch))
            o.rd = static_cast<uint8_t>(rng.range(32));
        break;
      case 1:
        if (!rs1_bound)
            o.rs1 = static_cast<uint8_t>(rng.range(32));
        break;
      case 2:
        if (!d.desc->isControlFlow() && !d.desc->isMemAccess())
            o.imm ^= static_cast<int64_t>(1)
                     << rng.range(12); // bit flip in the immediate
        break;
      default:
        o.rs2 = static_cast<uint8_t>(rng.range(32));
        break;
    }
    const uint32_t mutated = isa::encode(d.op, o);
    const isa::Decoded check = isa::decode(mutated);
    if (check.valid && check.op == d.op)
        word = mutated;
}

namespace
{

/** B-format immediate bits of @p imm, as encode() places them. */
uint32_t
branchImmBits(int64_t imm)
{
    const auto v = static_cast<uint64_t>(imm);
    return static_cast<uint32_t>(bit(v, 11)) << 7 |
           static_cast<uint32_t>(bits(v, 4, 1)) << 8 |
           static_cast<uint32_t>(bits(v, 10, 5)) << 25 |
           static_cast<uint32_t>(bit(v, 12)) << 31;
}

/** J-format immediate bits of @p imm, as encode() places them. */
uint32_t
jalImmBits(int64_t imm)
{
    const auto v = static_cast<uint64_t>(imm);
    return static_cast<uint32_t>(bits(v, 19, 12)) << 12 |
           static_cast<uint32_t>(bit(v, 11)) << 20 |
           static_cast<uint32_t>(bits(v, 10, 1)) << 21 |
           static_cast<uint32_t>(bit(v, 20)) << 31;
}

} // namespace

int64_t
patchBlockTarget(SeedBlock &b, int64_t block_idx, int64_t target,
                 std::span<const uint64_t> block_addrs)
{
    const int64_t i = block_idx;
    uint32_t &word = b.insns[b.primeIdx];

    b.targetBlock = static_cast<int32_t>(target);
    const uint64_t prime_addr = block_addrs[i] + 4ull * b.primeIdx;
    int64_t delta = static_cast<int64_t>(block_addrs[target]) -
                    static_cast<int64_t>(prime_addr);

    // Branches and jal keep every field but the immediate, so their
    // re-encode is a splice of the new immediate bits. Major opcode
    // 0x63 decodes as a branch for every funct3 but 2 and 3.
    const uint32_t major = word & 0x7F;
    const auto funct3 = static_cast<uint32_t>(bits(word, 14, 12));
    if (major == 0x63 && funct3 != 2 && funct3 != 3) {
        // B format reaches +-4 KiB; clamp far targets to the
        // nearest representable block in the chosen direction.
        while ((delta < -4096 || delta > 4094) && target != i) {
            target += (target > i) ? -1 : 1;
            delta = static_cast<int64_t>(block_addrs[target]) -
                    static_cast<int64_t>(prime_addr);
        }
        b.targetBlock = static_cast<int32_t>(target);
        word = (word & ~branchImmBits(-1)) | branchImmBits(delta);
        return target;
    }
    if (major == 0x6F) {
        TF_ASSERT(delta >= -(1 << 20) && delta < (1 << 20),
                  "jal target out of range");
        word = (word & ~jalImmBits(-1)) | jalImmBits(delta);
        return target;
    }

    const isa::Decoded dec = isa::decode(word);
    TF_ASSERT(dec.valid, "control-flow prime no longer decodes");
    if (b.primeIdx < 2) {
        // An indirect jump without the staged auipc/addi pair (e.g.
        // a benchmark-derived return consumed as a seed, or a pair
        // the minimizer pruned): retarget it as a direct jump so
        // control flow stays on block boundaries.
        isa::Operands j;
        j.rd = dec.ops.rd;
        j.imm = delta;
        if (delta >= -(1 << 20) && delta < (1 << 20))
            word = isa::encode(isa::Opcode::Jal, j);
    } else {
        // jalr: patch the staged auipc/addi pair.
        const uint64_t auipc_addr =
            block_addrs[i] + 4ull * (b.primeIdx - 2);
        const int64_t pcrel =
            static_cast<int64_t>(block_addrs[target]) -
            static_cast<int64_t>(auipc_addr);
        int64_t hi, lo;
        pcrelHiLo(pcrel, hi, lo);
        isa::Operands hi_ops;
        hi_ops.rd = MemoryLayout::regScratch;
        hi_ops.imm = hi & 0xFFFFF;
        b.insns[b.primeIdx - 2] =
            isa::encode(isa::Opcode::Auipc, hi_ops);
        isa::Operands lo_ops;
        lo_ops.rd = MemoryLayout::regScratch;
        lo_ops.rs1 = MemoryLayout::regScratch;
        lo_ops.imm = lo;
        b.insns[b.primeIdx - 1] =
            isa::encode(isa::Opcode::Addi, lo_ops);
    }
    return target;
}

} // namespace turbofuzz::fuzzer
