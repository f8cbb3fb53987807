#include "core/iss.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "core/fp_ops.hh"
#include "isa/csr.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::core
{

namespace csr = isa::csr;
using isa::Opcode;

namespace
{

/** TURBOFUZZ_DECODE_CACHE=0|off forces the decode cache off (the CI
 *  equivalence matrix leg); anything else leaves the option alone. */
bool
decodeCacheEnvEnabled()
{
    // Sampled once at hart construction, before any worker threads
    // exist; nothing in the process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *e = std::getenv("TURBOFUZZ_DECODE_CACHE");
    return !(e && (std::strcmp(e, "0") == 0 ||
                   std::strcmp(e, "off") == 0));
}

/**
 * The value-initialized commit record. Steps reset their record with
 * a memcpy from it: plain assignment of CommitInfo{} (or of this
 * constant) compiles to a `rep stos` whose microcoded start-up costs
 * more than the whole 160-byte copy as vector stores.
 */
const CommitInfo kBlankCommit{};
static_assert(std::is_trivially_copyable_v<CommitInfo>,
              "commit records are reset with memcpy");

void
resetRecord(CommitInfo &ci)
{
    std::memcpy(&ci, &kBlankCommit, sizeof(CommitInfo));
}

} // namespace

Iss::Iss(soc::Memory *mem) : Iss(mem, Options{})
{
}

Iss::Iss(soc::Memory *mem, Options options)
    : memPtr(mem), opts(options)
{
    TF_ASSERT(memPtr != nullptr, "Iss requires a memory");
    dcacheOn = opts.decodeCache && decodeCacheEnvEnabled();
    if (dcacheOn) {
        // Entries stay uninitialized (validity is the generation
        // array): hart construction is on the per-replay path, and
        // value-initializing ~256 KiB of lines would dominate short
        // replays.
        dcache =
            std::make_unique_for_overwrite<DecodeEntry[]>(dcacheEntries);
        dcacheGen = std::make_unique<uint32_t[]>(dcacheEntries);
    }
    reset();
}

void
Iss::reset()
{
    reset(opts.resetPc);
}

void
Iss::reset(uint64_t pc)
{
    st.reset(pc);
}

void
Iss::clearAccessRanges()
{
    ranges.clear();
    // Cached entries assert fetch accessibility; range edits void
    // that proof, so the cache starts cold.
    clearDecodeCache();
}

void
Iss::addAccessRange(uint64_t base, uint64_t size)
{
    ranges.push_back({base, size});
    clearDecodeCache();
}

void
Iss::clearDecodeCache()
{
    // O(1): bump the generation, orphaning every line. The replay
    // path edits access ranges on every replay; an eager 256 KiB
    // memset here dominated its runtime.
    if (!dcacheOn)
        return;
    if (++dcacheGenCur == 0) {
        // Generation wrap (needs 2^32 clears): lines stamped by the
        // previous epoch of the counter must not alias as live.
        std::fill_n(dcacheGen.get(), dcacheEntries, 0u);
        dcacheGenCur = 1;
    }
}

// tflint: hot-path
const Iss::DecodeEntry *
Iss::lookupDecode(uint64_t pc)
{
    const size_t i = dcacheIdx(pc);
    DecodeEntry &e = dcache[i];
    if (dcacheGen[i] != dcacheGenCur || e.pc != pc) {
        ++dstats.miss;
        return nullptr;
    }
    const uint64_t cur = memPtr->fetchEpochOfSlot(e.slot);
    if (e.epoch == cur) {
        ++dstats.hit;
        return &e;
    }
    // Stale epoch: refetch and compare. The common case is an
    // aliasing write (e.g. the per-iteration segment rewrite) that
    // left this word unchanged — refresh the snapshot and reuse the
    // decode. An actually changed word invalidates the line.
    const uint32_t insn = memPtr->read32(pc);
    e.slot = memPtr->fetchSlotFor(pc);
    e.epoch = memPtr->fetchEpochOfSlot(e.slot);
    if (insn == e.insn) {
        ++dstats.hit;
        return &e;
    }
    ++dstats.invalidate;
    dcacheGen[i] = 0;
    return nullptr;
}

// tflint: hot-path
void
Iss::fillDecode(uint64_t pc, uint32_t insn, const isa::Decoded &dec)
{
    const size_t i = dcacheIdx(pc);
    DecodeEntry &e = dcache[i];
    dcacheGen[i] = dcacheGenCur;
    e.pc = pc;
    e.insn = insn;
    e.slot = memPtr->fetchSlotFor(pc);
    e.epoch = memPtr->fetchEpochOfSlot(e.slot);
    e.decValid = dec.valid;
    if (dec.valid) {
        e.op = dec.op;
        e.desc = dec.desc;
        e.ops = dec.ops;
        // Straight-line instructions have no control-flow or system
        // side exit; they are superblock (stepStraight) material.
        // Loads/stores/FP/AMO qualify — they can still trap, which
        // stepStraight handles as a side exit after the commit.
        constexpr uint32_t sideExitFlags =
            isa::FlagBranch | isa::FlagJal | isa::FlagJalr |
            isa::FlagCsr | isa::FlagSystem;
        e.straight = (dec.desc->flags & sideExitFlags) == 0;
    } else {
        e.op = isa::Opcode::NumOpcodes;
        e.desc = nullptr;
        e.ops = isa::Operands{};
        e.straight = false;
    }
}

bool
Iss::accessible(uint64_t addr, uint64_t size) const
{
    if (ranges.empty())
        return true;
    for (const auto &r : ranges) {
        if (addr >= r.base && addr + size <= r.base + r.size)
            return true;
    }
    return false;
}

void
Iss::trap(CommitInfo &ci, uint64_t cause, uint64_t tval)
{
    ci.trapped = true;
    ci.trapCause = cause;
    ci.trapValue = tval;
    st.mepc = ci.pc;
    st.mcause = cause;
    st.mtval = tval;
    // M-only model: mirror the trap value into stval as well so the
    // stval read path (bug C7) is architecturally exercised.
    st.sepc = ci.pc;
    st.scause = cause;
    st.stval = tval;
    st.pc = st.mtvec & ~uint64_t{3};
    ci.nextPc = st.pc;
}

bool
Iss::resolveRm(uint8_t rm_field, uint8_t &resolved) const
{
    uint8_t rm = rm_field;
    if (rm == csr::rmDYN)
        rm = static_cast<uint8_t>(st.frm);
    if (rm > csr::rmRMM) {
        if (hasBug(BugId::B2)) {
            // B2: invalid rounding mode silently falls back to RNE
            // instead of raising an illegal-instruction exception.
            resolved = csr::rmRNE;
            return true;
        }
        return false;
    }
    resolved = rm;
    return true;
}

bool
Iss::csrRead(uint16_t addr, uint64_t &value) const
{
    switch (addr) {
      case csr::fflags: value = st.fflags; return true;
      case csr::frm: value = st.frm; return true;
      case csr::fcsr: value = (st.frm << 5) | st.fflags; return true;
      case csr::mstatus: value = st.mstatus; return true;
      case csr::misa: value = st.misa; return true;
      case csr::mtvec: value = st.mtvec; return true;
      case csr::mscratch: value = st.mscratch; return true;
      case csr::mepc: value = st.mepc; return true;
      case csr::mcause: value = st.mcause; return true;
      case csr::mtval: value = st.mtval; return true;
      case csr::minstret: value = st.minstret; return true;
      case csr::mcycle: value = st.mcycle; return true;
      case csr::instret: value = st.minstret; return true;
      case csr::cycle: value = st.mcycle; return true;
      case csr::sscratch: value = st.sscratch; return true;
      case csr::sepc: value = st.sepc; return true;
      case csr::scause: value = st.scause; return true;
      case csr::stval:
        // C7: the stval read path returns the *previous* trap value
        // register instead of the architected one, causing a
        // co-simulation mismatch when stval is read after a trap.
        value = hasBug(BugId::C7) ? st.mscratch : st.stval;
        return true;
      case csr::mhartid: value = 0; return true;
      default: return false;
    }
}

bool
Iss::csrWrite(uint16_t addr, uint64_t value)
{
    switch (addr) {
      case csr::fflags:
        st.fflags = value & 0x1F;
        st.setFsField(csr::mstatusFsDirty);
        return true;
      case csr::frm:
        st.frm = value & 0x7;
        st.setFsField(csr::mstatusFsDirty);
        return true;
      case csr::fcsr:
        st.fflags = value & 0x1F;
        st.frm = (value >> 5) & 0x7;
        st.setFsField(csr::mstatusFsDirty);
        return true;
      case csr::mstatus:
        // WARL subset: only FS is writable in this model.
        st.setFsField((value & csr::mstatusFsMask) >>
                      csr::mstatusFsShift);
        return true;
      case csr::misa:
        return true; // WARL: writes ignored
      case csr::mtvec:
        st.mtvec = value & ~uint64_t{3};
        return true;
      case csr::mscratch: st.mscratch = value; return true;
      case csr::mepc: st.mepc = value & ~uint64_t{1}; return true;
      case csr::mcause: st.mcause = value; return true;
      case csr::mtval: st.mtval = value; return true;
      case csr::minstret: st.minstret = value; return true;
      case csr::mcycle: st.mcycle = value; return true;
      case csr::sscratch: st.sscratch = value; return true;
      case csr::sepc: st.sepc = value & ~uint64_t{1}; return true;
      case csr::scause: st.scause = value; return true;
      case csr::stval: st.stval = value; return true;
      case csr::cycle:
      case csr::instret:
      case csr::mhartid:
        return false; // read-only
      default: return false;
    }
}

CommitInfo
Iss::step()
{
    CommitInfo ci;
    stepInto(ci);
    return ci;
}

// tflint: hot-path
void
Iss::stepInto(CommitInfo &out)
{
    resetRecord(out);
    CommitInfo &ci = out;
    ci.pc = st.pc;
    st.mcycle += 1;

    // Fetch.
    if (ci.pc & 0x3) {
        trap(ci, csr::causeMisalignedFetch, ci.pc);
        st.minstret += 1;
        ci.minstretAfter = st.minstret;
        return;
    }
    // Fetch + decode, through the decode cache when it can prove the
    // cached word is current (a hit implies fetch accessibility —
    // range edits clear the cache).
    const DecodeEntry *hit = dcacheOn ? lookupDecode(ci.pc) : nullptr;
    if (hit) {
        ci.insn = hit->insn;
        ci.nextPc = ci.pc + 4;
        if (!hit->decValid) {
            trap(ci, csr::causeIllegalInstruction, ci.insn);
            st.minstret += 1;
            ci.minstretAfter = st.minstret;
            return;
        }
        ci.decodeValid = true;
        ci.op = hit->op;
        ci.desc = hit->desc;
        ci.ops = hit->ops;
    } else {
        if (!accessible(ci.pc, 4)) {
            trap(ci, csr::causeLoadAccessFault, ci.pc);
            st.minstret += 1;
            ci.minstretAfter = st.minstret;
            return;
        }
        ci.insn = memPtr->read32(ci.pc);
        ci.nextPc = ci.pc + 4;

        // Decode.
        const isa::Decoded dec = isa::decode(ci.insn);
        if (dcacheOn)
            fillDecode(ci.pc, ci.insn, dec);
        if (!dec.valid) {
            trap(ci, csr::causeIllegalInstruction, ci.insn);
            st.minstret += 1;
            ci.minstretAfter = st.minstret;
            return;
        }
        ci.decodeValid = true;
        ci.op = dec.op;
        ci.desc = dec.desc;
        ci.ops = dec.ops;
    }

    execute(ci);

    if (!ci.trapped)
        st.pc = ci.nextPc;

    // Golden retirement counting: every processed instruction bumps
    // minstret. Bug R1 suppresses the bump for ebreak.
    const bool r1_suppressed =
        hasBug(BugId::R1) && ci.op == Opcode::Ebreak;
    if (!r1_suppressed)
        st.minstret += 1;
    ci.minstretAfter = st.minstret;

    st.fflags |= ci.fflagsAccrued;
}

// tflint: hot-path
uint64_t
Iss::stepStraight(CommitTrace &trace, uint64_t max_steps)
{
    if (!dcacheOn)
        return 0;
    uint64_t n = 0;
    while (n < max_steps) {
        const uint64_t pc = st.pc;
        if (pc & 0x3)
            break;
        const size_t i = dcacheIdx(pc);
        const DecodeEntry &e = dcache[i];
        if (dcacheGen[i] != dcacheGenCur || e.pc != pc ||
            !e.straight ||
            e.epoch != memPtr->fetchEpochOfSlot(e.slot)) {
            // Side exit before the step: the caller's slow step
            // revalidates/refills through lookupDecode (which also
            // does the stats accounting for this pc).
            break;
        }
        ++dstats.hit;

        // Replica of stepInto() minus fetch/decode, for straight
        // instructions only. Ebreak carries FlagSystem and is never
        // straight, so the R1 minstret suppression cannot apply here.
        CommitInfo &ci = trace.append();
        resetRecord(ci);
        ci.pc = pc;
        st.mcycle += 1;
        ci.insn = e.insn;
        ci.nextPc = pc + 4;
        ci.decodeValid = true;
        ci.op = e.op;
        ci.desc = e.desc;
        ci.ops = e.ops;

        execute(ci);

        if (!ci.trapped)
            st.pc = ci.nextPc;
        st.minstret += 1;
        ci.minstretAfter = st.minstret;
        st.fflags |= ci.fflagsAccrued;
        trace.sealLast();
        ++n;
        if (ci.trapped)
            break; // trap redirected control flow: side exit
    }
    return n;
}

// tflint: hot-path
void
Iss::execute(CommitInfo &ci)
{
    const isa::InstrDesc &d = *ci.desc;
    const isa::Operands &o = ci.ops;

    // Architectural gating.
    if (d.has(isa::FlagFp) && !st.fpEnabled()) {
        trap(ci, csr::causeIllegalInstruction, ci.insn);
        return;
    }
    if (d.has(isa::FlagAtomic) && !d.has(isa::FlagWordOp) &&
        !opts.rv64aEnabled && !hasBug(BugId::C8)) {
        // RV64A disabled: .d atomics must raise illegal instruction.
        // Bug C8 lets them through.
        trap(ci, csr::causeIllegalInstruction, ci.insn);
        return;
    }

    // FP loads/stores go down the integer/memory pipe; everything
    // else touching the FPU goes to the FP pipe.
    if (d.has(isa::FlagFp) && !d.isMemAccess()) {
        executeFp(ci);
        return;
    }
    if (d.has(isa::FlagAtomic)) {
        executeAmo(ci);
        return;
    }
    if (d.has(isa::FlagCsr)) {
        executeCsr(ci);
        return;
    }

    auto writeRd = [&](uint64_t value) {
        st.setX(o.rd, value);
        ci.rdWritten = true;
        ci.rd = o.rd;
        ci.rdValue = st.x(o.rd);
    };

    const uint64_t rs1 = st.x(o.rs1);
    const uint64_t rs2 = st.x(o.rs2);
    const int64_t srs1 = static_cast<int64_t>(rs1);
    const int64_t srs2 = static_cast<int64_t>(rs2);

    switch (ci.op) {
      case Opcode::Lui:
        writeRd(static_cast<uint64_t>(sext(
            static_cast<uint64_t>(o.imm) << 12, 32)));
        break;
      case Opcode::Auipc:
        writeRd(ci.pc + static_cast<uint64_t>(sext(
                            static_cast<uint64_t>(o.imm) << 12, 32)));
        break;
      case Opcode::Jal:
        writeRd(ci.pc + 4);
        ci.nextPc = ci.pc + static_cast<uint64_t>(o.imm);
        ci.branchTaken = true;
        break;
      case Opcode::Jalr: {
        const uint64_t target =
            (rs1 + static_cast<uint64_t>(o.imm)) & ~uint64_t{1};
        writeRd(ci.pc + 4);
        ci.nextPc = target;
        ci.branchTaken = true;
        break;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu: {
        bool taken = false;
        switch (ci.op) {
          case Opcode::Beq: taken = rs1 == rs2; break;
          case Opcode::Bne: taken = rs1 != rs2; break;
          case Opcode::Blt: taken = srs1 < srs2; break;
          case Opcode::Bge: taken = srs1 >= srs2; break;
          case Opcode::Bltu: taken = rs1 < rs2; break;
          case Opcode::Bgeu: taken = rs1 >= rs2; break;
          default: break;
        }
        ci.branchTaken = taken;
        if (taken)
            ci.nextPc = ci.pc + static_cast<uint64_t>(o.imm);
        break;
      }
      case Opcode::Lb:
      case Opcode::Lh:
      case Opcode::Lw:
      case Opcode::Lbu:
      case Opcode::Lhu:
      case Opcode::Lwu:
      case Opcode::Ld:
      case Opcode::Flw:
      case Opcode::Fld: {
        const uint64_t addr = rs1 + static_cast<uint64_t>(o.imm);
        uint8_t size = 0;
        switch (ci.op) {
          case Opcode::Lb: case Opcode::Lbu: size = 1; break;
          case Opcode::Lh: case Opcode::Lhu: size = 2; break;
          case Opcode::Lw: case Opcode::Lwu: case Opcode::Flw:
            size = 4;
            break;
          default: size = 8; break;
        }
        ci.memAccess = true;
        ci.memAddr = addr;
        ci.memSize = size;
        if (!accessible(addr, size)) {
            trap(ci, csr::causeLoadAccessFault, addr);
            return;
        }
        uint64_t v = 0;
        switch (ci.op) {
          case Opcode::Lb:
            v = static_cast<uint64_t>(
                sext(memPtr->read8(addr), 8));
            break;
          case Opcode::Lbu: v = memPtr->read8(addr); break;
          case Opcode::Lh:
            v = static_cast<uint64_t>(sext(memPtr->read16(addr), 16));
            break;
          case Opcode::Lhu: v = memPtr->read16(addr); break;
          case Opcode::Lw:
            v = static_cast<uint64_t>(sext(memPtr->read32(addr), 32));
            break;
          case Opcode::Lwu: v = memPtr->read32(addr); break;
          case Opcode::Ld: v = memPtr->read64(addr); break;
          case Opcode::Flw: {
            st.setF(o.rd, fp::boxS(memPtr->read32(addr)));
            st.setFsField(csr::mstatusFsDirty);
            ci.frdWritten = true;
            ci.frd = o.rd;
            ci.frdValue = st.f(o.rd);
            return;
          }
          case Opcode::Fld: {
            st.setF(o.rd, memPtr->read64(addr));
            st.setFsField(csr::mstatusFsDirty);
            ci.frdWritten = true;
            ci.frd = o.rd;
            ci.frdValue = st.f(o.rd);
            return;
          }
          default: break;
        }
        writeRd(v);
        break;
      }
      case Opcode::Sb:
      case Opcode::Sh:
      case Opcode::Sw:
      case Opcode::Sd:
      case Opcode::Fsw:
      case Opcode::Fsd: {
        const uint64_t addr = rs1 + static_cast<uint64_t>(o.imm);
        uint8_t size;
        switch (ci.op) {
          case Opcode::Sb: size = 1; break;
          case Opcode::Sh: size = 2; break;
          case Opcode::Sw: case Opcode::Fsw: size = 4; break;
          default: size = 8; break;
        }
        ci.memAccess = true;
        ci.memWrite = true;
        ci.memAddr = addr;
        ci.memSize = size;
        if (!accessible(addr, size)) {
            trap(ci, csr::causeStoreAccessFault, addr);
            return;
        }
        switch (ci.op) {
          case Opcode::Sb:
            memPtr->write8(addr, static_cast<uint8_t>(rs2));
            break;
          case Opcode::Sh:
            memPtr->write16(addr, static_cast<uint16_t>(rs2));
            break;
          case Opcode::Sw:
            memPtr->write32(addr, static_cast<uint32_t>(rs2));
            break;
          case Opcode::Sd: memPtr->write64(addr, rs2); break;
          case Opcode::Fsw:
            memPtr->write32(addr,
                            static_cast<uint32_t>(st.f(o.rs2)));
            break;
          case Opcode::Fsd: memPtr->write64(addr, st.f(o.rs2)); break;
          default: break;
        }
        break;
      }
      case Opcode::Addi: writeRd(rs1 + static_cast<uint64_t>(o.imm)); break;
      case Opcode::Slti:
        writeRd(srs1 < o.imm ? 1 : 0);
        break;
      case Opcode::Sltiu:
        writeRd(rs1 < static_cast<uint64_t>(o.imm) ? 1 : 0);
        break;
      case Opcode::Xori: writeRd(rs1 ^ static_cast<uint64_t>(o.imm)); break;
      case Opcode::Ori: writeRd(rs1 | static_cast<uint64_t>(o.imm)); break;
      case Opcode::Andi: writeRd(rs1 & static_cast<uint64_t>(o.imm)); break;
      case Opcode::Slli: writeRd(rs1 << (o.imm & 0x3F)); break;
      case Opcode::Srli: writeRd(rs1 >> (o.imm & 0x3F)); break;
      case Opcode::Srai:
        writeRd(static_cast<uint64_t>(srs1 >> (o.imm & 0x3F)));
        break;
      case Opcode::Add: writeRd(rs1 + rs2); break;
      case Opcode::Sub: writeRd(rs1 - rs2); break;
      case Opcode::Sll: writeRd(rs1 << (rs2 & 0x3F)); break;
      case Opcode::Slt: writeRd(srs1 < srs2 ? 1 : 0); break;
      case Opcode::Sltu: writeRd(rs1 < rs2 ? 1 : 0); break;
      case Opcode::Xor: writeRd(rs1 ^ rs2); break;
      case Opcode::Srl: writeRd(rs1 >> (rs2 & 0x3F)); break;
      case Opcode::Sra:
        writeRd(static_cast<uint64_t>(srs1 >> (rs2 & 0x3F)));
        break;
      case Opcode::Or: writeRd(rs1 | rs2); break;
      case Opcode::And: writeRd(rs1 & rs2); break;
      case Opcode::Addiw:
        writeRd(static_cast<uint64_t>(
            sext(rs1 + static_cast<uint64_t>(o.imm), 32)));
        break;
      case Opcode::Slliw:
        writeRd(static_cast<uint64_t>(sext(rs1 << (o.imm & 0x1F), 32)));
        break;
      case Opcode::Srliw:
        writeRd(static_cast<uint64_t>(
            sext((rs1 & 0xFFFFFFFFull) >> (o.imm & 0x1F), 32)));
        break;
      case Opcode::Sraiw:
        writeRd(static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(rs1)) >>
            (o.imm & 0x1F)));
        break;
      case Opcode::Addw:
        writeRd(static_cast<uint64_t>(sext(rs1 + rs2, 32)));
        break;
      case Opcode::Subw:
        writeRd(static_cast<uint64_t>(sext(rs1 - rs2, 32)));
        break;
      case Opcode::Sllw:
        writeRd(static_cast<uint64_t>(sext(rs1 << (rs2 & 0x1F), 32)));
        break;
      case Opcode::Srlw:
        writeRd(static_cast<uint64_t>(
            sext((rs1 & 0xFFFFFFFFull) >> (rs2 & 0x1F), 32)));
        break;
      case Opcode::Sraw:
        writeRd(static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(rs1)) >>
            (rs2 & 0x1F)));
        break;
      case Opcode::Fence:
        break; // no-op in this memory model
      case Opcode::Ecall:
        trap(ci, csr::causeEcallM, 0);
        break;
      case Opcode::Ebreak:
        trap(ci, csr::causeBreakpoint, ci.pc);
        break;
      case Opcode::Mret:
        // M-only model: return to mepc, no privilege change.
        ci.nextPc = st.mepc;
        ci.branchTaken = true;
        break;
      // --- M extension -------------------------------------------
      case Opcode::Mul: writeRd(rs1 * rs2); break;
      case Opcode::Mulh: {
        const __int128 p =
            static_cast<__int128>(srs1) * static_cast<__int128>(srs2);
        writeRd(static_cast<uint64_t>(p >> 64));
        break;
      }
      case Opcode::Mulhsu: {
        const __int128 p = static_cast<__int128>(srs1) *
                           static_cast<unsigned __int128>(rs2);
        writeRd(static_cast<uint64_t>(p >> 64));
        break;
      }
      case Opcode::Mulhu: {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(rs1) *
            static_cast<unsigned __int128>(rs2);
        writeRd(static_cast<uint64_t>(p >> 64));
        break;
      }
      case Opcode::Div:
        if (rs2 == 0) {
            writeRd(~uint64_t{0});
        } else if (srs1 == INT64_MIN && srs2 == -1) {
            writeRd(static_cast<uint64_t>(INT64_MIN));
        } else {
            writeRd(static_cast<uint64_t>(srs1 / srs2));
        }
        break;
      case Opcode::Divu:
        writeRd(rs2 == 0 ? ~uint64_t{0} : rs1 / rs2);
        break;
      case Opcode::Rem:
        if (rs2 == 0) {
            writeRd(rs1);
        } else if (srs1 == INT64_MIN && srs2 == -1) {
            writeRd(0);
        } else {
            writeRd(static_cast<uint64_t>(srs1 % srs2));
        }
        break;
      case Opcode::Remu:
        writeRd(rs2 == 0 ? rs1 : rs1 % rs2);
        break;
      case Opcode::Mulw:
        writeRd(static_cast<uint64_t>(sext(rs1 * rs2, 32)));
        break;
      case Opcode::Divw: {
        const int32_t a = static_cast<int32_t>(rs1);
        const int32_t b = static_cast<int32_t>(rs2);
        int32_t r;
        if (b == 0)
            r = -1;
        else if (a == INT32_MIN && b == -1)
            r = INT32_MIN;
        else
            r = a / b;
        writeRd(static_cast<uint64_t>(static_cast<int64_t>(r)));
        break;
      }
      case Opcode::Divuw: {
        const uint32_t a = static_cast<uint32_t>(rs1);
        const uint32_t b = static_cast<uint32_t>(rs2);
        const uint32_t r = (b == 0) ? ~uint32_t{0} : a / b;
        writeRd(static_cast<uint64_t>(
            sext(static_cast<uint64_t>(r), 32)));
        break;
      }
      case Opcode::Remw: {
        const int32_t a = static_cast<int32_t>(rs1);
        const int32_t b = static_cast<int32_t>(rs2);
        int32_t r;
        if (b == 0)
            r = a;
        else if (a == INT32_MIN && b == -1)
            r = 0;
        else
            r = a % b;
        writeRd(static_cast<uint64_t>(static_cast<int64_t>(r)));
        break;
      }
      case Opcode::Remuw: {
        const uint32_t a = static_cast<uint32_t>(rs1);
        const uint32_t b = static_cast<uint32_t>(rs2);
        const uint32_t r = (b == 0) ? a : a % b;
        writeRd(static_cast<uint64_t>(
            sext(static_cast<uint64_t>(r), 32)));
        break;
      }
      default:
        panic("unhandled opcode %u in integer pipe",
              static_cast<unsigned>(ci.op));
    }
}

void
Iss::executeAmo(CommitInfo &ci)
{
    const isa::Operands &o = ci.ops;
    const bool word = ci.desc->has(isa::FlagWordOp);
    const uint8_t size = word ? 4 : 8;
    const uint64_t addr = st.x(o.rs1);

    ci.memAccess = true;
    ci.memAddr = addr;
    ci.memSize = size;

    if (addr % size != 0) {
        trap(ci,
             ci.op == Opcode::LrW || ci.op == Opcode::LrD
                 ? csr::causeMisalignedLoad
                 : csr::causeMisalignedStore,
             addr);
        return;
    }
    if (!accessible(addr, size)) {
        trap(ci, csr::causeLoadAccessFault, addr);
        return;
    }

    auto writeRd = [&](uint64_t value) {
        st.setX(o.rd, value);
        ci.rdWritten = true;
        ci.rd = o.rd;
        ci.rdValue = st.x(o.rd);
    };
    auto loadVal = [&]() -> uint64_t {
        return word ? static_cast<uint64_t>(
                          sext(memPtr->read32(addr), 32))
                    : memPtr->read64(addr);
    };
    auto storeVal = [&](uint64_t v) {
        if (word)
            memPtr->write32(addr, static_cast<uint32_t>(v));
        else
            memPtr->write64(addr, v);
        ci.memWrite = true;
    };

    switch (ci.op) {
      case Opcode::LrW:
      case Opcode::LrD:
        st.resValid = true;
        st.resAddr = addr;
        writeRd(loadVal());
        break;
      case Opcode::ScW:
      case Opcode::ScD:
        if (st.resValid && st.resAddr == addr) {
            storeVal(st.x(o.rs2));
            writeRd(0);
        } else {
            writeRd(1);
        }
        st.resValid = false;
        break;
      default: {
        const uint64_t old = loadVal();
        const uint64_t rs2v = st.x(o.rs2);
        uint64_t nv = 0;
        const int64_t sold = static_cast<int64_t>(old);
        const int64_t srs2 =
            word ? static_cast<int64_t>(static_cast<int32_t>(rs2v))
                 : static_cast<int64_t>(rs2v);
        const uint64_t uold = word ? (old & 0xFFFFFFFFull) : old;
        const uint64_t urs2 = word ? (rs2v & 0xFFFFFFFFull) : rs2v;
        switch (ci.op) {
          case Opcode::AmoswapW: case Opcode::AmoswapD:
            nv = rs2v;
            break;
          case Opcode::AmoaddW: case Opcode::AmoaddD:
            nv = old + rs2v;
            break;
          case Opcode::AmoxorW: case Opcode::AmoxorD:
            nv = old ^ rs2v;
            break;
          case Opcode::AmoandW: case Opcode::AmoandD:
            nv = old & rs2v;
            break;
          case Opcode::AmoorW: case Opcode::AmoorD:
            nv = old | rs2v;
            break;
          case Opcode::AmominW: case Opcode::AmominD:
            nv = (sold < srs2) ? old : rs2v;
            break;
          case Opcode::AmomaxW: case Opcode::AmomaxD:
            nv = (sold > srs2) ? old : rs2v;
            break;
          case Opcode::AmominuW: case Opcode::AmominuD:
            nv = (uold < urs2) ? old : rs2v;
            break;
          case Opcode::AmomaxuW: case Opcode::AmomaxuD:
            nv = (uold > urs2) ? old : rs2v;
            break;
          default: panic("unhandled AMO");
        }
        storeVal(nv);
        writeRd(old);
        break;
      }
    }
}

void
Iss::executeCsr(CommitInfo &ci)
{
    const isa::Operands &o = ci.ops;
    const bool immediate = ci.op == Opcode::Csrrwi ||
                           ci.op == Opcode::Csrrsi ||
                           ci.op == Opcode::Csrrci;
    const uint64_t operand =
        immediate ? static_cast<uint64_t>(o.imm) : st.x(o.rs1);

    uint64_t old = 0;
    if (!csrRead(o.csr, old)) {
        trap(ci, csr::causeIllegalInstruction, ci.insn);
        return;
    }

    // csrrs/c with rs1=x0 (or zimm=0) must not write.
    bool do_write;
    uint64_t newval = old;
    switch (ci.op) {
      case Opcode::Csrrw:
      case Opcode::Csrrwi:
        do_write = true;
        newval = operand;
        break;
      case Opcode::Csrrs:
      case Opcode::Csrrsi:
        do_write = immediate ? (o.imm != 0) : (o.rs1 != 0);
        newval = old | operand;
        break;
      case Opcode::Csrrc:
      case Opcode::Csrrci:
        do_write = immediate ? (o.imm != 0) : (o.rs1 != 0);
        newval = old & ~operand;
        break;
      default:
        panic("unhandled CSR opcode");
    }

    if (do_write) {
        if (!csrWrite(o.csr, newval)) {
            trap(ci, csr::causeIllegalInstruction, ci.insn);
            return;
        }
        ci.csrWritten = true;
        ci.csrAddr = o.csr;
        ci.csrNewValue = newval;
    }

    st.setX(o.rd, old);
    ci.rdWritten = true;
    ci.rd = o.rd;
    ci.rdValue = st.x(o.rd);
}

void
Iss::executeFp(CommitInfo &ci)
{
    using fp::ArithOp;
    using fp::CmpOp;
    using fp::FpResult;
    using fp::SgnOp;

    const isa::InstrDesc &d = *ci.desc;
    const isa::Operands &o = ci.ops;

    // Resolve the rounding mode where the instruction uses one.
    uint8_t rm = csr::rmRNE;
    if (d.has(isa::FlagHasRm)) {
        if (!resolveRm(o.rm, rm)) {
            trap(ci, csr::causeIllegalInstruction, ci.insn);
            return;
        }
        // B1: the FP pipeline ignores the resolved rounding mode and
        // always rounds to nearest-even.
        if (hasBug(BugId::B1))
            rm = csr::rmRNE;
    }

    // C3/C6: improperly NaN-boxed single operands are consumed as raw
    // lower bits instead of the canonical NaN.
    auto readS = [&](unsigned reg) -> uint32_t {
        const uint64_t raw = st.f(reg);
        if (hasBug(BugId::C3) || hasBug(BugId::C6))
            return static_cast<uint32_t>(raw);
        return fp::unboxS(raw);
    };

    // Record operand classes for the RTL model's FPU tracking.
    auto classIdx = [](uint64_t cls) -> uint8_t {
        uint8_t i = 0;
        while (cls > 1) {
            cls >>= 1;
            ++i;
        }
        return i;
    };
    if (d.has(isa::FlagFpRs1)) {
        ci.fpClassRs1 = d.has(isa::FlagDouble)
                            ? classIdx(fp::classifyD(st.f(o.rs1)))
                            : classIdx(fp::classifyS(
                                  fp::unboxS(st.f(o.rs1))));
    }
    if (d.has(isa::FlagFpRs2)) {
        ci.fpClassRs2 = d.has(isa::FlagDouble)
                            ? classIdx(fp::classifyD(st.f(o.rs2)))
                            : classIdx(fp::classifyS(
                                  fp::unboxS(st.f(o.rs2))));
    }

    auto writeF = [&](uint64_t raw) {
        st.setF(o.rd, raw);
        st.setFsField(csr::mstatusFsDirty);
        ci.frdWritten = true;
        ci.frd = o.rd;
        ci.frdValue = st.f(o.rd);
    };
    auto writeX = [&](uint64_t v) {
        st.setX(o.rd, v);
        ci.rdWritten = true;
        ci.rd = o.rd;
        ci.rdValue = st.x(o.rd);
    };

    /**
     * Apply the CVA6 FP-divider bug family to a division result.
     * a/b are operand bits; res is the correct result.
     */
    auto applyDivBugsS = [&](uint32_t a, uint32_t b,
                             FpResult res) -> FpResult {
        if (hasBug(BugId::C1) && fp::isZeroS(a) && fp::isZeroS(b)) {
            // C1: 0/0 accrues DZ instead of NV.
            res.flags = csr::flagDZ;
        }
        if (hasBug(BugId::C2) && fp::isInfS(b) && !fp::isNanS(a) &&
            !fp::isInfS(a)) {
            // C2: finite / inf spuriously accrues NX.
            res.flags |= csr::flagNX;
        }
        if (hasBug(BugId::C9) && fp::isZeroS(a) && fp::isZeroS(b)) {
            // C9: 0/0 returns +inf instead of the canonical NaN.
            res.bits = fp::boxS(0x7F800000u);
        }
        if (hasBug(BugId::C10) && fp::isZeroS(a) && !fp::isZeroS(b) &&
            !fp::isNanS(b) && !(b & 0x80000000u)) {
            // C10: +0 / normal(+) comes out as -0.
            res.bits = fp::boxS(static_cast<uint32_t>(res.bits) |
                                0x80000000u);
        }
        return res;
    };
    auto applyDivBugsD = [&](uint64_t a, uint64_t b,
                             FpResult res) -> FpResult {
        if (hasBug(BugId::C1) && fp::isZeroD(a) && fp::isZeroD(b))
            res.flags = csr::flagDZ;
        if (hasBug(BugId::C4) && fp::isInfD(b) && !fp::isNanD(a) &&
            !fp::isInfD(a)) {
            // C4: the double-precision variant of C2.
            res.flags |= csr::flagNX;
        }
        if (hasBug(BugId::C9) && fp::isZeroD(a) && fp::isZeroD(b))
            res.bits = 0x7FF0000000000000ull;
        if (hasBug(BugId::C10) && fp::isZeroD(a) && !fp::isZeroD(b) &&
            !fp::isNanD(b) && !(b & 0x8000000000000000ull)) {
            res.bits |= 0x8000000000000000ull;
        }
        return res;
    };

    switch (ci.op) {
      // --- arithmetic, single ------------------------------------
      case Opcode::FaddS:
      case Opcode::FsubS:
      case Opcode::FmulS:
      case Opcode::FdivS: {
        const uint32_t a = readS(o.rs1);
        const uint32_t b = readS(o.rs2);
        ArithOp aop;
        switch (ci.op) {
          case Opcode::FaddS: aop = ArithOp::Add; break;
          case Opcode::FsubS: aop = ArithOp::Sub; break;
          case Opcode::FmulS: aop = ArithOp::Mul; break;
          default: aop = ArithOp::Div; break;
        }
        FpResult r = fp::arithS(aop, a, b, rm);
        if (ci.op == Opcode::FdivS)
            r = applyDivBugsS(a, b, r);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FsqrtS: {
        const FpResult r =
            fp::arithS(ArithOp::Sqrt, readS(o.rs1), 0, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FminS:
      case Opcode::FmaxS: {
        const FpResult r = fp::arithS(
            ci.op == Opcode::FminS ? ArithOp::Min : ArithOp::Max,
            readS(o.rs1), readS(o.rs2), csr::rmRNE);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      // --- arithmetic, double ------------------------------------
      case Opcode::FaddD:
      case Opcode::FsubD:
      case Opcode::FmulD:
      case Opcode::FdivD: {
        const uint64_t a = st.f(o.rs1);
        const uint64_t b = st.f(o.rs2);
        ArithOp aop;
        switch (ci.op) {
          case Opcode::FaddD: aop = ArithOp::Add; break;
          case Opcode::FsubD: aop = ArithOp::Sub; break;
          case Opcode::FmulD: aop = ArithOp::Mul; break;
          default: aop = ArithOp::Div; break;
        }
        FpResult r = fp::arithD(aop, a, b, rm);
        if (ci.op == Opcode::FdivD)
            r = applyDivBugsD(a, b, r);
        if (ci.op == Opcode::FmulD && hasBug(BugId::C5) &&
            rm == csr::rmRDN && !fp::isNanD(r.bits)) {
            // C5: with round-down, a negative product surfaces with
            // its sign bit cleared.
            if (r.bits & 0x8000000000000000ull)
                r.bits &= ~0x8000000000000000ull;
        }
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FsqrtD: {
        const FpResult r = fp::arithD(ArithOp::Sqrt, st.f(o.rs1), 0, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FminD:
      case Opcode::FmaxD: {
        const FpResult r = fp::arithD(
            ci.op == Opcode::FminD ? ArithOp::Min : ArithOp::Max,
            st.f(o.rs1), st.f(o.rs2), csr::rmRNE);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      // --- fused multiply-add ------------------------------------
      case Opcode::FmaddS:
      case Opcode::FmsubS:
      case Opcode::FnmsubS:
      case Opcode::FnmaddS: {
        const bool neg_prod = ci.op == Opcode::FnmsubS ||
                              ci.op == Opcode::FnmaddS;
        const bool neg_add = ci.op == Opcode::FmsubS ||
                             ci.op == Opcode::FnmaddS;
        const FpResult r =
            fp::fmaS(readS(o.rs1), readS(o.rs2), readS(o.rs3),
                     neg_prod, neg_add, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FmaddD:
      case Opcode::FmsubD:
      case Opcode::FnmsubD:
      case Opcode::FnmaddD: {
        const bool neg_prod = ci.op == Opcode::FnmsubD ||
                              ci.op == Opcode::FnmaddD;
        const bool neg_add = ci.op == Opcode::FmsubD ||
                             ci.op == Opcode::FnmaddD;
        const FpResult r = fp::fmaD(st.f(o.rs1), st.f(o.rs2),
                                    st.f(o.rs3), neg_prod, neg_add, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      // --- sign injection -----------------------------------------
      case Opcode::FsgnjS:
      case Opcode::FsgnjnS:
      case Opcode::FsgnjxS: {
        SgnOp sop = ci.op == Opcode::FsgnjS
                        ? SgnOp::Copy
                        : (ci.op == Opcode::FsgnjnS ? SgnOp::Negate
                                                    : SgnOp::XorSign);
        writeF(fp::boxS(fp::sgnjS(sop, readS(o.rs1), readS(o.rs2))));
        break;
      }
      case Opcode::FsgnjD:
      case Opcode::FsgnjnD:
      case Opcode::FsgnjxD: {
        SgnOp sop = ci.op == Opcode::FsgnjD
                        ? SgnOp::Copy
                        : (ci.op == Opcode::FsgnjnD ? SgnOp::Negate
                                                    : SgnOp::XorSign);
        writeF(fp::sgnjD(sop, st.f(o.rs1), st.f(o.rs2)));
        break;
      }
      // --- comparisons --------------------------------------------
      case Opcode::FeqS:
      case Opcode::FltS:
      case Opcode::FleS: {
        CmpOp cop = ci.op == Opcode::FeqS
                        ? CmpOp::Eq
                        : (ci.op == Opcode::FltS ? CmpOp::Lt : CmpOp::Le);
        const FpResult r = fp::cmpS(cop, readS(o.rs1), readS(o.rs2));
        writeX(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FeqD:
      case Opcode::FltD:
      case Opcode::FleD: {
        CmpOp cop = ci.op == Opcode::FeqD
                        ? CmpOp::Eq
                        : (ci.op == Opcode::FltD ? CmpOp::Lt : CmpOp::Le);
        const FpResult r = fp::cmpD(cop, st.f(o.rs1), st.f(o.rs2));
        writeX(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      // --- classification / moves ----------------------------------
      case Opcode::FclassS: writeX(fp::classifyS(readS(o.rs1))); break;
      case Opcode::FclassD: writeX(fp::classifyD(st.f(o.rs1))); break;
      case Opcode::FmvXW:
        writeX(static_cast<uint64_t>(
            sext(st.f(o.rs1) & 0xFFFFFFFFull, 32)));
        break;
      case Opcode::FmvWX:
        writeF(fp::boxS(static_cast<uint32_t>(st.x(o.rs1))));
        break;
      case Opcode::FmvXD: writeX(st.f(o.rs1)); break;
      case Opcode::FmvDX: writeF(st.x(o.rs1)); break;
      // --- conversions ----------------------------------------------
      case Opcode::FcvtWS:
      case Opcode::FcvtWuS:
      case Opcode::FcvtLS:
      case Opcode::FcvtLuS: {
        const bool is_signed =
            ci.op == Opcode::FcvtWS || ci.op == Opcode::FcvtLS;
        const bool is_64 =
            ci.op == Opcode::FcvtLS || ci.op == Opcode::FcvtLuS;
        const FpResult r = fp::cvtSToI(readS(o.rs1), is_signed, is_64, rm);
        writeX(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FcvtWD:
      case Opcode::FcvtWuD:
      case Opcode::FcvtLD:
      case Opcode::FcvtLuD: {
        const bool is_signed =
            ci.op == Opcode::FcvtWD || ci.op == Opcode::FcvtLD;
        const bool is_64 =
            ci.op == Opcode::FcvtLD || ci.op == Opcode::FcvtLuD;
        const FpResult r =
            fp::cvtDToI(st.f(o.rs1), is_signed, is_64, rm);
        writeX(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FcvtSW:
      case Opcode::FcvtSWu:
      case Opcode::FcvtSL:
      case Opcode::FcvtSLu: {
        const bool is_signed =
            ci.op == Opcode::FcvtSW || ci.op == Opcode::FcvtSL;
        const bool is_64 =
            ci.op == Opcode::FcvtSL || ci.op == Opcode::FcvtSLu;
        const FpResult r = fp::cvtIToS(st.x(o.rs1), is_signed, is_64, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FcvtDW:
      case Opcode::FcvtDWu:
      case Opcode::FcvtDL:
      case Opcode::FcvtDLu: {
        const bool is_signed =
            ci.op == Opcode::FcvtDW || ci.op == Opcode::FcvtDL;
        const bool is_64 =
            ci.op == Opcode::FcvtDL || ci.op == Opcode::FcvtDLu;
        const FpResult r = fp::cvtIToD(st.x(o.rs1), is_signed, is_64, rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FcvtSD: {
        const FpResult r = fp::cvtDToS(st.f(o.rs1), rm);
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      case Opcode::FcvtDS: {
        const FpResult r = fp::cvtSToD(readS(o.rs1));
        writeF(r.bits);
        ci.fflagsAccrued = r.flags;
        break;
      }
      default:
        panic("unhandled FP opcode %u", static_cast<unsigned>(ci.op));
    }
}

void
Iss::saveState(soc::SnapshotWriter &out) const
{
    st.saveState(out);
}

void
Iss::loadState(soc::SnapshotReader &in)
{
    st.loadState(in);
}

} // namespace turbofuzz::core
