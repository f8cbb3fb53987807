#include "checker/diff_checker.hh"

#include <cstdio>

#include "common/logging.hh"
#include "isa/disasm.hh"

namespace turbofuzz::checker
{

std::string_view
mismatchKindName(MismatchKind kind)
{
    switch (kind) {
      case MismatchKind::NextPc: return "next-pc";
      case MismatchKind::TrapBehaviour: return "trap-behaviour";
      case MismatchKind::RdValue: return "rd-value";
      case MismatchKind::FrdValue: return "frd-value";
      case MismatchKind::Fflags: return "fflags";
      case MismatchKind::CsrEffect: return "csr-effect";
      case MismatchKind::Minstret: return "minstret";
      case MismatchKind::MemEffect: return "mem-effect";
      default: panic("bad MismatchKind");
    }
}

std::string
Mismatch::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s mismatch at pc 0x%llx [%s]: dut=0x%llx "
                  "ref=0x%llx (commit #%llu)",
                  std::string(mismatchKindName(kind)).c_str(),
                  static_cast<unsigned long long>(pc),
                  isa::disassemble(insn).c_str(),
                  static_cast<unsigned long long>(dutValue),
                  static_cast<unsigned long long>(refValue),
                  static_cast<unsigned long long>(instrIndex));
    return buf;
}

std::optional<Mismatch>
DiffChecker::compare(const core::CommitInfo &dut,
                     const core::CommitInfo &ref)
{
    const uint64_t index = commits++;
    auto make = [&](MismatchKind kind, uint64_t d, uint64_t r) {
        Mismatch mm;
        mm.kind = kind;
        mm.pc = dut.pc;
        mm.insn = dut.insn;
        mm.dutValue = d;
        mm.refValue = r;
        mm.instrIndex = index;
        return mm;
    };

    if (dut.trapped != ref.trapped ||
        (dut.trapped && dut.trapCause != ref.trapCause)) {
        return make(MismatchKind::TrapBehaviour,
                    dut.trapped ? dut.trapCause : ~uint64_t{0},
                    ref.trapped ? ref.trapCause : ~uint64_t{0});
    }
    if (dut.nextPc != ref.nextPc)
        return make(MismatchKind::NextPc, dut.nextPc, ref.nextPc);
    if (dut.rdWritten != ref.rdWritten ||
        (dut.rdWritten && dut.rdValue != ref.rdValue)) {
        return make(MismatchKind::RdValue, dut.rdValue, ref.rdValue);
    }
    if (dut.frdWritten != ref.frdWritten ||
        (dut.frdWritten && dut.frdValue != ref.frdValue)) {
        return make(MismatchKind::FrdValue, dut.frdValue,
                    ref.frdValue);
    }
    if (dut.fflagsAccrued != ref.fflagsAccrued)
        return make(MismatchKind::Fflags, dut.fflagsAccrued,
                    ref.fflagsAccrued);
    if (dut.csrWritten != ref.csrWritten ||
        (dut.csrWritten && dut.csrNewValue != ref.csrNewValue)) {
        return make(MismatchKind::CsrEffect, dut.csrNewValue,
                    ref.csrNewValue);
    }
    if (dut.minstretAfter != ref.minstretAfter)
        return make(MismatchKind::Minstret, dut.minstretAfter,
                    ref.minstretAfter);
    if (dut.memAccess && ref.memAccess &&
        (dut.memAddr != ref.memAddr || dut.memWrite != ref.memWrite)) {
        return make(MismatchKind::MemEffect, dut.memAddr, ref.memAddr);
    }
    return std::nullopt;
}

// tflint: hot-path
std::optional<Mismatch>
DiffChecker::compareTrace(const core::CommitInfo *dut,
                          const core::CommitInfo *ref, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        if (auto mm = compare(dut[i], ref[i]))
            return mm;
    }
    return std::nullopt;
}

std::optional<Mismatch>
DiffChecker::compareFinalState(const core::ArchState &dut,
                               const core::ArchState &ref)
{
    auto make = [&](MismatchKind kind, uint64_t d, uint64_t r) {
        Mismatch mm;
        mm.kind = kind;
        mm.pc = dut.pc;
        mm.insn = 0;
        mm.dutValue = d;
        mm.refValue = r;
        mm.instrIndex = commits;
        return mm;
    };

    for (unsigned i = 1; i < 32; ++i) {
        if (dut.x(i) != ref.x(i))
            return make(MismatchKind::RdValue, dut.x(i), ref.x(i));
    }
    for (unsigned i = 0; i < 32; ++i) {
        if (dut.f(i) != ref.f(i))
            return make(MismatchKind::FrdValue, dut.f(i), ref.f(i));
    }
    if (dut.fflags != ref.fflags)
        return make(MismatchKind::Fflags, dut.fflags, ref.fflags);
    if (dut.minstret != ref.minstret)
        return make(MismatchKind::Minstret, dut.minstret,
                    ref.minstret);
    return std::nullopt;
}

std::optional<CsrEvent>
csrTraceEvent(const core::CommitInfo &ci)
{
    // Trap entry first: a trapping commit's csrWritten side effects
    // (mcause/mepc updates) are part of the same privileged
    // transition, so one canonical event per commit suffices.
    if (ci.trapped) {
        return CsrEvent{
            static_cast<uint16_t>(0xF000u | (ci.trapCause & 0xFFFu)),
            ci.trapValue};
    }
    if (ci.csrWritten)
        return CsrEvent{ci.csrAddr, ci.csrNewValue};
    return std::nullopt;
}

soc::Snapshot
captureMismatchSnapshot(const Mismatch &mm, const core::Iss &dut,
                        const core::Iss &ref, double sim_time_sec)
{
    soc::Snapshot snap;
    snap.setTrigger(mm.describe());
    snap.setCaptureTime(sim_time_sec);

    soc::SnapshotWriter dut_arch;
    dut.saveState(dut_arch);
    snap.setSection("dut.arch", dut_arch.takeBuffer());

    soc::SnapshotWriter ref_arch;
    ref.saveState(ref_arch);
    snap.setSection("ref.arch", ref_arch.takeBuffer());

    soc::SnapshotWriter mem;
    dut.memory().saveState(mem);
    snap.setSection("dut.mem", mem.takeBuffer());
    return snap;
}

void
writeMismatch(soc::SnapshotWriter &out, const Mismatch &mm)
{
    out.putU8(static_cast<uint8_t>(mm.kind));
    out.putU64(mm.pc);
    out.putU32(mm.insn);
    out.putU64(mm.dutValue);
    out.putU64(mm.refValue);
    out.putU64(mm.instrIndex);
}

bool
readMismatch(soc::SnapshotReader &in, Mismatch &mm, std::string *error)
{
    const uint8_t kind = in.getU8();
    if (kind > static_cast<uint8_t>(MismatchKind::MemEffect)) {
        if (error)
            *error = "bad mismatch kind";
        return false;
    }
    mm.kind = static_cast<MismatchKind>(kind);
    mm.pc = in.getU64();
    mm.insn = in.getU32();
    mm.dutValue = in.getU64();
    mm.refValue = in.getU64();
    mm.instrIndex = in.getU64();
    return true;
}

} // namespace turbofuzz::checker
