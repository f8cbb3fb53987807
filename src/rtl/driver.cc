#include "rtl/driver.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::rtl
{

using isa::Opcode;

unsigned
fpKindOf(Opcode op)
{
    switch (op) {
      case Opcode::FaddS: case Opcode::FaddD:
      case Opcode::FsubS: case Opcode::FsubD:
        return 0;
      case Opcode::FmulS: case Opcode::FmulD:
        return 1;
      case Opcode::FdivS: case Opcode::FdivD:
        return 2;
      case Opcode::FsqrtS: case Opcode::FsqrtD:
        return 3;
      case Opcode::FmaddS: case Opcode::FmaddD:
      case Opcode::FmsubS: case Opcode::FmsubD:
      case Opcode::FnmsubS: case Opcode::FnmsubD:
      case Opcode::FnmaddS: case Opcode::FnmaddD:
        return 4;
      case Opcode::FminS: case Opcode::FminD:
      case Opcode::FmaxS: case Opcode::FmaxD:
        return 5;
      case Opcode::FeqS: case Opcode::FeqD:
      case Opcode::FltS: case Opcode::FltD:
      case Opcode::FleS: case Opcode::FleD:
        return 6;
      case Opcode::FcvtWS: case Opcode::FcvtWuS:
      case Opcode::FcvtLS: case Opcode::FcvtLuS:
      case Opcode::FcvtWD: case Opcode::FcvtWuD:
      case Opcode::FcvtLD: case Opcode::FcvtLuD:
        return 7;
      case Opcode::FcvtSW: case Opcode::FcvtSWu:
      case Opcode::FcvtSL: case Opcode::FcvtSLu:
      case Opcode::FcvtDW: case Opcode::FcvtDWu:
      case Opcode::FcvtDL: case Opcode::FcvtDLu:
        return 8;
      case Opcode::FcvtSD: case Opcode::FcvtDS:
        return 9;
      case Opcode::FmvXW: case Opcode::FmvWX:
      case Opcode::FmvXD: case Opcode::FmvDX:
        return 10;
      case Opcode::FclassS: case Opcode::FclassD:
        return 11;
      case Opcode::FsgnjS: case Opcode::FsgnjD:
      case Opcode::FsgnjnS: case Opcode::FsgnjnD:
      case Opcode::FsgnjxS: case Opcode::FsgnjxD:
        return 12;
      case Opcode::Flw: case Opcode::Fld:
        return 13;
      case Opcode::Fsw: case Opcode::Fsd:
        return 14;
      default:
        return 15; // not an FP op
    }
}

unsigned
opClassOf(const isa::InstrDesc &desc)
{
    unsigned kind = 0;
    if (desc.has(isa::FlagBranch))
        kind = 1;
    else if (desc.has(isa::FlagJal))
        kind = 2;
    else if (desc.has(isa::FlagJalr))
        kind = 3;
    else if (desc.has(isa::FlagAtomic))
        kind = 4;
    else if (desc.has(isa::FlagLoad))
        kind = 5;
    else if (desc.has(isa::FlagStore))
        kind = 6;
    else if (desc.has(isa::FlagCsr))
        kind = 7;
    return static_cast<unsigned>(desc.ext) * 8 + kind;
}

EventDriver::EventDriver(Module *top_module) : top(top_module)
{
    TF_ASSERT(top != nullptr, "driver requires a module tree");
    top->visit([this](Module &m) {
        for (Register &r : m.registers()) {
            regCache.push_back(&r);
            regsByRole[static_cast<size_t>(r.role)].push_back(&r);
        }
    });
    buildRolePlans();
    reset();
}

void
EventDriver::buildRolePlans()
{
    for (size_t role = 0; role < regsByRole.size(); ++role) {
        RolePlan &plan = rolePlans[role];
        std::vector<std::pair<uint32_t, Register *>> dom;
        for (Register *r : regsByRole[role]) {
            if (!r->domain.empty())
                dom.emplace_back(
                    static_cast<uint32_t>(r->domain.size()), r);
            else if (r->salt != 0)
                plan.mixRegs.push_back(
                    {r, r->salt, mask(r->width)});
            else
                plan.shiftRegs.push_back(
                    {r, r->srcShift, mask(r->width)});
        }
        // Stable sort keeps same-size registers in tree order while
        // forming one contiguous run per distinct domain size.
        std::stable_sort(dom.begin(), dom.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &[size, reg] : dom) {
            if (plan.runs.empty() || plan.runs.back().size != size)
                plan.runs.push_back(
                    {size,
                     static_cast<uint32_t>(plan.domainRegs.size()),
                     static_cast<uint32_t>(plan.domainRegs.size())});
            plan.domainRegs.push_back(reg);
            plan.runs.back().end =
                static_cast<uint32_t>(plan.domainRegs.size());
        }
        if (!regsByRole[role].empty())
            rolesWithRegs |= uint64_t{1} << role;
    }
}

void
EventDriver::writeRole(unsigned role, uint64_t value)
{
    const RolePlan &plan = rolePlans[role];
    for (const DomainRun &run : plan.runs) {
        const uint64_t idx = value % run.size;
        for (uint32_t k = run.begin; k < run.end; ++k) {
            Register *r = plan.domainRegs[k];
            r->value = r->domain[idx];
        }
    }
    for (const MixReg &m : plan.mixRegs) {
        uint64_t z = value ^ m.salt;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        m.reg->value = z & m.widthMask;
    }
    for (const ShiftReg &s : plan.shiftRegs)
        s.reg->value = (value >> s.shift) & s.widthMask;
}

void
EventDriver::reset()
{
    roles.fill(0);
    pendingDirty = 0;
    regsSynced = false;
    sweptBy = nullptr;
    branchHist = 0;
    cfDepth = 0;
    lastLoopTarget = 0;
    loopState = 0;
    lastMemAddr = 0;
    lastStride = 0;
    strideState = 0;
    recentPages.fill(~uint64_t{0});
    pageCursor = 0;
    dcacheState = 0;
    icacheState = 0;
    lastPcPage = ~uint64_t{0};
    ptwState = 0;
    tlbState = 0;
    robOcc = 0;
    iqOcc = 0;
    resArmed = false;
    for (Register *r : regCache)
        r->value = r->domain.empty() ? 0 : r->domain.front();
}

uint64_t
EventDriver::mapToDomain(uint64_t value, const Register &reg)
{
    if (!reg.domain.empty())
        return reg.domain[value % reg.domain.size()];
    if (reg.salt != 0) {
        // Derived control state: a salted mix of the role value
        // (distinct logic cone over the same architectural quantity).
        uint64_t z = value ^ reg.salt;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        return z & mask(reg.width);
    }
    return (value >> reg.srcShift) & mask(reg.width);
}

uint64_t
EventDriver::updateRoles(const core::CommitInfo &ci)
{
    sweptBy = nullptr;
    uint64_t dirty = 0;
    auto set = [this, &dirty](RegRole role, uint64_t v) {
        const size_t idx = static_cast<size_t>(role);
        if (roles[idx] != v) {
            roles[idx] = v;
            dirty |= uint64_t{1} << idx;
        }
    };

    // --- always-updated roles ----------------------------------------
    set(RegRole::PcLow, ci.pc >> 2);
    const uint64_t pc_page = ci.pc >> 12;
    set(RegRole::PcPage, pc_page ^ (pc_page >> 7));
    set(RegRole::TrapFlag, ci.trapped ? 1 : 0);
    if (ci.trapped)
        set(RegRole::TrapCause, ci.trapCause);

    // Fetch-stream locality FSM: 0 sequential, 1 near jump, 2 return
    // to a recent page, 3 far jump.
    if (pc_page == lastPcPage) {
        icacheState = 0;
    } else {
        const bool recent =
            std::find(recentPages.begin(), recentPages.end(),
                      pc_page) != recentPages.end();
        icacheState = recent ? 2u
                             : ((pc_page > lastPcPage
                                     ? pc_page - lastPcPage
                                     : lastPcPage - pc_page) <= 1
                                    ? 1u
                                    : 3u);
    }
    lastPcPage = pc_page;
    set(RegRole::IcacheFsm, icacheState);

    if (!ci.decodeValid)
        return dirty;

    const isa::InstrDesc &d = *ci.desc;
    set(RegRole::OpClass, opClassOf(d));
    set(RegRole::RdIdx, ci.ops.rd);
    set(RegRole::Rs1Idx, ci.ops.rs1);
    set(RegRole::ImmLow, static_cast<uint64_t>(ci.ops.imm));

    // Writeback digest: popcount + parity of the result value.
    const uint64_t wb = ci.frdWritten ? ci.frdValue : ci.rdValue;
    set(RegRole::Datapath,
        static_cast<uint64_t>(popcount64(wb)) |
            ((wb & 1) << 6));

    // --- control flow --------------------------------------------------
    if (d.has(isa::FlagBranch)) {
        branchHist = (branchHist << 1) | (ci.branchTaken ? 1 : 0);
        set(RegRole::BranchTaken, ci.branchTaken ? 1 : 0);
        set(RegRole::BranchHistory, branchHist);

        // Loop detector: consecutive taken backward branches to the
        // same target walk the FSM toward its deep states.
        if (ci.branchTaken && ci.nextPc < ci.pc) {
            if (ci.nextPc == lastLoopTarget)
                loopState = std::min(loopState + 1, 5u);
            else
                loopState = 1;
            lastLoopTarget = ci.nextPc;
        } else if (loopState > 0) {
            // Fall-through decays the detector slowly; real loop
            // bodies contain non-branch instructions, so only a
            // *not-taken* outcome decays it.
            if (!ci.branchTaken)
                loopState -= 1;
        }
        set(RegRole::LoopFsm, loopState);
    }
    if (d.has(isa::FlagJal) || d.has(isa::FlagJalr)) {
        // Call/return depth estimate: rd==ra is a call, jalr with
        // rs1==ra and rd==x0 is a return.
        if (ci.ops.rd == 1)
            cfDepth = std::min(cfDepth + 1, 15);
        else if (d.has(isa::FlagJalr) && ci.ops.rs1 == 1 &&
                 ci.ops.rd == 0)
            cfDepth = std::max(cfDepth - 1, 0);
        set(RegRole::CfDepth, static_cast<uint64_t>(cfDepth));
    }

    // --- memory ---------------------------------------------------------
    if (ci.memAccess) {
        set(RegRole::MemAddrLow, ci.memAddr);
        set(RegRole::MemSize, ci.memSize == 1   ? 0u
                              : ci.memSize == 2 ? 1u
                              : ci.memSize == 4 ? 2u
                                                : 3u);
        set(RegRole::MemRw, ci.memWrite ? 1 : 0);

        const int64_t stride =
            static_cast<int64_t>(ci.memAddr - lastMemAddr);
        if (stride == lastStride && stride != 0 && stride <= 64 &&
            stride >= -64) {
            strideState = std::min(strideState + 1, 4u);
        } else {
            strideState = 0;
        }
        lastStride = stride;
        lastMemAddr = ci.memAddr;
        set(RegRole::StrideFsm, strideState);

        // Hit-streak estimate via a 4-entry recent-page window.
        const uint64_t page = ci.memAddr >> 12;
        const bool hit =
            std::find(recentPages.begin(), recentPages.end(), page) !=
            recentPages.end();
        if (hit) {
            dcacheState = std::min(dcacheState + 1, 5u);
        } else {
            dcacheState = 0;
            recentPages[pageCursor] = page;
            pageCursor = (pageCursor + 1) % recentPages.size();
            // A miss to a fresh page advances the PTW walk FSM; the
            // walk completes (returns to idle) after cycling.
            ptwState = (ptwState + 1) % 6;
            tlbState = (tlbState + 1) % 4;
        }
        set(RegRole::DcacheFsm, dcacheState);
        set(RegRole::PtwFsm, ptwState);
        set(RegRole::TlbFsm, tlbState);
    }

    if (d.has(isa::FlagAtomic)) {
        set(RegRole::AmoKind,
            static_cast<uint64_t>(ci.op) & 0xF);
        if (ci.op == Opcode::LrW || ci.op == Opcode::LrD)
            resArmed = true;
        else if (ci.op == Opcode::ScW || ci.op == Opcode::ScD)
            resArmed = false;
        set(RegRole::ResState, resArmed ? 1 : 0);
    }

    // --- FP ----------------------------------------------------------------
    if (d.has(isa::FlagFp)) {
        set(RegRole::FpKind, fpKindOf(ci.op));
        set(RegRole::FpPrec, d.has(isa::FlagDouble) ? 1 : 0);
        if (ci.fpClassRs1 != 0xFF)
            set(RegRole::FpClassA, ci.fpClassRs1);
        if (ci.fpClassRs2 != 0xFF)
            set(RegRole::FpClassB, ci.fpClassRs2);
        set(RegRole::Fflags, ci.fflagsAccrued);
        if (d.has(isa::FlagHasRm))
            set(RegRole::Frm, ci.ops.rm < 5 ? ci.ops.rm : 0);
    }

    // --- CSR ------------------------------------------------------------------
    if (d.has(isa::FlagCsr)) {
        set(RegRole::CsrAddr,
            (ci.ops.csr ^ (ci.ops.csr >> 5)) & 0x1F);
    }

    // --- M extension -------------------------------------------------------
    const bool muldiv = d.has(isa::FlagMulDiv);
    set(RegRole::MulDivBusy, muldiv ? 1 : 0);
    if (muldiv) {
        // Divider latency depends on operand magnitude; digest via
        // the result's leading-zero count.
        const unsigned lz =
            ci.rdValue ? static_cast<unsigned>(
                             __builtin_clzll(ci.rdValue))
                       : 64;
        set(RegRole::DivCycles, lz);
        set(RegRole::MulSigns,
            ((ci.rdValue >> 63) << 1) | (ci.rdValue & 1));
    }

    // --- out-of-order occupancy estimates --------------------------------
    robOcc = std::min(robOcc + 1, 31u);
    iqOcc = std::min(iqOcc + 1, 15u);
    if (ci.branchTaken || ci.trapped) {
        robOcc = robOcc / 2;
        iqOcc = iqOcc / 2;
    }
    if (d.has(isa::FlagLoad))
        iqOcc = iqOcc >= 2 ? iqOcc - 2 : 0;
    set(RegRole::RobOcc, robOcc);
    set(RegRole::IqOcc, iqOcc);
    return dirty;
}

void
EventDriver::materializeRegisters()
{
    uint64_t remaining = pendingDirty & rolesWithRegs;
    pendingDirty = 0;
    while (remaining) {
        const unsigned role = static_cast<unsigned>(
            __builtin_ctzll(remaining));
        remaining &= remaining - 1;
        writeRole(role, roles[role]);
    }
}

void
EventDriver::onCommit(const core::CommitInfo &ci)
{
    updateRoles(ci);
    pendingDirty = 0; // the full write below covers any lag
    uint64_t remaining = rolesWithRegs;
    while (remaining) {
        const unsigned role = static_cast<unsigned>(
            __builtin_ctzll(remaining));
        remaining &= remaining - 1;
        writeRole(role, roles[role]);
    }
    regsSynced = true;
}

uint64_t
EventDriver::onCommitDirty(const core::CommitInfo &ci)
{
    const uint64_t dirty = updateRoles(ci);
    uint64_t remaining = dirty & rolesWithRegs;
    while (remaining) {
        const unsigned role = static_cast<unsigned>(
            __builtin_ctzll(remaining));
        remaining &= remaining - 1;
        writeRole(role, roles[role]);
    }
    return dirty;
}

void
EventDriver::onTrace(const core::CommitInfo *commits, size_t n)
{
    if (n == 0)
        return;
    // First commit rewrites every register (establishing the
    // invariant onCommitDirty relies on), the rest drive
    // incrementally.
    onCommit(commits[0]);
    for (size_t i = 1; i < n; ++i)
        onCommitDirty(commits[i]);
}

void
EventDriver::saveState(soc::SnapshotWriter &out) const
{
    out.putU32(static_cast<uint32_t>(regCache.size()));
    // regCache order is the deterministic module-tree walk order, so
    // positional serialization round-trips on any driver built over
    // the same design.
    for (const Register *r : regCache)
        out.putU64(r->value);
    for (uint64_t v : roles)
        out.putU64(v);
    out.putU64(branchHist);
    out.putU64(static_cast<uint64_t>(static_cast<int64_t>(cfDepth)));
    out.putU64(lastLoopTarget);
    out.putU32(loopState);
    out.putU64(lastMemAddr);
    out.putU64(static_cast<uint64_t>(lastStride));
    out.putU32(strideState);
    for (uint64_t v : recentPages)
        out.putU64(v);
    out.putU32(pageCursor);
    out.putU32(dcacheState);
    out.putU32(icacheState);
    out.putU64(lastPcPage);
    out.putU32(ptwState);
    out.putU32(tlbState);
    out.putU32(robOcc);
    out.putU32(iqOcc);
    out.putU8(resArmed ? 1 : 0);
}

bool
EventDriver::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    // Registers and roles are restored independently (and a failed
    // load leaves them half-written): nothing may assume they agree.
    regsSynced = false;
    sweptBy = nullptr;
    try {
        const uint32_t count = in.getU32();
        if (count != regCache.size())
            return fail("driver register count mismatch");
        for (Register *r : regCache)
            r->value = in.getU64();
        for (uint64_t &v : roles)
            v = in.getU64();
        branchHist = in.getU64();
        cfDepth = static_cast<int>(
            static_cast<int64_t>(in.getU64()));
        lastLoopTarget = in.getU64();
        loopState = in.getU32();
        lastMemAddr = in.getU64();
        lastStride = static_cast<int64_t>(in.getU64());
        strideState = in.getU32();
        for (uint64_t &v : recentPages)
            v = in.getU64();
        pageCursor = in.getU32();
        dcacheState = in.getU32();
        icacheState = in.getU32();
        lastPcPage = in.getU64();
        ptwState = in.getU32();
        tlbState = in.getU32();
        robOcc = in.getU32();
        iqOcc = in.getU32();
        resArmed = in.getU8() != 0;
        pendingDirty = 0; // registers restored directly: nothing lags
        return true;
    } catch (const soc::SnapshotFormatError &e) {
        return fail(e.what());
    }
}

} // namespace turbofuzz::rtl
