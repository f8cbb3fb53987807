/**
 * @file
 * The batched coverage sweep against its per-commit oracle.
 *
 * CoverageMap::recordTrace() carries its maintained module indices
 * from one sweep to the next and drops the full refresh at commit 0
 * when the sweep tokens say nothing has touched the driver or the map
 * since. The oracle is the plain per-commit path — drv.onCommit(ci)
 * then map.record() — which rewrites every register and samples
 * every module. Both sides must report the same newly-hit counts,
 * totals, register values and first-hit attributions, sweep after
 * sweep, under every perturbation that has to break a token (and
 * under a merge that must not need to).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/commit_info.hh"
#include "coverage/coverage_map.hh"
#include "coverage/provenance.hh"
#include "rtl/cores.hh"
#include "rtl/driver.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::coverage
{
namespace
{

using core::CommitInfo;
using isa::Opcode;

constexpr size_t kSweeps = 12;

/**
 * A seeded synthetic commit stream that moves every role family:
 * recurring small operand values (memo hits) next to wide ones,
 * loops, strided and scattered memory traffic, traps, illegal words
 * and FP class/flag changes.
 */
std::vector<CommitInfo>
commitStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<CommitInfo> out(n);
    uint64_t pc = 0x80000000ull;
    uint64_t addr = 0x80010000ull;
    uint64_t minstret = 0;
    for (CommitInfo &ci : out) {
        ci.pc = pc;
        ci.nextPc = pc + 4;
        if (rng.chance(1, 25)) {
            ci.insn = 0;
        } else {
            const auto op =
                static_cast<Opcode>(rng.range(isa::numOpcodes()));
            const isa::InstrDesc &d = isa::descOf(op);
            ci.decodeValid = true;
            ci.op = op;
            ci.desc = &d;
            ci.ops.rd = static_cast<uint8_t>(rng.range(32));
            ci.ops.rs1 = static_cast<uint8_t>(rng.range(32));
            ci.ops.rs2 = static_cast<uint8_t>(rng.range(32));
            ci.ops.imm = rng.chance(3, 4)
                             ? static_cast<int64_t>(rng.range(64)) - 32
                             : static_cast<int64_t>(rng.next());
            ci.ops.rm = static_cast<uint8_t>(rng.range(8));
            ci.ops.csr = static_cast<uint16_t>(0x300 + rng.range(8));
            ci.rdWritten = true;
            ci.rd = ci.ops.rd;
            ci.rdValue = rng.chance(1, 2) ? rng.range(16) : rng.next();
            if (d.has(isa::FlagFp)) {
                ci.frdWritten = rng.chance(1, 2);
                ci.frdValue = rng.next();
                ci.fpClassRs1 = rng.chance(1, 4)
                                    ? 0xFF
                                    : static_cast<uint8_t>(rng.range(10));
                ci.fpClassRs2 = rng.chance(1, 4)
                                    ? 0xFF
                                    : static_cast<uint8_t>(rng.range(10));
                ci.fflagsAccrued = static_cast<uint8_t>(rng.range(32));
            }
            if (d.isMemAccess()) {
                addr += rng.chance(3, 4) ? 8 : rng.range(1u << 16);
                ci.memAccess = true;
                ci.memWrite = d.has(isa::FlagStore);
                ci.memAddr = addr;
                ci.memSize = static_cast<uint8_t>(1u << rng.range(4));
            }
            if (d.has(isa::FlagBranch)) {
                ci.branchTaken = rng.chance(1, 2);
                if (ci.branchTaken)
                    ci.nextPc = rng.chance(3, 4) ? pc - 16
                                                 : pc + 4 * rng.range(64);
            }
        }
        if (rng.chance(1, 40)) {
            ci.trapped = true;
            ci.trapCause = rng.range(16);
            ci.nextPc = 0x80001000ull;
        }
        if (rng.chance(1, 50))
            ci.nextPc = 0x80000000ull + (rng.range(4) << 12);
        ci.minstretAfter = ++minstret;
        pc = ci.nextPc;
    }
    return out;
}

std::vector<uint64_t>
registerValues(rtl::Module &m)
{
    std::vector<uint64_t> v;
    m.visit([&](rtl::Module &mod) {
        for (const rtl::Register &r : mod.registers())
            v.push_back(r.value);
    });
    return v;
}

std::vector<uint8_t>
saveImage(const auto &obj)
{
    soc::SnapshotWriter w;
    obj.saveState(w);
    return w.takeBuffer();
}

bool
loadImage(auto &obj, const std::vector<uint8_t> &image)
{
    soc::SnapshotReader r(image);
    return obj.loadState(r);
}

/** A design, its instrumentation and a coverage map over it. */
struct Instrumented
{
    explicit Instrumented(core::CoreKind kind)
        : design(rtl::buildCore(kind)),
          instr(std::make_unique<DesignInstrumentation>(
              design.get(), Scheme::Optimized, 15, 1)),
          map(instr.get())
    {
    }

    std::unique_ptr<rtl::Module> design;
    std::unique_ptr<DesignInstrumentation> instr;
    CoverageMap map;
};

/**
 * One side of the comparison: an instrumented design with a ledger
 * bound to its map, and two drivers A and B. The oracle drives both
 * over the map's own design — per-commit onCommit() rewrites every
 * register, so the registers always show the driver stepped last,
 * which is what record() samples. The swept side gives B a
 * structurally identical design of its own: a sweep computes from
 * the driver's role values and never reads the map's registers.
 */
struct Side
{
    Side(core::CoreKind kind, bool is_oracle)
        : oracle(is_oracle), main(kind),
          designB(is_oracle ? nullptr : rtl::buildCore(kind)),
          drvA(main.design.get()),
          drvB(is_oracle ? main.design.get() : designB.get())
    {
        main.map.bindProvenance(&ledger);
    }

    uint64_t
    run(rtl::EventDriver &drv, const CommitInfo *commits, size_t n)
    {
        if (!oracle)
            return main.map.recordTrace(drv, commits, n);
        uint64_t newly = 0;
        for (size_t i = 0; i < n; ++i) {
            drv.onCommit(commits[i]);
            newly += main.map.record();
        }
        return newly;
    }

    rtl::Module &
    designOf(const rtl::EventDriver &drv)
    {
        return (&drv == &drvB && designB) ? *designB : *main.design;
    }

    bool oracle;
    Instrumented main;
    std::unique_ptr<rtl::Module> designB;
    rtl::EventDriver drvA;
    rtl::EventDriver drvB;
    FirstHitLedger ledger;
};

enum class Perturb
{
    None,
    DriverReset,
    DriverLoad,
    MapReset,
    MapLoad,
    MergeDelta,
    StrayCommit,
    OtherDriver, ///< sweep A, then B, then A again
};

const char *
perturbName(Perturb p)
{
    switch (p) {
      case Perturb::None: return "none";
      case Perturb::DriverReset: return "driver reset";
      case Perturb::DriverLoad: return "driver loadState";
      case Perturb::MapReset: return "map reset";
      case Perturb::MapLoad: return "map loadState";
      case Perturb::MergeDelta: return "mergeDelta";
      case Perturb::StrayCommit: return "onCommit outside a sweep";
      case Perturb::OtherDriver: return "driver A, B, A";
    }
    return "?";
}

/** Sweeps kSweeps x @p sweep commits on both sides, perturbing both
 *  identically before sweeps 4 and 8, and compares after each. */
void
expectMatchesOracle(core::CoreKind kind, size_t sweep, Perturb p)
{
    Side oracle(kind, true);
    Side swept(kind, false);
    ASSERT_LE(oracle.main.map.moduleCount(), 64u)
        << "design takes the wide-map path, not the carried sweep";
    const std::vector<CommitInfo> stream_a =
        commitStream(11, kSweeps * sweep);
    const std::vector<CommitInfo> stream_b =
        commitStream(22, kSweeps * sweep);
    const std::vector<CommitInfo> stray = commitStream(33, 2);

    // A published delta from a third map with its own history.
    std::vector<SparseWords> delta;
    {
        Instrumented donor(kind);
        rtl::EventDriver drv(donor.design.get());
        for (const CommitInfo &ci : commitStream(44, 512)) {
            drv.onCommit(ci);
            donor.map.record();
        }
        donor.map.publishDelta(delta);
    }

    std::vector<uint8_t> drv_image[2], map_image[2];
    Side *sides[2] = {&oracle, &swept};
    for (size_t k = 0; k < kSweeps; ++k) {
        SCOPED_TRACE(testing::Message() << "sweep " << k);
        const bool perturb_now = k == 4 || k == 8;
        for (int s = 0; s < 2; ++s) {
            Side &side = *sides[s];
            if (k == 2) {
                drv_image[s] = saveImage(side.drvA);
                map_image[s] = saveImage(side.main.map);
            }
            if (!perturb_now)
                continue;
            switch (p) {
              case Perturb::DriverReset: side.drvA.reset(); break;
              case Perturb::DriverLoad:
                ASSERT_TRUE(loadImage(side.drvA, drv_image[s]));
                break;
              case Perturb::MapReset: side.main.map.reset(); break;
              case Perturb::MapLoad:
                ASSERT_TRUE(loadImage(side.main.map, map_image[s]));
                break;
              case Perturb::MergeDelta:
                ASSERT_TRUE(side.main.map.mergeDelta(delta));
                break;
              case Perturb::StrayCommit:
                side.drvA.onCommit(stray[k == 4 ? 0 : 1]);
                break;
              default: break;
            }
        }

        const bool use_b = p == Perturb::OtherDriver && k >= 4 && k < 8;
        const CommitInfo *commits =
            (use_b ? stream_b : stream_a).data() + k * sweep;
        uint64_t newly[2];
        for (int s = 0; s < 2; ++s) {
            Side &side = *sides[s];
            side.ledger.setContext(k, 0, 0, static_cast<double>(k), 0);
            newly[s] = side.run(use_b ? side.drvB : side.drvA, commits,
                                sweep);
        }
        EXPECT_EQ(newly[1], newly[0]);
        EXPECT_EQ(swept.main.map.totalCovered(),
                  oracle.main.map.totalCovered());
        EXPECT_EQ(saveImage(swept.main.map), saveImage(oracle.main.map));
        EXPECT_EQ(
            registerValues(swept.designOf(use_b ? swept.drvB
                                                : swept.drvA)),
            registerValues(oracle.designOf(use_b ? oracle.drvB
                                                 : oracle.drvA)));
        const auto want = oracle.ledger.sortedEntries();
        const auto got = swept.ledger.sortedEntries();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].first, want[i].first);
            EXPECT_EQ(got[i].second.iteration, want[i].second.iteration)
                << "point key " << got[i].first;
        }
        if (testing::Test::HasFailure())
            return;
    }
}

/**
 * Sweeps of 1, 7 and 64 commits on a Rocket and a BOOM design. With
 * one-commit sweeps the per-sweep ledger context is a per-commit
 * one, so the first-hit attribution pins the order of first hits.
 */
TEST(CoverageSweep, MatchesPerCommitOracle)
{
    for (const core::CoreKind kind :
         {core::CoreKind::Rocket, core::CoreKind::Boom}) {
        for (const size_t sweep : {size_t{1}, size_t{7}, size_t{64}}) {
            for (const Perturb p :
                 {Perturb::None, Perturb::DriverReset,
                  Perturb::DriverLoad, Perturb::MapReset,
                  Perturb::MapLoad, Perturb::MergeDelta,
                  Perturb::StrayCommit, Perturb::OtherDriver}) {
                SCOPED_TRACE(testing::Message()
                             << "core " << static_cast<int>(kind)
                             << " sweep " << sweep << " perturbation "
                             << perturbName(p));
                expectMatchesOracle(kind, sweep, p);
                if (testing::Test::HasFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace turbofuzz::coverage
