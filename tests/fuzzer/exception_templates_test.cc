/** @file Exception-template (trap handler) tests. */

#include <gtest/gtest.h>

#include "core/iss.hh"
#include "fuzzer/exception_templates.hh"
#include "isa/csr.hh"
#include "isa/encoding.hh"

namespace turbofuzz::fuzzer
{
namespace
{

namespace csr = isa::csr;

TEST(ExceptionTemplates, HandlerCodeDecodes)
{
    for (uint32_t w : ExceptionTemplates::handlerCode())
        EXPECT_TRUE(isa::decode(w).valid);
    EXPECT_EQ(ExceptionTemplates::handlerLength(),
              ExceptionTemplates::handlerCode().size());
    EXPECT_LE(ExceptionTemplates::handlerLength(), 8u);
}

TEST(ExceptionTemplates, InstallWritesHandler)
{
    soc::Memory mem;
    MemoryLayout lay;
    const uint64_t base = ExceptionTemplates::install(mem, lay);
    EXPECT_EQ(base, lay.handlerBase);
    const std::span<const uint32_t> code =
        ExceptionTemplates::handlerCode();
    for (size_t i = 0; i < code.size(); ++i)
        EXPECT_EQ(mem.read32(base + 4 * i), code[i]);
}

/** Full resume flow: a faulting instruction is skipped, state fixed. */
TEST(ExceptionTemplates, ResumesAfterFaultingInstruction)
{
    soc::Memory mem;
    MemoryLayout lay;
    ExceptionTemplates::install(mem, lay);

    // Program: addi x1,x0,7 ; <illegal> ; addi x2,x0,9
    isa::Operands a;
    a.rd = 1;
    a.imm = 7;
    mem.write32(lay.instrBase, isa::encode(isa::Opcode::Addi, a));
    mem.write32(lay.instrBase + 4, 0xFFFFFFFF);
    isa::Operands b;
    b.rd = 2;
    b.imm = 9;
    mem.write32(lay.instrBase + 8, isa::encode(isa::Opcode::Addi, b));

    core::Iss::Options opts;
    opts.resetPc = lay.instrBase;
    core::Iss hart(&mem, opts);
    hart.state().mtvec = lay.handlerBase;

    // Execute through the fault and the handler (the pc leaves the
    // program region while inside the handler, so step a fixed count).
    for (int i = 0; i < 12; ++i)
        hart.step();
    EXPECT_EQ(hart.state().x(1), 7u);
    EXPECT_EQ(hart.state().x(2), 9u); // resumed past the fault
}

TEST(ExceptionTemplates, RepairsFpuStateAndFrm)
{
    soc::Memory mem;
    MemoryLayout lay;
    ExceptionTemplates::install(mem, lay);

    // Program: one FP instruction with the FPU disabled.
    isa::Operands f;
    f.rd = 1;
    f.rs1 = 2;
    f.rs2 = 3;
    mem.write32(lay.instrBase, isa::encode(isa::Opcode::FaddD, f));
    isa::Operands nop;
    nop.rd = 0;
    mem.write32(lay.instrBase + 4,
                isa::encode(isa::Opcode::Addi, nop));

    core::Iss::Options opts;
    opts.resetPc = lay.instrBase;
    core::Iss hart(&mem, opts);
    hart.state().mtvec = lay.handlerBase;
    hart.state().setFsField(csr::mstatusFsOff);
    hart.state().frm = 6; // invalid dynamic rm

    for (int i = 0; i < 10; ++i)
        hart.step();
    // The template re-enabled the FPU and reset frm to RNE.
    EXPECT_TRUE(hart.state().fpEnabled());
    EXPECT_EQ(hart.state().frm, csr::rmRNE);
}

TEST(ExceptionTemplates, HandlerOnlyClobbersReservedRegister)
{
    soc::Memory mem;
    MemoryLayout lay;
    ExceptionTemplates::install(mem, lay);

    mem.write32(lay.instrBase, 0xFFFFFFFF); // immediate fault
    isa::Operands nop;
    nop.rd = 0;
    mem.write32(lay.instrBase + 4,
                isa::encode(isa::Opcode::Addi, nop));

    core::Iss::Options opts;
    opts.resetPc = lay.instrBase;
    core::Iss hart(&mem, opts);
    hart.state().mtvec = lay.handlerBase;
    for (unsigned r = 1; r < 32; ++r)
        hart.state().setX(r, 1000 + r);

    for (int i = 0; i < 10; ++i)
        hart.step();
    for (unsigned r = 1; r < 32; ++r) {
        if (r == MemoryLayout::regHandlerTmp)
            continue;
        EXPECT_EQ(hart.state().x(r), 1000 + r) << "x" << r;
    }
}

} // namespace
} // namespace turbofuzz::fuzzer
