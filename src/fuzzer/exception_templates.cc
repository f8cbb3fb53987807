#include "fuzzer/exception_templates.hh"

#include <vector>

#include "isa/csr.hh"
#include "isa/encoding.hh"

namespace turbofuzz::fuzzer
{

using isa::Opcode;
using isa::Operands;
namespace csr = isa::csr;

namespace
{

std::vector<uint32_t>
encodeHandler()
{
    constexpr unsigned tmp = MemoryLayout::regHandlerTmp;
    std::vector<uint32_t> code;

    auto csrR = [&](uint16_t addr, unsigned rd) {
        Operands o;
        o.rd = static_cast<uint8_t>(rd);
        o.rs1 = 0;
        o.csr = addr;
        return isa::encode(Opcode::Csrrs, o);
    };
    auto csrW = [&](uint16_t addr, unsigned rs1) {
        Operands o;
        o.rd = 0;
        o.rs1 = static_cast<uint8_t>(rs1);
        o.csr = addr;
        return isa::encode(Opcode::Csrrw, o);
    };

    // Re-enable the FPU: set mstatus.FS = dirty (bits 13..14).
    //   lui  x29, 0x6           -- 0x6000 = FS mask
    //   csrrs x0, mstatus, x29
    {
        Operands lui;
        lui.rd = tmp;
        lui.imm = 0x6;
        code.push_back(isa::encode(Opcode::Lui, lui));
        Operands set;
        set.rd = 0;
        set.rs1 = tmp;
        set.csr = csr::mstatus;
        code.push_back(isa::encode(Opcode::Csrrs, set));
    }

    // Reset the dynamic rounding mode to a valid value (RNE): an
    // instruction that trapped on an invalid frm can then be retried
    // by a later mutation without deadlocking the iteration.
    {
        Operands o;
        o.rd = 0;
        o.imm = csr::rmRNE;
        o.csr = csr::frm;
        code.push_back(isa::encode(Opcode::Csrrwi, o));
    }

    // Skip the faulting instruction:
    //   csrr x29, mepc ; addi x29, x29, 4 ; csrw mepc, x29 ; mret
    code.push_back(csrR(csr::mepc, tmp));
    {
        Operands o;
        o.rd = tmp;
        o.rs1 = tmp;
        o.imm = 4;
        code.push_back(isa::encode(Opcode::Addi, o));
    }
    code.push_back(csrW(csr::mepc, tmp));
    code.push_back(isa::encode(Opcode::Mret, {}));
    return code;
}

} // namespace

std::span<const uint32_t>
ExceptionTemplates::handlerCode()
{
    static const std::vector<uint32_t> code = encodeHandler();
    return code;
}

uint32_t
ExceptionTemplates::handlerLength()
{
    return static_cast<uint32_t>(handlerCode().size());
}

uint64_t
ExceptionTemplates::install(soc::Memory &mem, const MemoryLayout &layout)
{
    const std::span<const uint32_t> code = handlerCode();
    mem.writeWords(layout.handlerBase, code.data(), code.size());
    return layout.handlerBase;
}

} // namespace turbofuzz::fuzzer
