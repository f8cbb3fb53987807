/**
 * @file
 * Exception-handling templates with execution guarantee (§IV-C).
 *
 * The fuzzer installs a machine-trap handler that repairs the state a
 * faulting instruction needs (re-enables the FPU via mstatus.FS,
 * resets the rounding mode) and resumes execution *after* the
 * faulting instruction, so one bad instruction never wastes the rest
 * of a 4000-instruction iteration. Unresolvable situations (trap
 * storms) are detected by the harness via a per-iteration trap cap
 * and abort the iteration, matching the paper's fallback.
 */

#ifndef TURBOFUZZ_FUZZER_EXCEPTION_TEMPLATES_HH
#define TURBOFUZZ_FUZZER_EXCEPTION_TEMPLATES_HH

#include <cstdint>
#include <span>

#include "fuzzer/context.hh"
#include "soc/memory.hh"

namespace turbofuzz::fuzzer
{

/** The trap-handler template. */
class ExceptionTemplates
{
  public:
    /** Instruction words of the resume handler (built once). */
    static std::span<const uint32_t> handlerCode();

    /** Number of instructions the handler executes per trap. */
    static uint32_t handlerLength();

    /**
     * Write the handler into @p mem at the layout's handler base.
     * @return the handler entry address (for mtvec).
     */
    static uint64_t install(soc::Memory &mem,
                            const MemoryLayout &layout);
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_EXCEPTION_TEMPLATES_HH
