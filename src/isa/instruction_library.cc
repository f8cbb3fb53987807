#include "isa/instruction_library.hh"

#include <algorithm>

#include "common/logging.hh"

namespace turbofuzz::isa
{

InstructionLibrary::InstructionLibrary()
    : excluded(numOpcodes(), false)
{
    enabled.fill(true);
    weights.fill(1.0);
    rebuild();
}

void
InstructionLibrary::setExtEnabled(Ext ext, bool on)
{
    enabled[static_cast<size_t>(ext)] = on;
    rebuild();
}

bool
InstructionLibrary::extEnabled(Ext ext) const
{
    return enabled[static_cast<size_t>(ext)];
}

void
InstructionLibrary::exclude(Opcode op)
{
    excluded[static_cast<size_t>(op)] = true;
    rebuild();
}

void
InstructionLibrary::include(Opcode op)
{
    excluded[static_cast<size_t>(op)] = false;
    rebuild();
}

void
InstructionLibrary::setExtWeight(Ext ext, double weight)
{
    TF_ASSERT(weight >= 0.0, "negative library weight");
    weights[static_cast<size_t>(ext)] = weight;
    rebuild();
}

void
InstructionLibrary::rebuild()
{
    activeOps.clear();
    cumWeights.clear();
    double acc = 0.0;
    for (const auto &d : allDescs()) {
        if (!enabled[static_cast<size_t>(d.ext)])
            continue;
        if (excluded[static_cast<size_t>(d.op)])
            continue;
        const double w = weights[static_cast<size_t>(d.ext)];
        if (w <= 0.0)
            continue;
        activeOps.push_back(d.op);
        acc += w;
        cumWeights.push_back(acc);
    }

    // Guide entry b: upper_bound of the smallest product bucket b can
    // produce. u = k * 2^-53 for a 53-bit k, and the product below is
    // pick()'s expression, monotone in k, so every draw in the bucket
    // has its upper_bound at or after the entry.
    pickGuide.clear();
    if (activeOps.empty())
        return;
    TF_ASSERT(activeOps.size() <= UINT16_MAX, "library too large");
    constexpr size_t buckets = size_t{1} << pickGuideBits;
    pickGuide.resize(buckets);
    for (size_t b = 0; b < buckets; ++b) {
        const double u = static_cast<double>(b << (53 - pickGuideBits)) *
                         0x1.0p-53;
        const double r = u * acc;
        pickGuide[b] = static_cast<uint16_t>(
            std::upper_bound(cumWeights.begin(), cumWeights.end(), r) -
            cumWeights.begin());
    }
}

const std::vector<Opcode> &
InstructionLibrary::active() const
{
    return activeOps;
}

// tflint: hot-path
Opcode
InstructionLibrary::pick(Rng &rng) const
{
    TF_ASSERT(!activeOps.empty(), "instruction library is empty");
    const double total = cumWeights.back();
    const double u = rng.uniform();
    const double r = u * total;
    // u * 2^pickGuideBits is exact: its floor is the draw's top bits.
    size_t idx = pickGuide[static_cast<size_t>(
        u * static_cast<double>(size_t{1} << pickGuideBits))];
    const size_t n = cumWeights.size();
    while (idx < n && cumWeights[idx] <= r)
        ++idx;
    return activeOps[std::min(idx, n - 1)];
}

bool
InstructionLibrary::contains(Opcode op) const
{
    // The filter rebuild() applies, evaluated for one opcode.
    const InstrDesc &d = descOf(op);
    return enabled[static_cast<size_t>(d.ext)] &&
           !excluded[static_cast<size_t>(op)] &&
           weights[static_cast<size_t>(d.ext)] > 0.0;
}

} // namespace turbofuzz::isa
