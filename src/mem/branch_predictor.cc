#include "mem/branch_predictor.h"

#include "sim/logging.h"

namespace hiss {

BranchPredictor::BranchPredictor(const BranchPredictorParams &params)
    : params_(params)
{
    if (params.table_bits == 0 || params.table_bits > 24)
        fatal("branch predictor table_bits out of range: %u",
              params.table_bits);
    if (params.history_bits > 32)
        fatal("branch predictor history_bits out of range: %u",
              params.history_bits);
    mask_ = (std::uint32_t{1} << params.table_bits) - 1;
    hist_mask_ = params.history_bits >= 32
        ? ~std::uint32_t{0}
        : (std::uint32_t{1} << params.history_bits) - 1;
    table_.assign(std::size_t{1} << params.table_bits, 2); // weakly taken
}

std::uint32_t
BranchPredictor::index(Addr pc) const
{
    const auto pc_bits = static_cast<std::uint32_t>(pc >> 2);
    return (pc_bits ^ (history_ & hist_mask_)) & mask_;
}

bool
BranchPredictor::predict(Addr pc) const
{
    return table_[index(pc)] >= 2;
}

/**
 * The one predict/update implementation, shared by the scalar and
 * batch entry points so they cannot diverge. History, table pointer,
 * and the mispredict count stay in locals across the loop.
 */
template <bool Record>
std::uint64_t
BranchPredictor::predictRun(const BranchOutcome *outcomes, std::size_t n,
                            std::uint8_t *correct_out)
{
    std::uint8_t *const table = table_.data();
    const std::uint32_t mask = mask_;
    const std::uint32_t hist_mask = hist_mask_;
    std::uint32_t history = history_;
    std::uint64_t miss_count = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const auto pc_bits =
            static_cast<std::uint32_t>(outcomes[i].pc >> 2);
        const bool taken = outcomes[i].taken;
        const std::uint32_t idx = (pc_bits ^ (history & hist_mask)) & mask;
        const std::uint8_t counter = table[idx];
        const bool correct = (counter >= 2) == taken;
        miss_count += static_cast<std::uint64_t>(!correct);
        if constexpr (Record)
            correct_out[i] = static_cast<std::uint8_t>(correct);

        // Update the 2-bit saturating counter, branch-free: taken
        // outcomes are data-dependent, so an if/else mispredicts.
        const unsigned up = static_cast<unsigned>(taken)
            & static_cast<unsigned>(counter < 3);
        const unsigned down = static_cast<unsigned>(!taken)
            & static_cast<unsigned>(counter > 0);
        table[idx] = static_cast<std::uint8_t>(counter + up - down);

        // Shift the outcome into global history.
        history = (history << 1) | static_cast<std::uint32_t>(taken);
    }

    history_ = history;
    lookups_ += n;
    mispredicts_ += miss_count;
    return miss_count;
}

bool
BranchPredictor::predictAndUpdate(Addr pc, bool taken)
{
    std::uint8_t correct = 0;
    const BranchOutcome out{pc, taken};
    predictRun<true>(&out, 1, &correct);
    return correct != 0;
}

std::uint64_t
BranchPredictor::predictBatch(const BranchOutcome *outcomes,
                              std::size_t n, std::uint8_t *correct_out)
{
    if (correct_out != nullptr)
        return predictRun<true>(outcomes, n, correct_out);
    return predictRun<false>(outcomes, n, nullptr);
}

void
BranchPredictor::resetCounters()
{
    lookups_ = 0;
    mispredicts_ = 0;
}

void
BranchPredictor::reset()
{
    table_.assign(table_.size(), 2);
    history_ = 0;
    resetCounters();
}

std::uint64_t
BranchPredictor::stateHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const std::uint8_t counter : table_)
        mix(counter);
    mix(history_);
    mix(lookups_);
    mix(mispredicts_);
    return h;
}

} // namespace hiss
