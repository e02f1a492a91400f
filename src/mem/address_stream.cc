#include "mem/address_stream.h"

#include "sim/logging.h"

namespace hiss {

AddressStream::AddressStream(const MemoryProfile &profile, Addr base,
                             std::uint64_t seed)
    : profile_(profile), base_(base), rng_(seed), cursor_(base)
{
    if (profile.working_set_bytes == 0)
        fatal("AddressStream: empty working set");
    if (profile.hot_set_bytes > profile.working_set_bytes)
        fatal("AddressStream: hot set larger than working set");
    if (profile.hot_fraction < 0.0 || profile.hot_fraction > 1.0)
        fatal("AddressStream: hot_fraction out of [0,1]");
}

void
AddressStream::fill(Addr *buf, std::size_t n)
{
    constexpr Addr line = 64;
    const Addr base = base_;
    const std::uint64_t hot_lines = profile_.hot_set_bytes / line;
    const std::uint64_t cold_lines = profile_.working_set_bytes / line;
    const Addr wrap = base + profile_.working_set_bytes;
    const double hot_fraction = profile_.hot_fraction;
    const double stride_fraction = profile_.stride_fraction;
    const bool has_hot = profile_.hot_set_bytes > 0;
    // Each range is drawn from only when it holds two lines or more.
    const Rng::IntRange hot_pick = Rng::intRange(0, hot_lines - 1);
    const Rng::IntRange cold_pick = Rng::intRange(0, cold_lines - 1);
    Addr cursor = cursor_;
    // HISS_LINT_ALLOW(rng-discipline): a working copy of the stream
    // that replaces rng_ on exit, so no draw is replayed. buf cannot
    // alias a local, so the generator state stays in registers instead
    // of being reloaded after every store to buf.
    Rng rng = rng_;

    for (std::size_t i = 0; i < n; ++i) {
        if (has_hot && rng.withProbability(hot_fraction)) {
            // Hot access: uniform within the hot subset.
            const std::uint64_t pick =
                hot_lines <= 1 ? 0 : rng.uniformInt(hot_pick);
            buf[i] = base + pick * line;
            continue;
        }
        // Cold access: sequential walk with probability
        // stride_fraction, else uniform within the full working set.
        if (rng.withProbability(stride_fraction)) {
            cursor += line;
            if (cursor >= wrap)
                cursor = base;
            buf[i] = cursor;
            continue;
        }
        const std::uint64_t pick =
            cold_lines <= 1 ? 0 : rng.uniformInt(cold_pick);
        buf[i] = base + pick * line;
    }

    rng_ = rng;
    cursor_ = cursor;
}

BranchStream::BranchStream(const BranchProfile &profile, Addr pc_base,
                           std::uint64_t seed)
    : profile_(profile), pc_base_(pc_base), rng_(seed)
{
    if (profile.static_branches == 0)
        fatal("BranchStream: need at least one branch site");
    if (profile.bias_min < 0.0 || profile.bias_max > 1.0
        || profile.bias_min > profile.bias_max)
        fatal("BranchStream: invalid bias range [%f, %f]",
              profile.bias_min, profile.bias_max);
    biases_.reserve(profile.static_branches);
    for (std::uint32_t i = 0; i < profile.static_branches; ++i)
        biases_.push_back(
            rng_.uniformReal(profile.bias_min, profile.bias_max));
}

void
BranchStream::fill(Outcome *buf, std::size_t n)
{
    const Addr pc_base = pc_base_;
    const double noise = profile_.pattern_noise;
    const double *const biases = biases_.data();
    const Rng::IntRange sites = Rng::intRange(0, biases_.size() - 1);
    // HISS_LINT_ALLOW(rng-discipline): a register-resident working
    // copy that replaces rng_ on exit, as in AddressStream::fill.
    Rng rng = rng_;

    for (std::size_t i = 0; i < n; ++i) {
        const auto site =
            static_cast<std::uint32_t>(rng.uniformInt(sites));
        const Addr pc = pc_base + static_cast<Addr>(site) * 16;
        bool taken;
        if (rng.withProbability(noise))
            taken = rng.withProbability(0.5);
        else
            taken = rng.withProbability(biases[site]);
        buf[i] = Outcome{pc, taken};
    }

    rng_ = rng;
}

} // namespace hiss
