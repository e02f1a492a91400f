#include "mem/cache.h"

#include "mem/cache_run.h"
#include "sim/logging.h"

namespace hiss {
namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::uint32_t
log2u(std::uint64_t v)
{
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v)
        ++s;
    return s;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (params.line_bytes == 0 || !isPowerOfTwo(params.line_bytes))
        fatal("cache line size must be a power of two, got %u",
              params.line_bytes);
    if (params.assoc == 0)
        fatal("cache associativity must be positive");
    if (params.size_bytes % (params.line_bytes * params.assoc) != 0)
        fatal("cache size %u not divisible by way size", params.size_bytes);
    num_sets_ = params.size_bytes / (params.line_bytes * params.assoc);
    if (!isPowerOfTwo(num_sets_))
        fatal("cache set count %u must be a power of two", num_sets_);
    line_shift_ = log2u(params.line_bytes);
    const std::size_t lines =
        static_cast<std::size_t>(num_sets_) * params.assoc;
    tags_.assign(lines, 0);
    lru_.assign(lines, 0);
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr >> line_shift_)
                                      & (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> line_shift_;
}

/**
 * The one lookup/replace entry, shared by the scalar and batch paths
 * so they cannot diverge. The loop itself lives in cache_run.h.
 */
template <bool Record>
std::uint64_t
Cache::accessRun(const Addr *addrs, std::size_t n, std::uint8_t *hits_out)
{
    cache_detail::RunState state{tags_.data(), lru_.data(),
                                 params_.assoc, num_sets_ - 1,
                                 line_shift_, use_clock_};
    const std::uint64_t miss_count =
        cache_detail::run<Record>(state, addrs, n, hits_out);
    use_clock_ = state.clock;
    accesses_ += n;
    misses_ += miss_count;
    return miss_count;
}

bool
Cache::access(Addr addr)
{
    std::uint8_t hit = 0;
    accessRun<true>(&addr, 1, &hit);
    return hit != 0;
}

std::uint64_t
Cache::accessBatch(const Addr *addrs, std::size_t n,
                   std::uint8_t *hits_out)
{
    if (hits_out != nullptr)
        return accessRun<true>(addrs, n, hits_out);
    return accessRun<false>(addrs, n, nullptr);
}

bool
Cache::contains(Addr addr) const
{
    const std::uint32_t set = setIndex(addr);
    const Addr code = tagOf(addr) + 1;
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.assoc;
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        if (tags_[base + way] == code)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Addr &code : tags_)
        code = 0;
    for (std::uint64_t &stamp : lru_)
        stamp = 0;
    ++flushes_;
}

void
Cache::resetCounters()
{
    accesses_ = 0;
    misses_ = 0;
    flushes_ = 0;
}

std::uint64_t
Cache::stateHash() const
{
    // FNV-1a over (tag code, lru stamp) per line — tag codes are 0
    // for invalid ways, so the hash covers exactly the
    // behaviour-relevant state.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::size_t i = 0; i < lru_.size(); ++i) {
        mix(tags_[i]);
        mix(lru_[i]);
    }
    mix(use_clock_);
    mix(accesses_);
    mix(misses_);
    mix(flushes_);
    return h;
}

} // namespace hiss
