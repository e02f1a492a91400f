/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every simulator component draws from its own named Rng stream,
 * derived from a global experiment seed plus the component name, so a
 * run is reproducible and components' draws are independent of each
 * other's call order. The generator is xoshiro256**, seeded via
 * splitmix64.
 *
 * The hot helpers (next, uniformInt, uniformReal, withProbability)
 * are defined inline here so the batched stream-fill loops
 * (mem/address_stream.cc) compile down to straight-line generator
 * code; intRange lets those loops compute uniformInt's rejection
 * bound once per fill instead of once per draw. The emitted value
 * sequences are part of the determinism contract and must never
 * change (docs/TESTING.md).
 */

#ifndef HISS_SIM_RANDOM_H_
#define HISS_SIM_RANDOM_H_

#include <cstdint>
#include <string>

namespace hiss {

namespace snap {
struct Access;
}

/** A self-contained deterministic random stream. */
class Rng
{
  public:
    /** Seed directly from a 64-bit value. */
    explicit Rng(std::uint64_t seed);

    /**
     * Derive an independent stream from an experiment seed and a
     * component name (e.g. "core0.workload").
     */
    Rng(std::uint64_t experiment_seed, const std::string &stream_name);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * The range [lo, hi] of uniformInt with its rejection bound
     * computed once, for loops that draw many values from one range.
     */
    struct IntRange
    {
        std::uint64_t lo;
        std::uint64_t span;  ///< hi - lo + 1; 0 for the full 64 bits.
        std::uint64_t limit; ///< Draws at or above it are rejected.
    };

    /** The IntRange of [lo, hi] inclusive; requires lo <= hi. */
    static IntRange
    intRange(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo > hi)
            uniformIntRangeError(lo, hi);
        const std::uint64_t span = hi - lo + 1;
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = span == 0
            ? 0
            : ~std::uint64_t{0} - (~std::uint64_t{0} % span);
        return {lo, span, limit};
    }

    /** Uniform integer in @p range; draws what uniformInt(lo, hi) does. */
    std::uint64_t
    uniformInt(const IntRange &range)
    {
        if (range.span == 0)
            return next();
        std::uint64_t draw;
        do {
            draw = next();
        } while (draw >= range.limit);
        return range.lo + draw % range.span;
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return uniformInt(intRange(lo, hi));
    }

    /** Uniform real in [0, 1). */
    double
    uniformReal()
    {
        // 53 random bits into the mantissa.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        return lo + (hi - lo) * uniformReal();
    }

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool
    withProbability(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /** Normal variate (Box-Muller). */
    double normal(double mean, double stddev);

  private:
    /** Snapshot layer serializes/restores the raw state words. */
    friend struct snap::Access;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    [[noreturn]] static void uniformIntRangeError(std::uint64_t lo,
                                                  std::uint64_t hi);

    std::uint64_t s_[4];
};

} // namespace hiss

#endif // HISS_SIM_RANDOM_H_
