/**
 * @file
 * Synthetic memory-access and branch streams.
 *
 * Workload models do not execute real instructions; instead each
 * thread owns an AddressStream and a BranchStream parameterized by a
 * locality profile calibrated per benchmark. The CPU core drives
 * samples of these streams through its structural L1D and branch
 * predictor each execution slice, so cache behaviour (and pollution
 * by kernel handlers sharing the structures) is emergent.
 *
 * The batched fill() generators produce a whole burst sample into a
 * caller-owned buffer in one call, with the Rng helpers inlined into
 * the loop and the generator state held in registers. They draw
 * *exactly* the sequence the scalar next() loop would — element i of
 * a fill is bit-identical to the i-th next() — which is the substrate
 * determinism contract (docs/TESTING.md).
 */

#ifndef HISS_MEM_ADDRESS_STREAM_H_
#define HISS_MEM_ADDRESS_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "sim/random.h"

namespace hiss {

/** Locality profile for a synthetic data-access stream. */
struct MemoryProfile
{
    /** Total working-set size in bytes. */
    std::uint64_t working_set_bytes = 256 * 1024;
    /** Size of the hot (frequently reused) subset. */
    std::uint64_t hot_set_bytes = 8 * 1024;
    /** Fraction of accesses that hit the hot subset. */
    double hot_fraction = 0.8;
    /** Fraction of cold accesses that are sequential (next line). */
    double stride_fraction = 0.5;
};

/** Control-flow profile for a synthetic branch stream. */
struct BranchProfile
{
    /** Number of distinct static branch sites. */
    std::uint32_t static_branches = 64;
    /** Minimum per-branch taken bias (0.5 = unpredictable). */
    double bias_min = 0.7;
    /** Maximum per-branch taken bias (1.0 = always taken). */
    double bias_max = 0.98;
    /** Probability an outcome ignores its bias and is random. */
    double pattern_noise = 0.05;
};

/** Generates a stream of data addresses with tunable locality. */
class AddressStream
{
  public:
    /**
     * @param profile locality parameters.
     * @param base    byte address of this stream's region; distinct
     *                threads get distinct bases so they do not share
     *                lines.
     * @param seed    deterministic stream seed.
     */
    AddressStream(const MemoryProfile &profile, Addr base,
                  std::uint64_t seed);

    /** Next access address. */
    Addr
    next()
    {
        Addr addr;
        fill(&addr, 1);
        return addr;
    }

    /**
     * Generate the next @p n addresses into @p buf — bit-identical
     * to n consecutive next() calls, but with the generator loop in
     * one call frame.
     */
    void fill(Addr *buf, std::size_t n);

    const MemoryProfile &profile() const { return profile_; }
    Addr base() const { return base_; }

  private:
    friend struct snap::Access;

    // HISS_STATE_EXEMPT(profile_): construction config (access mix),
    // covered by the snapshot config fingerprint
    MemoryProfile profile_;
    // HISS_STATE_EXEMPT(base_): structural; base address fixed at
    // construction
    Addr base_;
    Rng rng_;
    Addr cursor_; // Sequential-walk position within the cold region.
};

/** Generates (pc, taken) branch outcomes with per-site bias. */
class BranchStream
{
  public:
    /** A single dynamic branch outcome (predictor input type). */
    using Outcome = BranchOutcome;

    /**
     * @param profile control-flow parameters.
     * @param pc_base base PC for this stream's branch sites.
     * @param seed    deterministic stream seed.
     */
    BranchStream(const BranchProfile &profile, Addr pc_base,
                 std::uint64_t seed);

    /** Next dynamic branch. */
    Outcome
    next()
    {
        Outcome out;
        fill(&out, 1);
        return out;
    }

    /**
     * Generate the next @p n outcomes into @p buf — bit-identical to
     * n consecutive next() calls.
     */
    void fill(Outcome *buf, std::size_t n);

    const BranchProfile &profile() const { return profile_; }

  private:
    friend struct snap::Access;

    // HISS_STATE_EXEMPT(profile_): construction config (branch mix),
    // covered by the snapshot config fingerprint
    BranchProfile profile_;
    // HISS_STATE_EXEMPT(pc_base_): structural; PC base fixed at
    // construction
    Addr pc_base_;
    Rng rng_;
    // HISS_STATE_EXEMPT(biases_): drawn at construction from the
    // profile seed; a rebuilt stream reproduces them identically
    std::vector<double> biases_; // Per-site taken probability.
};

} // namespace hiss

#endif // HISS_MEM_ADDRESS_STREAM_H_
