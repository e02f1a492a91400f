/**
 * @file
 * Gshare branch predictor model.
 *
 * Global-history XOR PC indexing into a table of 2-bit saturating
 * counters. Like the cache model, one instance per core is shared by
 * user and kernel control flow so that SSR handlers pollute the
 * pattern table and history (paper Fig. 5b).
 *
 * predictBatch() is the hot entry point — one call per burst sample —
 * and is observably identical, branch by branch, to calling
 * predictAndUpdate() in a loop (enforced by SubstrateBatch.* in
 * ctest).
 */

#ifndef HISS_MEM_BRANCH_PREDICTOR_H_
#define HISS_MEM_BRANCH_PREDICTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache.h" // for Addr

namespace hiss {

namespace snap {
struct Access;
}

/**
 * A single dynamic branch: site PC and actual direction. Produced by
 * BranchStream (which aliases it as BranchStream::Outcome) and
 * consumed by BranchPredictor::predictBatch.
 */
struct BranchOutcome
{
    Addr pc;
    bool taken;
};

/** Parameters for the gshare predictor. */
struct BranchPredictorParams
{
    std::uint32_t table_bits = 12; ///< log2(pattern-table entries).
    std::uint32_t history_bits = 12; ///< Global history length.
};

/** A gshare predictor with 2-bit saturating counters. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorParams &params);

    /**
     * Predict the branch at @p pc, then update with the actual
     * @p taken outcome.
     * @return true if the prediction was correct.
     */
    bool predictAndUpdate(Addr pc, bool taken);

    /**
     * Predict-and-update @p n outcomes in order — exactly equivalent
     * to calling predictAndUpdate() on each element, but keeps the
     * history register and counters in locals across the batch.
     *
     * @param correct_out optional per-branch results (1 = correct
     *                    prediction), length n.
     * @return the number of mispredictions in the batch.
     */
    std::uint64_t predictBatch(const BranchOutcome *outcomes,
                               std::size_t n,
                               std::uint8_t *correct_out = nullptr);

    /** Prediction without state update (for inspection in tests). */
    bool predict(Addr pc) const;

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Misprediction ratio so far (0 if no lookups). */
    double
    mispredictRate() const
    {
        return lookups_ == 0
            ? 0.0
            : static_cast<double>(mispredicts_)
                  / static_cast<double>(lookups_);
    }

    /** Zero the lookup/mispredict counters (tables are kept). */
    void resetCounters();

    /** Reset tables, history, and counters. */
    void reset();

  private:
    /** Snapshot layer serializes history_/table_/counters. */
    friend struct snap::Access;

    template <bool Record>
    std::uint64_t predictRun(const BranchOutcome *outcomes,
                             std::size_t n, std::uint8_t *correct_out);

    std::uint32_t index(Addr pc) const;

    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    BranchPredictorParams params_;
    // HISS_STATE_EXEMPT(mask_): derived geometry, recomputed from
    // params at construction
    std::uint32_t mask_;
    // HISS_STATE_EXEMPT(hist_mask_): derived geometry, recomputed from
    // params at construction
    std::uint32_t hist_mask_;
    std::uint32_t history_ = 0;
    std::vector<std::uint8_t> table_; // 2-bit counters, init weakly taken.
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace hiss

#endif // HISS_MEM_BRANCH_PREDICTOR_H_
