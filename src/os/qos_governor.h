/**
 * @file
 * CPU QoS governor for GPU SSRs (paper Section VI).
 *
 * All SSR handling stages account their CPU cycles (CpuCore tracks
 * ssrTicks). A kernel background thread samples the total every
 * `period` (10 us in the paper) and computes the fraction of
 * aggregate CPU time spent on SSRs over a rolling window. When that
 * fraction exceeds the administrator-set threshold, kworkers delay
 * servicing further SSRs with exponential backoff (starting at
 * 10 us), applying backpressure that eventually stalls the GPU.
 */

#ifndef HISS_OS_QOS_GOVERNOR_H_
#define HISS_OS_QOS_GOVERNOR_H_

#include <deque>
#include <vector>

#include "cpu/core.h"
#include "os/thread.h"
#include "sim/sim_object.h"

namespace hiss {

/** How the governor converts an over-budget signal into delays. */
enum class ThrottlePolicy {
    /** The paper's mechanism (Fig. 11): a worker about to service an
     *  SSR while over budget sleeps 10 us, doubling on every
     *  consecutive over-budget check. */
    ExponentialBackoff,
    /**
     * Extension: a token bucket accrues SSR CPU-time budget at
     * threshold x cores and is drained by the accounted SSR cycles;
     * workers sleep just long enough for the bucket to refill. Less
     * bursty than exponential backoff at the same average budget.
     */
    TokenBucket,
};

/**
 * Exponential-backoff schedule shared by QoS worker throttling and
 * the GPU's translate-retry recovery (src/fault): start at
 * @p initial, double per step, saturate at @p max.
 */
struct BackoffPolicy
{
    Tick initial = usToTicks(10);
    Tick max = msToTicks(2);

    /** Next delay after a step currently at @p current (0 = first). */
    Tick
    next(Tick current) const
    {
        if (current == 0)
            return initial > max ? max : initial;
        const Tick doubled = current * 2;
        return doubled > max ? max : doubled;
    }
};

/** QoS governor configuration. */
struct QosParams
{
    bool enabled = false;

    ThrottlePolicy policy = ThrottlePolicy::ExponentialBackoff;

    /** Token-bucket burst capacity, as a multiple of the budget
     *  accrued over one accounting window. */
    double bucket_cap_windows = 1.0;
    /** Maximum fraction of total CPU time for SSR handling
     *  (th_1 = 0.01, th_5 = 0.05, th_25 = 0.25). */
    double threshold = 0.05;
    /**
     * Background sampling period. The paper suggests 10 us; in this
     * model the sampling thread pays full context-switch costs per
     * wake, so the default is 40 us to keep the governor's own
     * overhead near the real system's (the throttle decision is
     * still an order of magnitude faster than the backoff delays it
     * controls).
     */
    Tick period = usToTicks(40);
    /** Rolling accounting window. */
    Tick window = usToTicks(400);
    /** First backoff delay (paper: 10 us). */
    Tick initial_backoff = usToTicks(10);
    /** Backoff cap. */
    Tick max_backoff = msToTicks(2);
    /** CPU cost of one background-thread sample. */
    Tick sample_cost = 180;
};

/**
 * The governor: owns the sampling policy and provides the throttle
 * decision to kworkers. Its ExecutionModel runs as a kernel thread.
 */
class QosGovernor : public SimObject, public ExecutionModel
{
  public:
    QosGovernor(SimContext &ctx, std::vector<CpuCore *> cores,
                const QosParams &params);

    const QosParams &params() const { return params_; }

    /** True when SSR CPU time currently exceeds the threshold. */
    bool overThreshold() const { return over_threshold_; }

    Tick initialBackoff() const { return params_.initial_backoff; }

    /** Double the delay, saturating at max_backoff. */
    Tick
    nextBackoff(Tick current) const
    {
        const Tick doubled = current * 2;
        return doubled > params_.max_backoff ? params_.max_backoff
                                             : doubled;
    }

    /** The governor's backoff schedule as a reusable policy. */
    BackoffPolicy
    backoffPolicy() const
    {
        return BackoffPolicy{params_.initial_backoff,
                             params_.max_backoff};
    }

    /** Record that a worker applied a throttle delay. */
    void noteDelayApplied(Tick delay);

    /**
     * Policy-dispatching throttle decision for a kworker about to
     * service an SSR item.
     * @param worker_backoff in/out per-worker exponential-backoff
     *        state (ignored by the token-bucket policy).
     * @return 0 to service immediately, else the sleep to apply.
     */
    Tick nextThrottleDelay(Tick &worker_backoff);

    /** Current token-bucket level in SSR CPU ticks (TokenBucket). */
    TickDelta bucketLevel() const { return bucket_; }

    /** Most recent measured SSR CPU-time fraction. */
    double measuredFraction() const { return fraction_; }

    std::uint64_t delaysApplied() const { return delays_applied_; }
    Tick totalDelay() const { return total_delay_; }

    /// @name Background-thread execution model.
    /// @{
    BurstRequest nextBurst(CpuCore &core) override;
    void onBurstDone(CpuCore &core, Tick ran,
                     std::uint64_t instructions_done,
                     bool completed) override;
    /// @}

    /// @name Snapshot support (rolling window + bucket + counters).
    /// @{
    void snapIo(snap::Io &io);
    /// @}

  private:
    void takeSample();
    void updateBucket();
    Tick totalSsrTicks() const;

    // HISS_STATE_EXEMPT(cores_): wiring; borrowed core pointers bound
    // at construction
    std::vector<CpuCore *> cores_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    QosParams params_;

    struct Sample
    {
        Tick when;
        Tick ssr_ticks;
    };
    std::deque<Sample> samples_;
    bool over_threshold_ = false;
    double fraction_ = 0.0;
    bool sleeping_next_ = false;
    /** Token bucket level (can go negative: debt). */
    TickDelta bucket_ = 0;
    TickDelta bucket_cap_ = 0;
    Tick last_bucket_update_ = 0;
    Tick last_ssr_ticks_ = 0;

    std::uint64_t delays_applied_ = 0;
    Tick total_delay_ = 0;
};

} // namespace hiss

#endif // HISS_OS_QOS_GOVERNOR_H_
