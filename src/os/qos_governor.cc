#include "os/qos_governor.h"

#include <algorithm>

#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

QosGovernor::QosGovernor(SimContext &ctx, std::vector<CpuCore *> cores,
                         const QosParams &params)
    : SimObject(ctx, "qos"), cores_(std::move(cores)), params_(params)
{
    if (params.threshold <= 0.0 || params.threshold > 1.0)
        fatal("QosParams: threshold must be in (0, 1]");
    if (params.period == 0)
        fatal("QosParams: zero sampling period");
    if (params.bucket_cap_windows <= 0.0)
        fatal("QosParams: bucket_cap_windows must be positive");
    bucket_cap_ = static_cast<TickDelta>(
        static_cast<double>(params.window) * params.threshold
        * static_cast<double>(cores_.size()) * params.bucket_cap_windows);
    if (bucket_cap_ < 1)
        bucket_cap_ = 1;
    bucket_ = bucket_cap_;
    stats().addFormula("qos.fraction", "measured SSR CPU-time fraction",
                       [this] { return fraction_; });
    stats().addFormula("qos.delays", "throttle delays applied",
                       [this] {
                           return static_cast<double>(delays_applied_);
                       });
    stats().addFormula("qos.total_delay_ticks",
                       "cumulative throttle delay",
                       [this] {
                           return static_cast<double>(total_delay_);
                       });
}

Tick
QosGovernor::totalSsrTicks() const
{
    Tick total = 0;
    for (const CpuCore *core : cores_)
        total += core->ssrTicks();
    return total;
}

void
QosGovernor::updateBucket()
{
    const Tick ssr_now = totalSsrTicks();
    const Tick elapsed = now() - last_bucket_update_;
    const double accrual = static_cast<double>(elapsed)
        * params_.threshold * static_cast<double>(cores_.size());
    bucket_ += static_cast<TickDelta>(accrual);
    bucket_ -= static_cast<TickDelta>(ssr_now - last_ssr_ticks_);
    bucket_ = std::min(bucket_, bucket_cap_);
    bucket_ = std::max(bucket_, -bucket_cap_);
    last_bucket_update_ = now();
    last_ssr_ticks_ = ssr_now;
}

Tick
QosGovernor::nextThrottleDelay(Tick &worker_backoff)
{
    switch (params_.policy) {
      case ThrottlePolicy::ExponentialBackoff:
        if (!overThreshold()) {
            worker_backoff = 0;
            return 0;
        }
        worker_backoff = backoffPolicy().next(worker_backoff);
        noteDelayApplied(worker_backoff);
        return worker_backoff;
      case ThrottlePolicy::TokenBucket: {
        worker_backoff = 0;
        if (bucket_ >= 0)
            return 0;
        // Sleep just long enough for the bucket to refill to zero.
        const double refill_rate =
            params_.threshold * static_cast<double>(cores_.size());
        const auto delay = static_cast<Tick>(
            static_cast<double>(-bucket_) / refill_rate);
        const Tick clamped =
            std::min(std::max(delay, params_.initial_backoff),
                     params_.max_backoff);
        noteDelayApplied(clamped);
        return clamped;
      }
    }
    panic("QosGovernor: unknown throttle policy");
}

void
QosGovernor::takeSample()
{
    updateBucket();
    const Sample sample{now(), totalSsrTicks()};
    samples_.push_back(sample);
    while (samples_.size() > 2
           && samples_.front().when + params_.window < sample.when)
        samples_.pop_front();

    const Sample &oldest = samples_.front();
    const Tick span = sample.when - oldest.when;
    if (span == 0) {
        over_threshold_ = false;
        return;
    }
    const Tick capacity = span * static_cast<Tick>(cores_.size());
    fraction_ = static_cast<double>(sample.ssr_ticks - oldest.ssr_ticks)
        / static_cast<double>(capacity);
    over_threshold_ = fraction_ > params_.threshold;
}

void
QosGovernor::noteDelayApplied(Tick delay)
{
    ++delays_applied_;
    total_delay_ += delay;
}

BurstRequest
QosGovernor::nextBurst(CpuCore &core)
{
    (void)core;
    BurstRequest br;
    if (sleeping_next_) {
        sleeping_next_ = false;
        br.kind = BurstRequest::Kind::Sleep;
        br.duration = params_.period;
        return br;
    }
    // One sampling pass: small fixed-cost kernel burst.
    br.kind = BurstRequest::Kind::Run;
    br.duration = params_.sample_cost;
    br.kernel_mode = true;
    br.ssr_work = false;
    br.mem_accesses = 16;
    br.branches = 100;
    return br;
}

void
QosGovernor::onBurstDone(CpuCore &core, Tick ran,
                         std::uint64_t instructions_done, bool completed)
{
    (void)core;
    (void)ran;
    (void)instructions_done;
    if (completed) {
        takeSample();
        sleeping_next_ = true;
    }
}

void
QosGovernor::snapSave(snap::Writer &w) const
{
    snap::Access::save(w, rng());
    w.u64(samples_.size());
    for (const Sample &sample : samples_) {
        w.u64(sample.when);
        w.u64(sample.ssr_ticks);
    }
    w.b(over_threshold_);
    w.f64(fraction_);
    w.b(sleeping_next_);
    w.i64(bucket_);
    w.i64(bucket_cap_);
    w.u64(last_bucket_update_);
    w.u64(last_ssr_ticks_);
    w.u64(delays_applied_);
    w.u64(total_delay_);
}

void
QosGovernor::snapRestore(snap::Reader &r)
{
    snap::Access::restore(r, rng());
    samples_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Sample sample;
        sample.when = r.u64();
        sample.ssr_ticks = r.u64();
        samples_.push_back(sample);
    }
    over_threshold_ = r.b();
    fraction_ = r.f64();
    sleeping_next_ = r.b();
    bucket_ = r.i64();
    bucket_cap_ = r.i64();
    last_bucket_update_ = r.u64();
    last_ssr_ticks_ = r.u64();
    delays_applied_ = r.u64();
    total_delay_ = r.u64();
}

} // namespace hiss
