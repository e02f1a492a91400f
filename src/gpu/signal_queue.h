/**
 * @file
 * GPU signal request queue (paper Section II-C, "Signals").
 *
 * Models the S_SENDMSG path: the GPU writes a signal descriptor to a
 * memory queue and interrupts a CPU, which runs the same split
 * handler chain as page faults but invokes the signal service in
 * step 5. Unlike page faults this path does not involve the IOMMU.
 */

#ifndef HISS_GPU_SIGNAL_QUEUE_H_
#define HISS_GPU_SIGNAL_QUEUE_H_

#include <deque>
#include <functional>

#include "os/kernel.h"
#include "os/ssr_driver.h"
#include "sim/sim_object.h"
#include "snap/snap.h"

namespace hiss {

/**
 * A device-side queue of signal SSRs. Its interrupts go round robin
 * over the cores.
 */
class SignalQueue : public SimObject, public RequestSource
{
  public:
    SignalQueue(SimContext &ctx, Kernel &kernel);

    /** Driver whose interrupt this queue raises. */
    void setDriver(SsrDriver *driver) { driver_ = driver; }

    /**
     * Issue one signal SSR (S_SENDMSG). @p on_delivered fires on the
     * servicing core once the OS has delivered the signal.
     *
     * @p cb_token optionally names the producer of @p on_delivered
     * for snapshot identity. Signals with a live callback but no
     * token cannot cross a snapshot boundary (restore refuses with a
     * clear error); callback-free signals always can.
     */
    void sendSignal(std::function<void(CpuCore &)> on_delivered,
                    snap::Token cb_token = {});

    /// @name RequestSource interface.
    /// @{
    std::vector<SsrRequest> drain() override;
    void ack() override;
    /// @}

    std::uint64_t signalsSent() const { return signals_sent_; }
    std::uint64_t signalsDelivered() const { return signals_delivered_; }

    /** Signals re-sent by the device after an injected queue loss. */
    std::uint64_t signalsResent() const { return signals_resent_; }
    /** Signals whose request the driver watchdog aborted. */
    std::uint64_t signalsAborted() const { return signals_aborted_; }
    /** Dropped IRQs re-raised by the device watchdog. */
    std::uint64_t irqRecoveries() const { return irq_recoveries_; }

    /** Signals written but not yet drained (invariant audit). */
    std::size_t queueDepth() const { return queue_.size(); }

    /// @name Snapshot support.
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r);
    /** Re-attach delivery bookkeeping to a restored signal request.
     *  Throws if the live request carried a caller callback (those
     *  cannot be rebuilt; see sendSignal). */
    void rebuildRequestCallbacks(SsrRequest &request);
    /** Rebuild the callback of any sig.* event tag. */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag);
    /// @}

  private:
    /** Interrupt delivery latency. */
    static constexpr Tick kMsiLatency = 150;

    void considerRaise();
    int pickTarget();

    Kernel &kernel_;
    // HISS_STATE_EXEMPT(driver_): wiring; borrowed driver pointer
    // re-attached via setDriver during system construction
    SsrDriver *driver_ = nullptr;
    std::deque<SsrRequest> queue_;
    bool irq_inflight_ = false;
    int rr_next_core_ = 0;
    std::uint64_t next_id_ = 1;
    std::uint64_t signals_sent_ = 0;
    std::uint64_t signals_delivered_ = 0;
    std::uint64_t signals_resent_ = 0;
    std::uint64_t signals_aborted_ = 0;
    std::uint64_t irq_recoveries_ = 0;
};

} // namespace hiss

#endif // HISS_GPU_SIGNAL_QUEUE_H_
