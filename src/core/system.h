/**
 * @file
 * The assembled heterogeneous system.
 *
 * HeteroSystem wires every subsystem together: event queue, stats,
 * kernel (with cores, scheduler, services, work queues, optional QoS
 * governor), IOMMU, SSR driver, GPU, and any number of CPU
 * applications. It is the primary entry point of the public API.
 */

#ifndef HISS_CORE_SYSTEM_H_
#define HISS_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "core/config.h"
#include "fault/fault_injector.h"
#include "gpu/gpu.h"
#include "gpu/signal_queue.h"
#include "iommu/iommu.h"
#include "os/kernel.h"
#include "snap/snap.h"
#include "workloads/cpu_app.h"

namespace hiss {

namespace check {
class InvariantMonitor;
} // namespace check

/** A fully wired simulated SoC. */
class HeteroSystem
{
  public:
    explicit HeteroSystem(const SystemConfig &config);
    ~HeteroSystem();

    HeteroSystem(const HeteroSystem &) = delete;
    HeteroSystem &operator=(const HeteroSystem &) = delete;

    const SystemConfig &config() const { return config_; }

    EventQueue &events() { return events_; }
    StatRegistry &stats() { return stats_; }
    Kernel &kernel() { return *kernel_; }
    Iommu &iommu() { return *iommu_; }
    Gpu &gpu() { return *gpu_; }
    SsrDriver &ssrDriver() { return *ssr_driver_; }
    SignalQueue &signalQueue() { return *signal_queue_; }
    SsrDriver &signalDriver() { return *signal_driver_; }

    /** The armed invariant monitor, or nullptr when checking is off
     *  (SystemConfig::check_invariants / HISS_CHECK=ON). */
    check::InvariantMonitor *checkMonitor() { return monitor_.get(); }

    /** The fault injector, or nullptr when SystemConfig::fault is
     *  disabled (the default). */
    FaultInjector *faultInjector() { return faults_.get(); }

    /** Create (but not start) a CPU application; owned by the system. */
    CpuApp &addCpuApp(const CpuAppParams &params);

    /** Launch a GPU workload on the primary GPU (see Gpu::launch). */
    void launchGpu(const GpuWorkloadParams &workload, bool demand_paging,
                   bool loop,
                   std::function<void()> on_kernel_complete = nullptr);

    /**
     * Add a further accelerator sharing the IOMMU and SSR path (the
     * paper's accelerator-rich-SoC projection). Device ids are
     * assigned sequentially starting at 1.
     */
    Gpu &addAccelerator();

    /** Extra accelerators created with addAccelerator(). */
    std::size_t numExtraAccelerators() const { return extra_gpus_.size(); }
    Gpu &extraAccelerator(std::size_t i) { return *extra_gpus_[i]; }

    /** Current simulated time. */
    Tick now() const { return events_.now(); }

    /** Run until simulated time @p until. */
    void runUntil(Tick until) { events_.runUntil(until); }

    /**
     * Run until @p predicate returns true, the event queue drains,
     * or simulated time reaches @p cap.
     * @return true if the predicate was satisfied.
     */
    bool runUntilCondition(const std::function<bool()> &predicate,
                           Tick cap);

    /**
     * Fold in-progress residency intervals into core stats. With the
     * invariant layer armed this also runs one final full sweep, so
     * every run ends on a checked quiesce point.
     */
    void finalizeStats();

    /**
     * Attach (or detach with nullptr) a timeline writer; cores then
     * emit burst/irq/sleep events for chrome://tracing. The writer
     * must outlive the simulation.
     */
    void setTraceWriter(TraceWriter *trace) { ctx_.trace = trace; }

    /// @name Snapshot / restore (src/snap).
    ///
    /// saveSnapshot() serializes the full dynamic state — every RNG
    /// stream, cache, queue, in-flight request, and pending event —
    /// behind a config fingerprint. restoreSnapshot() is its mirror:
    /// it must be called on a freshly built system constructed from
    /// the same config with the same addCpuApp()/launchGpu()/
    /// addAccelerator() calls replayed (structure is never
    /// serialized; the fingerprint guards against divergence). A
    /// restored run is bit-identical to the run that kept going.
    ///
    /// Snapshots are refused while the invariant monitor is armed
    /// (its ledgers hold raw pointers that cannot be serialized).
    /// @{
    /** Serialize full simulator state into @p w (unframed payload). */
    void saveSnapshot(snap::Writer &w) const;
    /** Mirror of saveSnapshot() against a same-config system. */
    void restoreSnapshot(snap::Reader &r);
    /** Framed snapshot blob (header + checksum), ready for a file. */
    std::string snapshotBytes() const;
    /** Restore from a blob produced by snapshotBytes(). */
    void restoreSnapshotBytes(const std::string &blob);
    /** snapshotBytes() to a file (atomic via writeFile). */
    void saveSnapshotFile(const std::string &path) const;
    /** restoreSnapshotBytes() from a file. */
    void restoreSnapshotFile(const std::string &path);
    /**
     * Digest of all dynamic state: FNV-1a over the saveSnapshot()
     * payload, so it covers exactly what a snapshot carries. Two
     * systems with equal hashes are (with overwhelming probability)
     * in the same state; tests use it to prove restore fidelity.
     * Throws SnapshotError wherever saveSnapshot() does (armed
     * invariant monitor, untagged pending event).
     */
    std::uint64_t stateHash() const;
    /**
     * Digest of everything structural: every SystemConfig field
     * (canonicalSystemText, seed and fault plan included), workload
     * shape, and the registered stat names. Stored in every
     * snapshot; restore refuses a mismatch.
     */
    std::uint64_t configFingerprint() const;
    /// @}

  private:
    /** The GPU with device id @p id (0 = primary). */
    Gpu &gpuByDevice(std::uint64_t id);
    /** Resolver handed to the IOMMU for device callback rebuild. */
    Iommu::CallbackResolver callbackResolver();
    /** Rebuilds SsrRequest callbacks from the request's origin tag. */
    RequestRebuild requestRebuild();
    /** Composite event-tag resolver covering every subsystem. */
    EventQueue::Callback resolveTag(const snap::Tag &tag);

    // HISS_STATE_EXEMPT(config_): construction config; snapshots carry
    // its fingerprint and restore refuses a mismatched system
    SystemConfig config_;
    EventQueue events_;
    StatRegistry stats_;
    // HISS_STATE_EXEMPT(ctx_): wiring; bundles borrowed clock/stats/rng
    // handles that are re-bound at construction
    SimContext ctx_;
    // Constructed before (and destroyed after) every component that
    // queries it through SimContext::faults.
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<Kernel> kernel_;
    std::unique_ptr<Iommu> iommu_;
    // HISS_STATE_EXEMPT(ssr_driver_): borrowed pointer; the kernel owns
    // and serializes the driver through its driver table
    SsrDriver *ssr_driver_ = nullptr;       // Owned by the kernel.
    std::unique_ptr<SignalQueue> signal_queue_;
    // HISS_STATE_EXEMPT(signal_driver_): borrowed pointer; the kernel
    // owns and serializes the driver through its driver table
    SsrDriver *signal_driver_ = nullptr;    // Owned by the kernel.
    std::unique_ptr<Gpu> gpu_;
    std::vector<std::unique_ptr<Gpu>> extra_gpus_;
    std::vector<std::unique_ptr<CpuApp>> apps_;
    // Declared last: the monitor observes every other subsystem, so
    // it must be destroyed first.
    std::unique_ptr<check::InvariantMonitor> monitor_;
};

} // namespace hiss

#endif // HISS_CORE_SYSTEM_H_
