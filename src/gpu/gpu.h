/**
 * @file
 * GPU device model.
 *
 * Executes one GPU workload as a set of wavefront groups. Each
 * wavefront repeatedly obtains a page assignment, translates its
 * address through the IOMMU (possibly taking a demand page fault —
 * the SSR), and then processes the page's work chunks. A hardware
 * limit on outstanding translation/fault requests provides the
 * backpressure point the paper's QoS governor exploits: once every
 * wavefront is stalled on an unserviced fault, the GPU generates no
 * further SSRs.
 */

#ifndef HISS_GPU_GPU_H_
#define HISS_GPU_GPU_H_

#include <functional>
#include <deque>
#include <string>
#include <vector>

#include "iommu/iommu.h"
#include "sim/sim_object.h"

namespace hiss {

/** GPU hardware parameters. */
struct GpuParams
{
    /** Shader clock (paper testbed: 720 MHz). */
    double freq_ghz = 0.72;
    /** Hardware limit on outstanding translation/fault requests. */
    std::uint32_t max_outstanding = 16;
    /**
     * Issue launch-time translations through Iommu::translateBatch
     * (one IOTLB classification pass + fused completion events)
     * instead of per-wavefront translate() calls. Observably
     * identical by the translateBatch contract; OFF is kept as an
     * equivalence baseline for tests.
     */
    bool batch_translate = true;
    /**
     * Accelerator index. Multiple accelerators (the paper's
     * accelerator-rich-SoC projection) get disjoint virtual-address
     * namespaces and distinct stats prefixes.
     */
    int device_id = 0;
};

/** Describes a GPU workload's paging and compute behaviour. */
struct GpuWorkloadParams
{
    std::string name = "gpu_app";

    /** Concurrent wavefront groups. */
    int wavefronts = 8;

    /** Distinct data pages the kernel touches. */
    std::uint64_t pages = 4096;

    /**
     * Fraction of pages touched in an initial streaming pass
     * (models BFS-style workloads whose faults cluster early).
     */
    double preload_fraction = 0.0;
    /** Work chunks per page during the preload pass. */
    std::uint64_t preload_chunks_per_page = 1;

    /** Page visits in the main phase. */
    std::uint64_t main_visits = 16384;
    /** Work chunks per main-phase visit. */
    std::uint64_t chunks_per_visit = 8;
    /** Probability a main-phase visit reuses an already-touched
     *  page (vs. first-touching a new one, which faults). */
    double reuse_fraction = 0.5;

    /** GPU execution time per chunk, in ticks. */
    Tick chunk_duration = 800;

    /**
     * GPU-side wavefront replay cost paid after a resolved fault
     * (real GCN parts take tens of microseconds to restart a
     * faulted wave), in ticks.
     */
    Tick fault_replay = usToTicks(20);

    /**
     * Streaming microbenchmark mode (the paper's ubench): every
     * visit touches a brand-new page, `pages` is ignored, and the
     * working set grows without bound.
     */
    bool unbounded_pages = false;
};

/** The GPU device. */
class Gpu : public SimObject
{
  public:
    Gpu(SimContext &ctx, Iommu &iommu, const GpuParams &params);

    /**
     * Launch @p workload.
     * @param demand_paging true: first touches fault (SSRs); false:
     *        pinned-memory baseline (no SSRs).
     * @param loop re-launch with fresh (unmapped) pages whenever the
     *        kernel completes, sustaining SSR generation while a
     *        concurrent measurement runs.
     * @param on_kernel_complete invoked at each kernel completion.
     */
    void launch(const GpuWorkloadParams &workload, bool demand_paging,
                bool loop,
                std::function<void()> on_kernel_complete = nullptr);

    /** True once the (non-loop) kernel has completed. */
    bool done() const { return kernels_completed_ > 0 && !loop_; }

    std::uint64_t kernelsCompleted() const { return kernels_completed_; }
    Tick firstCompletionTime() const { return first_completion_; }
    std::uint64_t chunksCompleted() const { return chunks_completed_; }
    std::uint64_t faultsIssued() const { return faults_issued_; }
    std::uint64_t faultsResolved() const { return faults_resolved_; }

    /** Wavefronts given up on after exhausting translate retries
     *  (graceful degradation under fault injection). */
    std::uint64_t abortedWavefronts() const { return aborted_wavefronts_; }
    /** Translate attempts re-issued after a Rejected response. */
    std::uint64_t translateRetries() const { return translate_retries_; }

    /** Total wavefront-ticks spent stalled on translations. */
    Tick stallTicks() const { return stall_ticks_; }

    /** Resolved faults per second of simulated time so far. */
    double ssrRate() const;

    std::uint32_t outstanding() const { return outstanding_; }

    /// @name Snapshot support.
    /// @{
    /** Walk workload progress, wavefront states, and counters.
     *  Structure (wavefront count, workload params) comes from the
     *  launch() replayed on the restore target. */
    void snapIo(snap::Io &io);
    /** Rebuild an in-flight translate callback from its token
     *  ("gpu.xlate", device, wavefront, count_fault). */
    Iommu::TranslateCallback
    rebuildTranslateCallback(const snap::Token &token);
    /** Rebuild the callback of any gpu.* event tag. */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag);
    /// @}

  private:
    enum class Phase { Idle, Preload, Main, Drain };

    struct Assignment
    {
        Vpn vpn = 0;
        std::uint64_t chunks = 0;
        bool fresh = false; ///< First touch (expected to fault).
        bool valid = false;
    };

    struct Wavefront
    {
        int id = 0;
        bool busy = false;
        Assignment work;
        Tick stall_start = 0;
        /** Rejected-translate retries for the current assignment. */
        int retries = 0;
        /** Current retry backoff (0 until the first retry). */
        Tick backoff = 0;
    };

    void resetForLaunch();
    void wavefrontFetch(int w);
    Assignment nextAssignment();
    void beginTranslate(int w);
    void issueTranslate(int w);
    void onTranslateResult(int w, TranslateResult result,
                           bool count_fault);
    void onTranslated(int w);
    void abortWavefront(int w);
    void processChunks(int w);
    void maybeFinishKernel();
    void releaseSlot();

    Iommu &iommu_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    GpuParams params_;
    // HISS_STATE_EXEMPT(workload_): construction config (workload
    // shape), covered by the snapshot config fingerprint
    GpuWorkloadParams workload_;
    bool demand_paging_ = true;
    bool loop_ = false;
    // HISS_STATE_EXEMPT(on_kernel_complete_): callback; re-armed by its
    // registrar after construction, never serialized
    std::function<void()> on_kernel_complete_;

    Phase phase_ = Phase::Idle;
    std::vector<Wavefront> wavefronts_;
    std::deque<int> slot_waiters_;
    std::uint32_t outstanding_ = 0;

    /** True while resetForLaunch collects translates into
     *  batch_reqs_ for one translateBatch hand-off. */
    // HISS_STATE_EXEMPT(batching_): transient; true only synchronously
    // inside resetForLaunch, always false at a snapshot boundary
    bool batching_ = false;
    // HISS_STATE_EXEMPT(batch_reqs_): transient; drained in the same
    // resetForLaunch scope that fills it, empty at any boundary
    std::vector<Iommu::TranslateRequest> batch_reqs_;

    Vpn next_new_vpn_ = 0;
    std::uint64_t touched_pages_ = 0;
    std::uint64_t preload_pages_left_ = 0;
    std::uint64_t main_visits_left_ = 0;
    std::uint64_t generation_ = 0; ///< Launch counter (fresh vpn space).

    std::uint64_t kernels_completed_ = 0;
    Tick first_completion_ = 0;
    Tick launch_time_ = 0;
    std::uint64_t chunks_completed_ = 0;
    std::uint64_t faults_issued_ = 0;
    std::uint64_t faults_resolved_ = 0;
    std::uint64_t aborted_wavefronts_ = 0;
    std::uint64_t translate_retries_ = 0;
    Tick stall_ticks_ = 0;
};

} // namespace hiss

#endif // HISS_GPU_GPU_H_
