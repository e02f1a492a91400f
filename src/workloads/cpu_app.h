/**
 * @file
 * CPU application model.
 *
 * A CpuApp is a fork-join program: per iteration, every thread runs
 * a parallel instruction budget, the threads barrier, thread 0 runs
 * a serial section, and the next iteration begins. Each thread owns
 * synthetic address/branch streams; its instruction throughput
 * depends on the live per-core cache and branch predictor state, so
 * SSR handler pollution and stolen cycles both slow it down — the
 * two interference channels of the paper's Fig. 2.
 */

#ifndef HISS_WORKLOADS_CPU_APP_H_
#define HISS_WORKLOADS_CPU_APP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_stream.h"
#include "os/kernel.h"
#include "os/thread.h"
#include "sim/sim_object.h"
#include "snap/snap.h"

namespace hiss {

/** Parameters describing one CPU application. */
struct CpuAppParams
{
    std::string name = "cpu_app";
    int threads = 4;
    /** Fork-join iterations. */
    std::uint64_t iterations = 20;
    /** Parallel-phase instructions per thread per iteration. */
    std::uint64_t parallel_insts = 4'000'000;
    /** Serial-phase instructions (thread 0) per iteration. */
    std::uint64_t serial_insts = 0;
    /** Base (unpolluted, cache-warm) cycles per instruction. */
    double base_cpi = 0.9;
    MemoryProfile mem;
    BranchProfile branch;
    /** Instructions per scheduling burst (simulation quantum). */
    std::uint64_t slice_insts = 7000;
    /** Cache accesses sampled per burst. */
    std::uint32_t sample_accesses = 96;
    /** Branches sampled per burst. */
    std::uint32_t sample_branches = 48;
};

/** One running CPU application. */
class CpuApp : public SimObject
{
  public:
    CpuApp(SimContext &ctx, Kernel &kernel, const CpuAppParams &params);
    ~CpuApp() override;

    /** Create and start the app's threads. */
    void start();

    bool done() const { return done_; }

    /** Wall-clock (simulated) runtime; valid once done(). */
    Tick completionTime() const { return completion_time_; }

    /** Invoked when the last iteration completes. */
    void setOnComplete(std::function<void()> fn)
    {
        on_complete_ = std::move(fn);
    }

    const CpuAppParams &params() const { return params_; }
    std::uint64_t iterationsDone() const { return iterations_done_; }

    /// @name Snapshot support.
    /// @{
    /** Walk fork-join progress and per-thread stream cursors.
     *  The app schedules no events of its own, so there are no tags
     *  to rebuild; start() must have been replayed on the restore
     *  target (structure, covered by the config fingerprint). */
    void snapIo(snap::Io &io);
    /// @}

  private:
    /** Per-thread execution segments. */
    enum class Segment { Parallel, AtBarrier, Serial, Done };

    class ThreadModel : public ExecutionModel
    {
      public:
        ThreadModel(CpuApp &app, int index, Addr data_base,
                    Addr code_base, std::uint64_t seed);

        BurstRequest nextBurst(CpuCore &core) override;
        void onBurstDone(CpuCore &core, Tick ran,
                         std::uint64_t instructions_done,
                         bool completed) override;

        void snapIo(snap::Io &io);

        Segment segment = Segment::Parallel;
        std::uint64_t remaining = 0;

      private:
        CpuApp &app_;
        // HISS_STATE_EXEMPT(index_): identity; position in the owning
        // app's model table, fixed at construction
        int index_;
        AddressStream astream_;
        BranchStream bstream_;
    };

    void threadHitBarrier(int index);
    void beginSerial();
    void releaseIteration();
    void finishApp();
    void wakeThread(int index);

    Kernel &kernel_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    CpuAppParams params_;
    std::vector<std::unique_ptr<ThreadModel>> models_;
    // HISS_STATE_EXEMPT(threads_): wiring; borrowed kernel thread
    // pointers acquired when the app spawns its threads
    std::vector<Thread *> threads_;
    int arrived_ = 0;
    std::uint64_t iterations_done_ = 0;
    bool done_ = false;
    Tick start_time_ = 0;
    Tick completion_time_ = 0;
    // HISS_STATE_EXEMPT(on_complete_): callback; re-armed by the
    // experiment driver after construction, never serialized
    std::function<void()> on_complete_;
};

} // namespace hiss

#endif // HISS_WORKLOADS_CPU_APP_H_
