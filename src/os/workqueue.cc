#include "os/workqueue.h"

#include "fault/fault_injector.h"
#include "os/kernel.h"
#include "os/qos_governor.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {

WorkQueue::WorkQueue(SimContext &ctx, const std::string &name,
                     Scheduler &scheduler, int num_cores)
    : SimObject(ctx, name),
      scheduler_(scheduler),
      queues_(static_cast<std::size_t>(num_cores)),
      workers_(static_cast<std::size_t>(num_cores), nullptr),
      latency_(ctx.stats.addDistribution(name + ".latency",
                                         "push-to-service latency (ticks)"))
{
    if (num_cores <= 0)
        fatal("WorkQueue %s: need at least one core", name.c_str());
    stats().addFormula(name + ".pushed", "work items enqueued",
                       [this] { return static_cast<double>(pushed_); });
    stats().addFormula(name + ".completed", "work items completed",
                       [this] { return static_cast<double>(completed_); });
}

void
WorkQueue::addWorker(Thread *worker, int core)
{
    if (core < 0 || static_cast<std::size_t>(core) >= workers_.size())
        fatal("WorkQueue %s: bad worker core %d", name().c_str(), core);
    workers_[static_cast<std::size_t>(core)] = worker;
}

void
WorkQueue::push(WorkItem item, CpuCore *from)
{
    const int core = from != nullptr ? from->index() : 0;
    item.enqueued_at = now();
    queues_[static_cast<std::size_t>(core)].push_back(std::move(item));
    ++pushed_;
    Thread *worker = workers_[static_cast<std::size_t>(core)];
    if (worker == nullptr)
        panic("WorkQueue %s: no kworker bound to core %d",
              name().c_str(), core);
    const ThreadState s = worker->state();
    if (s == ThreadState::Blocked || s == ThreadState::Created)
        scheduler_.wake(worker, from);
}

std::size_t
WorkQueue::totalDepth() const
{
    std::size_t total = 0;
    for (const auto &queue : queues_)
        total += queue.size();
    return total;
}

WorkItem
WorkQueue::pop(int core)
{
    auto &queue = queues_[static_cast<std::size_t>(core)];
    if (queue.empty())
        panic("WorkQueue %s: pop on empty core-%d queue",
              name().c_str(), core);
    WorkItem item = std::move(queue.front());
    queue.pop_front();
    ++in_service_;
    return item;
}

void
WorkQueue::snapIo(snap::Io &io, const RequestRebuild &rebuild)
{
    io.expect(queues_.size(), "work queue core-count mismatch");
    for (auto &queue : queues_) {
        io.seq(queue, [&io, &rebuild](WorkItem &item) {
            snapIoWorkItem(io, item, rebuild);
        });
    }
    io.u64(pushed_);
    io.u64(completed_);
    io.u64(in_service_);
}

WorkerModel::WorkerModel(Kernel &kernel, WorkQueue &queue, int core,
                         QosGovernor *governor, FaultInjector *faults)
    : kernel_(kernel), queue_(queue), core_(core), governor_(governor),
      faults_(faults)
{
}

void
WorkerModel::snapIo(snap::Io &io, const RequestRebuild &rebuild)
{
    io.optional(current_, [&io, &rebuild](WorkItem &item) {
        snapIoWorkItem(io, item, rebuild);
    });
    io.u64(remaining_);
    io.u64(backoff_);
}

BurstRequest
WorkerModel::nextBurst(CpuCore &core)
{
    if (!current_.has_value()) {
        if (queue_.empty(core_)) {
            BurstRequest br;
            br.kind = BurstRequest::Kind::Block;
            return br;
        }
        // QoS backpressure (paper Fig. 11 / the token-bucket
        // extension): consult the governor before servicing; it
        // returns a delay while SSR CPU time is over budget.
        if (governor_ != nullptr) {
            const Tick delay = governor_->nextThrottleDelay(backoff_);
            if (delay > 0) {
                BurstRequest br;
                br.kind = BurstRequest::Kind::Sleep;
                br.duration = delay;
                return br;
            }
        }
        // Injected transient stall (e.g. the kworker preempted or
        // blocked on an unmodeled resource). Redrawn on every wake,
        // so consecutive stalls are geometrically distributed.
        if (faults_ != nullptr) {
            const Tick stall = faults_->kworkerStall();
            if (stall > 0) {
                BurstRequest br;
                br.kind = BurstRequest::Kind::Sleep;
                br.duration = stall;
                return br;
            }
        }
        current_ = queue_.pop(core_);
        remaining_ = current_->duration;
        const Tick at = core.now();
        queue_.sampleLatency(at > current_->enqueued_at
                                 ? at - current_->enqueued_at
                                 : 0);
        current_->service_start = at;
    }
    const ServiceFootprint footprint =
        serviceFootprint(current_->request.kind);
    BurstRequest br;
    br.kind = BurstRequest::Kind::Run;
    br.duration = remaining_;
    br.kernel_mode = true;
    br.ssr_work = true;
    br.mem_accesses = footprint.accesses;
    br.branches = footprint.branches;
    return br;
}

void
WorkerModel::onBurstDone(CpuCore &core, Tick ran,
                         std::uint64_t instructions_done, bool completed)
{
    (void)instructions_done;
    if (!current_.has_value())
        panic("WorkerModel: burst completion without an item");
    if (completed) {
        // Moved out first: completing can queue new work.
        const WorkItem item = std::move(*current_);
        current_.reset();
        remaining_ = 0;
        queue_.noteCompleted();
        kernel_.completeWork(item, core);
    } else {
        remaining_ = ran >= remaining_ ? 1 : remaining_ - ran;
    }
}

} // namespace hiss
