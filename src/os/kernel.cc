#include "os/kernel.h"

#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

Kernel::Kernel(SimContext &ctx, int num_cores,
               const CpuCoreParams &core_params, const KernelParams &params)
    : SimObject(ctx, "kernel"),
      params_(params),
      proc_stats_(static_cast<std::size_t>(num_cores)),
      frames_(params.dram_frames)
{
    if (num_cores <= 0)
        fatal("Kernel: need at least one core");

    cores_.reserve(static_cast<std::size_t>(num_cores));
    for (int i = 0; i < num_cores; ++i)
        cores_.push_back(
            std::make_unique<CpuCore>(ctx, i, core_params, *this));

    scheduler_ = std::make_unique<Scheduler>(ctx, corePointers(),
                                             params.sched);
    services_ = std::make_unique<SystemServices>(
        ctx, spaces_, frames_, params.service_costs);
    work_queue_ = std::make_unique<WorkQueue>(ctx, "ssr_wq", *scheduler_,
                                              num_cores);

    if (params.qos.enabled) {
        qos_governor_ = std::make_unique<QosGovernor>(ctx, corePointers(),
                                                      params.qos);
        Thread *gov = createThread("qos_governor", kPrioGovernor,
                                   qos_governor_.get());
        scheduler_->start(gov);
    }

    // Per-CPU bound kworkers: one per core, pinned (Linux-style
    // bound workqueue, as amd_iommu_v2 allocates).
    for (int i = 0; i < num_cores; ++i) {
        worker_models_.push_back(std::make_unique<WorkerModel>(
            *this, *work_queue_, i, qos_governor_.get(), ctx.faults));
        Thread *worker =
            createThread("kworker/" + std::to_string(i), kPrioWorker,
                         worker_models_.back().get(), i);
        work_queue_->addWorker(worker, i);
    }

    if (params.housekeeping_period > 0) {
        for (int i = 0; i < num_cores; ++i) {
            // Stagger first fires so cores do not tick in lockstep.
            const Tick first = params.housekeeping_period
                * static_cast<Tick>(i + 1)
                / static_cast<Tick>(num_cores);
            startHousekeepingTimer(i, first);
        }
    }
}

Kernel::~Kernel() = default;

std::vector<CpuCore *>
Kernel::corePointers()
{
    std::vector<CpuCore *> out;
    out.reserve(cores_.size());
    for (const auto &core : cores_)
        out.push_back(core.get());
    return out;
}

void
Kernel::coreIdle(CpuCore &core)
{
    scheduler_->onCoreIdle(core);
}

void
Kernel::coreBoundary(CpuCore &core)
{
    scheduler_->onCoreBoundary(core);
}

void
Kernel::threadYielded(CpuCore &core, Thread &thread,
                      const BurstRequest &request)
{
    (void)core;
    switch (request.kind) {
      case BurstRequest::Kind::Sleep:
        scheduler_->sleepThread(&thread, request.duration);
        return;
      case BurstRequest::Kind::Block:
        scheduler_->blockThread(&thread);
        return;
      case BurstRequest::Kind::Finish:
        scheduler_->finishThread(&thread);
        return;
      case BurstRequest::Kind::Run:
        break;
    }
    panic("Kernel: threadYielded with a Run burst");
}

SsrDriver &
Kernel::attachSsrSource(const std::string &name, RequestSource &source,
                        const SsrDriverParams &driver_params,
                        int irq_affinity)
{
    drivers_.push_back(std::make_unique<SsrDriver>(
        ctx(), name, driver_params, source, *this, irq_affinity));
    SsrDriver &driver = *drivers_.back();
    driver.setSnapIndex(drivers_.size() - 1);
    if (!driver_params.monolithic_bottom_half) {
        // The bottom half is a workqueue item in amd_iommu_v2, i.e.
        // a normal-priority kworker whose wakeup contends with user
        // threads — the latency the monolithic mitigation removes.
        Thread *bh = createThread(name + "_bh", kPrioWorker,
                                  &driver.bottomHalfModel(), irq_affinity);
        driver.setBottomHalfThread(bh);
    }
    return driver;
}

void
Kernel::completeWork(const WorkItem &item, CpuCore &core)
{
    services_->complete(item);
    const SsrRequest &request = item.request;
    if (request.driver_wrapped
        && !drivers_.at(request.driver_index)->completeRequest(request.id))
        return;
    if (request.on_service_complete)
        request.on_service_complete(core);
}

void
Kernel::deliverIrq(int core_index, Irq irq)
{
    if (core_index < 0
        || static_cast<std::size_t>(core_index) >= cores_.size())
        panic("Kernel: deliverIrq to bad core %d", core_index);
    proc_stats_.countIrq(irq.label, core_index);
    cores_[static_cast<std::size_t>(core_index)]->postInterrupt(
        std::move(irq));
}

Thread *
Kernel::createThread(const std::string &name, Priority prio,
                     ExecutionModel *model, int affinity)
{
    threads_.push_back(std::make_unique<Thread>(next_thread_id_++, name,
                                                prio, model, affinity));
    return threads_.back().get();
}

void
Kernel::startHousekeepingTimer(int core_index, Tick first_fire)
{
    scheduleAfter(first_fire, [this, core_index] {
        fireHousekeeping(core_index);
    }, EventPriority::Device,
    {{"kernel.hk", static_cast<std::uint64_t>(core_index)}, {}});
}

void
Kernel::fireHousekeeping(int core_index)
{
    deliverIrq(core_index, makeHousekeepingIrq());
    startHousekeepingTimer(core_index, params_.housekeeping_period);
}

Irq
Kernel::makeHousekeepingIrq()
{
    Irq timer;
    timer.label = "timer";
    timer.token = {"irq.timer"};
    timer.ssr_related = false;
    timer.footprint_accesses = 96;
    timer.footprint_branches = 800;
    const Tick cost = params_.housekeeping_cost;
    timer.on_start = [cost](CpuCore &) { return cost; };
    return timer;
}

Tick
Kernel::totalSsrTicks() const
{
    Tick total = 0;
    for (const auto &core : cores_)
        total += core->ssrTicks();
    return total;
}

void
Kernel::finalizeStats()
{
    for (const auto &core : cores_)
        core->finalizeStats();
}

Thread *
Kernel::threadById(int id) const
{
    for (const auto &thread : threads_)
        if (thread->id() == id)
            return thread.get();
    throw snap::SnapshotError("snapshot names unknown thread id "
                              + std::to_string(id));
}

Irq
Kernel::rebuildIrq(const snap::Token &token)
{
    if (token.is("irq.timer"))
        return makeHousekeepingIrq();
    if (token.is("irq.resched")) {
        snap::checkIndex(token.a, cores_.size(), "resched IPI core");
        return scheduler_->makeReschedIrq(static_cast<int>(token.a));
    }
    if (token.is("irq.drv")) {
        snap::checkIndex(token.a, drivers_.size(), "irq driver");
        return drivers_[token.a]->makeInterrupt();
    }
    throw snap::SnapshotError(
        std::string("unknown irq token '")
        + (token.kind != nullptr ? token.kind : "") + "'");
}

EventQueue::Callback
Kernel::rebuildEvent(const snap::Tag &tag)
{
    const snap::Token &t = tag.self;
    if (t.is("kernel.hk")) {
        snap::checkIndex(t.a, cores_.size(), "housekeeping core");
        const int core_index = static_cast<int>(t.a);
        return [this, core_index] { fireHousekeeping(core_index); };
    }
    if (t.is("sched.preempt") || t.is("sched.ipi")
        || t.is("sched.sleep")) {
        return scheduler_->rebuildEvent(
            tag, [this](int id) { return threadById(id); });
    }
    if (t.is("drv.wd") || t.is("drv.irq") || t.is("drv.irqdup")
        || t.is("drv.irqwd")) {
        snap::checkIndex(t.a, drivers_.size(), "driver event driver");
        return drivers_[t.a]->rebuildEvent(tag);
    }
    if (t.is("core.grace") || t.is("core.burst") || t.is("core.irq")
        || t.is("core.wake")) {
        snap::checkIndex(t.a, cores_.size(), "core event core");
        return cores_[t.a]->rebuildEvent(tag);
    }
    throw snap::SnapshotError(
        std::string("unknown kernel event tag '")
        + (t.kind != nullptr ? t.kind : "") + "'");
}

void
Kernel::snapIo(snap::Io &io, const RequestRebuild &rebuild)
{
    io.section("kernel");
    snap::Access::io(io, rng());
    io.asI64(next_thread_id_);
    io.expect(threads_.size(),
              "thread count mismatch (different workload config?)");
    for (const auto &thread : threads_) {
        io.expect(static_cast<std::uint64_t>(thread->id()),
                  "thread id order mismatch");
        snap::Access::io(io, *thread);
        snap::checkIndex(thread->lastCore() + 1, cores_.size() + 1,
                         "thread last core + 1");
    }
    snap::Access::io(io, proc_stats_);
    snap::Access::io(io, frames_);
    snap::Access::io(io, spaces_);
    const std::function<Thread *(int)> lookup = [this](int id) {
        return threadById(id);
    };
    scheduler_->snapIo(io, lookup);
    services_->snapIo(io);
    work_queue_->snapIo(io, rebuild);
    bool had_qos = qos_governor_ != nullptr;
    io.b(had_qos);
    if (had_qos != (qos_governor_ != nullptr))
        throw snap::SnapshotError("QoS governor presence mismatch");
    if (qos_governor_ != nullptr)
        qos_governor_->snapIo(io);
    io.expect(worker_models_.size(), "worker model count mismatch");
    for (const auto &worker : worker_models_)
        worker->snapIo(io, rebuild);
    io.expect(drivers_.size(), "driver count mismatch");
    for (const auto &driver : drivers_)
        driver->snapIo(io, rebuild);
    const CpuCore::IrqRebuild irqs = [this](const snap::Token &token) {
        return rebuildIrq(token);
    };
    for (const auto &core : cores_)
        core->snapIo(io, irqs, lookup);
}

} // namespace hiss
