#include "os/scheduler.h"

#include <algorithm>

#include "fault/fault_injector.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

Scheduler::Scheduler(SimContext &ctx, std::vector<CpuCore *> cores,
                     const SchedulerParams &params)
    : SimObject(ctx, "sched"),
      cores_(std::move(cores)),
      params_(params),
      queues_(cores_.size()),
      resched_pending_(cores_.size(), false)
{
    if (cores_.empty())
        fatal("Scheduler: no cores");
    stats().addFormula("sched.ipis_sent", "resched IPIs sent",
                       [this] { return static_cast<double>(ipis_sent_); });
    stats().addFormula("sched.migrations", "cross-core thread migrations",
                       [this] {
                           return static_cast<double>(migrations_);
                       });
}

void
Scheduler::start(Thread *thread)
{
    if (thread->state() != ThreadState::Created)
        panic("Scheduler::start on non-Created thread %s",
              thread->name().c_str());
    thread->setState(ThreadState::Blocked);
    wake(thread, nullptr);
}

void
Scheduler::wake(Thread *thread, CpuCore *from)
{
    const ThreadState s = thread->state();
    if (s == ThreadState::Ready || s == ThreadState::Running)
        return; // Spurious wake.
    if (s == ThreadState::Finished)
        panic("Scheduler::wake on finished thread %s",
              thread->name().c_str());

    thread->setState(ThreadState::Ready);
    thread->setReadySince(now());
    thread->noteWake(now());
    CpuCore *target = placeThread(thread);

    if (target->canDispatch()) {
        target->dispatch(thread);
        return;
    }

    enqueue(target->index(), thread);
    maybePreempt(*target, thread, from);
}

void
Scheduler::maybePreempt(CpuCore &target, Thread *waker, CpuCore *from)
{
    if (&target == from) {
        // Local wakeup: the waking context is an irq handler or burst
        // completion on this core; a boundary follows on the stack
        // and will see the queue. No IPI needed.
        return;
    }
    Thread *running = target.currentThread();
    if (running == nullptr) {
        // Asleep, waking, or in an irq without a thread: an IPI wakes
        // a sleeping core; otherwise the upcoming boundary suffices.
        if (target.asleepOrWaking())
            sendReschedIpi(target);
        return;
    }
    if (waker->priority() < running->priority()) {
        sendReschedIpi(target);
        return;
    }
    if (waker->priority() == running->priority()) {
        const Tick ran = running->ranSinceDispatch();
        if (waker->recentShare() < params_.instant_preempt_share
            || ran >= params_.wakeup_granularity) {
            sendReschedIpi(target);
        } else {
            const Tick delay = params_.wakeup_granularity - ran;
            scheduleAfter(delay, makePreemptCheck(&target, waker),
                          EventPriority::Scheduler,
                          {{"sched.preempt",
                            static_cast<std::uint64_t>(target.index()),
                            static_cast<std::uint64_t>(waker->id())},
                           {}});
        }
    }
    // Lower-urgency wakeups wait for a natural boundary or timeslice.
}

Irq
Scheduler::makeReschedIrq(int core_index)
{
    const auto idx = static_cast<std::size_t>(core_index);
    Irq ipi;
    ipi.label = "resched";
    ipi.token = {"irq.resched", static_cast<std::uint64_t>(core_index)};
    ipi.is_ipi = true;
    ipi.footprint_accesses = 16;
    ipi.footprint_branches = 120;
    const Tick cost = params_.resched_ipi_cost;
    ipi.on_start = [cost](CpuCore &) { return cost; };
    ipi.on_complete = [this, idx](CpuCore &) {
        resched_pending_[idx] = false;
    };
    return ipi;
}

void
Scheduler::sendReschedIpi(CpuCore &target)
{
    const auto idx = static_cast<std::size_t>(target.index());
    if (resched_pending_[idx])
        return;
    resched_pending_[idx] = true;
    ++ipis_sent_;
    Irq ipi = makeReschedIrq(target.index());
    if (FaultInjector *faults = faultInjector()) {
        const Tick delay = faults->ipiDelay();
        if (delay > 0) {
            // Injected interconnect delay: the IPI arrives late but
            // is never lost (resched_pending_ stays set meanwhile).
            scheduleAfter(delay, makeIpiDelivery(&target),
                          EventPriority::Scheduler,
                          {{"sched.ipi",
                            static_cast<std::uint64_t>(target.index())},
                           {}});
            return;
        }
    }
    target.postInterrupt(std::move(ipi));
}

void
Scheduler::sleepThread(Thread *thread, Tick duration)
{
    thread->setState(ThreadState::Sleeping);
    scheduleAfter(duration, makeSleepTimeout(thread),
                  EventPriority::Scheduler,
                  {{"sched.sleep",
                    static_cast<std::uint64_t>(thread->id())},
                   {}});
}

EventQueue::Callback
Scheduler::makePreemptCheck(CpuCore *target, Thread *waker)
{
    return [this, target, waker] {
        if (waker->state() == ThreadState::Ready
            && target->currentThread() != nullptr
            && target->currentThread()->priority() >= waker->priority()) {
            sendReschedIpi(*target);
        }
    };
}

EventQueue::Callback
Scheduler::makeSleepTimeout(Thread *thread)
{
    return [this, thread] {
        if (thread->state() == ThreadState::Sleeping)
            wake(thread, nullptr);
    };
}

EventQueue::Callback
Scheduler::makeIpiDelivery(CpuCore *target)
{
    // The delayed-IPI event re-materializes the interrupt at delivery
    // time instead of capturing it: the rebuilt Irq is identical (the
    // factory is a pure function of the core index) and this keeps
    // the event snapshottable.
    return [this, target] {
        target->postInterrupt(makeReschedIrq(target->index()));
    };
}

void
Scheduler::blockThread(Thread *thread)
{
    thread->setState(ThreadState::Blocked);
}

void
Scheduler::finishThread(Thread *thread)
{
    thread->setState(ThreadState::Finished);
}

void
Scheduler::onCoreIdle(CpuCore &core)
{
    Thread *next = popBest(core.index());
    if (next == nullptr)
        next = stealFromOtherCores(core.index());
    if (next != nullptr)
        core.dispatch(next);
    else
        core.goIdle();
}

void
Scheduler::onCoreBoundary(CpuCore &core)
{
    Thread *running = core.currentThread();
    Thread *best = peekBest(core.index());
    bool switch_now = false;
    if (best != nullptr) {
        if (best->priority() < running->priority()) {
            switch_now = true;
        } else if (best->priority() == running->priority()) {
            // Equal priority: a sleeper-credit waiter takes the core
            // at the first boundary; otherwise preempt once it has
            // waited out the wakeup granularity or the runner's
            // timeslice expires.
            const Tick waited = now() >= best->readySince()
                ? now() - best->readySince() : 0;
            if (best->recentShare() < params_.instant_preempt_share
                || waited >= params_.wakeup_granularity
                || running->ranSinceDispatch() >= params_.timeslice)
                switch_now = true;
        }
    }
    if (switch_now) {
        Thread *old = core.detachCurrent();
        old->setState(ThreadState::Ready);
        old->setReadySince(now());
        enqueue(core.index(), old);
        Thread *next = popBest(core.index());
        core.dispatch(next);
    } else {
        core.continueThread();
    }
}

CpuCore *
Scheduler::placeThread(Thread *thread)
{
    if (thread->affinity() != kAffinityAny) {
        const auto idx = static_cast<std::size_t>(thread->affinity());
        if (idx >= cores_.size())
            fatal("thread %s pinned to nonexistent core %d",
                  thread->name().c_str(), thread->affinity());
        return cores_[idx];
    }

    const int last = thread->lastCore();

    // 1. Idle, awake core (prefer the thread's previous core).
    if (last >= 0 && cores_[static_cast<std::size_t>(last)]->canDispatch())
        return cores_[static_cast<std::size_t>(last)];
    for (CpuCore *core : cores_)
        if (core->canDispatch())
            return core;

    // 2. Sleeping core (prefer the previous core).
    if (last >= 0
        && cores_[static_cast<std::size_t>(last)]->asleepOrWaking())
        return cores_[static_cast<std::size_t>(last)];
    for (CpuCore *core : cores_)
        if (core->asleepOrWaking())
            return core;

    // 3. Busy cores: pick the most preemptible (running thread with
    //    the weakest priority), tie-broken by shortest queue.
    CpuCore *best = nullptr;
    for (CpuCore *core : cores_) {
        if (best == nullptr) {
            best = core;
            continue;
        }
        Thread *bc = best->currentThread();
        Thread *cc = core->currentThread();
        const Priority bp = bc != nullptr ? bc->priority() : -1000;
        const Priority cp = cc != nullptr ? cc->priority() : -1000;
        if (cp > bp) {
            best = core;
        } else if (cp == bp) {
            const auto bi = static_cast<std::size_t>(best->index());
            const auto ci = static_cast<std::size_t>(core->index());
            if (queues_[ci].size() < queues_[bi].size())
                best = core;
        }
    }
    return best;
}

void
Scheduler::enqueue(int core_index, Thread *thread)
{
    queues_[static_cast<std::size_t>(core_index)].push_back(thread);
}

Thread *
Scheduler::peekBest(int core_index) const
{
    const auto &queue = queues_[static_cast<std::size_t>(core_index)];
    Thread *best = nullptr;
    for (Thread *thread : queue)
        if (best == nullptr || thread->priority() < best->priority())
            best = thread;
    return best;
}

Thread *
Scheduler::popBest(int core_index)
{
    auto &queue = queues_[static_cast<std::size_t>(core_index)];
    if (queue.empty())
        return nullptr;
    auto best = queue.begin();
    for (auto it = queue.begin(); it != queue.end(); ++it)
        if ((*it)->priority() < (*best)->priority())
            best = it;
    Thread *thread = *best;
    queue.erase(best);
    return thread;
}

void
Scheduler::snapSave(snap::Writer &w) const
{
    snap::Access::save(w, rng());
    w.u64(queues_.size());
    for (const auto &queue : queues_) {
        w.u64(queue.size());
        for (const Thread *thread : queue)
            w.i64(thread->id());
    }
    for (const bool pending : resched_pending_)
        w.b(pending);
    w.u64(ipis_sent_);
    w.u64(migrations_);
}

void
Scheduler::snapRestore(snap::Reader &r,
                       const std::function<Thread *(int)> &threadById)
{
    snap::Access::restore(r, rng());
    if (r.u64() != queues_.size())
        throw snap::SnapshotError("scheduler core-count mismatch");
    for (auto &queue : queues_) {
        queue.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const int id = static_cast<int>(r.i64());
            Thread *thread = threadById(id);
            if (thread == nullptr)
                throw snap::SnapshotError(
                    "run queue names unknown thread id "
                    + std::to_string(id));
            queue.push_back(thread);
        }
    }
    for (std::size_t i = 0; i < resched_pending_.size(); ++i)
        resched_pending_[i] = r.b();
    ipis_sent_ = r.u64();
    migrations_ = r.u64();
}

EventQueue::Callback
Scheduler::rebuildEvent(const snap::Tag &tag,
                        const std::function<Thread *(int)> &threadById)
{
    const snap::Token &t = tag.self;
    if (t.is("sched.preempt")) {
        CpuCore *target = cores_.at(t.a);
        Thread *waker = threadById(static_cast<int>(t.b));
        if (waker == nullptr)
            throw snap::SnapshotError(
                "preempt check names unknown thread id "
                + std::to_string(t.b));
        return makePreemptCheck(target, waker);
    }
    if (t.is("sched.ipi"))
        return makeIpiDelivery(cores_.at(t.a));
    if (t.is("sched.sleep")) {
        Thread *thread = threadById(static_cast<int>(t.a));
        if (thread == nullptr)
            throw snap::SnapshotError(
                "sleep timeout names unknown thread id "
                + std::to_string(t.a));
        return makeSleepTimeout(thread);
    }
    throw snap::SnapshotError("unknown scheduler event tag");
}

Thread *
Scheduler::stealFromOtherCores(int thief_index)
{
    // Steal the most urgent unpinned thread from the deepest queue.
    int victim = -1;
    std::size_t depth = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        if (static_cast<int>(i) == thief_index)
            continue;
        std::size_t unpinned = 0;
        for (Thread *thread : queues_[i])
            if (thread->affinity() == kAffinityAny)
                ++unpinned;
        if (unpinned > depth) {
            depth = unpinned;
            victim = static_cast<int>(i);
        }
    }
    if (victim < 0)
        return nullptr;
    auto &queue = queues_[static_cast<std::size_t>(victim)];
    auto best = queue.end();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if ((*it)->affinity() != kAffinityAny)
            continue;
        if (best == queue.end() || (*it)->priority() < (*best)->priority())
            best = it;
    }
    if (best == queue.end())
        return nullptr;
    Thread *thread = *best;
    queue.erase(best);
    ++migrations_;
    return thread;
}

} // namespace hiss
