#include "workloads/cpu_app.h"

#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {
namespace {

/** Base of the simulated user data segment. */
constexpr Addr kUserDataBase = 0x0000'1000'0000ULL;
/** Base of the simulated user code segment (branch PCs). */
constexpr Addr kUserCodeBase = 0x0000'0040'0000ULL;
/** Virtual-address gap between consecutive app threads' regions. */
constexpr Addr kThreadStride = 0x0000'0100'0000ULL;

} // namespace

CpuApp::ThreadModel::ThreadModel(CpuApp &app, int index, Addr data_base,
                                 Addr code_base, std::uint64_t seed)
    : app_(app),
      index_(index),
      astream_(app.params_.mem, data_base, seed ^ 0xa11ce5ULL),
      bstream_(app.params_.branch, code_base, seed ^ 0xb4a2c4ULL)
{
    segment = Segment::Parallel;
    remaining = app.params_.parallel_insts;
}

BurstRequest
CpuApp::ThreadModel::nextBurst(CpuCore &core)
{
    (void)core;
    BurstRequest br;
    switch (segment) {
      case Segment::AtBarrier:
        br.kind = BurstRequest::Kind::Block;
        return br;
      case Segment::Done:
        br.kind = BurstRequest::Kind::Finish;
        return br;
      case Segment::Parallel:
      case Segment::Serial:
        break;
    }
    if (remaining == 0) {
        // Shouldn't happen: transitions occur in onBurstDone.
        br.kind = BurstRequest::Kind::Block;
        return br;
    }
    br.kind = BurstRequest::Kind::Run;
    br.instructions = std::min<std::uint64_t>(
        remaining, app_.params_.slice_insts);
    br.base_cpi = app_.params_.base_cpi;
    br.kernel_mode = false;
    br.mem_accesses = app_.params_.sample_accesses;
    br.branches = app_.params_.sample_branches;
    br.astream = &astream_;
    br.bstream = &bstream_;
    return br;
}

void
CpuApp::ThreadModel::onBurstDone(CpuCore &core, Tick ran,
                                 std::uint64_t instructions_done,
                                 bool completed)
{
    (void)core;
    (void)ran;
    (void)completed;
    if (segment != Segment::Parallel && segment != Segment::Serial)
        return;
    remaining = instructions_done >= remaining
        ? 0 : remaining - instructions_done;
    if (remaining > 0)
        return;
    if (segment == Segment::Parallel) {
        segment = Segment::AtBarrier;
        app_.threadHitBarrier(index_);
    } else {
        segment = Segment::AtBarrier;
        app_.releaseIteration();
    }
}

CpuApp::CpuApp(SimContext &ctx, Kernel &kernel, const CpuAppParams &params)
    : SimObject(ctx, params.name), kernel_(kernel), params_(params)
{
    if (params.threads <= 0)
        fatal("CpuAppParams %s: need at least one thread",
              params.name.c_str());
    if (params.iterations == 0 || params.parallel_insts == 0)
        fatal("CpuAppParams %s: empty workload", params.name.c_str());
}

CpuApp::~CpuApp() = default;

void
CpuApp::start()
{
    if (!models_.empty())
        fatal("CpuApp %s: already started", name().c_str());
    start_time_ = now();
    for (int t = 0; t < params_.threads; ++t) {
        const auto tt = static_cast<Addr>(t);
        models_.push_back(std::make_unique<ThreadModel>(
            *this, t, kUserDataBase + tt * kThreadStride,
            kUserCodeBase + tt * 0x10000,
            ctx().seed ^ (static_cast<std::uint64_t>(t) << 32)
                ^ std::hash<std::string>{}(name())));
        Thread *thread = kernel_.createThread(
            name() + ".t" + std::to_string(t), kPrioUser,
            models_.back().get());
        threads_.push_back(thread);
    }
    for (Thread *thread : threads_)
        kernel_.startThread(thread);
}

void
CpuApp::threadHitBarrier(int index)
{
    (void)index;
    ++arrived_;
    if (arrived_ < params_.threads)
        return;
    arrived_ = 0;
    if (params_.serial_insts > 0)
        beginSerial();
    else
        releaseIteration();
}

void
CpuApp::beginSerial()
{
    ThreadModel &leader = *models_[0];
    leader.segment = Segment::Serial;
    leader.remaining = params_.serial_insts;
    wakeThread(0);
}

void
CpuApp::releaseIteration()
{
    ++iterations_done_;
    if (iterations_done_ >= params_.iterations) {
        finishApp();
        return;
    }
    for (int t = 0; t < params_.threads; ++t) {
        ThreadModel &model = *models_[static_cast<std::size_t>(t)];
        model.segment = Segment::Parallel;
        model.remaining = params_.parallel_insts;
        wakeThread(t);
    }
}

void
CpuApp::finishApp()
{
    done_ = true;
    completion_time_ = now() - start_time_;
    for (int t = 0; t < params_.threads; ++t) {
        models_[static_cast<std::size_t>(t)]->segment = Segment::Done;
        wakeThread(t);
    }
    if (on_complete_)
        on_complete_();
}

void
CpuApp::ThreadModel::snapSave(snap::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(segment));
    w.u64(remaining);
    snap::Access::save(w, astream_);
    snap::Access::save(w, bstream_);
}

void
CpuApp::ThreadModel::snapRestore(snap::Reader &r)
{
    segment = static_cast<Segment>(r.u32());
    remaining = r.u64();
    snap::Access::restore(r, astream_);
    snap::Access::restore(r, bstream_);
}

void
CpuApp::snapSave(snap::Writer &w) const
{
    w.section(name().c_str());
    snap::Access::save(w, rng());
    w.u64(models_.size());
    for (const auto &model : models_)
        model->snapSave(w);
    w.u32(static_cast<std::uint32_t>(arrived_));
    w.u64(iterations_done_);
    w.b(done_);
    w.u64(start_time_);
    w.u64(completion_time_);
}

void
CpuApp::snapRestore(snap::Reader &r)
{
    r.section(name().c_str());
    snap::Access::restore(r, rng());
    if (r.u64() != models_.size())
        throw snap::SnapshotError(
            name() + ": thread count mismatch (start() not replayed "
                     "with the snapshot's params?)");
    for (const auto &model : models_)
        model->snapRestore(r);
    arrived_ = static_cast<int>(r.u32());
    iterations_done_ = r.u64();
    done_ = r.b();
    start_time_ = r.u64();
    completion_time_ = r.u64();
}

void
CpuApp::wakeThread(int index)
{
    Thread *thread = threads_[static_cast<std::size_t>(index)];
    const ThreadState s = thread->state();
    if (s == ThreadState::Blocked)
        kernel_.scheduler().wake(thread, nullptr);
    // Running/Ready threads will observe their new segment at the
    // next nextBurst() call.
}

} // namespace hiss
