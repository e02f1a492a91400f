#include "core/system.h"

#include <cstring>

#include "check/invariants.h"
#include "core/cell_key.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

HeteroSystem::HeteroSystem(const SystemConfig &config)
    : config_(config), ctx_{events_, stats_, config.seed}
{
    if (config.fault.enabled()) {
        faults_ = std::make_unique<FaultInjector>(ctx_, config.fault);
        ctx_.faults = faults_.get();
    }
    kernel_ = std::make_unique<Kernel>(ctx_, config.num_cores,
                                       config.core, config.kernel);
    iommu_ = std::make_unique<Iommu>(ctx_, *kernel_, config.iommu);
    // When MSI steering pins interrupts to one core, the bottom-half
    // kthread is pinned there too (paper Section V-E: steps 3 and 4
    // run on the same core).
    const int bh_affinity =
        config.iommu.steering == MsiSteering::SingleCore
            ? config.iommu.steer_core : kAffinityAny;
    ssr_driver_ = &kernel_->attachSsrSource("iommu_drv", *iommu_,
                                            config.ssr_driver,
                                            bh_affinity);
    iommu_->setDriver(ssr_driver_);

    signal_queue_ = std::make_unique<SignalQueue>(ctx_, *kernel_);
    signal_driver_ = &kernel_->attachSsrSource("gpu_signal_drv",
                                               *signal_queue_,
                                               config.ssr_driver);
    signal_queue_->setDriver(signal_driver_);

    gpu_ = std::make_unique<Gpu>(ctx_, *iommu_, config.gpu);

    if (config.check_invariants) {
        // Constructed after every observed subsystem, before any
        // events run, so the ledgers see every request from t=0.
        monitor_ = std::make_unique<check::InvariantMonitor>(
            ctx_, *this, config.check_period);
        ctx_.checks = monitor_.get();
    }
}

HeteroSystem::~HeteroSystem() = default;

CpuApp &
HeteroSystem::addCpuApp(const CpuAppParams &params)
{
    apps_.push_back(std::make_unique<CpuApp>(ctx_, *kernel_, params));
    return *apps_.back();
}

void
HeteroSystem::launchGpu(const GpuWorkloadParams &workload,
                        bool demand_paging, bool loop,
                        std::function<void()> on_kernel_complete)
{
    gpu_->launch(workload, demand_paging, loop,
                 std::move(on_kernel_complete));
}

Gpu &
HeteroSystem::addAccelerator()
{
    GpuParams params = config_.gpu;
    params.device_id = static_cast<int>(extra_gpus_.size()) + 1;
    extra_gpus_.push_back(
        std::make_unique<Gpu>(ctx_, *iommu_, params));
    return *extra_gpus_.back();
}

void
HeteroSystem::finalizeStats()
{
    if (monitor_ != nullptr)
        monitor_->runAllChecks();
    kernel_->finalizeStats();
}

namespace {

/** True when @p kind starts with @p prefix ("iommu.", "gpu.", ...). */
bool
kindHasPrefix(const char *kind, const char *prefix)
{
    return kind != nullptr
           && std::strncmp(kind, prefix, std::strlen(prefix)) == 0;
}

} // namespace

std::uint64_t
HeteroSystem::configFingerprint() const
{
    snap::Hash64 h;
    // Every SystemConfig field, seed and fault plan included: the
    // same text a cell key folds a base system in as.
    h.mixString(canonicalSystemText(config_));
    // Workload shape: restore requires the same addCpuApp / launchGpu
    // / addAccelerator calls replayed on the target system.
    h.mix(apps_.size());
    for (const auto &app : apps_) {
        const CpuAppParams &p = app->params();
        h.mixString(p.name);
        h.mix(static_cast<std::uint64_t>(p.threads));
        h.mix(p.iterations);
        h.mix(p.parallel_insts);
        h.mix(p.serial_insts);
    }
    h.mix(extra_gpus_.size());
    // The registered stat names pin down the rest of the structure:
    // every component registers its stats at construction.
    h.mix(stats_.size());
    stats_.forEach([&h](const Stat &s) { h.mixString(s.name()); });
    return h.value();
}

void
HeteroSystem::saveSnapshot(snap::Writer &w) const
{
    if (monitor_ != nullptr)
        throw snap::SnapshotError(
            "snapshots with the invariant monitor armed are "
            "unsupported (build the system with check_invariants "
            "= false)");
    w.section("system");
    w.u64(configFingerprint());
    if (faults_ != nullptr)
        faults_->snapSave(w);
    kernel_->snapSave(w);
    iommu_->snapSave(w);
    signal_queue_->snapSave(w);
    gpu_->snapSave(w);
    w.u64(extra_gpus_.size());
    for (const auto &gpu : extra_gpus_)
        gpu->snapSave(w);
    w.u64(apps_.size());
    for (const auto &app : apps_)
        app->snapSave(w);
    snap::Access::save(w, stats_);
    // The event queue goes last: restoring it re-arms callbacks that
    // capture component state, so the components must already be in
    // their snapshot state when the tags are resolved.
    events_.saveState(w);
}

void
HeteroSystem::restoreSnapshot(snap::Reader &r)
{
    if (monitor_ != nullptr)
        throw snap::SnapshotError(
            "snapshots with the invariant monitor armed are "
            "unsupported (build the system with check_invariants "
            "= false)");
    r.section("system");
    if (r.u64() != configFingerprint())
        throw snap::SnapshotError(
            "snapshot config fingerprint mismatch (different config, "
            "workload, or seed)");
    if (faults_ != nullptr)
        faults_->snapRestore(r);
    kernel_->snapRestore(r, requestRebuild());
    iommu_->snapRestore(r, callbackResolver());
    signal_queue_->snapRestore(r);
    gpu_->snapRestore(r);
    if (r.u64() != extra_gpus_.size())
        throw snap::SnapshotError(
            "accelerator count mismatch (addAccelerator() not "
            "replayed before restore?)");
    for (const auto &gpu : extra_gpus_)
        gpu->snapRestore(r);
    if (r.u64() != apps_.size())
        throw snap::SnapshotError(
            "application count mismatch (addCpuApp() not replayed "
            "before restore?)");
    for (const auto &app : apps_)
        app->snapRestore(r);
    snap::Access::restore(r, stats_);
    events_.restoreState(
        r, [this](const snap::Tag &tag) { return resolveTag(tag); });
}

std::string
HeteroSystem::snapshotBytes() const
{
    snap::Writer w;
    saveSnapshot(w);
    return snap::frame(w.buffer());
}

void
HeteroSystem::restoreSnapshotBytes(const std::string &blob)
{
    snap::Reader r(snap::unframe(blob));
    restoreSnapshot(r);
    if (!r.atEnd())
        throw snap::SnapshotError(
            "snapshot has trailing bytes after the event queue "
            "(mixed-version writer?)");
}

void
HeteroSystem::saveSnapshotFile(const std::string &path) const
{
    snap::writeFileAtomic(path, snapshotBytes());
}

void
HeteroSystem::restoreSnapshotFile(const std::string &path)
{
    restoreSnapshotBytes(snap::readFile(path));
}

std::uint64_t
HeteroSystem::stateHash() const
{
    snap::Writer w;
    saveSnapshot(w);
    snap::Hash64 h;
    h.mixString(w.buffer());
    return h.value();
}

Gpu &
HeteroSystem::gpuByDevice(std::uint64_t id)
{
    if (id == 0)
        return *gpu_;
    if (id - 1 >= extra_gpus_.size())
        throw snap::SnapshotError(
            "snapshot references accelerator device id "
            + std::to_string(id) + " but only "
            + std::to_string(extra_gpus_.size())
            + " extra accelerators exist");
    return *extra_gpus_[id - 1];
}

Iommu::CallbackResolver
HeteroSystem::callbackResolver()
{
    return [this](const snap::Token &token) -> Iommu::TranslateCallback {
        if (token.empty())
            throw snap::SnapshotError(
                "pending translation has no completion-callback "
                "token; it cannot cross a snapshot boundary");
        if (token.is("gpu.xlate"))
            return gpuByDevice(token.a).rebuildTranslateCallback(token);
        throw snap::SnapshotError(
            std::string("unknown translate-callback token '")
            + token.kind + "'");
    };
}

RequestRebuild
HeteroSystem::requestRebuild()
{
    return [this](SsrRequest &request) {
        const snap::Token &origin = request.origin.self;
        if (origin.is("iommu.ppr")) {
            iommu_->rebuildRequestCallbacks(request, callbackResolver());
            return;
        }
        if (origin.is("sig.req")) {
            signal_queue_->rebuildRequestCallbacks(request);
            return;
        }
        throw snap::SnapshotError(
            std::string("in-flight request ")
            + std::to_string(request.id)
            + " has unknown origin tag '"
            + (origin.kind != nullptr ? origin.kind : "") + "'");
    };
}

EventQueue::Callback
HeteroSystem::resolveTag(const snap::Tag &tag)
{
    const char *kind = tag.self.kind;
    if (kindHasPrefix(kind, "iommu."))
        return iommu_->rebuildEvent(tag, callbackResolver());
    if (kindHasPrefix(kind, "gpu."))
        return gpuByDevice(tag.self.a).rebuildEvent(tag);
    if (kindHasPrefix(kind, "sig."))
        return signal_queue_->rebuildEvent(tag);
    // kernel. / sched. / drv. / core. — the kernel dispatches and
    // throws on anything it does not recognize.
    return kernel_->rebuildEvent(tag);
}

bool
HeteroSystem::runUntilCondition(const std::function<bool()> &predicate,
                                Tick cap)
{
    while (!predicate()) {
        if (events_.empty())
            return false;
        if (events_.now() >= cap)
            return false;
        events_.step();
    }
    return true;
}

} // namespace hiss
