/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject has a hierarchical name, shares the system's EventQueue
 * and StatRegistry, and owns a deterministic Rng stream derived from
 * the experiment seed and its name.
 */

#ifndef HISS_SIM_SIM_OBJECT_H_
#define HISS_SIM_SIM_OBJECT_H_

#include <string>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/ticks.h"

namespace hiss {

class TraceWriter;
class CheckHooks;
class FaultInjector;

/** Shared simulation context handed to every SimObject. */
struct SimContext
{
    EventQueue &events;
    StatRegistry &stats;
    std::uint64_t seed = 1;
    /** Optional timeline writer (chrome://tracing); may be null. */
    TraceWriter *trace = nullptr;
    /** Optional invariant-layer hooks (src/check); may be null. */
    CheckHooks *checks = nullptr;
    /** Optional fault injector (src/fault); null in fault-free runs. */
    FaultInjector *faults = nullptr;
};

/** Base class for every simulated component. */
class SimObject
{
  public:
    SimObject(SimContext &ctx, std::string name);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }

    /** Current simulated time. */
    Tick now() const { return ctx_.events.now(); }

  protected:
    /** The shared simulation context (for constructing children). */
    SimContext &ctx() { return ctx_; }

    EventQueue &events() { return ctx_.events; }
    const EventQueue &events() const { return ctx_.events; }
    StatRegistry &stats() { return ctx_.stats; }
    Rng &rng() { return rng_; }
    const Rng &rng() const { return rng_; }

    /** The attached timeline writer, or nullptr. */
    TraceWriter *traceWriter() const { return ctx_.trace; }

    /** The armed invariant-layer hooks, or nullptr (the common case). */
    CheckHooks *checkHooks() const { return ctx_.checks; }

    /** The fault injector, or nullptr in fault-free runs. */
    FaultInjector *faultInjector() const { return ctx_.faults; }

    /** Schedule a member callback after @p delay ticks. */
    EventId
    scheduleAfter(Tick delay, EventQueue::Callback fn,
                  EventPriority prio = EventPriority::Default,
                  const snap::Tag &tag = {})
    {
        return ctx_.events.scheduleAfter(delay, std::move(fn), prio,
                                         tag);
    }

  private:
    SimContext &ctx_;
    std::string name_;
    Rng rng_;
};

} // namespace hiss

#endif // HISS_SIM_SIM_OBJECT_H_
