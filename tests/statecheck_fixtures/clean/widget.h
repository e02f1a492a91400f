// Clean fixture: every field of the snapshot-capable class is
// covered by save and restore (or carries a justified exempt marker),
// so the analyzer must report nothing at all.
#ifndef FIX_CLEAN_WIDGET_H_
#define FIX_CLEAN_WIDGET_H_

#include <cstdint>

namespace snap {
class Writer;
class Reader;
} // namespace snap

namespace fix {

class Clock;

class Widget
{
  public:
    explicit Widget(Clock &clock) : clock_(clock) {}

    void snapSave(snap::Writer &out) const;
    void snapRestore(snap::Reader &in);

  private:
    std::uint64_t count_ = 0;
    int credit_ = 3;
    // HISS_STATE_EXEMPT(scratch_): rebuilt from count_ on first use;
    // never observable across a snapshot boundary
    int scratch_ = 0;
    Clock &clock_; // wiring reference: skipped automatically
};

} // namespace fix

#endif // FIX_CLEAN_WIDGET_H_
