// Drill fixture: a field (epoch_) was added to a snapshot-capable
// class after its serializers were written — the exact regression
// hiss_statecheck exists to catch. Also seeds every exempt-marker
// failure mode (unknown target, stale, unjustified), a class with
// a missing restore implementation, and a walked class whose walk
// omits one field and reaches another only through a save helper.
#ifndef FIX_DRILL_WIDGET_H_
#define FIX_DRILL_WIDGET_H_

#include <cstdint>

namespace snap {
class Writer;
class Reader;
class Io;
} // namespace snap

namespace fix {

class Widget
{
  public:
    void snapSave(snap::Writer &out) const;
    void snapRestore(snap::Reader &in);

  private:
    std::uint64_t count_ = 0;

    // HISS_STATE_EXEMPT(ghost_, restore): the field this exempted no
    // longer exists — the marker must be flagged as unknown
    int credit_ = 3;

    // HISS_STATE_EXEMPT(credit_, restore): stale on purpose — credit_
    // is restored by the implementation, so this marker is dead weight
    // HISS_STATE_EXEMPT(count_, save)
    std::uint32_t epoch_ = 0; // the drill: never serialized
};

class Gauge
{
  public:
    void snapSave(snap::Writer &out) const;
    // No snapRestore: the analyzer must flag the structural gap.

  private:
    std::uint64_t level_ = 0;
};

class Dial
{
  public:
    void snapIo(snap::Io &io);

  private:
    void snapSaveDetents(snap::Writer &out) const;

    std::uint64_t turns_ = 0;
    std::uint32_t detents_ = 0; // saved by the helper, never restored
    std::uint32_t notch_ = 0;   // the walk drill: never walked
};

} // namespace fix

#endif // FIX_DRILL_WIDGET_H_
