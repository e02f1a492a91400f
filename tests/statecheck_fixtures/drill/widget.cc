#include "widget.h"

namespace fix {

void
Widget::snapSave(snap::Writer &out) const
{
    write(out, count_);
    write(out, credit_);
}

void
Widget::snapRestore(snap::Reader &in)
{
    read(in, count_);
    read(in, credit_);
}

void
Gauge::snapSave(snap::Writer &out) const
{
    write(out, level_);
}

void
Dial::snapIo(snap::Io &io)
{
    walk(io, turns_);
    if (io.saving())
        snapSaveDetents(io.writer());
}

void
Dial::snapSaveDetents(snap::Writer &out) const
{
    write(out, detents_);
}

} // namespace fix
