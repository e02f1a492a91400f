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

} // namespace fix
