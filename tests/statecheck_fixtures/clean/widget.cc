#include "widget.h"

namespace fix {

void
Widget::snapIo(snap::Io &io)
{
    walk(io, count_);
    walk(io, credit_);
}

} // namespace fix
