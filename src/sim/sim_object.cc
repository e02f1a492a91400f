#include "sim/sim_object.h"

#include <utility>

namespace hiss {

SimObject::SimObject(SimContext &ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)), rng_(ctx.seed, name_)
{
}

} // namespace hiss
