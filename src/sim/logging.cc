#include "sim/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace hiss {
namespace {

// The level is process-global and may be consulted from every
// ExperimentBatch worker thread concurrently.
std::atomic<logging::Level> g_level{logging::Level::Warn};

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n <= 0)
        return {};
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace

namespace logging {

void
setLevel(Level level)
{
    g_level.store(level, std::memory_order_relaxed);
}

Level level() { return g_level.load(std::memory_order_relaxed); }

} // namespace logging

void
warn(const char *fmt, ...)
{
    if (g_level < logging::Level::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

} // namespace hiss
