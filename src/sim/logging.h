/**
 * @file
 * Logging and error-reporting utilities.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs; aborts), FatalError for conditions the
 * user can cause (bad configuration; thrown so callers and tests can
 * handle them), and warn() for status messages. The one trace is the
 * chrome://tracing timeline (sim/tracing.h).
 */

#ifndef HISS_SIM_LOGGING_H_
#define HISS_SIM_LOGGING_H_

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace hiss {

/** Thrown for user-caused conditions that prevent the run (bad
 *  configuration, invalid arguments). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

namespace logging {

/** Verbosity levels for status messages. */
enum class Level { Silent, Warn };

/** Set the global verbosity; defaults to Warn. */
void setLevel(Level level);

/** Current global verbosity. */
Level level();

} // namespace logging

/** Print a warning (printf formatting). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable internal error and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Throw a FatalError with printf-style formatting. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace hiss

#endif // HISS_SIM_LOGGING_H_
