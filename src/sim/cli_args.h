/**
 * @file
 * Strict command-line value parsing shared by the hiss front-ends.
 * The whole token must convert and land in range, otherwise the flag
 * dies with a FatalError naming it, instead of silently running
 * atoi()'s best guess (e.g. "--reps 1e3" -> 1).
 */

#ifndef HISS_SIM_CLI_ARGS_H_
#define HISS_SIM_CLI_ARGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.h"

namespace hiss::cli {

/** The value after flag argv[i]; advances @p i past it. */
inline const char *
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("%s needs a value", argv[i]);
    return argv[++i];
}

/** A base-10 integer in [lo, hi]. */
inline long long
parseInt(const char *flag, const char *text, long long lo, long long hi)
{
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not an integer", flag, text);
    if (value < lo || value > hi)
        fatal("%s: %lld is out of range [%lld, %lld]", flag, value, lo,
              hi);
    return value;
}

/** Any unsigned 64-bit seed, written as plain decimal digits (a
 *  sign or leading space would let strtoull negate the value). */
inline std::uint64_t
parseSeed(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0'
        || errno == ERANGE)
        fatal("%s: '%s' is not a valid seed", flag, text);
    return value;
}

/** A real number in [lo, hi]. */
inline double
parseReal(const char *flag, const char *text, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a number", flag, text);
    if (!(value >= lo && value <= hi))
        fatal("%s: %g is out of range [%g, %g]", flag, value, lo, hi);
    return value;
}

/** The items of a comma-separated list ("a,b" -> {"a", "b"}). */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        out.push_back(list.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
    }
    return out;
}

} // namespace hiss::cli

#endif // HISS_SIM_CLI_ARGS_H_
