/**
 * @file
 * The shipped hiss_lint rule set.
 *
 * Every rule here guards one edge of the determinism contract
 * (docs/TESTING.md): a construct whose observable behavior can vary
 * across runs, hosts, or allocator states with the seed and config
 * held fixed. Rules are token-pattern checks over the lexed file —
 * deliberately shallow, so they stay dependency-free and fast — and
 * each one names the sanctioned alternative in its hint.
 *
 * Known, accepted blind spots (document rather than over-match):
 *  - type aliases of unordered containers are not traced through;
 *  - an Rng constructed in a member-initializer list is not seen
 *    (the `Rng` type token never appears there);
 *  - comparator lambdas that order by pointer value are not detected,
 *    only `std::less<T *>` and pointer-keyed ordered containers.
 */

#include <cctype>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace hiss::lint {
namespace {

using Tokens = std::vector<Token>;

bool
isPunct(const Token &tok, const char *text)
{
    return tok.kind == TokKind::Punct && tok.text == text;
}

bool
isIdent(const Token &tok, const char *text)
{
    return tok.kind == TokKind::Identifier && tok.text == text;
}

/**
 * Index just past the angle-bracket group opening at @p open (which
 * must be a "<"). Nested <>, (), [] and {} are skipped; "->" and "::"
 * are single tokens and cannot unbalance the count.
 */
std::size_t
skipAngles(const Tokens &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const Token &tok = toks[i];
        if (isPunct(tok, "<"))
            ++depth;
        else if (isPunct(tok, ">") && --depth == 0)
            return i + 1;
        else if (isPunct(tok, ";")) // malformed; don't run away
            return i;
    }
    return toks.size();
}

/**
 * Split the parenthesized argument list opening at @p open (a "(")
 * into top-level argument token ranges [begin, end). Tracks (), [],
 * {} nesting; template-argument commas inside an argument are split
 * too — fine for every pattern below, which only needs "does the
 * list have one argument" or "which tokens are in argument k" at the
 * granularity the rules check.
 */
std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const Tokens &toks, std::size_t open, std::size_t *close_out)
{
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int depth = 0;
    std::size_t begin = open + 1;
    std::size_t i = open;
    for (; i < toks.size(); ++i) {
        const Token &tok = toks[i];
        if (isPunct(tok, "(") || isPunct(tok, "[") || isPunct(tok, "{")) {
            ++depth;
        } else if (isPunct(tok, ")") || isPunct(tok, "]")
                   || isPunct(tok, "}")) {
            if (--depth == 0)
                break;
        } else if (depth == 1 && isPunct(tok, ",")) {
            args.emplace_back(begin, i);
            begin = i + 1;
        }
    }
    if (i > begin || i != open + 1) // drop the empty "()" case
        args.emplace_back(begin, i);
    if (close_out != nullptr)
        *close_out = i;
    return args;
}

bool
nameMatchesStatCharset(const std::string &text)
{
    for (char c : text) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
            || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return !text.empty();
}

/** A rule implemented by a plain function. */
class CallbackRule : public Rule
{
  public:
    using Fn = std::function<void(const Rule &, const FileContext &,
                                  std::vector<Finding> &)>;

    CallbackRule(std::string name, Severity severity,
                 std::string description, std::string hint, Fn fn)
        : Rule(std::move(name), severity, std::move(description),
               std::move(hint)),
          fn_(std::move(fn)) {}

    void
    check(const FileContext &file,
          std::vector<Finding> &out) const override
    {
        fn_(*this, file, out);
    }

    Finding
    make(const FileContext &file, int line, std::string message) const
    {
        return finding(file, line, std::move(message));
    }

  private:
    Fn fn_;
};

const CallbackRule &
self(const Rule &rule)
{
    return static_cast<const CallbackRule &>(rule);
}

// ---------------------------------------------------------------------
// Rule: unordered-iter
//
// Iterating an unordered container visits elements in hash/allocator
// order, which is not part of seed + config: anything order-sensitive
// downstream (stats, CSVs, event scheduling) silently diverges across
// hosts. Lookups (.find/.count/.end comparisons) are fine; range-for
// and .begin()/.cbegin()/.rbegin() are not.
// ---------------------------------------------------------------------

std::set<std::string>
collectUnorderedNames(const Tokens &toks)
{
    static const std::set<std::string> kContainers = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier
            || kContainers.count(toks[i].text) == 0
            || !isPunct(toks[i + 1], "<"))
            continue;
        std::size_t after = skipAngles(toks, i + 1);
        while (after < toks.size()
               && (isPunct(toks[after], "&") || isPunct(toks[after], "*")
                   || isIdent(toks[after], "const")))
            ++after;
        if (after < toks.size()
            && toks[after].kind == TokKind::Identifier)
            names.insert(toks[after].text);
    }
    return names;
}

void
checkUnorderedIter(const Rule &rule, const FileContext &file,
                   std::vector<Finding> &out)
{
    if (!file.in_sim_layer)
        return;
    const Tokens &toks = file.tokens();
    const std::set<std::string> names = collectUnorderedNames(toks);
    if (names.empty())
        return;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        // Range-for whose sequence expression ends in a tracked name:
        // `for (... : map_)`, `for (... : obj.map_)`.
        if (isIdent(toks[i], "for") && isPunct(toks[i + 1], "(")) {
            std::size_t close = 0;
            auto args = splitArgs(toks, i + 1, &close);
            (void)args;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (!isPunct(toks[j], ":"))
                    continue;
                if (close > 0
                    && toks[close - 1].kind == TokKind::Identifier
                    && names.count(toks[close - 1].text) > 0)
                    out.push_back(self(rule).make(
                        file, toks[i].line,
                        "range-for over unordered container '"
                            + toks[close - 1].text
                            + "' — iteration order is not part of "
                              "seed + config"));
                break;
            }
        }
        // Explicit iterator walk: name.begin() / .cbegin() / .rbegin().
        if (toks[i].kind == TokKind::Identifier
            && names.count(toks[i].text) > 0 && i + 2 < toks.size()
            && isPunct(toks[i + 1], ".")
            && (isIdent(toks[i + 2], "begin")
                || isIdent(toks[i + 2], "cbegin")
                || isIdent(toks[i + 2], "rbegin")))
            out.push_back(self(rule).make(
                file, toks[i].line,
                "iterator over unordered container '" + toks[i].text
                    + "' — iteration order is not part of "
                      "seed + config"));
    }
}

// ---------------------------------------------------------------------
// Rule: banned-nondet
//
// Wall-clock time, libc randomness, and the environment are exactly
// the inputs the determinism contract excludes. All simulator
// randomness must come from a named hiss::Rng stream; all simulator
// time from EventQueue::now().
// ---------------------------------------------------------------------

void
checkBannedNondet(const Rule &rule, const FileContext &file,
                  std::vector<Finding> &out)
{
    if (!file.in_sim_layer)
        return;
    // Called like functions: banned only as free/std calls, so a
    // member named `clock()` or a local declaration stays legal.
    static const std::set<std::string> kBannedCalls = {
        "rand",   "srand",        "rand_r", "drand48",
        "lrand48", "random",      "getenv", "time",
        "clock",  "gettimeofday", "clock_gettime"};
    // Banned on sight: <random>/<chrono> entropy and clock types have
    // no deterministic use in a simulation layer.
    static const std::set<std::string> kBannedTypes = {
        "random_device", "mt19937", "mt19937_64",
        "default_random_engine", "steady_clock", "system_clock",
        "high_resolution_clock"};

    const Tokens &toks = file.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier)
            continue;
        const std::string &text = toks[i].text;
        const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
        const bool member_access =
            prev != nullptr
            && (isPunct(*prev, ".") || isPunct(*prev, "->"));

        if (kBannedTypes.count(text) > 0) {
            if (member_access)
                continue;
            if (prev != nullptr && isPunct(*prev, "::") && i >= 2
                && toks[i - 2].kind == TokKind::Identifier
                && toks[i - 2].text != "std"
                && toks[i - 2].text != "chrono")
                continue; // SomeType::steady_clock — not the std one
            out.push_back(self(rule).make(
                file, toks[i].line,
                "'" + text
                    + "' is a banned nondeterminism source in "
                      "simulation code"));
            continue;
        }

        if (kBannedCalls.count(text) == 0 || i + 1 >= toks.size()
            || !isPunct(toks[i + 1], "("))
            continue;
        if (member_access)
            continue; // obj.time(...) — a member, not libc
        if (prev != nullptr && isPunct(*prev, "::")) {
            // Qualified: only std:: or the global :: are the banned
            // ones; Foo::time() is someone's member.
            if (i >= 2 && toks[i - 2].kind == TokKind::Identifier
                && toks[i - 2].text != "std")
                continue;
        } else if (prev != nullptr
                   && (prev->kind == TokKind::Identifier
                       || isPunct(*prev, "&") || isPunct(*prev, "*")
                       || isPunct(*prev, "~"))) {
            // `Tick time(...)` is a declaration, not a call — unless
            // the preceding identifier is a statement keyword, which
            // can only precede an expression.
            static const std::set<std::string> kStmtKeywords = {
                "return", "else", "do", "case", "co_return",
                "co_yield", "throw"};
            if (prev->kind != TokKind::Identifier
                || kStmtKeywords.count(prev->text) == 0)
                continue;
        }
        out.push_back(self(rule).make(
            file, toks[i].line,
            "call to '" + text
                + "' — wall-clock/libc randomness is banned in "
                  "simulation code"));
    }
}

// ---------------------------------------------------------------------
// Rule: rng-discipline
//
// Rng streams must be named (seed, "component.stream") so draw order
// is pinned per component, and must never be copied by value — a
// copy forks the stream and both halves replay identical draws.
// ---------------------------------------------------------------------

void
checkRngDiscipline(const Rule &rule, const FileContext &file,
                   std::vector<Finding> &out)
{
    if (!file.in_sim_layer || file.sanctioned_impl)
        return;
    const Tokens &toks = file.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "Rng"))
            continue;
        const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
        if (prev != nullptr
            && (isIdent(*prev, "class") || isIdent(*prev, "struct")))
            continue; // forward declaration
        std::size_t next = i + 1;
        if (next >= toks.size())
            break;
        if (isPunct(toks[next], "::") || isPunct(toks[next], "&")
            || isPunct(toks[next], "*") || isPunct(toks[next], ";")
            || isPunct(toks[next], ">"))
            continue; // qualified name, reference/pointer, bare member

        // `Rng name ...` declaration or `Rng(...)` temporary.
        std::size_t ctor_open = std::string::npos;
        int decl_line = toks[i].line;
        if (toks[next].kind == TokKind::Identifier) {
            const std::size_t after = next + 1;
            if (after >= toks.size())
                break;
            if (isPunct(toks[after], "(") || isPunct(toks[after], "{")) {
                ctor_open = after;
            } else if (isPunct(toks[after], ",")
                       || isPunct(toks[after], ")")) {
                out.push_back(self(rule).make(
                    file, decl_line,
                    "Rng parameter '" + toks[next].text
                        + "' taken by value — a copy forks the "
                          "stream and replays identical draws"));
                continue;
            } else if (isPunct(toks[after], "=")) {
                if (after + 2 < toks.size()
                    && toks[after + 1].kind == TokKind::Identifier
                    && !isIdent(toks[after + 1], "Rng")
                    && (isPunct(toks[after + 2], ";")
                        || isPunct(toks[after + 2], ",")))
                    out.push_back(self(rule).make(
                        file, decl_line,
                        "Rng '" + toks[next].text
                            + "' copy-initialized from another Rng — "
                              "copies fork the stream"));
                continue;
            } else {
                continue;
            }
        } else if (isPunct(toks[next], "(")
                   || isPunct(toks[next], "{")) {
            ctor_open = next;
        } else {
            continue;
        }

        const auto args = splitArgs(toks, ctor_open, nullptr);
        if (args.size() == 1)
            out.push_back(self(rule).make(
                file, decl_line,
                "Rng constructed from a bare seed — derive a named "
                "stream instead"));
    }
}

// ---------------------------------------------------------------------
// Rule: ptr-order
//
// A raw pointer as an ordered-container key (or std::less<T*>) orders
// elements by allocation address, which varies run to run. Key by a
// stable id, or use an unordered container for pure lookup.
// ---------------------------------------------------------------------

void
checkPtrOrder(const Rule &rule, const FileContext &file,
              std::vector<Finding> &out)
{
    static const std::set<std::string> kOrdered = {
        "map", "set", "multimap", "multiset", "less"};
    const Tokens &toks = file.tokens();
    for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier
            || kOrdered.count(toks[i].text) == 0
            || !isPunct(toks[i + 1], "<"))
            continue;
        // Require std:: qualification so a local `map<...>` helper
        // or member template named `set` cannot false-positive.
        if (!(isPunct(toks[i - 1], "::") && isIdent(toks[i - 2], "std")))
            continue;
        // First template argument: up to a top-level ',' or the
        // matching '>'.
        int depth = 0;
        std::size_t last = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const Token &tok = toks[j];
            if (isPunct(tok, "<") || isPunct(tok, "(")
                || isPunct(tok, "[")) {
                if (++depth == 1)
                    continue;
            } else if (isPunct(tok, ">") || isPunct(tok, ")")
                       || isPunct(tok, "]")) {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && isPunct(tok, ",")) {
                break;
            }
            last = j;
        }
        if (last != 0 && isPunct(toks[last], "*"))
            out.push_back(self(rule).make(
                file, toks[i].line,
                "std::" + toks[i].text
                    + " keyed/ordered by raw pointer — allocation "
                      "addresses vary run to run"));
    }
}

// ---------------------------------------------------------------------
// Rule: float-stat-accum
//
// Hand-rolled floating-point accumulators make results depend on
// summation order (and thus on iteration order and batching). All
// statistical accumulation in simulation layers goes through the
// Stats helpers, whose order sensitivity is pinned by the
// determinism suites.
// ---------------------------------------------------------------------

void
checkFloatStatAccum(const Rule &rule, const FileContext &file,
                    std::vector<Finding> &out)
{
    if (!file.in_sim_layer || file.sanctioned_impl)
        return;
    const Tokens &toks = file.tokens();

    std::set<std::string> fp_names;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if ((isIdent(toks[i], "double") || isIdent(toks[i], "float"))
            && toks[i + 1].kind == TokKind::Identifier
            && !isPunct(toks[i + 2], "(")) // not a function returning fp
            fp_names.insert(toks[i + 1].text);
    }
    if (fp_names.empty())
        return;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Identifier
            && fp_names.count(toks[i].text) > 0
            && (isPunct(toks[i + 1], "+=") || isPunct(toks[i + 1], "-=")))
            out.push_back(self(rule).make(
                file, toks[i].line,
                "floating-point accumulation into '" + toks[i].text
                    + "' outside the Stats helpers — summation order "
                      "becomes observable"));
    }
}

// ---------------------------------------------------------------------
// Rule: stat-name
//
// Registered stat names (and trace categories) must be built from
// literals over [a-z0-9_.] so armed-vs-unarmed name sets diff
// cleanly and the CSV column space stays machine-stable.
// ---------------------------------------------------------------------

void
checkLiterals(const Rule &rule, const FileContext &file,
              const Tokens &toks,
              const std::pair<std::size_t, std::size_t> &arg,
              const char *what, std::vector<Finding> &out)
{
    for (std::size_t j = arg.first; j < arg.second; ++j) {
        if (toks[j].kind != TokKind::String)
            continue;
        if (!nameMatchesStatCharset(toks[j].text))
            out.push_back(self(rule).make(
                file, toks[j].line,
                std::string(what) + " literal \"" + toks[j].text
                    + "\" does not match [a-z0-9_.]+"));
    }
}

void
checkStatName(const Rule &rule, const FileContext &file,
              std::vector<Finding> &out)
{
    static const std::set<std::string> kRegister = {
        "addCounter", "addScalar", "addDistribution", "addFormula"};
    const Tokens &toks = file.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier
            || !isPunct(toks[i + 1], "("))
            continue;
        if (kRegister.count(toks[i].text) > 0) {
            const auto args = splitArgs(toks, i + 1, nullptr);
            if (!args.empty())
                checkLiterals(rule, file, toks, args[0],
                              "stat name", out);
        } else if (isIdent(toks[i], "complete") && i > 0
                   && (isPunct(toks[i - 1], ".")
                       || isPunct(toks[i - 1], "->"))) {
            // TraceWriter::complete(track, name, category, start,
            // duration): the category (arg 3) is the diffable set.
            const auto args = splitArgs(toks, i + 1, nullptr);
            if (args.size() == 5)
                checkLiterals(rule, file, toks, args[2],
                              "trace category", out);
        }
    }
}

// ---------------------------------------------------------------------
// Rule: bare-catch
//
// catch (...) that neither rethrows nor records a reason erases the
// failure: the run continues (or returns a default) with no trace of
// what went wrong, which is how a cell "succeeds" with junk
// or a snapshot silently re-simulates cold. Applies to all of src/ —
// the robustness contract, unlike the determinism rules, is not
// limited to the simulation layers. A handler counts as compliant if
// its body contains a throw (rethrow) or touches an identifier that
// plausibly records the reason (error/what/message/...). Accepted
// blind spot: a handler that names `error` but assigns it nothing
// useful still passes — the rule is a tripwire, not a verifier.
// ---------------------------------------------------------------------

bool
recordsReason(const std::string &ident)
{
    static const char *const kMarkers[] = {
        "error",  "reason", "what",  "message", "exception",
        "fail",   "panic",  "fatal", "warn",    "repro",
        "ledger", "log"};
    std::string lower;
    lower.reserve(ident.size());
    for (const char c : ident)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (const char *marker : kMarkers) {
        if (lower.find(marker) != std::string::npos)
            return true;
    }
    return false;
}

void
checkBareCatch(const Rule &rule, const FileContext &file,
               std::vector<Finding> &out)
{
    if (file.path.rfind("src/", 0) != 0)
        return;
    const Tokens &toks = file.tokens();
    for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
        // "..." lexes as three '.' puncts.
        if (!(isIdent(toks[i], "catch") && isPunct(toks[i + 1], "(")
              && isPunct(toks[i + 2], ".") && isPunct(toks[i + 3], ".")
              && isPunct(toks[i + 4], ".") && isPunct(toks[i + 5], ")")))
            continue;
        std::size_t body = i + 6;
        if (body >= toks.size() || !isPunct(toks[body], "{"))
            continue; // malformed; the compiler will complain
        bool handled = false;
        int depth = 0;
        std::size_t j = body;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "{")) {
                ++depth;
            } else if (isPunct(toks[j], "}")) {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::Identifier
                       && (toks[j].text == "throw"
                           || recordsReason(toks[j].text))) {
                handled = true;
            }
        }
        if (!handled)
            out.push_back(self(rule).make(
                file, toks[i].line,
                "catch (...) neither rethrows nor records a failure "
                "reason — the error is erased"));
    }
}

void
addRule(Registry &reg, std::string name, Severity severity,
        std::string description, std::string hint,
        CallbackRule::Fn fn)
{
    reg.add(std::make_unique<CallbackRule>(
        std::move(name), severity, std::move(description),
        std::move(hint), std::move(fn)));
}

} // namespace

Registry
Registry::standard()
{
    Registry reg;
    addRule(reg, "unordered-iter", Severity::Error,
            "no iteration over unordered containers in simulation "
            "layers (hash order is not seed + config)",
            "take a sorted snapshot of the keys first, or suppress "
            "with a justification if nothing order-sensitive is "
            "downstream",
            checkUnorderedIter);
    addRule(reg, "banned-nondet", Severity::Error,
            "no wall-clock, libc randomness, or environment reads in "
            "simulation layers",
            "draw from a named hiss::Rng stream; read time from "
            "EventQueue::now()",
            checkBannedNondet);
    addRule(reg, "rng-discipline", Severity::Error,
            "every Rng is a named stream and never copied by value",
            "construct with Rng(seed, \"component.stream\") and pass "
            "by reference",
            checkRngDiscipline);
    addRule(reg, "ptr-order", Severity::Error,
            "no raw-pointer keys in ordered containers and no "
            "std::less<T*> ordering",
            "key by a stable id, or use an unordered container for "
            "pure lookup",
            checkPtrOrder);
    addRule(reg, "float-stat-accum", Severity::Error,
            "no hand-rolled floating-point accumulators in "
            "simulation layers",
            "accumulate through Stats (Distribution::sample, "
            "Scalar::add) or integer ticks",
            checkFloatStatAccum);
    addRule(reg, "stat-name", Severity::Error,
            "stat-registration names and trace categories are "
            "literals over [a-z0-9_.]",
            "rename to lowercase dotted form, e.g. "
            "\"core0.l1d.misses\"",
            checkStatName);
    addRule(reg, "bare-catch", Severity::Error,
            "every catch (...) in src/ rethrows or records a failure "
            "reason (the robustness contract: no erased errors)",
            "rethrow with `throw;`, capture std::current_exception(), "
            "or record a typed reason (see CellOutcome::error)",
            checkBareCatch);
    return reg;
}

} // namespace hiss::lint
