/**
 * @file
 * Fixture-driven self-test for hiss_lint.
 *
 * For every shipped rule: the positive fixture under
 * tests/lint_fixtures must fire it, and the negative fixture must
 * produce no findings at all. Fixtures carry a
 * "LINT_FIXTURE_AS: <path>" pragma naming the tree path they are
 * linted under, so layer-scoped rules see them as simulation code.
 * Inline sources cover the suppression contract and lexer edges.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"
#include "lint.h"

namespace {

using hiss::lint::Finding;
using hiss::lint::Registry;

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(HISS_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read fixture " << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

std::string
effectivePath(const std::string &source, const std::string &fallback)
{
    static const std::string kPragma = "LINT_FIXTURE_AS:";
    const std::size_t pos = source.find(kPragma);
    if (pos == std::string::npos)
        return fallback;
    std::size_t begin = pos + kPragma.size();
    while (begin < source.size() && source[begin] == ' ')
        ++begin;
    std::size_t end = begin;
    while (end < source.size() && source[end] != '\n'
           && source[end] != ' ')
        ++end;
    return source.substr(begin, end - begin);
}

std::vector<Finding>
lintFixture(const std::string &name)
{
    const Registry registry = Registry::standard();
    const std::string source = readFixture(name);
    return registry.lintSource(effectivePath(source, name), source);
}

std::size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(),
        [&rule](const Finding &f) { return f.rule == rule; }));
}

std::string
render(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings)
        out += hiss::lint::format(f) + "\n";
    return out;
}

struct RuleFixture
{
    const char *rule;
    const char *violation;
    const char *clean;
    std::size_t min_findings;
};

class RuleFixtureTest : public ::testing::TestWithParam<RuleFixture>
{
};

TEST_P(RuleFixtureTest, PositiveFixtureFires)
{
    const RuleFixture &param = GetParam();
    const auto findings = lintFixture(param.violation);
    EXPECT_GE(countRule(findings, param.rule), param.min_findings)
        << "expected [" << param.rule << "] findings in "
        << param.violation << "; got:\n" << render(findings);
}

TEST_P(RuleFixtureTest, NegativeFixtureIsSilent)
{
    const RuleFixture &param = GetParam();
    const auto findings = lintFixture(param.clean);
    EXPECT_TRUE(findings.empty())
        << param.clean << " should lint clean; got:\n"
        << render(findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleFixtureTest,
    ::testing::Values(
        RuleFixture{"unordered-iter", "unordered_iter_violation.cc",
                    "unordered_iter_clean.cc", 2},
        RuleFixture{"banned-nondet", "banned_nondet_violation.cc",
                    "banned_nondet_clean.cc", 5},
        RuleFixture{"rng-discipline", "rng_discipline_violation.cc",
                    "rng_discipline_clean.cc", 3},
        RuleFixture{"ptr-order", "ptr_order_violation.cc",
                    "ptr_order_clean.cc", 4},
        RuleFixture{"float-stat-accum",
                    "float_stat_accum_violation.cc",
                    "float_stat_accum_clean.cc", 2},
        RuleFixture{"stat-name", "stat_name_violation.cc",
                    "stat_name_clean.cc", 4},
        RuleFixture{"bare-catch", "bare_catch_violation.cc",
                    "bare_catch_clean.cc", 2}),
    [](const ::testing::TestParamInfo<RuleFixture> &param_info) {
        std::string name = param_info.param.rule;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(LintRegistry, EveryRuleHasDescriptionAndHint)
{
    const Registry registry = Registry::standard();
    EXPECT_GE(registry.rules().size(), 7U);
    for (const auto &rule : registry.rules()) {
        EXPECT_FALSE(rule->name().empty());
        EXPECT_FALSE(rule->description().empty()) << rule->name();
        EXPECT_FALSE(rule->hint().empty()) << rule->name();
    }
}

TEST(LintSuppression, JustifiedAllowSuppresses)
{
    const auto findings = lintFixture("allow_justified.cc");
    EXPECT_TRUE(findings.empty())
        << "justified allows should fully suppress; got:\n"
        << render(findings);
}

TEST(LintSuppression, UnjustifiedAllowIsAnErrorAndDoesNotSuppress)
{
    const auto findings = lintFixture("allow_unjustified.cc");
    EXPECT_GE(countRule(findings, hiss::lint::kAllowRuleName), 1U)
        << render(findings);
    EXPECT_GE(countRule(findings, "unordered-iter"), 1U)
        << "an unjustified allow must not suppress the finding:\n"
        << render(findings);
}

TEST(LintSuppression, UnknownRuleNameIsAnError)
{
    const Registry registry = Registry::standard();
    const std::string source =
        "// HISS_LINT_ALLOW(no-such-rule): misspelled\n"
        "int x = 0;\n";
    const auto findings =
        registry.lintSource("src/sim/unknown_rule.cc", source);
    EXPECT_EQ(countRule(findings, hiss::lint::kAllowRuleName), 1U)
        << render(findings);
}

TEST(LintLexer, CommentsAndStringsDoNotFire)
{
    const Registry registry = Registry::standard();
    const std::string source =
        "// std::rand() and time(nullptr) in a comment\n"
        "/* std::random_device entropy; */\n"
        "const char *kDoc = \"call time(nullptr) then std::rand()\";\n"
        "#define NOT_CODE time(nullptr)\n"
        "int x = 0;\n";
    const auto findings =
        registry.lintSource("src/sim/lexer_probe.cc", source);
    EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintScoping, SimLayerRulesAreSilentOutsideSimLayers)
{
    const Registry registry = Registry::standard();
    // Wall-clock throughput reporting is fine in the CLI tools.
    const std::string source =
        "long wallNow() { return time(nullptr); }\n";
    EXPECT_TRUE(
        registry.lintSource("tools/hiss_probe.cc", source).empty());
    EXPECT_EQ(
        registry.lintSource("src/os/hiss_probe.cc", source).size(),
        1U);
}

TEST(LintSuppression, SameLineAllowSuppresses)
{
    const Registry registry = Registry::standard();
    const std::string source =
        "long wall() { return time(nullptr); } "
        "// HISS_LINT_ALLOW(banned-nondet): host-side probe\n";
    EXPECT_TRUE(
        registry.lintSource("src/os/probe.cc", source).empty());
}

TEST(LintSuppression, StaleJustifiedAllowWarns)
{
    const Registry registry = Registry::standard();
    // A justified allow on a line that no longer triggers the rule:
    // not an error (the justification is fine) but a warning, so the
    // suppression cannot outlive its reason.
    const std::string source =
        "// HISS_LINT_ALLOW(banned-nondet): was needed once\n"
        "int x = 0;\n";
    const auto findings =
        registry.lintSource("src/sim/stale_probe.cc", source);
    ASSERT_EQ(findings.size(), 1U) << render(findings);
    EXPECT_EQ(findings[0].rule, hiss::lint::kStaleAllowRuleName);
    EXPECT_EQ(findings[0].severity, hiss::lint::Severity::Warning);
}

TEST(LintSuppression, LiveAllowIsNotStale)
{
    const Registry registry = Registry::standard();
    const std::string source =
        "// HISS_LINT_ALLOW(banned-nondet): host-side probe\n"
        "long wall() { return time(nullptr); }\n";
    const auto findings =
        registry.lintSource("src/sim/live_probe.cc", source);
    EXPECT_EQ(countRule(findings, hiss::lint::kStaleAllowRuleName), 0U)
        << render(findings);
    EXPECT_TRUE(findings.empty()) << render(findings);
}

// ---- Direct lexer coverage --------------------------------------
// The rules above exercise the lexer indirectly; these pin down the
// token-boundary contract itself.

const hiss::lint::Token *
findToken(const hiss::lint::LexResult &lexed, hiss::lint::TokKind kind,
          const std::string &text)
{
    for (const auto &token : lexed.tokens)
        if (token.kind == kind && token.text == text)
            return &token;
    return nullptr;
}

/** The identifier spellings in @p lexed, in source order. */
std::vector<std::string>
identifiers(const hiss::lint::LexResult &lexed)
{
    std::vector<std::string> out;
    for (const auto &token : lexed.tokens)
        if (token.kind == hiss::lint::TokKind::Identifier)
            out.push_back(token.text);
    return out;
}

TEST(LintLexer, RawStringWithCustomDelimiter)
{
    // Plain-quote and wrong-delimiter closers inside the literal must
    // not end it; only )xy" does.
    const auto lexed = hiss::lint::lex(
        "const char *s = R\"xy(a \"quote\" and )z\" imposter)xy\";\n"
        "int after = 0;\n");
    const auto *str = findToken(
        lexed, hiss::lint::TokKind::String,
        "a \"quote\" and )z\" imposter");
    ASSERT_NE(str, nullptr);
    EXPECT_EQ(str->line, 1);
    const auto *after =
        findToken(lexed, hiss::lint::TokKind::Identifier, "after");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->line, 2);
    // The literal's innards never leak out as identifiers.
    EXPECT_EQ(findToken(lexed, hiss::lint::TokKind::Identifier,
                        "imposter"),
              nullptr);
}

TEST(LintLexer, MultiLineRawStringKeepsLineNumbers)
{
    const auto lexed = hiss::lint::lex(
        "auto s = R\"(one\ntwo\nthree)\";\nint after = 0;\n");
    const auto *after =
        findToken(lexed, hiss::lint::TokKind::Identifier, "after");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->line, 4);
    EXPECT_EQ(lexed.num_lines, 5);
}

TEST(LintLexer, PreprocessorContinuationJoinsLogicalLine)
{
    const auto lexed = hiss::lint::lex(
        "#define TWICE(x) \\\n    ((x) + (x))\n"
        "int after = 0;\n");
    // The continuation body is part of the directive, not code: the
    // directive yields no tokens at all.
    ASSERT_FALSE(lexed.tokens.empty());
    EXPECT_EQ(lexed.tokens[0].text, "int");
    EXPECT_EQ(identifiers(lexed),
              (std::vector<std::string>{"int", "after"}));
    const auto *after =
        findToken(lexed, hiss::lint::TokKind::Identifier, "after");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->line, 3);
}

TEST(LintLexer, BlockCommentsDoNotNest)
{
    // Standard C++: the comment ends at the first */, so the code
    // after it is real and the dangling */ tail never swallows it.
    const auto lexed =
        hiss::lint::lex("/* outer /* inner */ int visible = 0;\n");
    ASSERT_EQ(lexed.comments.size(), 1U);
    EXPECT_EQ(lexed.comments[0].text, " outer /* inner ");
    EXPECT_NE(findToken(lexed, hiss::lint::TokKind::Identifier,
                        "visible"),
              nullptr);
}

TEST(LintLexer, UnterminatedBlockCommentDegradesSoftly)
{
    const auto lexed = hiss::lint::lex("int ok = 0;\n/* runs off");
    EXPECT_NE(
        findToken(lexed, hiss::lint::TokKind::Identifier, "ok"),
        nullptr);
    ASSERT_EQ(lexed.comments.size(), 1U);
    EXPECT_EQ(lexed.comments[0].line, 2);
}

TEST(LintLexer, ConditionalDirectiveEdges)
{
    // Continuations and embedded block comments fold into one logical
    // directive; a trailing line comment just ends it. Neither the
    // directives nor their comments leave anything behind.
    const auto lexed = hiss::lint::lex(
        "#if defined(HISS_X) /* gate */ \\\n    && !defined(OTHER)\n"
        "int a = 0;\n"
        "#endif // close the gate\n"
        "int b = 0;\n");
    EXPECT_EQ(identifiers(lexed),
              (std::vector<std::string>{"int", "a", "int", "b"}));
    EXPECT_TRUE(lexed.comments.empty());
    const auto *a =
        findToken(lexed, hiss::lint::TokKind::Identifier, "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->line, 3);
    const auto *b =
        findToken(lexed, hiss::lint::TokKind::Identifier, "b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->line, 5);
}

TEST(LintLexer, HashAfterCodeIsNotADirective)
{
    // '#' only starts a directive when nothing but whitespace
    // precedes it on the line.
    const auto lexed = hiss::lint::lex("int x = 0; #pragma probe\n");
    EXPECT_NE(findToken(lexed, hiss::lint::TokKind::Punct, "#"),
              nullptr);
    EXPECT_EQ(identifiers(lexed),
              (std::vector<std::string>{"int", "x", "pragma", "probe"}));
}

TEST(LintLexer, StringsHideCommentAndDirectiveMarkers)
{
    const auto lexed = hiss::lint::lex(
        "const char *s = \"#include <x> // not a comment\";\n"
        "int after = 0;\n");
    EXPECT_TRUE(lexed.comments.empty());
    EXPECT_NE(findToken(lexed, hiss::lint::TokKind::String,
                        "#include <x> // not a comment"),
              nullptr);
    const auto *after =
        findToken(lexed, hiss::lint::TokKind::Identifier, "after");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->line, 2);
}

} // namespace
