/**
 * @file
 * Minimal C++ lexer for hiss_lint.
 *
 * Splits a source file into identifier / number / string / punctuation
 * tokens with line information, while stripping the three things a
 * naive grep trips over: comments, string and character literals, and
 * preprocessor directives (including continuation lines). Comments are
 * not discarded entirely — their text and line are kept so the
 * suppression scanner can find `HISS_LINT_ALLOW(rule): why` markers.
 *
 * This is deliberately not a full C++ front end: the rules below are
 * token-pattern checks, so the lexer only needs to be right about
 * token boundaries, not about grammar.
 */

#ifndef HISS_LINT_LEXER_H_
#define HISS_LINT_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace hiss::lint {

enum class TokKind {
    Identifier, // also keywords; rules match by spelling
    Number,
    String,  // text is the literal's *contents*, quotes stripped
    CharLit,
    Punct,   // one operator/punctuator per token ("::" is one token)
    EndOfFile,
};

struct Token
{
    TokKind kind = TokKind::EndOfFile;
    std::string text;
    int line = 0;
    int col = 1; // 1-based byte column of the token's first character
};

/** A comment, kept for suppression scanning. */
struct Comment
{
    std::string text; // without the // or /* */ markers
    int line = 0;     // line the comment starts on
    bool owns_line = false; // nothing but whitespace precedes it
};

/**
 * A preprocessor directive, kept for rules that reason about
 * conditional-compilation structure. Swallowed from the token stream
 * as before; continuation lines are joined and embedded comments
 * dropped.
 */
struct PpDirective
{
    std::string text; // from '#' to end of (logical) line
    int line = 0;     // line the '#' appears on
};

struct LexResult
{
    std::vector<Token> tokens;   // EndOfFile-terminated
    std::vector<Comment> comments;
    std::vector<PpDirective> directives;
    int num_lines = 0;
};

/** Tokenize @p source. Never throws; malformed input degrades softly. */
LexResult lex(const std::string &source);

} // namespace hiss::lint

#endif // HISS_LINT_LEXER_H_
