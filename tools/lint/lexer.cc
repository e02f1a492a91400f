#include "lexer.h"

#include <cctype>

namespace hiss::lint {
namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character punctuators the rules care about. Everything else is
// emitted one character at a time, which is good enough for pattern
// matching ("<<" becomes two "<" tokens; no rule minds).
bool
isTwoCharPunct(char a, char b)
{
    return (a == ':' && b == ':') || (a == '-' && b == '>')
        || (a == '+' && b == '=') || (a == '-' && b == '=')
        || (a == '*' && b == '=') || (a == '/' && b == '=');
}

} // namespace

LexResult
lex(const std::string &source)
{
    LexResult out;
    const std::size_t n = source.size();
    std::size_t i = 0;
    int line = 1;
    std::size_t line_start = 0;
    bool line_has_code = false;

    auto col = [&](std::size_t at) {
        return static_cast<int>(at - line_start) + 1;
    };
    auto push = [&](TokKind kind, std::string text, int tok_line,
                    int tok_col) {
        out.tokens.push_back({kind, std::move(text), tok_line, tok_col});
        line_has_code = true;
    };
    // @p start: index of the new line's first character.
    auto newline = [&](std::size_t start) {
        ++line;
        line_start = start;
        line_has_code = false;
    };

    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            newline(i + 1);
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Preprocessor directive: swallow to end of line, honoring
        // backslash continuations and embedded comments.
        if (c == '#' && !line_has_code) {
            while (i < n) {
                if (source[i] == '\\' && i + 1 < n
                    && source[i + 1] == '\n') {
                    newline(i + 2);
                    i += 2;
                    continue;
                }
                if (source[i] == '/' && i + 1 < n
                    && source[i + 1] == '*') {
                    i += 2;
                    while (i + 1 < n
                           && !(source[i] == '*' && source[i + 1] == '/')) {
                        if (source[i] == '\n')
                            newline(i + 1);
                        ++i;
                    }
                    i = i + 2 <= n ? i + 2 : n;
                    continue;
                }
                if (source[i] == '/' && i + 1 < n
                    && source[i + 1] == '/') {
                    while (i < n && source[i] != '\n')
                        ++i;
                    break;
                }
                if (source[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            const int start_line = line;
            const bool owns = !line_has_code;
            i += 2;
            std::size_t begin = i;
            while (i < n && source[i] != '\n')
                ++i;
            out.comments.push_back(
                {source.substr(begin, i - begin), start_line, owns});
            continue;
        }

        // Block comment.
        if (c == '/' && i + 1 < n && source[i + 1] == '*') {
            const int start_line = line;
            const bool owns = !line_has_code;
            i += 2;
            std::size_t begin = i;
            while (i + 1 < n
                   && !(source[i] == '*' && source[i + 1] == '/')) {
                if (source[i] == '\n')
                    newline(i + 1);
                ++i;
            }
            const std::size_t end = i + 1 < n ? i : n;
            out.comments.push_back(
                {source.substr(begin, end - begin), start_line, owns});
            i = i + 2 <= n ? i + 2 : n;
            continue;
        }

        // Raw string literal: R"delim( ... )delim".
        if (c == 'R' && i + 1 < n && source[i + 1] == '"') {
            std::size_t d = i + 2;
            while (d < n && source[d] != '(' && source[d] != '\n')
                ++d;
            if (d < n && source[d] == '(') {
                std::string delim = ")";
                delim.append(source, i + 2, d - (i + 2));
                delim += '"';
                const int tok_line = line;
                const int tok_col = col(i);
                std::size_t end = source.find(delim, d + 1);
                if (end == std::string::npos)
                    end = n;
                for (std::size_t k = d + 1; k < end; ++k)
                    if (source[k] == '\n')
                        newline(k + 1);
                push(TokKind::String,
                     source.substr(d + 1, end - d - 1), tok_line,
                     tok_col);
                i = end + delim.size() <= n ? end + delim.size() : n;
                continue;
            }
        }

        // String / char literal.
        if (c == '"' || c == '\'') {
            const char quote = c;
            const int tok_line = line;
            const int tok_col = col(i);
            ++i;
            std::string text;
            while (i < n && source[i] != quote) {
                if (source[i] == '\\' && i + 1 < n) {
                    text += source[i];
                    text += source[i + 1];
                    i += 2;
                    continue;
                }
                if (source[i] == '\n') { // unterminated; bail
                    break;
                }
                text += source[i];
                ++i;
            }
            if (i < n && source[i] == quote)
                ++i;
            push(quote == '"' ? TokKind::String : TokKind::CharLit,
                 std::move(text), tok_line, tok_col);
            continue;
        }

        if (isIdentStart(c)) {
            std::size_t begin = i;
            while (i < n && isIdentChar(source[i]))
                ++i;
            push(TokKind::Identifier, source.substr(begin, i - begin),
                 line, col(begin));
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t begin = i;
            while (i < n
                   && (isIdentChar(source[i]) || source[i] == '.'
                       || ((source[i] == '+' || source[i] == '-')
                           && (source[i - 1] == 'e'
                               || source[i - 1] == 'E'
                               || source[i - 1] == 'p'
                               || source[i - 1] == 'P'))))
                ++i;
            push(TokKind::Number, source.substr(begin, i - begin), line,
                 col(begin));
            continue;
        }

        if (i + 1 < n && isTwoCharPunct(c, source[i + 1])) {
            push(TokKind::Punct, source.substr(i, 2), line, col(i));
            i += 2;
            continue;
        }
        push(TokKind::Punct, std::string(1, c), line, col(i));
        ++i;
    }

    out.num_lines = line;
    out.tokens.push_back({TokKind::EndOfFile, "", line});
    return out;
}

} // namespace hiss::lint
