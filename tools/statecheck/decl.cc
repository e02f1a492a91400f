#include "decl.h"

#include <algorithm>
#include <cctype>

namespace hiss::statecheck {
namespace {

using hiss::lint::Comment;
using hiss::lint::LexResult;
using hiss::lint::TokKind;
using hiss::lint::Token;

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

/** Keywords that can precede a declarator without naming its type. */
bool
isTypeQualifierWord(const std::string &s)
{
    static const char *kWords[] = {
        "const",    "volatile", "mutable",  "typename", "struct",
        "class",    "enum",     "union",    "unsigned", "signed",
        "long",     "short",    "static",   "constexpr", "inline",
        "explicit", "virtual",  "register", "thread_local",
    };
    for (const char *w : kWords)
        if (s == w)
            return true;
    return false;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/**
 * One statement's worth of tokens with per-token top-levelness (not
 * inside any paren/bracket/brace/angle nesting of the statement).
 */
struct Stmt
{
    std::vector<Token> toks;
    std::vector<bool> top;
    /** Index into toks of the first top-level '(' before any
     *  top-level '=', or npos: the parameter list of a function. */
    std::size_t paren_open = npos;
    std::size_t paren_close = npos; // its matching ')'
    std::size_t first_eq = npos;    // first top-level '='
    bool has_operator = false;      // `operator` keyword anywhere
    bool has_static = false;        // top-level `static`

    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);
};

class Parser
{
  public:
    Parser(const LexResult &lex, ParsedFile &out)
        : toks_(lex.tokens), out_(out)
    {
    }

    void
    run()
    {
        parseScope("", nullptr, /*stop_at_close=*/false);
    }

  private:
    const std::vector<Token> &toks_;
    ParsedFile &out_;
    std::size_t i_ = 0;

    const Token &
    cur() const
    {
        return toks_[std::min(i_, toks_.size() - 1)];
    }

    bool atEnd() const { return cur().kind == TokKind::EndOfFile; }

    const Token &
    peek(std::size_t ahead) const
    {
        return toks_[std::min(i_ + ahead, toks_.size() - 1)];
    }

    /** Consume through ';' (or a '}' we must not swallow), skipping
     *  balanced braces so `enum X { a, b };` is one unit. */
    void
    skipToSemi()
    {
        int braces = 0;
        while (!atEnd()) {
            if (isPunct(cur(), "{")) {
                ++braces;
            } else if (isPunct(cur(), "}")) {
                if (braces == 0)
                    return; // enclosing close; leave it
                --braces;
            } else if (braces == 0 && isPunct(cur(), ";")) {
                ++i_;
                return;
            }
            ++i_;
        }
    }

    /** Current token is '<' of a template header; consume through the
     *  matching '>' (parens and brackets inside are skipped whole). */
    void
    skipAngles()
    {
        int depth = 0;
        while (!atEnd()) {
            if (isPunct(cur(), "<")) {
                ++depth;
            } else if (isPunct(cur(), ">")) {
                if (--depth == 0) {
                    ++i_;
                    return;
                }
            } else if (isPunct(cur(), ";") || isPunct(cur(), "{")) {
                return; // malformed; bail before damage spreads
            }
            ++i_;
        }
    }

    /**
     * Parse one scope: the whole file ( @p stop_at_close false) or a
     * brace-delimited region whose '{' has been consumed. @p cls is
     * the class whose body this is (nullptr for namespace scopes).
     * Returns the line of the closing brace (0 at EOF).
     */
    int
    parseScope(const std::string &prefix, ClassDecl *cls,
               bool stop_at_close)
    {
        while (!atEnd()) {
            const Token &t = cur();
            if (isPunct(t, "}")) {
                const int close_line = t.line;
                if (stop_at_close) {
                    ++i_;
                    return close_line;
                }
                ++i_; // stray close at file scope; skip
                continue;
            }
            if (isPunct(t, ";")) {
                ++i_;
                continue;
            }
            if (isIdent(t, "namespace")) {
                ++i_;
                while (!atEnd() && !isPunct(cur(), "{")
                       && !isPunct(cur(), ";"))
                    ++i_;
                if (isPunct(cur(), "{")) {
                    ++i_;
                    parseScope(prefix, nullptr, true);
                } else if (isPunct(cur(), ";")) {
                    ++i_;
                }
                continue;
            }
            if (isIdent(t, "template")) {
                ++i_;
                if (isPunct(cur(), "<"))
                    skipAngles();
                continue; // the templated entity parses as usual
            }
            if (isIdent(t, "using") || isIdent(t, "typedef")
                || isIdent(t, "friend")
                || isIdent(t, "static_assert")) {
                skipToSemi();
                continue;
            }
            if ((isIdent(t, "public") || isIdent(t, "private")
                 || isIdent(t, "protected"))
                && isPunct(peek(1), ":")) {
                i_ += 2;
                continue;
            }
            if (isIdent(t, "enum")) {
                skipToSemi();
                continue;
            }
            if (isIdent(t, "extern") && peek(1).kind == TokKind::String) {
                i_ += 2;
                if (isPunct(cur(), "{")) {
                    ++i_;
                    parseScope(prefix, cls, true);
                }
                continue;
            }
            if (isIdent(t, "class") || isIdent(t, "struct")
                || isIdent(t, "union")) {
                parseClassHead(prefix, cls);
                continue;
            }
            parseStatement(cls);
        }
        return 0;
    }

    /** Current token is class/struct/union. */
    void
    parseClassHead(const std::string &prefix, ClassDecl *outer)
    {
        const int head_line = cur().line;
        ++i_;
        std::string name;
        // Name = last plain identifier before '{', ':' (bases), ';'
        // (forward declaration) or '<' (specialization; skipped).
        while (!atEnd()) {
            const Token &t = cur();
            if (t.kind == TokKind::Identifier && t.text != "final"
                && t.text != "alignas") {
                name = t.text;
                ++i_;
                continue;
            }
            if (isPunct(t, "[")) { // attribute; skip balanced
                int depth = 0;
                while (!atEnd()) {
                    if (isPunct(cur(), "["))
                        ++depth;
                    else if (isPunct(cur(), "]") && --depth == 0) {
                        ++i_;
                        break;
                    }
                    ++i_;
                }
                continue;
            }
            break;
        }
        if (isPunct(cur(), ";")) { // forward declaration
            ++i_;
            return;
        }
        if (isPunct(cur(), "<")) { // specialization; treat as opaque
            skipAngles();
        }
        if (isPunct(cur(), ":")) { // base clause
            while (!atEnd() && !isPunct(cur(), "{")
                   && !isPunct(cur(), ";")) {
                if (isPunct(cur(), "<"))
                    skipAngles();
                else
                    ++i_;
            }
        }
        if (!isPunct(cur(), "{")) {
            // `class X y;`-style use as an elaborated type specifier:
            // fall through to a plain statement parse from here.
            if (!isPunct(cur(), ";"))
                parseStatement(outer);
            return;
        }
        ++i_; // consume '{'
        ClassDecl decl;
        decl.name = prefix.empty() || name.empty()
            ? name
            : prefix + "::" + name;
        if (decl.name.empty())
            decl.name = "(anonymous)";
        decl.line = head_line;
        decl.end_line = parseScope(decl.name, &decl, true);
        out_.classes.push_back(std::move(decl));
        // Trailing declarator: `struct {...} member_;` declares a
        // field of the outer class.
        while (!atEnd() && !isPunct(cur(), ";")
               && !isPunct(cur(), "}")) {
            if (cur().kind == TokKind::Identifier && outer != nullptr) {
                FieldDecl field;
                field.name = cur().text;
                field.type_name = name;
                field.inner_type_name = name;
                field.line = cur().line;
                field.col = cur().col;
                outer->fields.push_back(std::move(field));
            }
            ++i_;
        }
        if (isPunct(cur(), ";"))
            ++i_;
    }

    /** Scan one statement into @p stmt. Returns 'b' when a function
     *  body follows (the '{' is current), 's' on ';', 'x' on bail. */
    char
    scanStatement(Stmt &stmt)
    {
        int paren = 0, bracket = 0, brace = 0, angle = 0;
        while (!atEnd()) {
            const Token &t = cur();
            const bool at_top =
                paren == 0 && bracket == 0 && brace == 0 && angle == 0;
            if (t.kind == TokKind::Punct) {
                const std::string &p = t.text;
                if (p == ";" && at_top) {
                    ++i_;
                    return 's';
                }
                if (p == "}" && brace == 0)
                    return 'x'; // enclosing close; leave it
                if (p == "{" && at_top) {
                    if (stmt.paren_open != Stmt::npos
                        && stmt.first_eq == Stmt::npos)
                        return 'b'; // function body follows
                    // Braced initializer / in-class default member
                    // init: swallow it into the statement.
                    brace = 1;
                    stmt.toks.push_back(t);
                    stmt.top.push_back(false);
                    ++i_;
                    continue;
                }
                if (p == "{")
                    ++brace;
                else if (p == "}")
                    --brace;
                else if (p == "(") {
                    if (at_top && stmt.first_eq == Stmt::npos
                        && stmt.paren_open == Stmt::npos)
                        stmt.paren_open = stmt.toks.size();
                    ++paren;
                } else if (p == ")") {
                    --paren;
                    if (paren == 0 && bracket == 0 && brace == 0
                        && angle == 0
                        && stmt.paren_close == Stmt::npos
                        && stmt.paren_open != Stmt::npos)
                        stmt.paren_close = stmt.toks.size();
                } else if (p == "[")
                    ++bracket;
                else if (p == "]")
                    --bracket;
                else if (p == "=" && at_top
                         && stmt.first_eq == Stmt::npos)
                    stmt.first_eq = stmt.toks.size();
                else if (p == "<" && paren == 0 && brace == 0
                         && stmt.first_eq == Stmt::npos
                         && !stmt.toks.empty()
                         && (stmt.toks.back().kind
                                 == TokKind::Identifier
                             || isPunct(stmt.toks.back(), ">")))
                    ++angle;
                else if (p == ">" && angle > 0 && paren == 0
                         && brace == 0)
                    --angle;
            } else if (t.kind == TokKind::Identifier) {
                if (t.text == "operator")
                    stmt.has_operator = true;
                if (t.text == "static" && at_top)
                    stmt.has_static = true;
            }
            stmt.toks.push_back(t);
            stmt.top.push_back(paren == 0 && bracket == 0 && brace == 0
                               && angle == 0);
            ++i_;
        }
        return 'x';
    }

    void
    parseStatement(ClassDecl *cls)
    {
        Stmt stmt;
        const char end = scanStatement(stmt);
        if (end == 'x') {
            if (atEnd())
                return;
            // Ran into the enclosing '}' mid-statement (macro line or
            // construct we don't model); drop what we scanned.
            return;
        }
        if (end == 'b') {
            recordFunction(stmt, cls, /*with_body=*/true);
            return;
        }
        // ';' terminator: a function declaration (has a parameter
        // list) is skipped; anything else inside a class body is a
        // member-variable declaration.
        if (stmt.paren_open != Stmt::npos || stmt.has_operator)
            return;
        if (cls == nullptr || stmt.has_static || stmt.toks.empty())
            return;
        recordFields(stmt, *cls);
    }

    /** Body follows: current token is '{'. */
    void
    recordFunction(const Stmt &stmt, ClassDecl *cls, bool with_body)
    {
        FunctionDef fn;
        // Declarator name: identifier immediately before the
        // parameter list, with any A::B:: qualification collected.
        std::size_t k = stmt.paren_open;
        if (k == Stmt::npos || k == 0) {
            skipBody();
            return;
        }
        std::size_t name_idx = k - 1;
        if (stmt.toks[name_idx].kind != TokKind::Identifier) {
            skipBody();
            return;
        }
        fn.name = stmt.toks[name_idx].text;
        fn.line = stmt.toks[name_idx].line;
        std::size_t chain_begin = name_idx;
        while (chain_begin >= 2 && isPunct(stmt.toks[chain_begin - 1], "::")
               && stmt.toks[chain_begin - 2].kind == TokKind::Identifier) {
            chain_begin -= 2;
            if (!fn.qualifier.empty())
                fn.qualifier = stmt.toks[chain_begin].text
                    + "::" + fn.qualifier;
            else
                fn.qualifier = stmt.toks[chain_begin].text;
        }
        for (std::size_t j = chain_begin; j-- > 0;) {
            if (stmt.toks[j].kind == TokKind::Identifier) {
                if (!isTypeQualifierWord(stmt.toks[j].text)) {
                    fn.return_type = stmt.toks[j].text;
                    break;
                }
            }
        }
        if (cls != nullptr)
            fn.enclosing = cls->name;
        const std::size_t params_end = stmt.paren_close == Stmt::npos
            ? stmt.toks.size()
            : stmt.paren_close;
        for (std::size_t j = stmt.paren_open + 1; j < params_end; ++j)
            if (stmt.toks[j].kind == TokKind::Identifier)
                fn.param_idents.push_back(stmt.toks[j].text);
        // Tokens between the parameter list and the body (constructor
        // init lists, trailing return types) reference fields too.
        std::vector<std::string> body;
        for (std::size_t j = params_end; j < stmt.toks.size(); ++j)
            if (stmt.toks[j].kind == TokKind::Identifier)
                body.push_back(stmt.toks[j].text);
        if (with_body)
            collectBody(body);
        std::sort(body.begin(), body.end());
        body.erase(std::unique(body.begin(), body.end()), body.end());
        fn.body_idents = std::move(body);
        fn.has_body = with_body;
        out_.functions.push_back(std::move(fn));
    }

    /** Current token is the body's '{'; collect its identifiers. */
    void
    collectBody(std::vector<std::string> &out)
    {
        int depth = 0;
        while (!atEnd()) {
            const Token &t = cur();
            if (isPunct(t, "{")) {
                ++depth;
            } else if (isPunct(t, "}")) {
                if (--depth == 0) {
                    ++i_;
                    return;
                }
            } else if (t.kind == TokKind::Identifier) {
                out.push_back(t.text);
            }
            ++i_;
        }
    }

    void
    skipBody()
    {
        std::vector<std::string> sink;
        collectBody(sink);
    }

    void
    recordFields(const Stmt &stmt, ClassDecl &cls)
    {
        // Split on top-level commas into declarators; the leading
        // type tokens are shared by every declarator.
        std::size_t begin = 0;
        std::vector<std::pair<std::size_t, std::size_t>> parts;
        for (std::size_t j = 0; j <= stmt.toks.size(); ++j) {
            const bool split = j == stmt.toks.size()
                || (stmt.top[j] && isPunct(stmt.toks[j], ","));
            if (!split)
                continue;
            if (j > begin)
                parts.emplace_back(begin, j);
            begin = j + 1;
        }
        for (const auto &[lo, hi] : parts) {
            // Declarator name: the identifier directly before the
            // first top-level '=' / '{' / '[' / ':' (bitfield), else
            // the last top-level identifier of the part.
            std::size_t name_idx = Stmt::npos;
            for (std::size_t j = lo; j < hi; ++j) {
                if (!stmt.top[j])
                    continue;
                const Token &t = stmt.toks[j];
                if (t.kind == TokKind::Punct
                    && (t.text == "=" || t.text == "{" || t.text == "["
                        || t.text == ":")) {
                    break;
                }
                if (t.kind == TokKind::Identifier)
                    name_idx = j;
            }
            if (name_idx == Stmt::npos)
                continue;
            const Token &name_tok = stmt.toks[name_idx];
            if (isTypeQualifierWord(name_tok.text))
                continue;
            FieldDecl field;
            field.name = name_tok.text;
            field.line = name_tok.line;
            field.col = name_tok.col;
            for (std::size_t j = lo; j < name_idx; ++j) {
                if (!stmt.top[j])
                    continue;
                if (isPunct(stmt.toks[j], "&"))
                    field.is_reference = true;
            }
            for (std::size_t j = name_idx; j-- > lo;) {
                const Token &t = stmt.toks[j];
                if (t.kind != TokKind::Identifier
                    || isTypeQualifierWord(t.text))
                    continue;
                if (field.inner_type_name.empty())
                    field.inner_type_name = t.text;
                if (stmt.top[j]) {
                    field.type_name = t.text;
                    break;
                }
            }
            // `std` from a partially resolved scope chain is never
            // the interesting type name.
            if (field.type_name == "std")
                field.type_name.clear();
            cls.fields.push_back(std::move(field));
        }
    }
};

/** Parse HISS_STATE_EXEMPT markers out of @p comments. */
void
attachExempts(const std::vector<Comment> &comments, ParsedFile &out)
{
    static const std::string kMarker = "HISS_STATE_EXEMPT";
    for (const Comment &comment : comments) {
        const std::string text = trim(comment.text);
        if (text.rfind(kMarker, 0) != 0)
            continue;
        ExemptMarker marker;
        marker.line = comment.line;
        marker.raw = text.substr(0, text.find('\n'));
        const std::size_t open = text.find('(');
        const std::size_t close = open == std::string::npos
            ? std::string::npos
            : text.find(')', open);
        if (open != kMarker.size() || close == std::string::npos) {
            marker.malformed = true;
        } else {
            // target[, mode mode...]
            std::string inner = text.substr(open + 1, close - open - 1);
            std::vector<std::string> words;
            std::string word;
            for (const char c : inner + ",") {
                if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
                    if (!word.empty())
                        words.push_back(word);
                    word.clear();
                } else {
                    word += c;
                }
            }
            if (words.empty()) {
                marker.malformed = true;
            } else {
                marker.target = words[0];
                for (std::size_t j = 1; j < words.size(); ++j) {
                    if (words[j] == "save")
                        marker.modes.push_back(Mode::Save);
                    else if (words[j] == "restore")
                        marker.modes.push_back(Mode::Restore);
                    else if (words[j] == "cellkey")
                        marker.modes.push_back(Mode::CellKey);
                    else
                        marker.malformed = true;
                }
            }
            const std::string rest = trim(text.substr(close + 1));
            marker.justified = rest.size() > 1 && rest[0] == ':'
                && !trim(rest.substr(1)).empty();
        }
        // Attach to the innermost class whose body holds the marker.
        ClassDecl *owner = nullptr;
        for (ClassDecl &cls : out.classes) {
            if (comment.line < cls.line || comment.line > cls.end_line)
                continue;
            if (owner == nullptr || cls.line > owner->line)
                owner = &cls;
        }
        if (owner != nullptr)
            owner->exempts.push_back(std::move(marker));
        else
            out.orphan_exempts.push_back(std::move(marker));
    }
}

} // namespace

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Save: return "save";
      case Mode::Restore: return "restore";
      case Mode::CellKey: return "cellkey";
    }
    return "?";
}

bool
FunctionDef::mentions(const std::string &ident) const
{
    return std::binary_search(body_idents.begin(), body_idents.end(),
                              ident);
}

ParsedFile
parseFile(const std::string &path, const std::string &source)
{
    ParsedFile out;
    out.path = path;
    const LexResult lex = hiss::lint::lex(source);
    Parser(lex, out).run();
    attachExempts(lex.comments, out);
    return out;
}

} // namespace hiss::statecheck
