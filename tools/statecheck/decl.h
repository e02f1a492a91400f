/**
 * @file
 * Lightweight C++ declaration parser for hiss_statecheck.
 *
 * Built on the hiss_lint lexer, this extracts exactly what the
 * state-coverage analyzer needs from a translation unit and nothing
 * more: class/struct member fields (with enough type shape to tell a
 * reference from a value), function definitions with their parameter
 * types and the set of identifiers their bodies mention, and inline
 * `HISS_STATE_EXEMPT(field): justification` markers.
 *
 * Like the lint lexer it is deliberately not a C++ front end. Member
 * declarations are recognized by token shape (a statement in a class
 * body that ends in ';' without a top-level parameter list is a
 * field), which is exact for this tree's style and degrades softly —
 * never fatally — on exotic constructs.
 */

#ifndef HISS_STATECHECK_DECL_H_
#define HISS_STATECHECK_DECL_H_

#include <string>
#include <vector>

#include "lexer.h"

namespace hiss::statecheck {

/** One instance member variable of a class/struct. */
struct FieldDecl
{
    std::string name;
    /** Last type identifier before the declarator ("" when unclear),
     *  e.g. "MitigationConfig" for `MitigationConfig mitigation;` or
     *  "unique_ptr" for `std::unique_ptr<Kernel> kernel_;`. */
    std::string type_name;
    /** Deepest identifier in the type, template args included — for
     *  `std::unique_ptr<Kernel>` this is "Kernel". Used by the
     *  cell-key walk to recurse through by-value struct fields. */
    std::string inner_type_name;
    int line = 0;
    int col = 1;
    bool is_reference = false; // `T &x;` — rebinding is impossible
};

/** Coverage dimensions a field can be checked (and exempted) in. */
enum class Mode { Save, Restore, CellKey };

const char *modeName(Mode mode);

/** One parsed HISS_STATE_EXEMPT marker. */
struct ExemptMarker
{
    /** Field name, or the class's short name for class-level
     *  exemptions (e.g. exempting a whole class from Restore). */
    std::string target;
    /** Exempted modes; empty = every mode. */
    std::vector<Mode> modes;
    int line = 0;
    bool justified = false; // "): why" present and non-empty
    bool malformed = false; // unparseable marker or unknown mode
    std::string raw;        // first marker line, for diagnostics
};

/** A class/struct definition with its instance fields. */
struct ClassDecl
{
    /** "::"-qualified for nesting, e.g. "CpuApp::ThreadModel". */
    std::string name;
    int line = 0;
    int end_line = 0; // line of the closing brace
    std::vector<FieldDecl> fields;
    std::vector<ExemptMarker> exempts;
};

/** A function definition (with body) or bodyless declaration. */
struct FunctionDef
{
    std::string name;      // unqualified, e.g. "snapSave"
    std::string qualifier; // "SignalQueue" for SignalQueue::snapSave
    std::string enclosing; // class whose body holds an inline def
    std::string return_type; // last identifier of the return tokens
    /** Every identifier appearing in the parameter list (type names
     *  and parameter names alike; matched against known classes). */
    std::vector<std::string> param_idents;
    /** Sorted, de-duplicated identifiers mentioned anywhere in the
     *  body (constructor init lists included). Empty for bodyless
     *  declarations. */
    std::vector<std::string> body_idents;
    bool has_body = false;
    int line = 0;

    bool mentions(const std::string &ident) const;
};

struct ParsedFile
{
    std::string path;
    std::vector<ClassDecl> classes;
    std::vector<FunctionDef> functions;
    /** Markers found outside any class body (always a finding). */
    std::vector<ExemptMarker> orphan_exempts;
};

/** Parse @p source. Never throws; unparseable regions are skipped. */
ParsedFile parseFile(const std::string &path, const std::string &source);

} // namespace hiss::statecheck

#endif // HISS_STATECHECK_DECL_H_
