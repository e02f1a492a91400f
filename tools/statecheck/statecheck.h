/**
 * @file
 * hiss_statecheck: cross-TU state-coverage analysis.
 *
 * The Index ingests parsed files (headers and sources together, so an
 * implementation in a .cc is matched against fields declared in the
 * .h), discovers every snapshot-capable class — one targeted by at
 * least one save/restore implementation — and proves that every
 * instance field is referenced by both, that every field
 * reachable from the experiment cell, by value or through a pointer,
 * appears in the canonical cell-key text, and that every
 * HISS_STATE_EXEMPT marker is well-formed, justified, and still
 * load-bearing.
 *
 * Implementations are recognized across this tree's naming
 * families: snapIo walks and snap::Access-style io() overloads taking
 * a snap::Io, which count as both a save and a restore; and the
 * save/restore pairs (snapSave/snapRestore members and helpers, the
 * saveState/restoreState and saveSnapshot/restoreSnapshot variants,
 * and static save/restore overloads, which must take a snap::Writer
 * / snap::Reader to count).
 * Findings reuse the hiss_lint Finding type and formats.
 */

#ifndef HISS_STATECHECK_STATECHECK_H_
#define HISS_STATECHECK_STATECHECK_H_

#include <array>
#include <string>
#include <vector>

#include "decl.h"
#include "lint.h"

namespace hiss::statecheck {

/** Rule names, one per coverage dimension plus the marker audits. */
inline constexpr const char *kRuleSave = "state-save";
inline constexpr const char *kRuleRestore = "state-restore";
inline constexpr const char *kRuleCellKey = "cell-key";
/** Malformed / unjustified / unknown-target / stale exempt markers. */
inline constexpr const char *kRuleExempt = "state-exempt";
/** Snapshot-capable class missing its save or its restore. */
inline constexpr const char *kRuleStructure = "state-structure";

const char *ruleForMode(Mode mode);

/** A snapshot-capable class and the implementations that target it. */
struct Subject
{
    std::string name;       // qualified, e.g. "CpuApp"
    std::string short_name; // last "::" component
    std::string file;       // file that defines the class
    int line = 0;
    const ClassDecl *decl = nullptr;
    /** Indexed by Mode Save/Restore. */
    std::array<std::vector<const FunctionDef *>, 2> impls;
};

struct Options
{
    /** Restrict findings to one class (short or qualified name).
     *  Exempt staleness is not audited in this mode — only the full
     *  tree knows whether a marker is load-bearing. */
    std::string only_class;
};

class Index
{
  public:
    /** Ingest a parsed file. Call build() once after the last add. */
    void addFile(ParsedFile file);

    /** Resolve implementations to classes; required before use. */
    void build();

    const std::vector<Subject> &subjects() const { return subjects_; }
    std::size_t numFiles() const { return files_.size(); }
    std::size_t numClasses() const { return classes_.size(); }

    std::vector<hiss::lint::Finding>
    analyze(const Options &opts = {}) const;

  private:
    struct ClassRef
    {
        const ParsedFile *file = nullptr;
        const ClassDecl *decl = nullptr;
        std::string short_name;
    };

    int findClass(const std::string &name) const;

    std::vector<ParsedFile> files_;
    std::vector<ClassRef> classes_; // built from files_, stable order
    std::vector<Subject> subjects_;
    bool built_ = false;
};

} // namespace hiss::statecheck

#endif // HISS_STATECHECK_STATECHECK_H_
