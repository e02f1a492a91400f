#include "statecheck.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace hiss::statecheck {
namespace {

using hiss::lint::Finding;
using hiss::lint::Severity;

/** Snapshot-infrastructure classes: never the *target* of an
 *  implementation, even when they appear in its signature. */
bool
isInfraClass(const std::string &short_name)
{
    return short_name == "Writer" || short_name == "Reader"
        || short_name == "Access" || short_name == "Token"
        || short_name == "Tag";
}

std::string
shortNameOf(const std::string &qualified)
{
    const std::size_t pos = qualified.rfind("::");
    return pos == std::string::npos ? qualified
                                    : qualified.substr(pos + 2);
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Classify a definition as a save/restore implementation.
 * Specific family names match by prefix (so the SsrRequest-style free
 * functions snapSaveRequest/snapRestoreRequest count); the bare
 * generic names only count when the signature carries the matching
 * snapshot-infrastructure type, so an unrelated save() is not
 * mistaken for a serializer.
 */
bool
classifyImpl(const FunctionDef &fn, Mode &mode)
{
    if (startsWith(fn.name, "snapSave") || startsWith(fn.name, "saveState")
        || startsWith(fn.name, "saveSnapshot")) {
        mode = Mode::Save;
        return true;
    }
    if (startsWith(fn.name, "snapRestore")
        || startsWith(fn.name, "restoreState")
        || startsWith(fn.name, "restoreSnapshot")) {
        mode = Mode::Restore;
        return true;
    }
    auto hasParam = [&fn](const char *type) {
        return std::find(fn.param_idents.begin(), fn.param_idents.end(),
                         type)
            != fn.param_idents.end();
    };
    if (fn.name == "save" && hasParam("Writer")) {
        mode = Mode::Save;
        return true;
    }
    if (fn.name == "restore" && hasParam("Reader")) {
        mode = Mode::Restore;
        return true;
    }
    return false;
}

bool
appliesTo(const ExemptMarker &marker, Mode mode)
{
    if (marker.modes.empty())
        return true;
    return std::find(marker.modes.begin(), marker.modes.end(), mode)
        != marker.modes.end();
}

Finding
makeFinding(const std::string &path, int line, int col,
            const char *rule, Severity severity, std::string message,
            std::string hint)
{
    Finding finding;
    finding.path = path;
    finding.line = line;
    finding.col = col;
    finding.rule = rule;
    finding.severity = severity;
    finding.message = std::move(message);
    finding.hint = std::move(hint);
    return finding;
}

/** Tracks which exempt markers earned their keep this run. */
struct ExemptUsage
{
    // Pure lookup: stale markers are reported by walking the parsed
    // classes in file order, never by iterating this table.
    std::unordered_map<const ExemptMarker *, bool> used;

    void
    seen(const ExemptMarker &marker)
    {
        used.emplace(&marker, false);
    }

    void
    use(const ExemptMarker &marker)
    {
        used[&marker] = true;
    }

    bool
    wasUsed(const ExemptMarker &marker) const
    {
        const auto it = used.find(&marker);
        return it != used.end() && it->second;
    }
};

} // namespace

const char *
ruleForMode(Mode mode)
{
    switch (mode) {
      case Mode::Save: return kRuleSave;
      case Mode::Restore: return kRuleRestore;
      case Mode::CellKey: return kRuleCellKey;
    }
    return kRuleSave;
}

void
Index::addFile(ParsedFile file)
{
    files_.push_back(std::move(file));
    built_ = false;
}

int
Index::findClass(const std::string &name) const
{
    if (name.empty())
        return -1;
    const std::string want = shortNameOf(name);
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        if (classes_[i].decl->name == name
            || classes_[i].short_name == want)
            return static_cast<int>(i);
    }
    return -1;
}

void
Index::build()
{
    classes_.clear();
    subjects_.clear();
    for (const ParsedFile &file : files_)
        for (const ClassDecl &decl : file.classes)
            classes_.push_back({&file, &decl, shortNameOf(decl.name)});

    // Resolve every implementation to the class whose state it
    // serializes: the member qualifier / enclosing class when that is
    // a real (non-infrastructure) class, else the first known class
    // in the parameter list, else the return type (the by-value
    // snapRestoreRequest pattern).
    std::map<int, Subject> by_class;
    for (const ParsedFile &file : files_) {
        for (const FunctionDef &fn : file.functions) {
            if (!fn.has_body)
                continue;
            Mode mode;
            if (!classifyImpl(fn, mode))
                continue;
            auto lookup = [this](const std::string &name) {
                if (isInfraClass(shortNameOf(name)))
                    return -1;
                return findClass(name);
            };
            int target = lookup(fn.qualifier);
            if (target < 0)
                target = lookup(fn.enclosing);
            if (target < 0) {
                for (const std::string &ident : fn.param_idents) {
                    target = lookup(ident);
                    if (target >= 0)
                        break;
                }
            }
            if (target < 0)
                target = lookup(fn.return_type);
            if (target < 0)
                continue;
            Subject &subject = by_class[target];
            if (subject.decl == nullptr) {
                const ClassRef &ref = classes_[target];
                subject.name = ref.decl->name;
                subject.short_name = ref.short_name;
                subject.file = ref.file->path;
                subject.line = ref.decl->line;
                subject.decl = ref.decl;
            }
            subject.impls[static_cast<int>(mode)].push_back(&fn);
        }
    }
    for (auto &[idx, subject] : by_class)
        subjects_.push_back(std::move(subject));
    std::sort(subjects_.begin(), subjects_.end(),
              [](const Subject &a, const Subject &b) {
                  return a.name < b.name;
              });
    built_ = true;
}

std::vector<Finding>
Index::analyze(const Options &opts) const
{
    std::vector<Finding> out;
    ExemptUsage usage;

    auto matchesFilter = [&opts](const Subject &subject) {
        return opts.only_class.empty()
            || opts.only_class == subject.name
            || opts.only_class == subject.short_name;
    };
    auto classMatchesFilter = [&opts](const ClassRef &ref) {
        return opts.only_class.empty()
            || opts.only_class == ref.decl->name
            || opts.only_class == ref.short_name;
    };

    // Every marker is registered up front so the final audit can tell
    // "never consulted" from "consulted but unnecessary".
    for (const ClassRef &ref : classes_)
        for (const ExemptMarker &marker : ref.decl->exempts)
            usage.seen(marker);

    static const Mode kOps[] = {Mode::Save, Mode::Restore};

    for (const Subject &subject : subjects_) {
        const ClassDecl &decl = *subject.decl;
        auto findExempt = [&decl](const std::string &target,
                                  Mode mode) -> const ExemptMarker * {
            for (const ExemptMarker &marker : decl.exempts) {
                if (marker.malformed || !marker.justified)
                    continue;
                if (marker.target == target && appliesTo(marker, mode))
                    return &marker;
            }
            return nullptr;
        };

        for (const Mode mode : kOps) {
            const int m = static_cast<int>(mode);
            const ExemptMarker *class_exempt =
                findExempt(subject.short_name, mode);
            if (subject.impls[m].empty()) {
                if (class_exempt != nullptr) {
                    usage.use(*class_exempt);
                } else if (matchesFilter(subject)) {
                    out.push_back(makeFinding(
                        subject.file, subject.line, 1, kRuleStructure,
                        Severity::Warning,
                        "class " + subject.short_name
                            + " is snapshot-capable but has no "
                            + modeName(mode) + " implementation",
                        std::string("implement it, or exempt the class "
                                    "with HISS_STATE_EXEMPT(")
                            + subject.short_name + ", " + modeName(mode)
                            + "): why"));
                }
                continue;
            }
            for (const FieldDecl &field : decl.fields) {
                if (field.is_reference)
                    continue; // wiring: references cannot be reseated
                bool covered = false;
                for (const FunctionDef *fn : subject.impls[m])
                    if (fn->mentions(field.name)) {
                        covered = true;
                        break;
                    }
                if (covered)
                    continue;
                const ExemptMarker *exempt =
                    class_exempt != nullptr
                        ? class_exempt
                        : findExempt(field.name, mode);
                if (exempt != nullptr) {
                    usage.use(*exempt);
                    continue;
                }
                if (!matchesFilter(subject))
                    continue;
                out.push_back(makeFinding(
                    subject.file, field.line, field.col,
                    ruleForMode(mode), Severity::Error,
                    "field '" + field.name + "' of "
                        + subject.short_name
                        + " is not referenced by any "
                        + modeName(mode) + " implementation",
                    "serialize it, or add HISS_STATE_EXEMPT("
                        + field.name + ", " + modeName(mode)
                        + "): why it is not snapshot state"));
            }
        }
    }

    // --- Cell-key coverage -------------------------------------------
    // Union the identifiers mentioned by canonicalCellText and its
    // same-file helpers, then require every field reachable from its
    // root parameter, by value or through a pointer, to appear there.
    const ParsedFile *ck_file = nullptr;
    const FunctionDef *ck_fn = nullptr;
    for (const ParsedFile &file : files_) {
        for (const FunctionDef &fn : file.functions) {
            if (fn.has_body && fn.name == "canonicalCellText") {
                ck_file = &file;
                ck_fn = &fn;
                break;
            }
        }
        if (ck_fn != nullptr)
            break;
    }
    if (ck_fn != nullptr) {
        std::set<std::string> ck_idents;
        for (const FunctionDef &fn : ck_file->functions)
            if (fn.has_body)
                ck_idents.insert(fn.body_idents.begin(),
                                 fn.body_idents.end());
        int root = -1;
        for (const std::string &ident : ck_fn->param_idents) {
            if (!isInfraClass(shortNameOf(ident)))
                root = findClass(ident);
            if (root >= 0)
                break;
        }
        if (root < 0)
            root = findClass("ExperimentCell");

        std::set<int> visited;
        // Plain recursion via explicit stack: struct fields, by value
        // or pointed to (a cell's base_system), pull their own type
        // into the walk.
        std::vector<int> stack;
        if (root >= 0)
            stack.push_back(root);
        while (!stack.empty()) {
            const int idx = stack.back();
            stack.pop_back();
            if (!visited.insert(idx).second)
                continue;
            const ClassRef &ref = classes_[idx];
            auto findCkExempt =
                [&ref](const std::string &target) -> const ExemptMarker * {
                for (const ExemptMarker &marker : ref.decl->exempts) {
                    if (marker.malformed || !marker.justified)
                        continue;
                    if ((marker.target == target
                         || marker.target == ref.short_name)
                        && appliesTo(marker, Mode::CellKey))
                        return &marker;
                }
                return nullptr;
            };
            for (const FieldDecl &field : ref.decl->fields) {
                if (field.is_reference)
                    continue;
                const int sub = findClass(field.type_name);
                if (sub >= 0 && !isInfraClass(field.type_name))
                    stack.push_back(sub);
                if (ck_idents.count(field.name) > 0)
                    continue;
                const ExemptMarker *exempt = findCkExempt(field.name);
                if (exempt != nullptr) {
                    usage.use(*exempt);
                    continue;
                }
                if (classMatchesFilter(ref)) {
                    out.push_back(makeFinding(
                        ref.file->path, field.line, field.col,
                        kRuleCellKey, Severity::Error,
                        "field '" + field.name + "' of "
                            + ref.short_name
                            + " does not appear in canonicalCellText —"
                              " two cells differing only in it share a"
                              " cache key",
                        "fold it into the canonical text (bump the key"
                        " format version), or add HISS_STATE_EXEMPT("
                            + field.name
                            + ", cellkey): why it cannot change"
                              " results"));
                }
            }
        }
    }

    // --- Exempt-marker audit -----------------------------------------
    for (const ClassRef &ref : classes_) {
        if (!classMatchesFilter(ref))
            continue;
        for (const ExemptMarker &marker : ref.decl->exempts) {
            if (marker.malformed) {
                out.push_back(makeFinding(
                    ref.file->path, marker.line, 1, kRuleExempt,
                    Severity::Error,
                    "malformed marker '" + marker.raw + "'",
                    "write HISS_STATE_EXEMPT(field[, save restore"
                    " cellkey]): justification"));
                continue;
            }
            if (!marker.justified) {
                out.push_back(makeFinding(
                    ref.file->path, marker.line, 1, kRuleExempt,
                    Severity::Error,
                    "HISS_STATE_EXEMPT(" + marker.target
                        + ") without a justification",
                    "append \"): why this field is not covered\""));
                continue;
            }
            bool known = marker.target == ref.short_name;
            for (const FieldDecl &field : ref.decl->fields)
                if (field.name == marker.target)
                    known = true;
            if (!known) {
                out.push_back(makeFinding(
                    ref.file->path, marker.line, 1, kRuleExempt,
                    Severity::Error,
                    "HISS_STATE_EXEMPT names unknown field '"
                        + marker.target + "' in " + ref.short_name,
                    "the field was renamed or removed; update or"
                    " delete the marker"));
                continue;
            }
            if (opts.only_class.empty() && !usage.wasUsed(marker)) {
                out.push_back(makeFinding(
                    ref.file->path, marker.line, 1, kRuleExempt,
                    Severity::Warning,
                    "stale HISS_STATE_EXEMPT(" + marker.target
                        + "): every exempted mode now covers the"
                          " field (or never checks this class)",
                    "delete the marker — exemptions must not outlive"
                    " their reason"));
            }
        }
    }
    for (const ParsedFile &file : files_) {
        for (const ExemptMarker &marker : file.orphan_exempts) {
            if (!opts.only_class.empty())
                continue;
            out.push_back(makeFinding(
                file.path, marker.line, 1, kRuleExempt, Severity::Error,
                "HISS_STATE_EXEMPT outside any class body: '"
                    + marker.raw + "'",
                "place the marker inside the class whose field it"
                " exempts"));
        }
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.path != b.path)
                             return a.path < b.path;
                         return a.line < b.line;
                     });
    return out;
}

} // namespace hiss::statecheck
