/**
 * @file
 * Fixture-driven self-test for hiss_statecheck.
 *
 * The clean fixture corpus must produce zero findings; the drill
 * corpus seeds one example of every defect class — a field added
 * after the serializers were written (flagged in save AND restore),
 * a field a walk never names (flagged in both, since a walk is the
 * save and the restore), a field only a save helper reaches,
 * cell-key-reachable fields missing from canonicalCellText (one by
 * value, one through a pointer), a class without a restore
 * implementation, and every exempt-marker failure (unknown target,
 * stale, unjustified, orphan). Inline sources cover the declaration
 * parser's edges directly.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "statecheck.h"

namespace {

using hiss::lint::Finding;
using hiss::lint::Severity;
using hiss::statecheck::ClassDecl;
using hiss::statecheck::FieldDecl;
using hiss::statecheck::FunctionDef;
using hiss::statecheck::Index;
using hiss::statecheck::Options;
using hiss::statecheck::ParsedFile;
using hiss::statecheck::parseFile;
using hiss::statecheck::Subject;

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(HISS_STATECHECK_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read fixture " << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

/** Build one cross-TU index out of a fixture subdirectory. */
Index
buildIndex(const std::string &subdir)
{
    Index index;
    for (const char *name :
         {"widget.h", "widget.cc", "cell.h", "cell.cc"})
        index.addFile(parseFile(subdir + "/" + name,
                                readFixture(subdir + "/" + name)));
    index.build();
    return index;
}

std::size_t
count(const std::vector<Finding> &findings, const std::string &rule,
      const std::string &needle = "")
{
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(), [&](const Finding &f) {
            return f.rule == rule
                && (needle.empty()
                    || f.message.find(needle) != std::string::npos);
        }));
}

std::string
render(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings)
        out += hiss::lint::format(f) + "\n";
    return out;
}

const ClassDecl *
findClass(const ParsedFile &file, const std::string &name)
{
    for (const ClassDecl &cls : file.classes)
        if (cls.name == name)
            return &cls;
    return nullptr;
}

const FieldDecl *
findField(const ClassDecl &cls, const std::string &name)
{
    for (const FieldDecl &field : cls.fields)
        if (field.name == name)
            return &field;
    return nullptr;
}

// ---------------------------------------------------------------
// Declaration parser
// ---------------------------------------------------------------

TEST(DeclParser, ExtractsFieldsWithTypeShape)
{
    const ParsedFile file = parseFile("t.h", R"(
        namespace hiss {
        class Widget {
          public:
            Widget() = default;
            void poke(int amount);
          private:
            std::uint64_t count_ = 0;
            std::vector<std::unique_ptr<Gpu>> gpus_;
            MitigationConfig mitigation;
            Kernel *kernel_ = nullptr;
            Clock &clock_;
            std::function<void(CpuCore &)> callback_;
            Tick window_[4] = {};
            int lo_ = 0, hi_ = 0;
        };
        } // namespace hiss
    )");
    const ClassDecl *cls = findClass(file, "Widget");
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->fields.size(), 9u);

    const FieldDecl *count = findField(*cls, "count_");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->type_name, "uint64_t");

    const FieldDecl *gpus = findField(*cls, "gpus_");
    ASSERT_NE(gpus, nullptr);
    EXPECT_EQ(gpus->type_name, "vector");
    EXPECT_EQ(gpus->inner_type_name, "Gpu");

    const FieldDecl *mitigation = findField(*cls, "mitigation");
    ASSERT_NE(mitigation, nullptr);
    EXPECT_EQ(mitigation->type_name, "MitigationConfig");

    // A pointer field names its pointee, so the cell-key walk can
    // follow it.
    const FieldDecl *kernel = findField(*cls, "kernel_");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->type_name, "Kernel");

    const FieldDecl *clock = findField(*cls, "clock_");
    ASSERT_NE(clock, nullptr);
    EXPECT_TRUE(clock->is_reference);

    // The parenthesized std::function signature must not turn the
    // field into a function declaration.
    EXPECT_NE(findField(*cls, "callback_"), nullptr);
    EXPECT_NE(findField(*cls, "window_"), nullptr);
    // Comma-separated declarators each become a field.
    EXPECT_NE(findField(*cls, "lo_"), nullptr);
    EXPECT_NE(findField(*cls, "hi_"), nullptr);
}

TEST(DeclParser, SkipsNonFieldStatements)
{
    const ParsedFile file = parseFile("t.h", R"(
        class Widget {
            using Callback = std::function<void(int)>;
            typedef int Cost;
            friend struct snap::Access;
            enum class Phase { Idle, Busy };
            static constexpr int kDepth = 4;
            static int live_count;
            bool operator==(const Widget &other) const;
            int real_ = 0;
        };
    )");
    const ClassDecl *cls = findClass(file, "Widget");
    ASSERT_NE(cls, nullptr);
    ASSERT_EQ(cls->fields.size(), 1u);
    EXPECT_EQ(cls->fields[0].name, "real_");
}

TEST(DeclParser, QualifiesNestedClassesAndInitializers)
{
    const ParsedFile file = parseFile("t.h", R"(
        class Outer {
            struct Inner {
                int depth = usToTicks(13);
            };
            Inner inner_;
        };
    )");
    const ClassDecl *inner = findClass(file, "Outer::Inner");
    ASSERT_NE(inner, nullptr);
    // The call in the initializer must not classify depth as a
    // function declaration.
    EXPECT_NE(findField(*inner, "depth"), nullptr);
    const ClassDecl *outer = findClass(file, "Outer");
    ASSERT_NE(outer, nullptr);
    const FieldDecl *member = findField(*outer, "inner_");
    ASSERT_NE(member, nullptr);
    EXPECT_EQ(member->type_name, "Inner");
}

TEST(DeclParser, RecordsFunctionBodiesAcrossStyles)
{
    const ParsedFile file = parseFile("t.cc", R"(
        void
        SignalQueue::snapSave(snap::Writer &out) const
        {
            out.u64(next_id_);
        }

        std::uint64_t
        SignalQueue::pendingCount() const
        {
            return next_id_ - delivered_;
        }

        struct Access {
            static void save(Writer &out, const Rng &rng)
            {
                out.u64(rng.state_);
            }
        };

        SsrRequest
        snapRestoreRequest(Reader &in)
        {
            SsrRequest req;
            req.id = in.u64();
            return req;
        }
    )");
    ASSERT_EQ(file.functions.size(), 4u);

    const FunctionDef &save = file.functions[0];
    EXPECT_EQ(save.name, "snapSave");
    EXPECT_EQ(save.qualifier, "SignalQueue");
    EXPECT_TRUE(save.mentions("next_id_"));
    EXPECT_FALSE(save.mentions("rng"));

    const FunctionDef &count = file.functions[1];
    EXPECT_EQ(count.name, "pendingCount");
    EXPECT_EQ(count.return_type, "uint64_t");

    const FunctionDef &access_save = file.functions[2];
    EXPECT_EQ(access_save.name, "save");
    EXPECT_EQ(access_save.enclosing, "Access");
    EXPECT_TRUE(std::find(access_save.param_idents.begin(),
                          access_save.param_idents.end(), "Writer")
                != access_save.param_idents.end());
    EXPECT_TRUE(access_save.mentions("state_"));

    const FunctionDef &restore = file.functions[3];
    EXPECT_EQ(restore.name, "snapRestoreRequest");
    EXPECT_EQ(restore.return_type, "SsrRequest");
}

TEST(DeclParser, ConstructorInitListsCountAsBodyMentions)
{
    const ParsedFile file = parseFile("t.cc", R"(
        Widget::Widget(int depth)
            : depth_(depth), budget_(depth * 2)
        {
        }
    )");
    ASSERT_EQ(file.functions.size(), 1u);
    EXPECT_TRUE(file.functions[0].mentions("depth_"));
    EXPECT_TRUE(file.functions[0].mentions("budget_"));
}

TEST(DeclParser, ParsesExemptMarkers)
{
    const ParsedFile file = parseFile("t.h", R"(
        class Widget {
            // HISS_STATE_EXEMPT(scratch_): rebuilt lazily
            int scratch_ = 0;
            // HISS_STATE_EXEMPT(cache_, restore cellkey): derived
            int cache_ = 0;
            // HISS_STATE_EXEMPT(bad_, hash): not a mode
            int bad_ = 0;
            // HISS_STATE_EXEMPT(naked_, save)
            int naked_ = 0;
        };
        // HISS_STATE_EXEMPT(stray_, save): outside any class
    )");
    const ClassDecl *cls = findClass(file, "Widget");
    ASSERT_NE(cls, nullptr);
    ASSERT_EQ(cls->exempts.size(), 4u);

    EXPECT_EQ(cls->exempts[0].target, "scratch_");
    EXPECT_TRUE(cls->exempts[0].modes.empty()); // all modes
    EXPECT_TRUE(cls->exempts[0].justified);

    EXPECT_EQ(cls->exempts[1].target, "cache_");
    ASSERT_EQ(cls->exempts[1].modes.size(), 2u);
    EXPECT_EQ(cls->exempts[1].modes[0],
              hiss::statecheck::Mode::Restore);
    EXPECT_EQ(cls->exempts[1].modes[1],
              hiss::statecheck::Mode::CellKey);

    EXPECT_TRUE(cls->exempts[2].malformed); // unknown mode word
    EXPECT_FALSE(cls->exempts[3].justified);

    ASSERT_EQ(file.orphan_exempts.size(), 1u);
    EXPECT_EQ(file.orphan_exempts[0].target, "stray_");
}

// ---------------------------------------------------------------
// Cross-TU analysis: fixtures
// ---------------------------------------------------------------

TEST(Statecheck, CleanFixtureIsClean)
{
    const Index index = buildIndex("clean");
    const std::vector<Finding> findings = index.analyze();
    EXPECT_TRUE(findings.empty()) << render(findings);

    ASSERT_EQ(index.subjects().size(), 1u);
    const Subject &widget = index.subjects()[0];
    EXPECT_EQ(widget.name, "Widget");
    EXPECT_EQ(widget.impls[0].size(), 1u);
    EXPECT_EQ(widget.impls[1].size(), 1u);
}

TEST(Statecheck, DrillFlagsUnserializedFieldInEveryMode)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    // The freshly added epoch_ must be caught by both coverage
    // dimensions — this is the "field added but not serialized"
    // regression the analyzer exists for.
    EXPECT_EQ(count(findings, "state-save", "epoch_"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-restore", "epoch_"), 1u);
    // Covered fields stay silent.
    EXPECT_EQ(count(findings, "state-save", "count_"), 0u);
    EXPECT_EQ(count(findings, "state-restore", "credit_"), 0u);
}

TEST(Statecheck, DrillFlagsFieldMissingFromWalkInBothModes)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    // A snapIo walk is both the save and the restore, so the field it
    // never names is caught in both dimensions...
    EXPECT_EQ(count(findings, "state-save", "notch_"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-restore", "notch_"), 1u);
    // ...and the field it names is covered in both.
    EXPECT_EQ(count(findings, "state-save", "turns_"), 0u);
    EXPECT_EQ(count(findings, "state-restore", "turns_"), 0u);
    EXPECT_EQ(count(findings, "state-structure", "Dial"), 0u);
}

TEST(Statecheck, SaveHelperCalledFromWalkCountsForSaveOnly)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    // detents_ is written by snapSaveDetents, which the walk calls on
    // save; nothing reads it back.
    EXPECT_EQ(count(findings, "state-save", "detents_"), 0u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-restore", "detents_"), 1u);
}

TEST(Statecheck, DrillFlagsCellKeyGap)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    EXPECT_EQ(count(findings, "cell-key", "fuel"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "cell-key", "seed"), 0u);
    EXPECT_EQ(count(findings, "cell-key", "window"), 0u);
    // The app field lives on Cell, reached transitively.
    EXPECT_EQ(count(findings, "cell-key", "'app'"), 0u);
}

TEST(Statecheck, DrillFollowsPointerFields)
{
    // Testbed is reached only through CellConfig::testbed, the way a
    // cell reaches its base_system.
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    EXPECT_EQ(count(findings, "cell-key", "field 'ways' of Testbed"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "cell-key", "Testbed"), 1u);
    EXPECT_EQ(count(findings, "cell-key", "'testbed'"), 0u);
}

TEST(Statecheck, DrillFlagsMissingHashImplementation)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    EXPECT_EQ(count(findings, "state-structure", "Gauge"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-structure",
                    "no restore implementation"),
              1u);
    // Gauge's covered field must not produce per-field noise: save
    // covers it, and the missing restore is one structural finding.
    EXPECT_EQ(count(findings, "state-save", "level_"), 0u);
    EXPECT_EQ(count(findings, "state-restore", "level_"), 0u);
}

TEST(Statecheck, DrillFlagsEveryExemptDefect)
{
    const std::vector<Finding> findings =
        buildIndex("drill").analyze();
    EXPECT_EQ(count(findings, "state-exempt", "ghost_"), 1u)
        << render(findings); // unknown target
    EXPECT_EQ(count(findings, "state-exempt", "without a"), 1u);
    EXPECT_EQ(count(findings, "state-exempt", "stale"), 1u);
    EXPECT_EQ(count(findings, "state-exempt", "outside any class"),
              1u);
}

TEST(Statecheck, OnlyClassFilterRestrictsFindings)
{
    Options opts;
    opts.only_class = "Gauge";
    const std::vector<Finding> findings =
        buildIndex("drill").analyze(opts);
    EXPECT_EQ(count(findings, "state-structure", "Gauge"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-save", "epoch_"), 0u);
    EXPECT_EQ(count(findings, "cell-key", "fuel"), 0u);
}

TEST(Statecheck, ExemptSuppressesAndEarnsItsKeep)
{
    // The clean fixture's scratch_ exempt suppresses both mode
    // findings; were it stale, CleanFixtureIsClean would fail on the
    // stale warning. Flip the drill: an exempt on a covered field
    // must warn.
    Index index;
    index.addFile(parseFile("w.h", R"(
        class Widget {
            std::uint64_t count_ = 0;
            // HISS_STATE_EXEMPT(count_, restore): pretends count_ is
            // not restored, but it is
        };
    )"));
    index.addFile(parseFile("w.cc", R"(
        void Widget::snapSave(snap::Writer &out) const { out.u64(count_); }
        void Widget::snapRestore(snap::Reader &in) { count_ = in.u64(); }
    )"));
    index.build();
    const std::vector<Finding> findings = index.analyze();
    EXPECT_EQ(count(findings, "state-exempt", "stale"), 1u)
        << render(findings);
}

TEST(Statecheck, AccessOverloadsTargetTheSerializedClass)
{
    // The snap::Access pattern: static save/restore overloads whose
    // target is the first non-infrastructure class parameter.
    Index index;
    index.addFile(parseFile("rng.h", R"(
        class Rng {
            std::uint64_t state_ = 1;
            std::uint64_t seq_ = 0;
        };
    )"));
    index.addFile(parseFile("access.h", R"(
        struct Access {
            static void save(Writer &out, const Rng &rng)
            {
                out.u64(rng.state_);
            }
            static void restore(Reader &in, Rng &rng)
            {
                rng.state_ = in.u64();
            }
        };
    )"));
    index.build();
    ASSERT_EQ(index.subjects().size(), 1u);
    EXPECT_EQ(index.subjects()[0].name, "Rng");

    // seq_ is touched by nothing: two findings, one per mode.
    const std::vector<Finding> findings = index.analyze();
    EXPECT_EQ(count(findings, "state-save", "seq_"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-restore", "seq_"), 1u);
}

TEST(Statecheck, IoOverloadsTargetTheWalkedClass)
{
    // The snap::Access walk pattern: a static io(Io &, T &) overload
    // is a save and a restore of T. Io itself is infrastructure, so
    // it is never the target even when the index knows the class.
    Index index;
    index.addFile(parseFile("snap.h", R"(
        class Io {
            Writer *w_ = nullptr;
            Reader *r_ = nullptr;
        };
    )"));
    index.addFile(parseFile("rng.h", R"(
        class Rng {
            std::uint64_t state_ = 1;
            std::uint64_t seq_ = 0;
        };
    )"));
    index.addFile(parseFile("access.h", R"(
        struct Access {
            static void io(Io &io, Rng &rng)
            {
                io.u64(rng.state_);
            }
        };
    )"));
    index.build();
    ASSERT_EQ(index.subjects().size(), 1u);
    EXPECT_EQ(index.subjects()[0].name, "Rng");
    EXPECT_EQ(index.subjects()[0].impls[0].size(), 1u);
    EXPECT_EQ(index.subjects()[0].impls[1].size(), 1u);

    const std::vector<Finding> findings = index.analyze();
    EXPECT_EQ(count(findings, "state-save", "seq_"), 1u)
        << render(findings);
    EXPECT_EQ(count(findings, "state-restore", "seq_"), 1u);
    EXPECT_EQ(count(findings, "state-save", "state_"), 0u);
    EXPECT_EQ(count(findings, "state-restore", "state_"), 0u);
    EXPECT_EQ(count(findings, "state-structure", ""), 0u);
}

TEST(Statecheck, GenericNamesRequireSnapshotSignature)
{
    // An unrelated save() must not make its class snapshot-capable.
    Index index;
    index.addFile(parseFile("doc.h", R"(
        class Document {
            std::string text_;
        };
    )"));
    index.addFile(parseFile("doc.cc", R"(
        void Document::save(std::ostream &out) const { out << text_; }
    )"));
    index.build();
    EXPECT_TRUE(index.subjects().empty());
    EXPECT_TRUE(index.analyze().empty());
}

} // namespace
