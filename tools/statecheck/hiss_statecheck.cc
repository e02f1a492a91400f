/**
 * @file
 * hiss_statecheck driver.
 *
 * Parses every C++ file under the given paths (default: src under
 * --root) into one cross-TU index, then reports any snapshot-capable
 * class whose fields are not covered by both save and restore,
 * any cell-key-reachable field missing from canonicalCellText, and
 * any HISS_STATE_EXEMPT marker that is malformed, unjustified,
 * unknown, or stale.
 *
 * Exit status: 0 clean, 1 error findings, 2 usage/IO failure.
 *
 *   hiss_statecheck [--root DIR] [--format=human|gcc]
 *                   [--class NAME] [--list] [path...]
 *
 * --class NAME restricts the report to one class (handy while fixing
 * a single serializer); --list prints every snapshot-capable class
 * with its implementation inventory instead of analyzing.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "statecheck.h"

namespace fs = std::filesystem;
using hiss::lint::Finding;
using hiss::lint::Severity;
using hiss::statecheck::Index;
using hiss::statecheck::Mode;
using hiss::statecheck::Options;
using hiss::statecheck::Subject;

namespace {

bool
parsableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp"
        || ext == ".hpp";
}

bool
skippedDir(const std::string &name)
{
    // Build trees and the intentionally-violating fixture corpora.
    return name == "lint_fixtures" || name == "statecheck_fixtures"
        || name.rfind("build", 0) == 0 || name == ".git";
}

std::vector<std::string>
collectFiles(const fs::path &root, const std::vector<std::string> &paths,
             bool &io_error)
{
    std::vector<std::string> files;
    for (const std::string &rel : paths) {
        const fs::path base = root / rel;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            files.push_back(rel);
            continue;
        }
        if (!fs::is_directory(base, ec)) {
            std::cerr << "hiss_statecheck: no such file or directory: "
                      << base.string() << "\n";
            io_error = true;
            continue;
        }
        fs::recursive_directory_iterator it(
            base, fs::directory_options::skip_permission_denied, ec);
        for (const auto end = fs::recursive_directory_iterator();
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (it->is_directory()
                && skippedDir(it->path().filename().string())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && parsableExtension(it->path()))
                files.push_back(
                    fs::relative(it->path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    std::vector<std::string> paths;
    bool list = false;
    Options opts;
    hiss::lint::OutputFormat fmt = hiss::lint::OutputFormat::Human;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--class" && i + 1 < argc) {
            opts.only_class = argv[++i];
        } else if (arg.rfind("--format=", 0) == 0) {
            if (!hiss::lint::parseOutputFormat(arg.substr(9), fmt)) {
                std::cerr << "hiss_statecheck: unknown format '"
                          << arg.substr(9) << "' (human|gcc)\n";
                return 2;
            }
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: hiss_statecheck [--root DIR]"
                         " [--format=human|gcc] [--class NAME]"
                         " [--list] [path...]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "hiss_statecheck: unknown option '" << arg
                      << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    if (paths.empty())
        paths = {"src"};

    bool io_error = false;
    const std::vector<std::string> files =
        collectFiles(root, paths, io_error);
    if (files.empty()) {
        std::cerr << "hiss_statecheck: nothing to analyze under "
                  << root.string() << "\n";
        return 2;
    }

    Index index;
    for (const std::string &rel : files) {
        std::ifstream in(root / rel, std::ios::binary);
        if (!in) {
            std::cerr << "hiss_statecheck: cannot read " << rel
                      << "\n";
            io_error = true;
            continue;
        }
        std::ostringstream contents;
        contents << in.rdbuf();
        index.addFile(
            hiss::statecheck::parseFile(rel, contents.str()));
    }
    index.build();

    if (list) {
        for (const Subject &subject : index.subjects()) {
            std::cout << subject.name << " (" << subject.file << ":"
                      << subject.line << ")";
            for (const Mode mode : {Mode::Save, Mode::Restore})
                std::cout << " " << modeName(mode) << "="
                          << subject.impls[static_cast<int>(mode)]
                                 .size();
            std::cout << " fields="
                      << subject.decl->fields.size() << "\n";
        }
        std::cout << "hiss_statecheck: " << index.subjects().size()
                  << " snapshot-capable classes across "
                  << index.numClasses() << " classes in "
                  << index.numFiles() << " files\n";
        return io_error ? 2 : 0;
    }

    std::size_t errors = 0, warnings = 0;
    for (const Finding &finding : index.analyze(opts)) {
        std::cout << hiss::lint::format(finding, fmt) << "\n";
        if (finding.severity == Severity::Error)
            ++errors;
        else
            ++warnings;
    }

    if (errors == 0 && warnings == 0)
        std::cout << "hiss_statecheck: clean ("
                  << index.subjects().size() << " classes, "
                  << index.numFiles() << " files)\n";
    else
        std::cout << "hiss_statecheck: " << errors << " error(s), "
                  << warnings << " warning(s)\n";
    if (io_error)
        return 2;
    return errors > 0 ? 1 : 0;
}
