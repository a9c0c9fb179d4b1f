// ndp-analyze: whole-program static analysis for the JAFAR tree.
//
// Successor to the single-file ndp_lint regex scanner (DESIGN.md §7). The
// pipeline is lexer → per-file IR → cross-TU index → passes:
//
//   * the eleven seed rules run per file over lexed (comment/string-clean)
//     lines — see rules_file.cc;
//   * the whole-program passes (stats coherence, layer DAG, knob
//     coherence, bounded queues, test-only, never-set) run over the
//     cross-TU index — see passes.cc. examples/ and perfbench/ are read as
//     a call corpus for test-only and never-set but never rule-checked;
//   * two meta rules make the waiver ledger itself honest: every waiver
//     needs a reason, and a waiver that suppresses nothing is a finding.
//
// Waiver syntax is unchanged from ndp_lint: "// ndp-lint: <rule>-ok" on the
// flagged line or the line above, plus reason text.
//
// Usage: ndp_analyze [--expect golden.txt] [repo_root]
//   --expect: compare the report against a golden file (the fixture ctest);
//             exit 0 iff the output matches byte-for-byte, findings or not.
// Exit status: 0 clean (or golden match), 1 findings (or mismatch), 2 IO.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "index.h"
#include "passes.h"
#include "rules_file.h"
#include "source.h"

namespace {

namespace fs = std::filesystem;
using namespace ndp::analyze;

/// The fixture corpus exercises every rule on purpose; a real-tree scan must
/// not trip over it.
bool SkippedPath(const std::string& rel) {
  return rel.rfind("tests/lint/fixtures", 0) == 0;
}

/// Appends every .h/.cc under root/dir. Returns false if the directory is
/// missing.
bool ListSources(const fs::path& root, const char* dir,
                 std::vector<fs::path>* out) {
  const fs::path sub = root / dir;
  if (!fs::exists(sub)) return false;
  for (const auto& entry : fs::recursive_directory_iterator(sub)) {
    if (!entry.is_regular_file()) continue;
    const fs::path ext = entry.path().extension();
    if (ext == ".h" || ext == ".cc") out->push_back(entry.path());
  }
  return true;
}

/// Loads `paths` into `out`, dropping the rule fixtures (SkippedPath). Returns
/// false on an unreadable file.
bool LoadAll(const fs::path& root, const std::vector<fs::path>& paths,
             std::vector<SourceFile>* out) {
  for (const fs::path& path : paths) {
    SourceFile f;
    if (!LoadSourceFile(root, path, &f)) {
      std::fprintf(stderr, "ndp_analyze: cannot read %s\n",
                   path.string().c_str());
      return false;
    }
    if (!SkippedPath(f.rel)) out->push_back(std::move(f));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string expect_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expect") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--expect golden.txt] [repo_root]\n",
                     argv[0]);
        return 2;
      }
      expect_path = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 1) {
    std::fprintf(stderr, "usage: %s [--expect golden.txt] [repo_root]\n",
                 argv[0]);
    return 2;
  }
  const fs::path root =
      positional.empty() ? fs::current_path() : fs::path(positional[0]);

  std::vector<fs::path> paths;
  for (const char* dir : {"src", "bench", "tests"}) {
    if (!ListSources(root, dir, &paths)) {
      std::fprintf(stderr, "ndp_analyze: missing directory %s\n",
                   (root / dir).string().c_str());
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<fs::path> corpus_paths;
  for (const char* dir : {"examples", "perfbench"}) {
    ListSources(root, dir, &corpus_paths);  // optional
  }
  std::sort(corpus_paths.begin(), corpus_paths.end());

  std::vector<SourceFile> files;
  std::vector<SourceFile> corpus;
  if (!LoadAll(root, paths, &files) || !LoadAll(root, corpus_paths, &corpus)) {
    return 2;
  }

  std::vector<Finding> findings;
  for (SourceFile& f : files) RunFileRules(f, &findings);
  const Index idx = BuildIndex(files, corpus, root);
  RunPasses(files, idx, &findings);
  RunMetaPasses(files, &findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.rel != b.rel) return a.rel < b.rel;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.rel == b.rel && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());

  std::ostringstream report;
  for (const Finding& fd : findings) {
    report << fd.rel << ':' << fd.line << ": [" << fd.rule << "] "
           << fd.message << '\n';
  }
  report << "ndp_analyze: " << files.size() << " files scanned, "
         << findings.size() << " finding" << (findings.size() == 1 ? "" : "s")
         << '\n';

  if (expect_path.empty()) {
    std::fputs(report.str().c_str(), stdout);
    return findings.empty() ? 0 : 1;
  }

  std::ifstream golden(expect_path);
  if (!golden) {
    std::fprintf(stderr, "ndp_analyze: cannot read golden file %s\n",
                 expect_path.c_str());
    return 2;
  }
  std::stringstream want;
  want << golden.rdbuf();
  if (want.str() == report.str()) {
    std::printf("ndp_analyze: output matches %s\n", expect_path.c_str());
    return 0;
  }
  std::printf("ndp_analyze: output differs from %s\n--- got ---\n%s--- want "
              "---\n%s",
              expect_path.c_str(), report.str().c_str(), want.str().c_str());
  return 1;
}
