// ndp-analyze cross-translation-unit index.
//
// Built once over every scanned file, plus the repo-level text surfaces the
// whole-program passes compare against (README knob table, top-level
// CMakeLists option()s, tools/check.sh). The index is data only — the
// judgments live in passes.cc.
//
// Call corpus. The files under examples/ and perfbench/ are never rule-
// checked, but they are programs that reach src/: their identifiers count as
// references for the test-only pass and writers for the never-set pass,
// exactly like src/ and bench/ ones.
//
// Stats universe. Registration calls are token-scanned; a string literal
// whose next token is '+' is a *dynamic* name and contributes its complete
// interior dot-segments plus a trailing prefix (Sub("ctrl" + c) yields scope
// prefix "ctrl", matched against segments "ctrl<digits>"). A Sub() with no
// literal at all must carry a "// ndp: stats-scope(a|b)" annotation naming
// the segments it can produce. Histogram leaves auto-register the derived
// subleaves count/sum/mean/p50/p90/p99.
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "source.h"

namespace ndp::analyze {

/// One string-literal fragment of a read-path argument.
struct PathFrag {
  std::string text;
  bool open_left = false;   ///< preceded by '+' — starts mid-segment
  bool open_right = false;  ///< followed by '+' — ends mid-segment
};

/// A stats read by string path: snapshot/registry Value, Count, ReadValue,
/// Contains, Has with at least one literal in the path argument.
struct ReadSite {
  size_t file = 0;  ///< index into the scanned-file vector
  size_t line = 0;
  std::string fn;
  std::vector<PathFrag> frags;
  bool probing = false;  ///< ReadValue with an explicit fallback: tolerates absence
};

/// A complete-literal leaf registration (Counter/Gauge/Histogram/Owned...),
/// kept for the dead-stats check.
struct RegSite {
  size_t file = 0;
  size_t line = 0;
  std::string leaf;  ///< last dot-segment of the registered path
};

/// A Sub()/StatsScope() call whose name is dynamic and has no literal and no
/// stats-scope annotation — the stats pass flags it.
struct DynScopeSite {
  size_t file = 0;
  size_t line = 0;
};

/// An env-knob call site with a literal name: getenv/setenv, the strict
/// bench EnvU64/EnvDouble, and the fault-plan OverlayEnvRate helper.
struct KnobSite {
  size_t file = 0;
  size_t line = 0;
  std::string fn;
  std::string name;
  std::string def;  ///< serialized default-argument tokens ("" if none)
  bool is_read = false;
};

/// One `#include "..."` in a src/ file.
struct IncludeEdge {
  size_t file = 0;
  size_t line = 0;
  std::string target;  ///< the quoted path as written
};

/// A function declared at namespace or class scope of a src/ header
/// (constructors, destructors and operators excluded).
struct FunctionDecl {
  size_t file = 0;
  size_t line = 0;
  std::string name;
};

/// A non-static data member of a src/ struct whose name ends in "Config":
/// the settable values the never-set pass audits.
struct ConfigField {
  size_t file = 0;
  size_t line = 0;
  std::string owner;
  std::string name;
};

/// One knob row of the README table (multi-knob cells are split).
struct ReadmeKnob {
  std::string name;
  std::string kind;  ///< env | CMake
  std::string def;
  size_t line = 0;
};

struct Index {
  // stats universe
  std::set<std::string> scope_segments;
  std::set<std::string> scope_prefixes;
  std::set<std::string> leaves;
  std::set<std::string> hist_leaves;
  std::vector<RegSite> regs;
  std::vector<ReadSite> reads;
  std::vector<DynScopeSite> dyn_scopes;
  /// Every dot-segment of every string literal that is NOT a registration
  /// argument: the "is this counter ever referred to" corpus.
  std::set<std::string> mentions;

  std::vector<KnobSite> knobs;
  std::vector<IncludeEdge> includes;
  /// "Struct::member" for every data member declared in a scanned struct or
  /// class body (first declarator of each member declaration).
  std::set<std::string> fields;
  std::vector<ConfigField> config_fields;
  /// Every member name assigned outside tests/ (src/, bench/ and the call
  /// corpus): `x.f =`, `p->f =`, a designated `.f =`, and each link of a
  /// chained write, so `a.f.g =` writes both f and g.
  std::set<std::string> written;

  std::vector<FunctionDecl> header_functions;
  /// Every identifier that occurs outside tests/ (src/, bench/ and the call
  /// corpus) other than as the declarator of a src/ function declaration or
  /// definition: the names some non-test program reaches.
  std::set<std::string> reached;

  std::vector<ReadmeKnob> readme;
  bool have_readme = false;
  std::string readme_rel;  ///< for finding anchors, e.g. "README.md"
  std::string check_sh;    ///< whole text, "" if absent
  std::vector<std::pair<std::string, size_t>> cmake_opts;  ///< name, line
  bool have_cmake = false;
};

/// `corpus` holds the examples/ and perfbench/ files: read for references
/// only, never rule-checked.
Index BuildIndex(std::vector<SourceFile>& files,
                 const std::vector<SourceFile>& corpus,
                 const std::filesystem::path& root);

/// Dot-split of one fragment: (piece, complete) pairs with empty pieces
/// dropped; complete means the piece is bounded by dots or by a literal edge
/// that is not glued to a '+'.
std::vector<std::pair<std::string, bool>> Pieces(const PathFrag& frag);

}  // namespace ndp::analyze
