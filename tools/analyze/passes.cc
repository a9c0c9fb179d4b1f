#include "passes.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>

namespace ndp::analyze {

namespace {

// -- stats coherence ----------------------------------------------------------

const std::set<std::string> kHistSubleaves = {"count", "sum",  "mean",
                                              "p50",   "p90", "p99"};

bool PrefixMatch(const std::set<std::string>& prefixes,
                 const std::string& seg) {
  for (const std::string& p : prefixes) {
    if (seg.size() > p.size() && seg.rfind(p, 0) == 0 &&
        std::all_of(seg.begin() + static_cast<long>(p.size()), seg.end(),
                    [](char c) { return std::isdigit(static_cast<unsigned char>(c)); })) {
      return true;
    }
  }
  return false;
}

bool ValidSegment(const Index& idx, const std::string& seg) {
  return idx.scope_segments.count(seg) > 0 ||
         PrefixMatch(idx.scope_prefixes, seg);
}

bool ValidLeaf(const Index& idx, const std::string& leaf) {
  return idx.leaves.count(leaf) > 0;
}

/// Lenient validity for a piece cut mid-segment by '+': it only has to be
/// compatible with something registered.
bool PartialOk(const Index& idx, const std::string& piece) {
  if (ValidSegment(idx, piece) || ValidLeaf(idx, piece) ||
      idx.scope_prefixes.count(piece) > 0 || kHistSubleaves.count(piece) > 0) {
    return true;
  }
  for (const std::string& s : idx.scope_segments) {
    if (s.rfind(piece, 0) == 0) return true;
  }
  for (const std::string& s : idx.leaves) {
    if (s.rfind(piece, 0) == 0) return true;
  }
  for (const std::string& p : idx.scope_prefixes) {
    if (piece.rfind(p, 0) == 0) return true;
  }
  return false;
}

/// Validates a fully-literal dotted path.
bool ValidCompletePath(const Index& idx, const std::string& path) {
  PathFrag frag{path, false, false};
  std::vector<std::string> segs;
  for (const auto& [piece, complete] : Pieces(frag)) segs.push_back(piece);
  if (segs.empty()) return false;
  size_t leaf_at = segs.size() - 1;
  if (segs.size() >= 2 && kHistSubleaves.count(segs.back()) > 0 &&
      idx.hist_leaves.count(segs[segs.size() - 2]) > 0) {
    leaf_at = segs.size() - 2;
  }
  if (!ValidLeaf(idx, segs[leaf_at])) return false;
  for (size_t i = 0; i < leaf_at; ++i) {
    if (!ValidSegment(idx, segs[i])) return false;
  }
  return true;
}

std::string DisplayPath(const ReadSite& site) {
  std::string s;
  for (const PathFrag& frag : site.frags) {
    if (frag.open_left && (s.empty() || s.back() != '*')) s += '*';
    s += frag.text;
    if (frag.open_right) s += '*';
  }
  return s;
}

void PassStatsCoherence(std::vector<SourceFile>& files, const Index& idx,
                        std::vector<Finding>* out) {
  for (const ReadSite& site : idx.reads) {
    if (site.probing) continue;  // ReadValue with a fallback tolerates absence
    SourceFile& f = files[site.file];
    bool ok = true;
    if (site.frags.size() == 1 && !site.frags[0].open_left &&
        !site.frags[0].open_right) {
      const std::string& path = site.frags[0].text;
      // Value/Count on a dotless name is too generic to attribute to the
      // stats registry unless the name is a registered leaf.
      if (path.find('.') == std::string::npos &&
          (site.fn == "Value" || site.fn == "Count") &&
          !ValidLeaf(idx, path)) {
        continue;
      }
      ok = ValidCompletePath(idx, path);
    } else {
      for (const PathFrag& frag : site.frags) {
        for (const auto& [piece, complete] : Pieces(frag)) {
          const bool good =
              complete ? (ValidSegment(idx, piece) || ValidLeaf(idx, piece) ||
                          kHistSubleaves.count(piece) > 0)
                       : PartialOk(idx, piece);
          if (!good) ok = false;
        }
      }
    }
    if (!ok) {
      Emit(f, site.line, "stats-unregistered",
           "stats path \"" + DisplayPath(site) + "\" read via ." + site.fn +
               "() but no registration produces it; register the counter or "
               "fix the path (the read would silently yield the default)",
           out);
    }
  }
  for (const DynScopeSite& site : idx.dyn_scopes) {
    Emit(files[site.file], site.line, "stats-unregistered",
         "dynamic stats scope with no literal segment; annotate the possible "
         "names with // ndp: stats-scope(a|b|...) so reads against them can "
         "be checked",
         out);
  }
  // Dead leaves: registered, never named by any other literal in the corpus.
  std::set<std::pair<size_t, size_t>> seen;  // dedupe multi-literal lines
  for (const RegSite& reg : idx.regs) {
    if (idx.mentions.count(reg.leaf) > 0) continue;
    if (!seen.insert({reg.file, reg.line}).second) continue;
    Emit(files[reg.file], reg.line, "stats-dead",
         "counter \"" + reg.leaf +
             "\" is registered but no estimator, bench, or test ever reads "
             "or asserts it by name; wire it up (tests/util/"
             "stats_coverage_test.cc pins the documented surface) or drop it",
         out);
  }
}

// -- layer DAG ----------------------------------------------------------------

const std::map<std::string, int> kLayerRank = {
    {"util", 0}, {"sim", 1},  {"dram", 2}, {"accel", 2}, {"fault", 2},
    {"jafar", 3}, {"cpu", 4}, {"db", 4},   {"core", 5},
};

/// Sanctioned back-edges: (including file, included path). db/trace.h
/// replays operator traces through the cpu kernels to price a pushdown
/// decision — reviewed and deliberate (DESIGN.md §7).
const std::set<std::pair<std::string, std::string>> kSanctionedEdges = {
    {"src/db/trace.h", "cpu/kernels.h"},
};

void PassLayerDag(std::vector<SourceFile>& files, const Index& idx,
                  std::vector<Finding>* out) {
  std::map<std::string, std::set<std::string>> graph;
  std::map<std::pair<std::string, std::string>, const IncludeEdge*> first_edge;

  for (const IncludeEdge& e : idx.includes) {
    SourceFile& f = files[e.file];
    if (f.layer.empty()) continue;
    const std::string target_layer = e.target.substr(0, e.target.find('/'));
    auto to = kLayerRank.find(target_layer);
    if (to == kLayerRank.end()) continue;  // not a layer-relative include
    auto from = kLayerRank.find(f.layer);
    if (from == kLayerRank.end()) continue;
    if (target_layer != f.layer) {
      graph[f.layer].insert(target_layer);
      first_edge.emplace(std::make_pair(f.layer, target_layer), &e);
    }
    if (kSanctionedEdges.count({f.rel, e.target}) > 0) continue;
    const bool bad = to->second > from->second ||
                     (to->second == from->second && target_layer != f.layer);
    if (bad) {
      Emit(f, e.line, "layer-dag",
           "include of " + e.target + " breaks the layer DAG: " + f.layer +
               " (rank " + std::to_string(from->second) + ") may only include "
               "layers of strictly lower rank (util < sim < dram/accel/fault "
               "< jafar < cpu/db < core); invert the dependency or add a "
               "sanctioned back-edge",
           out);
    }
  }

  // Cycle detection over the layer graph (sanctioned edges included: an
  // allowlisted edge must still not close a cycle).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::function<bool(const std::string&, std::vector<std::string>*)> dfs =
      [&](const std::string& n, std::vector<std::string>* cycle) {
        color[n] = 1;
        for (const std::string& m : graph[n]) {
          if (color[m] == 1) {
            cycle->push_back(m);
            cycle->push_back(n);
            return true;
          }
          if (color[m] == 0 && dfs(m, cycle)) {
            if (cycle->front() != cycle->back()) cycle->push_back(n);
            return true;
          }
        }
        color[n] = 2;
        return false;
      };
  for (const auto& [n, _] : graph) {
    if (color[n] != 0) continue;
    std::vector<std::string> cycle;
    if (dfs(n, &cycle)) {
      std::string desc;
      for (auto it = cycle.rbegin(); it != cycle.rend(); ++it) {
        desc += *it + " -> ";
      }
      desc += cycle.back();
      const auto* e = first_edge[{cycle[1], cycle[0]}];
      const size_t file = e ? e->file : 0;
      const size_t line = e ? e->line : 1;
      out->push_back(Finding{files[file].rel, line, "layer-dag",
                             "include cycle between layers: " + desc});
      break;
    }
  }
}

// -- knob coherence -----------------------------------------------------------

bool WordInText(const std::string& text, const std::string& word) {
  size_t pos = 0;
  auto word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !word_char(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !word_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool NumericEq(const std::string& a, const std::string& b) {
  char* end = nullptr;
  const double da = std::strtod(a.c_str(), &end);
  if (end != a.c_str() + a.size() || a.empty()) return true;  // not comparable
  const double db = std::strtod(b.c_str(), &end);
  if (end != b.c_str() + b.size() || b.empty()) return true;
  return da == db;
}

void PassKnobCoherence(std::vector<SourceFile>& files, const Index& idx,
                       std::vector<Finding>* out) {
  std::map<std::string, std::vector<const KnobSite*>> read_sites;
  for (const KnobSite& k : idx.knobs) {
    if (k.is_read) read_sites[k.name].push_back(&k);
  }
  std::map<std::string, std::vector<const ReadmeKnob*>> readme_env;
  std::map<std::string, const ReadmeKnob*> readme_cmake;
  for (const ReadmeKnob& r : idx.readme) {
    if (r.kind == "env") {
      readme_env[r.name].push_back(&r);
    } else {
      readme_cmake.emplace(r.name, &r);
    }
  }

  // code → README: every knob read in code appears exactly once.
  for (const auto& [name, sites] : read_sites) {
    if (!idx.have_readme) break;
    auto it = readme_env.find(name);
    if (it == readme_env.end()) {
      const KnobSite* s = sites.front();
      Emit(files[s->file], s->line, "knob-coherence",
           "env knob " + name +
               " is read here but has no row in the README knob table "
               "(README.md \"Configuration knobs\")",
           out);
    } else if (it->second.size() > 1) {
      out->push_back(Finding{
          idx.readme_rel, it->second[1]->line, "knob-coherence",
          "env knob " + name + " is listed " +
              std::to_string(it->second.size()) +
              " times in the README knob table; keep exactly one row"});
    }
  }

  // README → code.
  for (const auto& [name, rows] : readme_env) {
    if (read_sites.count(name) > 0) continue;
    if (WordInText(idx.check_sh, name)) continue;  // shell-only knob
    out->push_back(Finding{
        idx.readme_rel, rows.front()->line, "knob-coherence",
        "README lists env knob " + name +
            " but no code reads it (getenv/Env*/OverlayEnv*) and "
            "tools/check.sh does not reference it; delete the stale row"});
  }
  std::set<std::string> cmake_names;
  for (const auto& [name, line] : idx.cmake_opts) cmake_names.insert(name);
  for (const auto& [name, row] : readme_cmake) {
    if (cmake_names.count(name) > 0) continue;
    out->push_back(Finding{
        idx.readme_rel, row->line, "knob-coherence",
        "README lists CMake option " + name +
            " but the top-level CMakeLists.txt defines no such option"});
  }
  if (idx.have_readme && idx.have_cmake) {
    for (const auto& [name, line] : idx.cmake_opts) {
      if (name.rfind("NDP_", 0) != 0 && name.rfind("JAFAR_", 0) != 0) continue;
      if (readme_cmake.count(name) > 0) continue;
      out->push_back(Finding{
          "CMakeLists.txt", line, "knob-coherence",
          "CMake option " + name + " has no row in the README knob table"});
    }
  }

  // NDP_* default agreement across call sites, and against the README cell.
  for (const auto& [name, sites] : read_sites) {
    if (name.rfind("NDP_", 0) != 0) continue;
    const KnobSite* first_def = nullptr;
    for (const KnobSite* s : sites) {
      if (s->def.empty()) continue;
      if (!first_def) {
        first_def = s;
      } else if (s->def != first_def->def) {
        Emit(files[s->file], s->line, "knob-coherence",
             "default for " + name + " here (" + s->def +
                 ") disagrees with " + files[first_def->file].rel + ":" +
                 std::to_string(first_def->line) + " (" + first_def->def +
                 "); one site must own the default",
             out);
      }
    }
    auto it = readme_env.find(name);
    if (first_def && it != readme_env.end() &&
        !NumericEq(it->second.front()->def, first_def->def)) {
      out->push_back(Finding{
          idx.readme_rel, it->second.front()->line, "knob-coherence",
          "README default for " + name + " (" + it->second.front()->def +
              ") does not match the call-site default (" + first_def->def +
              ")"});
    }
  }
}

// -- bounded-queue ------------------------------------------------------------

/// Growable std:: containers declared on the serving ingress/admission path:
/// the ingress sources and the runtime's headers behind it (its .cc files
/// are skipped, their function-local containers are not state). Overload
/// robustness is a whole-path property: one unbounded queue between the
/// door and the runtime turns every shed point upstream of it into theater.
/// Every such declaration must either carry a
/// "// ndp: bounded-by(<Struct>::<field>)" annotation naming the config
/// field that caps it (cross-checked against the members of every scanned
/// struct, so the bound is verifiable) or a reasoned waiver for setup-time
/// state.
const std::regex kGrowableDecl(
    R"(std::(vector|deque|list|queue|priority_queue|map|multimap|set|multiset|unordered_map|unordered_set)\s*<)");

void PassBoundedQueue(std::vector<SourceFile>& files, const Index& idx,
                      std::vector<Finding>* out) {
  for (SourceFile& f : files) {
    const bool runtime_header =
        f.rel.rfind("src/core/runtime", 0) == 0 && f.rel.ends_with(".h");
    if (f.rel.rfind("src/core/ingress", 0) != 0 && !runtime_header) continue;
    for (size_t line = 1; line <= f.lex.code.size(); ++line) {
      const std::string& code = f.lex.code[line - 1];
      std::smatch m;
      if (!std::regex_search(code, m, kGrowableDecl)) continue;
      // Declaration statements only: parameter lists and call expressions
      // carry parentheses; a wrapped multi-line expression lacks the ';'.
      if (code.find_first_of("()") != std::string::npos) continue;
      const size_t end = code.find_last_not_of(" \t");
      if (end == std::string::npos || code[end] != ';') continue;
      const Annotation* bound = nullptr;
      for (const Annotation& a : f.annotations) {
        if (a.kind == "bounded-by" && (a.line == line || a.line + 1 == line)) {
          bound = &a;
          break;
        }
      }
      if (bound == nullptr) {
        Emit(f, line, "bounded-queue",
             "growable std::" + m[1].str() +
                 " on the ingress/admission path; every container here must "
                 "be fixed-capacity — annotate the sizing field with // ndp: "
                 "bounded-by(<Struct>::<field>) or waive setup-time state "
                 "with a reason",
             out);
      } else if (idx.fields.count(bound->arg) == 0) {
        Emit(f, line, "bounded-queue",
             "bounded-by(" + bound->arg +
                 ") names no member declared in a scanned struct, so the "
                 "claimed bound is unverifiable; name the real capacity "
                 "field as <Struct>::<field>",
             out);
      }
    }
  }
}

// -- test-only ----------------------------------------------------------------

/// A src/ header function that only tests reach is code the simulator,
/// benches and examples never run: delete it, or waive a hook that exists so
/// tests can observe state. References are by name, so an overloaded or
/// shadowed name is reached if any of its uses is. lower_snake_case names
/// are the style's trivial accessors (`activate_count()`): reading a field
/// back is observation, not dead behaviour, so they are exempt — which
/// means a test-only lower_snake_case name is caught only by review.
void PassTestOnly(std::vector<SourceFile>& files, const Index& idx,
                  std::vector<Finding>* out) {
  for (const FunctionDecl& fn : idx.header_functions) {
    if (std::islower(static_cast<unsigned char>(fn.name[0]))) continue;
    if (idx.reached.count(fn.name) > 0) continue;
    Emit(files[fn.file], fn.line, "test-only",
         "function '" + fn.name +
             "' is reached only from tests/ (or from nowhere): no src/, "
             "bench/, examples/ or perfbench/ code names it; delete it or "
             "waive a test-observability hook with a reason",
         out);
  }
}

// -- never-set ----------------------------------------------------------------

/// A *Config field that no src/, bench/ or call-corpus program assigns is a
/// constant wearing a knob's clothes: every run uses its default, so the
/// branches it guards beyond that default are dead. Writes are matched by
/// member name (like test-only's references), so a name two structs share is
/// reached if either is written. Positional aggregate initialisation names no
/// member and is not seen; the tree uses designated initializers instead.
void PassNeverSet(std::vector<SourceFile>& files, const Index& idx,
                  std::vector<Finding>* out) {
  for (const ConfigField& cf : idx.config_fields) {
    if (idx.written.count(cf.name) > 0) continue;
    Emit(files[cf.file], cf.line, "never-set",
         "config field '" + cf.owner + "::" + cf.name +
             "' is assigned only by tests/ (or nowhere): no src/, bench/, "
             "examples/ or perfbench/ code sets it; fold it into a named "
             "constant next to its reader or waive a swept design parameter "
             "with a reason",
         out);
  }
}

}  // namespace

void RunPasses(std::vector<SourceFile>& files, const Index& idx,
               std::vector<Finding>* out) {
  PassStatsCoherence(files, idx, out);
  PassLayerDag(files, idx, out);
  PassKnobCoherence(files, idx, out);
  PassBoundedQueue(files, idx, out);
  PassTestOnly(files, idx, out);
  PassNeverSet(files, idx, out);
}

void RunMetaPasses(std::vector<SourceFile>& files, std::vector<Finding>* out) {
  for (SourceFile& f : files) {
    for (const Waiver& w : f.waivers) {
      if (!w.has_reason) {
        out->push_back(Finding{
            f.rel, w.line, "waiver-reason",
            "waiver for '" + w.rule +
                "' carries no reason; say in the comment why this line is "
                "exempt (waiver-reason cannot itself be waived)"});
      }
      if (!w.used) {
        out->push_back(Finding{
            f.rel, w.line, "stale-waiver",
            "waiver for '" + w.rule +
                "' suppresses nothing — no such finding fires on this or the "
                "next line; delete it (stale-waiver cannot itself be waived)"});
      }
    }
  }
}

}  // namespace ndp::analyze
