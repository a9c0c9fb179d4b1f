#include "index.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

namespace ndp::analyze {

namespace {

bool IsPunct(const Tok& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsPlus(const Tok& t) { return IsPunct(t, "+"); }

template <typename Fn>
void ForEachPiece(const PathFrag& frag, Fn fn) {
  for (const auto& [piece, complete] : Pieces(frag)) fn(piece, complete);
}

/// Collects the string-literal fragments of one call argument: tokens from
/// `pos` (just past '(' or a top-level ',') up to the next top-level ',' or
/// the closing ')'. Returns the index of that delimiter. Marks consumed
/// string-token indices in `consumed`.
size_t CollectArgFrags(const std::vector<Tok>& toks, size_t pos,
                       std::vector<PathFrag>* frags,
                       std::vector<bool>* consumed) {
  int depth = 0;
  for (size_t i = pos; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") {
        if (depth == 0) return i;
        --depth;
      }
      if (t.text == "," && depth == 0) return i;
    }
    if (t.kind == TokKind::kString && depth == 0) {
      PathFrag frag;
      frag.text = t.text;
      frag.open_left = i > 0 && IsPlus(toks[i - 1]);
      frag.open_right = i + 1 < toks.size() && IsPlus(toks[i + 1]);
      frags->push_back(std::move(frag));
      if (consumed) (*consumed)[i] = true;
    }
  }
  return toks.size();
}

/// Skips past the closing delimiter of the argument that starts at `pos`,
/// then past any further arguments to the call's ')'. Returns the index just
/// after ')' (or toks.size()).
size_t SkipCall(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// True if the file carries a stats-scope annotation on `line` or the line
/// above; appends its '|'-separated alternatives to `segments`.
bool StatsScopeAnnotation(const SourceFile& f, size_t line,
                          std::set<std::string>* segments) {
  bool found = false;
  for (const Annotation& a : f.annotations) {
    if (a.kind != "stats-scope" || (a.line != line && a.line + 1 != line)) {
      continue;
    }
    found = true;
    size_t start = 0;
    while (start <= a.arg.size()) {
      size_t bar = a.arg.find('|', start);
      if (bar == std::string::npos) bar = a.arg.size();
      std::string seg = a.arg.substr(start, bar - start);
      if (!seg.empty()) segments->insert(seg);
      start = bar + 1;
    }
  }
  return found;
}

void ScanStats(std::vector<SourceFile>& files, Index* idx) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    SourceFile& f = files[fi];
    // The registry header *defines* StatsScope/Sub/Counter; its forwarding
    // declarations are not call sites of the facility.
    if (f.rel == "src/util/stats_registry.h") continue;
    const auto& toks = f.lex.tokens;
    std::vector<bool> consumed(toks.size(), false);

    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& id = toks[i].text;
      const bool member = i > 0 && (IsPunct(toks[i - 1], ".") ||
                                    IsPunct(toks[i - 1], "->"));

      const bool scope_call =
          (member && id == "Sub") || id == "StatsScope";
      const bool leaf_call =
          (member && (id == "Counter" || id == "Gauge" || id == "Histogram")) ||
          id == "RegisterCounter" || id == "RegisterGauge" ||
          id == "RegisterHistogram";
      const bool read_call =
          member && (id == "ReadValue" || id == "Value" || id == "Count" ||
                     id == "Contains" || id == "Has");
      if (!scope_call && !leaf_call && !read_call) continue;

      // Find the opening paren: directly next, or (StatsScope declarations)
      // one variable name later.
      size_t open = i + 1;
      if (open < toks.size() && id == "StatsScope" &&
          toks[open].kind == TokKind::kIdent) {
        ++open;
      }
      if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;

      if (scope_call) {
        // Every literal in the call names scope segments (StatsScope's first
        // argument is the registry pointer and contributes none).
        std::vector<PathFrag> frags;
        size_t end = open + 1;
        while (end < toks.size()) {
          end = CollectArgFrags(toks, end, &frags, &consumed);
          if (end >= toks.size() || IsPunct(toks[end], ")")) break;
          ++end;  // past the ','
        }
        if (frags.empty()) {
          if (!StatsScopeAnnotation(f, toks[i].line, &idx->scope_segments)) {
            idx->dyn_scopes.push_back(DynScopeSite{fi, toks[i].line});
          }
        }
        for (const PathFrag& frag : frags) {
          ForEachPiece(frag, [&](const std::string& piece, bool complete) {
            if (complete) {
              idx->scope_segments.insert(piece);
            } else if (frag.open_right) {
              idx->scope_prefixes.insert(piece);
            }
          });
        }
        continue;
      }

      if (leaf_call) {
        std::vector<PathFrag> frags;
        CollectArgFrags(toks, open + 1, &frags, &consumed);
        if (frags.empty()) continue;  // dynamic leaf: nothing to index
        // Interior pieces are scopes; the final piece of the final fragment
        // (when closed) is the leaf.
        for (size_t k = 0; k < frags.size(); ++k) {
          const bool last_frag = k + 1 == frags.size();
          std::vector<std::pair<std::string, bool>> pieces;
          ForEachPiece(frags[k], [&](const std::string& p, bool complete) {
            pieces.emplace_back(p, complete);
          });
          for (size_t j = 0; j < pieces.size(); ++j) {
            const bool is_leaf_pos =
                last_frag && j + 1 == pieces.size() && !frags[k].open_right;
            if (!pieces[j].second) {
              if (frags[k].open_right) idx->scope_prefixes.insert(pieces[j].first);
              continue;
            }
            if (is_leaf_pos) {
              idx->leaves.insert(pieces[j].first);
              if (id == "Histogram" || id == "RegisterHistogram") {
                idx->hist_leaves.insert(pieces[j].first);
              }
              idx->regs.push_back(RegSite{fi, toks[i].line, pieces[j].first});
            } else {
              idx->scope_segments.insert(pieces[j].first);
            }
          }
        }
        continue;
      }

      // read_call
      ReadSite site;
      site.file = fi;
      site.line = toks[i].line;
      site.fn = id;
      size_t end = CollectArgFrags(toks, open + 1, &site.frags, nullptr);
      site.probing =
          id == "ReadValue" && end < toks.size() && IsPunct(toks[end], ",");
      if (!site.frags.empty()) idx->reads.push_back(std::move(site));
      i = SkipCall(toks, open) - 1;
    }

    // Every string literal that is not a registration argument mentions the
    // dot-segments it contains.
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kString || consumed[i]) continue;
      PathFrag frag{toks[i].text, false, false};
      ForEachPiece(frag, [&](const std::string& piece, bool /*complete*/) {
        idx->mentions.insert(piece);
      });
    }
  }
}

void ScanKnobs(std::vector<SourceFile>& files, Index* idx) {
  static const std::regex kKnobName(R"(^[A-Z][A-Z0-9]*(_[A-Z0-9]+)+$)");
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi].lex.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& id = toks[i].text;
      const bool reader = id == "getenv" || id == "EnvU64" ||
                          id == "EnvDouble" || id == "OverlayEnvRate";
      if (!reader && id != "setenv") continue;
      if (!IsPunct(toks[i + 1], "(")) continue;
      if (toks[i + 2].kind != TokKind::kString) continue;
      // A definition like `uint64_t EnvU64(const char* name, ...)` has an
      // identifier, not a literal, after '(' — already excluded above.
      const std::string& name = toks[i + 2].text;
      if (!std::regex_match(name, kKnobName)) continue;
      KnobSite site;
      site.file = fi;
      site.line = toks[i + 2].line;
      site.fn = id;
      site.name = name;
      site.is_read = reader;
      // Serialize the second argument (the fallback) when present.
      if (i + 3 < toks.size() && IsPunct(toks[i + 3], ",") &&
          (id == "EnvU64" || id == "EnvDouble")) {
        int depth = 0;
        for (size_t j = i + 4; j < toks.size(); ++j) {
          const Tok& t = toks[j];
          if (t.kind == TokKind::kPunct) {
            if (t.text == "(") ++depth;
            if (t.text == ")" && depth-- == 0) break;
            if (t.text == "," && depth == 0) break;
          }
          if (!site.def.empty()) site.def += ' ';
          site.def += t.kind == TokKind::kString ? "\"" + t.text + "\"" : t.text;
        }
      }
      idx->knobs.push_back(std::move(site));
    }
  }
}

/// Records the member declared by the tokens [begin, end) of one member
/// statement: the last identifier before the first top-level '=', '[', ':',
/// '{' or ';'. Functions and constructors (a '(' outside template
/// arguments), operators, nested type definitions, aliases and access
/// specifiers declare no data member. A non-static member of a `config`
/// struct is also recorded as a ConfigField.
void RecordMember(const std::vector<Tok>& toks, size_t begin, size_t end,
                  const std::string& owner, size_t file, bool config,
                  Index* idx) {
  static const std::set<std::string> kNotAMember = {
      "struct", "class",  "enum",          "union",  "using",
      "typedef", "friend", "template",     "static_assert",
      "public",  "private", "protected"};
  if (begin >= end) return;
  if (toks[begin].kind == TokKind::kIdent &&
      kNotAMember.count(toks[begin].text) > 0) {
    return;
  }
  const Tok* name = nullptr;
  bool is_static = false;
  int angle = 0;
  for (size_t k = begin; k < end; ++k) {
    const Tok& t = toks[k];
    if (t.kind == TokKind::kIdent) {
      if (t.text == "operator") return;
      if (t.text == "static") is_static = true;
      name = &t;
      continue;
    }
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (t.text == ">>") angle -= 2;
    if (angle > 0) continue;
    if (t.text == "(") return;
    if (t.text == "=" || t.text == "[" || t.text == ":" || t.text == "{" ||
        t.text == ";") {
      break;
    }
  }
  if (name == nullptr) return;
  // A brace-initialized member is seen twice (at its '{' and its ';').
  const bool fresh = idx->fields.insert(owner + "::" + name->text).second;
  if (fresh && config && !is_static) {
    idx->config_fields.push_back(
        ConfigField{file, name->line, owner, name->text});
  }
}

/// Walks the body of `owner` whose '{' is at `open`, one member statement
/// at a time. Nested bodies (functions, brace initializers, nested types)
/// are skipped; nested types are recorded under their own name by the
/// caller's scan.
void ScanStructBody(const std::vector<Tok>& toks, size_t open,
                    const std::string& owner, size_t file, bool config,
                    Index* idx) {
  int depth = 0;
  size_t stmt = open + 1;  // first token of the current member statement
  for (size_t k = open; k < toks.size(); ++k) {
    const Tok& t = toks[k];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "{") {
      if (depth++ == 1) RecordMember(toks, stmt, k, owner, file, config, idx);
    } else if (t.text == "}") {
      if (--depth == 0) return;
      // A function body ends its statement; a brace initializer is followed
      // by the statement's ';'.
      if (depth == 1 && !(k + 1 < toks.size() && IsPunct(toks[k + 1], ";"))) {
        stmt = k + 1;
      }
    } else if (depth == 1 && t.text == ";") {
      RecordMember(toks, stmt, k, owner, file, config, idx);
      stmt = k + 1;
    } else if (depth == 1 && t.text == ":" && k == stmt + 1 &&
               toks[stmt].kind == TokKind::kIdent &&
               (toks[stmt].text == "public" || toks[stmt].text == "private" ||
                toks[stmt].text == "protected")) {
      stmt = k + 1;
    }
  }
}

void ScanStructFields(std::vector<SourceFile>& files, Index* idx) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi].lex.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          (toks[i].text != "struct" && toks[i].text != "class")) {
        continue;
      }
      if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
          toks[i - 1].text == "enum") {
        continue;
      }
      // Name: A or A::B (an out-of-line nested definition records as B).
      size_t j = i + 1;
      if (toks[j].kind != TokKind::kIdent) continue;
      std::string owner = toks[j++].text;
      while (j + 1 < toks.size() && IsPunct(toks[j], "::") &&
             toks[j + 1].kind == TokKind::kIdent) {
        owner = toks[j + 1].text;
        j += 2;
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          toks[j].text == "final") {
        ++j;
      }
      if (j < toks.size() && IsPunct(toks[j], ":")) {  // base clause
        while (j < toks.size() && !IsPunct(toks[j], "{") &&
               !IsPunct(toks[j], ";")) {
          ++j;
        }
      }
      // Forward declarations and elaborated type specifiers have no body.
      if (j < toks.size() && IsPunct(toks[j], "{")) {
        const bool config =
            files[fi].top == "src" && owner.ends_with("Config");
        ScanStructBody(toks, j, owner, fi, config, idx);
      }
    }
  }
}

/// Member writes outside tests/: an identifier reached through '.' or '->'
/// and followed by '=', '+=' or '-=' (tokens, so a right-hand side on the
/// next line still counts), plus every earlier link of the same member
/// chain. A designated initializer `.f = v` has the same shape.
void ScanWrites(const std::vector<SourceFile>& files,
                const std::vector<SourceFile>& corpus, Index* idx) {
  auto scan = [&](const SourceFile& f) {
    if (f.top == "tests") return;
    const auto& toks = f.lex.tokens;
    for (size_t i = 1; i + 1 < toks.size(); ++i) {
      const Tok& next = toks[i + 1];
      if (toks[i].kind != TokKind::kIdent ||
          !(IsPunct(next, "=") || IsPunct(next, "+=") || IsPunct(next, "-="))) {
        continue;
      }
      for (size_t k = i; k >= 1 && toks[k].kind == TokKind::kIdent &&
                         (IsPunct(toks[k - 1], ".") ||
                          IsPunct(toks[k - 1], "->"));
           k = k >= 2 ? k - 2 : 0) {
        idx->written.insert(toks[k].text);
      }
    }
  };
  for (const SourceFile& f : files) scan(f);
  for (const SourceFile& f : corpus) scan(f);
}

// -- function declarations and references (test-only) ------------------------

/// Tokens outside preprocessor directives (a '\'-continued #define included):
/// the declaration scan reads C++ statements only.
std::vector<const Tok*> StatementTokens(const SourceFile& f) {
  std::vector<bool> directive(f.raw.size(), false);
  for (size_t li = 0; li < f.raw.size(); ++li) {
    const std::string& code = f.lex.code[li];
    const size_t a = code.find_first_not_of(" \t");
    const bool continued =
        li > 0 && directive[li - 1] && f.raw[li - 1].ends_with('\\');
    directive[li] = continued || (a != std::string::npos && code[a] == '#');
  }
  std::vector<const Tok*> out;
  for (const Tok& t : f.lex.tokens) {
    if (!directive[t.line - 1]) out.push_back(&t);
  }
  return out;
}

/// Updates template-argument depth for one punctuator.
void TrackAngle(const Tok& t, int* angle) {
  if (t.kind != TokKind::kPunct) return;
  if (t.text == "<") ++*angle;
  if (t.text == ">" && *angle > 0) --*angle;
  if (t.text == ">>") *angle = std::max(0, *angle - 2);
}

/// The function name a namespace- or class-scope statement [begin, end)
/// declares, or nullptr: the identifier before the first top-level '(' when
/// no '=' precedes it. Constructors (name == owner or qualifier),
/// destructors, operators, macros, static_asserts and function-pointer
/// declarators (`void (*fn)(int)`) declare no function.
const Tok* Declarator(const std::vector<const Tok*>& toks, size_t begin,
                      size_t end, const std::string& owner) {
  static const std::set<std::string> kNotAFunction = {
      "static_assert", "void",  "bool",   "char",  "int",    "long",
      "short",         "float", "double", "signed", "unsigned", "auto"};
  int angle = 0;
  for (size_t k = begin; k < end; ++k) {
    const Tok& t = *toks[k];
    if (t.kind == TokKind::kIdent && t.text == "operator") return nullptr;
    TrackAngle(t, &angle);
    if (angle > 0 || t.kind != TokKind::kPunct) continue;
    if (t.text == "=") return nullptr;
    if (t.text != "(") continue;
    if (k == begin || toks[k - 1]->kind != TokKind::kIdent) return nullptr;
    const Tok* name = toks[k - 1];
    if (kNotAFunction.count(name->text) > 0 || name->text == owner) {
      return nullptr;
    }
    if (std::none_of(name->text.begin(), name->text.end(), [](char c) {
          return std::islower(static_cast<unsigned char>(c));
        })) {
      return nullptr;  // MACRO(...)
    }
    if (k >= 2 + begin) {
      const Tok& before = *toks[k - 2];
      if (IsPunct(before, "~")) return nullptr;
      if (IsPunct(before, "::") && k >= 3 + begin &&
          toks[k - 3]->text == name->text) {
        return nullptr;  // out-of-line constructor Foo::Foo(
      }
    }
    return name;
  }
  return nullptr;
}

/// What a '{' at namespace or class scope opens: a namespace (declarations
/// continue inside), a class body (declarations of `*owner`), or anything
/// else — function body, initializer, enum — whose contents declare nothing.
enum class Brace { kNamespace, kClass, kBody };

Brace Classify(const std::vector<const Tok*>& toks, size_t begin, size_t end,
               std::string* owner) {
  int angle = 0;
  for (size_t k = begin; k < end; ++k) {
    const Tok& t = *toks[k];
    TrackAngle(t, &angle);
    if (angle > 0) continue;
    if (IsPunct(t, "(") || IsPunct(t, "=")) return Brace::kBody;
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "namespace") return Brace::kNamespace;
    if (t.text == "enum") return Brace::kBody;
    if (t.text == "struct" || t.text == "class" || t.text == "union") {
      if (k + 1 < end && toks[k + 1]->kind == TokKind::kIdent) {
        *owner = toks[k + 1]->text;
      }
      return Brace::kClass;
    }
  }
  return Brace::kBody;
}

/// The declarator tokens of every function declared or defined at namespace
/// or class scope of `f`. Function bodies and initializers are skipped.
std::vector<const Tok*> DeclaredFunctions(const SourceFile& f) {
  const std::vector<const Tok*> toks = StatementTokens(f);
  struct Scope {
    bool declares;
    std::string owner;
  };
  std::vector<Scope> scopes = {{true, ""}};
  std::vector<const Tok*> out;
  size_t stmt = 0;
  auto declare = [&](size_t end) {
    if (const Tok* name = Declarator(toks, stmt, end, scopes.back().owner)) {
      out.push_back(name);
    }
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = *toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (!scopes.back().declares) {
      if (t.text == "{") scopes.push_back({false, ""});
      if (t.text == "}" && scopes.size() > 1) {
        scopes.pop_back();
        stmt = i + 1;
      }
      continue;
    }
    if (t.text == ";") {
      declare(i);
      stmt = i + 1;
    } else if (t.text == "{") {
      std::string owner = scopes.back().owner;
      const Brace kind = Classify(toks, stmt, i, &owner);
      if (kind == Brace::kBody) declare(i);
      scopes.push_back({kind != Brace::kBody, owner});
      stmt = i + 1;
    } else if (t.text == "}") {
      if (scopes.size() > 1) scopes.pop_back();
      stmt = i + 1;
    } else if (t.text == ":" && i == stmt + 1 &&
               (toks[stmt]->text == "public" ||
                toks[stmt]->text == "private" ||
                toks[stmt]->text == "protected")) {
      stmt = i + 1;
    }
  }
  return out;
}

void ScanFunctions(const std::vector<SourceFile>& files,
                   const std::vector<SourceFile>& corpus, Index* idx) {
  std::set<const Tok*> declarators;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    if (f.top != "src") continue;
    for (const Tok* name : DeclaredFunctions(f)) {
      declarators.insert(name);
      if (f.is_header) {
        idx->header_functions.push_back(
            FunctionDecl{fi, name->line, name->text});
      }
    }
  }
  auto reach = [&](const SourceFile& f) {
    if (f.top == "tests") return;
    for (const Tok& t : f.lex.tokens) {
      if (t.kind == TokKind::kIdent && declarators.count(&t) == 0) {
        idx->reached.insert(t.text);
      }
    }
  };
  for (const SourceFile& f : files) reach(f);
  for (const SourceFile& f : corpus) reach(f);
}

void ScanIncludes(std::vector<SourceFile>& files, Index* idx) {
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (size_t fi = 0; fi < files.size(); ++fi) {
    if (files[fi].top != "src") continue;
    for (size_t li = 0; li < files[fi].raw.size(); ++li) {
      std::smatch m;
      if (std::regex_search(files[fi].raw[li], m, kInclude)) {
        idx->includes.push_back(IncludeEdge{fi, li + 1, m[1].str()});
      }
    }
  }
}

std::string Trim(const std::string& s) {
  const size_t a = s.find_first_not_of(" \t`");
  if (a == std::string::npos) return "";
  const size_t b = s.find_last_not_of(" \t`");
  return s.substr(a, b - a + 1);
}

void ParseReadme(const std::filesystem::path& path, Index* idx) {
  std::ifstream in(path);
  if (!in) return;
  idx->have_readme = true;
  idx->readme_rel = "README.md";
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  bool in_table = false;
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& l = lines[li];
    if (!in_table) {
      if (l.find("| Knob") != std::string::npos &&
          l.find("Default") != std::string::npos) {
        in_table = true;
      }
      continue;
    }
    if (l.empty() || l[0] != '|') {
      in_table = false;
      continue;
    }
    // Split the row into cells.
    std::vector<std::string> cells;
    size_t start = 1;
    while (start < l.size()) {
      size_t bar = l.find('|', start);
      if (bar == std::string::npos) break;
      cells.push_back(l.substr(start, bar - start));
      start = bar + 1;
    }
    if (cells.size() < 3) continue;
    const std::string kind = Trim(cells[1]);
    if (kind != "env" && kind != "CMake") continue;  // separator / prose rows
    const std::string def = Trim(cells[2]);
    // The knob cell may list several related knobs, comma-separated.
    std::string cell = cells[0];
    size_t pos = 0;
    while (pos <= cell.size()) {
      size_t comma = cell.find(',', pos);
      if (comma == std::string::npos) comma = cell.size();
      const std::string name = Trim(cell.substr(pos, comma - pos));
      if (!name.empty()) {
        idx->readme.push_back(ReadmeKnob{name, kind, def, li + 1});
      }
      pos = comma + 1;
    }
  }
}

void ParseCmake(const std::filesystem::path& path, Index* idx) {
  std::ifstream in(path);
  if (!in) return;
  idx->have_cmake = true;
  static const std::regex kOption(
      R"(^\s*option\s*\(\s*([A-Za-z_][A-Za-z0-9_]*))");
  static const std::regex kCacheSet(
      R"(^\s*set\s*\(\s*([A-Z][A-Z0-9_]*)\s)");
  std::string line;
  size_t li = 0;
  std::set<std::string> seen;
  bool pending_cache = false;
  std::string pending_name;
  size_t pending_line = 0;
  while (std::getline(in, line)) {
    ++li;
    if (pending_cache) {
      // A cache set() may put CACHE on a continuation line.
      if (line.find("CACHE") != std::string::npos &&
          seen.insert(pending_name).second) {
        idx->cmake_opts.emplace_back(pending_name, pending_line);
      }
      pending_cache = false;
    }
    std::smatch m;
    if (std::regex_search(line, m, kOption)) {
      if (seen.insert(m[1].str()).second) {
        idx->cmake_opts.emplace_back(m[1].str(), li);
      }
      continue;
    }
    if (std::regex_search(line, m, kCacheSet)) {
      if (line.find("CACHE") != std::string::npos) {
        if (seen.insert(m[1].str()).second) {
          idx->cmake_opts.emplace_back(m[1].str(), li);
        }
      } else {
        pending_cache = true;
        pending_name = m[1].str();
        pending_line = li;
      }
    }
  }
}

}  // namespace

std::vector<std::pair<std::string, bool>> Pieces(const PathFrag& frag) {
  std::vector<std::string> raw;
  size_t start = 0;
  while (start <= frag.text.size()) {
    size_t dot = frag.text.find('.', start);
    if (dot == std::string::npos) dot = frag.text.size();
    raw.push_back(frag.text.substr(start, dot - start));
    start = dot + 1;
  }
  std::vector<std::pair<std::string, bool>> out;
  for (size_t j = 0; j < raw.size(); ++j) {
    if (raw[j].empty()) continue;
    const bool complete = !(j == 0 && frag.open_left) &&
                          !(j + 1 == raw.size() && frag.open_right);
    out.emplace_back(raw[j], complete);
  }
  return out;
}

Index BuildIndex(std::vector<SourceFile>& files,
                 const std::vector<SourceFile>& corpus,
                 const std::filesystem::path& root) {
  Index idx;
  ScanStats(files, &idx);
  ScanKnobs(files, &idx);
  ScanStructFields(files, &idx);
  ScanWrites(files, corpus, &idx);
  ScanFunctions(files, corpus, &idx);
  ScanIncludes(files, &idx);
  ParseReadme(root / "README.md", &idx);
  ParseCmake(root / "CMakeLists.txt", &idx);
  std::ifstream check(root / "tools" / "check.sh");
  if (check) {
    std::stringstream ss;
    ss << check.rdbuf();
    idx.check_sh = ss.str();
  }
  return idx;
}

}  // namespace ndp::analyze
