// ndp-analyze file IR: one scanned file, parsed once, shared by every rule
// and pass.
//
// A SourceFile carries the raw lines (only the include scanner and the
// include-guard rule look at them), the lex result (tokens + comments +
// sanitized code lines), and the two comment grammars the tree uses:
//
//   waivers       "// ndp-lint: <rule>-ok <reason...>" — suppresses that rule
//                 on the same line or the line below; the reason text is now
//                 mandatory (the waiver-reason meta rule fires without it),
//                 and a waiver that never suppressed anything is itself a
//                 finding (stale-waiver) — `used` tracks that.
//   annotations   "// ndp: stats-scope(a|b|c)"     a dynamic Sub() only ever
//                                                  produces these segments
//                 "// ndp: bounded-by(S::field)"   a growable ingress-path
//                                                  container is capped by
//                                                  that config field
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "lexer.h"

namespace ndp::analyze {

struct Waiver {
  size_t line = 0;  ///< 1-based line of the waiver comment
  std::string rule;
  bool has_reason = false;
  bool used = false;  ///< set when the waiver suppressed a finding
};

struct Annotation {
  size_t line = 0;   ///< 1-based line of the annotation comment
  std::string kind;  ///< stats-scope | bounded-by
  std::string arg;   ///< the text inside the parentheses
};

struct SourceFile {
  std::string rel;    ///< path relative to the scan root, '/'-separated
  std::string top;    ///< first path component: src | bench | tests
  std::string layer;  ///< for src files, second component (util, sim, ...)
  bool is_header = false;
  std::vector<std::string> raw;  ///< 0-based; finding lines are 1-based
  LexResult lex;
  std::vector<Waiver> waivers;
  std::vector<Annotation> annotations;
};

struct Finding {
  std::string rel;
  size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

bool LoadSourceFile(const std::filesystem::path& root,
                    const std::filesystem::path& path, SourceFile* out);

/// True if a waiver for `rule` sits on `line` (1-based) or the line above;
/// marks every matching waiver used so the stale-waiver pass sees it.
bool Suppressed(SourceFile& f, size_t line, const std::string& rule);

/// Appends the finding unless a waiver suppresses it.
void Emit(SourceFile& f, size_t line, const std::string& rule,
          std::string message, std::vector<Finding>* out);

/// Concatenated text of every comment on 1-based `line` ("" if none).
std::string CommentTextOnLine(const SourceFile& f, size_t line);

}  // namespace ndp::analyze
