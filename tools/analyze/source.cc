#include "source.h"

#include <fstream>
#include <regex>

namespace ndp::analyze {

namespace {

const std::regex kWaiver(R"(ndp-lint:\s*([a-z][a-z0-9-]*)-ok)");
const std::regex kAnnotation(
    R"(ndp:\s*(stats-scope|bounded-by)\s*\(([^)]*)\))");
const std::regex kWord(R"([A-Za-z]{2,})");

/// Parses every waiver and annotation out of one comment.
void ParseComment(const Comment& c, SourceFile* out) {
  std::string rest = c.text;  // comment with waiver tokens cut out
  std::vector<std::string> rules;
  for (auto it = std::sregex_iterator(c.text.begin(), c.text.end(), kWaiver);
       it != std::sregex_iterator(); ++it) {
    rules.push_back((*it)[1].str());
  }
  if (!rules.empty()) {
    rest = std::regex_replace(rest, kWaiver, "");
    rest = std::regex_replace(rest, kAnnotation, "");
    // A reason is any leftover prose: at least one real word beyond the
    // waiver tokens themselves.
    const bool has_reason = std::regex_search(rest, kWord);
    for (std::string& rule : rules) {
      out->waivers.push_back(Waiver{c.line, std::move(rule), has_reason});
    }
  }
  for (auto it =
           std::sregex_iterator(c.text.begin(), c.text.end(), kAnnotation);
       it != std::sregex_iterator(); ++it) {
    out->annotations.push_back(
        Annotation{c.line, (*it)[1].str(), (*it)[2].str()});
  }
}

}  // namespace

bool LoadSourceFile(const std::filesystem::path& root,
                    const std::filesystem::path& path, SourceFile* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->rel = std::filesystem::relative(path, root).generic_string();
  out->top = out->rel.substr(0, out->rel.find('/'));
  if (out->top == "src") {
    const size_t a = out->rel.find('/') + 1;
    const size_t b = out->rel.find('/', a);
    if (b != std::string::npos) out->layer = out->rel.substr(a, b - a);
  }
  out->is_header = path.extension() == ".h";
  std::string line;
  while (std::getline(in, line)) out->raw.push_back(line);
  out->lex = Lex(out->raw);
  for (const Comment& c : out->lex.comments) ParseComment(c, out);
  return true;
}

bool Suppressed(SourceFile& f, size_t line, const std::string& rule) {
  bool hit = false;
  for (Waiver& w : f.waivers) {
    if (w.rule == rule && (w.line == line || w.line + 1 == line)) {
      w.used = true;
      hit = true;
    }
  }
  return hit;
}

void Emit(SourceFile& f, size_t line, const std::string& rule,
          std::string message, std::vector<Finding>* out) {
  if (Suppressed(f, line, rule)) return;
  out->push_back(Finding{f.rel, line, rule, std::move(message)});
}

std::string CommentTextOnLine(const SourceFile& f, size_t line) {
  std::string text;
  for (const Comment& c : f.lex.comments) {
    if (c.line == line) text += c.text;
  }
  return text;
}

}  // namespace ndp::analyze
