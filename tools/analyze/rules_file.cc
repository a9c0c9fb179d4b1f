#include "rules_file.h"

#include <algorithm>
#include <regex>
#include <string>

namespace ndp::analyze {

namespace {

// -- include-guard ------------------------------------------------------------

void CheckIncludeGuard(SourceFile& f, std::vector<Finding>* out) {
  if (!f.is_header) return;
  const size_t horizon = std::min<size_t>(f.lex.code.size(), 64);
  for (size_t i = 0; i < horizon; ++i) {
    const std::string& code = f.lex.code[i];
    if (code.find("#pragma once") != std::string::npos) return;
    if (code.rfind("#ifndef", 0) == 0) return;  // classic guard
  }
  Emit(f, 1, "include-guard",
       "header has no #pragma once (or #ifndef guard) in its first 64 lines",
       out);
}

// -- wall-clock ---------------------------------------------------------------

void CheckWallClock(SourceFile& f, std::vector<Finding>* out) {
  const bool chrono_banned = f.top != "bench";  // sim/test code: none at all
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    const std::string& code = f.lex.code[i];
    if (code.find("system_clock") != std::string::npos ||
        code.find("high_resolution_clock") != std::string::npos) {
      Emit(f, i + 1, "wall-clock",
           "wall-clock time source; simulated time is sim::Tick and host "
           "timing (bench/ only) uses steady_clock",
           out);
      continue;
    }
    if (chrono_banned && (code.find("std::chrono") != std::string::npos ||
                          code.find("#include <chrono>") != std::string::npos)) {
      Emit(f, i + 1, "wall-clock",
           "std::chrono in sim/test code; simulators and tests must be pure "
           "functions of their inputs (use sim::Tick)",
           out);
    }
  }
}

// -- banned-random ------------------------------------------------------------

void CheckBannedRandom(SourceFile& f, std::vector<Finding>* out) {
  static const std::regex kBanned(
      R"((\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937\b|\brand\s*\())");
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    if (std::regex_search(f.lex.code[i], kBanned)) {
      Emit(f, i + 1, "banned-random",
           "non-reproducible randomness source; draw from the seeded "
           "ndp::Rng (util/rng.h) instead",
           out);
    }
  }
}

// -- no-alloc -----------------------------------------------------------------

void CheckNoAlloc(SourceFile& f, std::vector<Finding>* out) {
  static const std::regex kAlloc(
      R"re(\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\(|\bcalloc\s*\()re"
      R"re(|\brealloc\s*\(|(?:\.|->)(?:push_back|emplace_back|resize|reserve|insert|emplace)\s*\()re");
  bool in_region = false;
  size_t region_start = 0;
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    const std::string comment = CommentTextOnLine(f, i + 1);
    if (comment.find("ndp-lint: no-alloc-begin") != std::string::npos) {
      if (in_region) {
        Emit(f, i + 1, "no-alloc", "nested no-alloc-begin marker", out);
      }
      in_region = true;
      region_start = i;
      continue;
    }
    if (comment.find("ndp-lint: no-alloc-end") != std::string::npos) {
      if (!in_region) {
        Emit(f, i + 1, "no-alloc", "no-alloc-end marker without a begin", out);
      }
      in_region = false;
      continue;
    }
    if (in_region && std::regex_search(f.lex.code[i], kAlloc)) {
      Emit(f, i + 1, "no-alloc",
           "heap allocation inside a no-alloc region (opened at line " +
               std::to_string(region_start + 1) + ")",
           out);
    }
  }
  if (in_region) {
    Emit(f, region_start + 1, "no-alloc", "no-alloc-begin marker never closed",
         out);
  }
}

// -- stats-path ---------------------------------------------------------------

void CheckStatsPath(SourceFile& f, std::vector<Finding>* out) {
  // A registration call whose first argument is one complete string literal
  // (next token after it closes or continues the argument list). Literals
  // concatenated with '+' (dynamic names) are checked by the cross-TU stats
  // pass instead.
  static const std::regex kGrammar(R"([a-z0-9_]+(\.[a-z0-9_]+)*)");
  const auto& toks = f.lex.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& id = toks[i].text;
    const bool member = i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool reg_call =
        (member && (id == "Counter" || id == "Gauge" || id == "Histogram" ||
                    id == "Sub")) ||
        id == "RegisterCounter" || id == "RegisterGauge" ||
        id == "RegisterHistogram";
    if (!reg_call) continue;
    if (toks[i + 1].text != "(" || toks[i + 2].kind != TokKind::kString) {
      continue;
    }
    if (i + 3 < toks.size() &&
        (toks[i + 3].text == "+" || toks[i + 3].text == "+=")) {
      continue;  // dynamic name
    }
    const std::string& path = toks[i + 2].text;
    if (!std::regex_match(path, kGrammar)) {
      Emit(f, toks[i + 2].line, "stats-path",
           "stat path \"" + path +
               "\" violates the dotted-path grammar [a-z0-9_]+(.[a-z0-9_]+)*"
               " (DESIGN.md §6)",
           out);
    }
  }
}

// -- unordered-iter -----------------------------------------------------------

void CheckUnorderedIteration(SourceFile& f, std::vector<Finding>* out) {
  // Names declared in this file as std::unordered_{map,set} (members, locals).
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*(?:;|=|\{|\())");
  std::vector<std::string> unordered_names;
  for (const std::string& code : f.lex.code) {
    auto begin = std::sregex_iterator(code.begin(), code.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.push_back((*it)[1].str());
    }
  }
  if (unordered_names.empty()) return;
  // Range-for whose sequence expression ends in one of those names.
  static const std::regex kRangeFor(R"(for\s*\(.*:\s*\*?([\w.>\-]+)\s*\))");
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    const std::string& code = f.lex.code[i];
    std::smatch m;
    if (!std::regex_search(code, m, kRangeFor)) continue;
    std::string seq = m[1].str();
    const size_t cut = seq.find_last_of(".>");  // obj.member_ / ptr->member_
    if (cut != std::string::npos) seq = seq.substr(cut + 1);
    if (std::find(unordered_names.begin(), unordered_names.end(), seq) ==
        unordered_names.end()) {
      continue;
    }
    Emit(f, i + 1, "unordered-iter",
         "range-for over unordered container '" + seq +
             "': iteration order is unspecified and must not feed reported "
             "output; sort first or annotate why order cannot escape",
         out);
  }
}

// -- status -------------------------------------------------------------------

void CheckStatusIgnored(SourceFile& f, std::vector<Finding>* out) {
  // A JAFAR dispatch call at statement position (optionally behind an
  // explicit (void) cast): the returned Status vanishes, so a rejected or
  // failed dispatch is indistinguishable from a started job. The entry
  // points are Device::Start and Driver::Submit / HierarchicalGroupBy; a
  // Start() with no arguments (a traffic generator's) is not a dispatch.
  static const std::regex kIgnored(
      R"re(^\s*(?:\(void\)\s*)?(?:[\w]+(?:\.|->))?)re"
      R"re((?:Start|Submit|HierarchicalGroupBy)\s*\((?!\s*\)))re");
  // A dispatch that begins a continuation line (the previous code line ends
  // mid-expression, e.g. inside ASSERT_TRUE( or after =) is an argument or
  // an assigned value, not a discarded statement.
  static const std::regex kOpenEnding(R"re([(,=]\s*$|&&\s*$|\|\|\s*$)re");
  std::string prev;
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    const std::string& code = f.lex.code[i];
    const bool continuation = std::regex_search(prev, kOpenEnding);
    if (!continuation && std::regex_search(code, kIgnored)) {
      Emit(f, i + 1, "status",
           "Status of a JAFAR dispatch is discarded; check it (NDP_CHECK, "
           "JAFAR_RETURN_IF_ERROR, assignment) or waive a deliberate discard",
           out);
    }
    if (code.find_first_not_of(" \t") != std::string::npos) prev = code;
  }
}

// -- watchdog-arm -------------------------------------------------------------

void CheckWatchdogArm(SourceFile& f, std::vector<Finding>* out) {
  // Only library code: benches and tests pump the queue themselves and a
  // wedged job surfaces as a failed RunUntilTrue there.
  if (f.top != "src") return;
  static const std::regex kDispatch(R"re((?:\.|->)Start\s*\((?!\s*\)))re");
  bool has_watchdog = false;
  for (const std::string& code : f.lex.code) {
    if (code.find("ArmWatchdog") != std::string::npos) {
      has_watchdog = true;
      break;
    }
  }
  if (has_watchdog) return;
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    if (std::regex_search(f.lex.code[i], kDispatch)) {
      Emit(f, i + 1, "watchdog-arm",
           "device job dispatched in a file with no watchdog registration "
           "(ArmWatchdog); an injected hang would wedge this path forever — "
           "route through jafar::Driver or waive with a reason",
           out);
    }
  }
}

// -- runtime-bypass -----------------------------------------------------------

void CheckRuntimeBypass(SourceFile& f, std::vector<Finding>* out) {
  // The core/db layers sit above the multi-query runtime; dispatching to a
  // device (or its driver) from there skips the per-channel queues, so the
  // job runs outside admission control, QoS lease sizing, and work stealing.
  // core/runtime.{h,cc} IS the queue layer and is exempt by construction.
  const bool in_scope = f.rel.rfind("src/core/", 0) == 0 ||
                        f.rel.rfind("src/db/", 0) == 0;
  if (!in_scope || f.rel == "src/core/runtime.cc" ||
      f.rel == "src/core/runtime.h") {
    return;
  }
  static const std::regex kDispatch(
      R"re((?:\.|->)(?:(?:Start|Submit)\s*\((?!\s*\)))re"
      R"re(|HierarchicalGroupBy\s*\())re");
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    if (std::regex_search(f.lex.code[i], kDispatch)) {
      Emit(f, i + 1, "runtime-bypass",
           "device dispatch from core/db bypasses the NdpRuntime queues "
           "(admission, leases, stealing); submit through core/runtime.h or "
           "waive a deliberate single-query path",
           out);
    }
  }
}

// -- cross-partition-schedule -------------------------------------------------

void CheckCrossPartitionSchedule(SourceFile& f, std::vector<Finding>* out) {
  // Outside the kernel, an event scheduled straight onto a PartitionSet wheel
  // selected by index lands on another partition with no lookahead hop; the
  // legal channels are PartitionSet::Send and the DimmArray ports. The kernel
  // itself (src/sim/) delivers drained messages this way by construction;
  // benches and tests schedule at barrier time, where direct access is legal.
  if (f.top != "src" || f.rel.rfind("src/sim/", 0) == 0) return;
  static const std::regex kDirect(
      R"re(\bqueue\s*\([^()]*\)\s*(?:\.|->)\s*Schedule(?:At|After)?\s*\()re");
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    if (std::regex_search(f.lex.code[i], kDirect)) {
      Emit(f, i + 1, "cross-partition-schedule",
           "direct schedule onto a partition wheel selected by index; route "
           "through PartitionSet::Send / PostToDevice / PostToHost so the "
           "event pays the lookahead hop, or waive barrier-time setup with a "
           "reason",
           out);
    }
  }
}

// -- generation-dispatch ------------------------------------------------------

void CheckGenerationDispatch(SourceFile& f, std::vector<Finding>* out) {
  // The JAFAR shell is generation-neutral: the Device constructor, which
  // creates the v2 BankScan sequencer or not, is the ONE sanctioned place
  // that branches on DeviceGeneration. generation.{h,cc} — the enum's own
  // to-string/parse — is exempt by construction.
  if (f.rel.rfind("src/jafar/", 0) != 0 ||
      f.rel == "src/jafar/generation.h" ||
      f.rel == "src/jafar/generation.cc") {
    return;
  }
  static const std::regex kDispatch(
      R"re((?:==|!=)\s*(?:\w+::)*DeviceGeneration::|\bgeneration\s*(?:==|!=))re"
      R"re(|\bswitch\s*\([^)]*\bgen)re");
  for (size_t i = 0; i < f.lex.code.size(); ++i) {
    if (std::regex_search(f.lex.code[i], kDispatch)) {
      Emit(f, i + 1, "generation-dispatch",
           "generation branch outside the Device constructor; ask "
           "bank_scan_ (set there iff the device is v2) instead of the "
           "generation so the shell keeps one dispatch site",
           out);
    }
  }
}

}  // namespace

void RunFileRules(SourceFile& f, std::vector<Finding>* out) {
  CheckIncludeGuard(f, out);
  CheckWallClock(f, out);
  CheckBannedRandom(f, out);
  CheckNoAlloc(f, out);
  CheckStatsPath(f, out);
  CheckUnorderedIteration(f, out);
  CheckStatusIgnored(f, out);
  CheckWatchdogArm(f, out);
  CheckRuntimeBypass(f, out);
  CheckCrossPartitionSchedule(f, out);
  CheckGenerationDispatch(f, out);
}

}  // namespace ndp::analyze
