// The whole-program passes — what single-file regex fundamentally cannot do.
//
//   stats-unregistered  every dotted stats path read by string must resolve
//                       against the registered universe (exact segments,
//                       "prefix"+i dynamic scopes, histogram subleaves)
//   stats-dead          a registered leaf never named by any non-registration
//                       string literal anywhere in the corpus is dead weight
//   layer-dag           #include edges must respect util → sim →
//                       dram/accel/fault → jafar → cpu/db → core, with an
//                       explicit allowlist for sanctioned back-edges
//   knob-coherence      every env knob read in code appears exactly once in
//                       the README knob table and vice versa; NDP_* call
//                       sites may not disagree on defaults
//   bounded-queue       growable std:: containers on the serving ingress
//                       path (src/core/ingress* and the runtime headers
//                       src/core/runtime*.h behind it) must carry a
//                       "// ndp: bounded-by(<Struct>::<field>)" annotation
//                       naming a member some scanned struct declares, or a
//                       reasoned waiver for setup-time state
//   test-only           a function declared in a src/ header must be named by
//                       some file outside tests/ (src/, bench/, or the
//                       examples/ + perfbench/ call corpus) other than at its
//                       own declaration and definition; otherwise delete it
//                       or waive a test-observability hook with a reason
//                       (lower_snake_case accessors are exempt)
//   never-set           a data member of a src/ struct named *Config must be
//                       assigned by some file outside tests/ (x.f =, p->f =,
//                       a designated .f =, or any link of a chained a.f.g =
//                       write); otherwise fold it into a named constant or
//                       waive a design parameter a test sweeps with a reason
//                       (static members are not settable and are skipped)
//
// Meta rules (unwaivable, run last):
//   waiver-reason       a waiver must say why the line is exempt
//   stale-waiver        a waiver that suppressed nothing is itself a finding
#pragma once

#include <vector>

#include "index.h"
#include "source.h"

namespace ndp::analyze {

void RunPasses(std::vector<SourceFile>& files, const Index& idx,
               std::vector<Finding>* out);

/// waiver-reason + stale-waiver; call after every rule and pass has run.
void RunMetaPasses(std::vector<SourceFile>& files, std::vector<Finding>* out);

}  // namespace ndp::analyze
