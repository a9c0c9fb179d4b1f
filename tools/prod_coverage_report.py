#!/usr/bin/env python3
"""Merges the gcov counters of coverage build trees into a src/ report.

    python3 tools/prod_coverage_report.py ROOT WAIVERS BUILD_DIR...

Runs gcov on every .gcno under each BUILD_DIR (a notes file without a
.gcda counts as an object production never ran) and sums the counters of
every src/ line and function over all of them. An inline function in a
header keeps its counters in whichever translation unit the linker kept,
so every object file has to be read, not just the src/ libraries.

Prints the totals, then the src/ lines production does not run, per
function: functions never entered first, then partly run ones. Exits 1 when
a never-entered function has no waiver in WAIVERS, or when a waiver matches
no never-entered function. tools/prod_coverage.sh builds the trees and runs
production before calling this.

Waiver lines are `path:function  reason` or `path  reason` (the whole file).
A function matches when its qualified name equals `function` or ends with
`::function`; overloads share a name, and a lambda matches the waiver of
the function it is written in. Blank lines and `#` comments are skipped.
"""
import collections
import json
import os
import re
import subprocess
import sys

# Operator names hold characters the name simplifier strips; they are
# swapped for placeholders first.
OPERATOR = re.compile(
    r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->|\+\+|--|==|!=|&&|\|\||"
    r"[-+*/%^&|~!=<>,]=?)")


def strip_groups(text, open_ch, close_ch):
    out, depth = [], 0
    for ch in text:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def simple_name(demangled):
    """`R ndp::a::F<int>(int) const` -> `ndp::a::F`; lambdas keep their
    `{lambda#N}` step so each one reads as its own function."""
    ops = []

    def hold(m):
        ops.append(m.group(0))
        return "@%d@" % (len(ops) - 1)

    name = demangled.replace("(anonymous namespace)", "{anon}")
    name = OPERATOR.sub(hold, name)
    name = strip_groups(strip_groups(name, "(", ")"), "<", ">")
    name = re.sub(r"\[abi:\w+\]", "", name)
    name = re.sub(r"( const| volatile| &&| &| noexcept)+(?=::|$)", "", name)
    name = name.rsplit(" ", 1)[-1]
    return re.sub(r"@(\d+)@", lambda m: ops[int(m.group(1))], name)


def gcov_json(build_dir):
    """Yields one gcov JSON document per object file under `build_dir`."""
    by_dir = collections.defaultdict(list)
    for dirpath, _, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcno"):
                by_dir[dirpath].append(f)
    for dirpath, notes in sorted(by_dir.items()):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names"] +
            sorted(notes),
            cwd=dirpath, check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def read_waivers(path):
    waivers = []
    with open(path) as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) < 2:
                sys.exit("%s:%d: waiver without a reason" % (path, n))
            target = parts[0]
            file_path, _, func = target.partition(":")
            waivers.append({"line": n, "target": target, "path": file_path,
                            "func": func, "reason": parts[1], "used": False})
    return waivers


def waiver_for(waivers, path, name):
    base = name.split("::{lambda")[0]  # a lambda shares its function's waiver
    for w in waivers:
        if w["path"] != path:
            continue
        if not w["func"] or base == w["func"] or base.endswith("::" + w["func"]):
            return w
    return None


def ranges(lines):
    """[3, 4, 5, 9] -> '3-5, 9'."""
    out, start, prev = [], None, None
    for n in sorted(lines):
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append(str(start) if start == prev else "%d-%d" % (start, prev))
            start = prev = n
    if start is not None:
        out.append(str(start) if start == prev else "%d-%d" % (start, prev))
    return ", ".join(out)


def main():
    if len(sys.argv) < 4:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        sys.exit(2)
    root = os.path.realpath(sys.argv[1])
    waivers = read_waivers(sys.argv[2])
    src = os.path.join(root, "src") + os.sep

    line_count = collections.defaultdict(int)  # (path, line) -> count
    funcs = {}  # (path, start line, start column) -> entry
    mangled = {}  # (path, mangled name) -> key in funcs
    for build_dir in sys.argv[3:]:
        for doc in gcov_json(build_dir):
            cwd = doc.get("current_working_directory", "")
            for f in doc["files"]:
                full = os.path.realpath(os.path.join(cwd, f["file"]))
                if not full.startswith(src):
                    continue
                path = os.path.relpath(full, root)
                for fn in f["functions"]:
                    key = (path, fn["start_line"], fn["start_column"])
                    entry = funcs.setdefault(key, {
                        "name": simple_name(fn["demangled_name"]),
                        "count": 0, "lines": set()})
                    entry["count"] += fn["execution_count"]
                    mangled[(path, fn["name"])] = key
                for ln in f["lines"]:
                    line_count[(path, ln["line_number"])] += ln["count"]
                    owner = mangled.get((path, ln.get("function_name")))
                    if owner is not None:
                        funcs[owner]["lines"].add(ln["line_number"])

    unrun = {k for k, c in line_count.items() if c == 0}
    never = sorted((k for k, e in funcs.items() if e["count"] == 0))
    partly = sorted(k for k, e in funcs.items() if e["count"] > 0 and
                    any((k[0], n) in unrun for n in e["lines"]))
    never_lines = sum(len(funcs[k]["lines"]) for k in never)
    print("src/ executable lines: %d, production runs %d, never runs %d "
          "(%.1f%%)" % (len(line_count), len(line_count) - len(unrun),
                        len(unrun), 100.0 * len(unrun) / max(1, len(line_count))))
    print("src/ functions: %d, never entered: %d (%d lines)" %
          (len(funcs), len(never), never_lines))

    unwaived = 0
    print("\n== functions production never enters ==")
    for key in never:
        e = funcs[key]
        w = waiver_for(waivers, key[0], e["name"])
        if w is not None:
            w["used"] = True
            tag = "waived: " + w["reason"]
        else:
            unwaived += 1
            tag = "NOT WAIVED"
        print("  %s:%d %s  %d lines  [%s]" %
              (key[0], key[1], e["name"], len(e["lines"]), tag))

    print("\n== unrun lines of functions production enters ==")
    for key in partly:
        e = funcs[key]
        lines = [n for n in e["lines"] if (key[0], n) in unrun]
        print("  %s:%d %s  %d/%d lines: %s" %
              (key[0], key[1], e["name"], len(lines), len(e["lines"]),
               ranges(lines)))

    stale = [w for w in waivers if not w["used"]]
    for w in stale:
        print("%s:%d: stale waiver '%s' matches no never-entered function" %
              (sys.argv[2], w["line"], w["target"]))
    print("\nunwaived never-entered functions: %d, stale waivers: %d" %
          (unwaived, len(stale)))
    sys.exit(1 if unwaived or stale else 0)


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError, subprocess.CalledProcessError) as err:
        print("prod_coverage_report: %s" % err, file=sys.stderr)
        sys.exit(2)
