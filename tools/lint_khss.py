#!/usr/bin/env python3
"""khss repo lint: project-specific correctness rules clang-tidy cannot express.

Rules (ids used in tools/lint_allowlist.txt):

  naked-numeric-parse
      std::stod/stoi/stol/atof/atoi/strtod outside src/data/io.cpp.  The io.cpp
      loaders wrap these with full-token + range validation and file:line
      context; everywhere else a naked call silently accepts "2.5x" prefixes
      or dies with a context-free std::out_of_range.  Parse through
      data::io or validate the token and allowlist with a justification.

  unseeded-rng
      rand()/srand()/std::random_device/std::default_random_engine, or an
      std::mt19937 constructed without a seed.  khss results must be
      reproducible from the seed recorded in logs; all randomness goes
      through util::Rng with an explicit seed.

  omp-no-schedule
      `#pragma omp parallel for` without an explicit schedule(...) clause.
      The default schedule is implementation-defined, which breaks the
      repo's bit-identical-across-thread-counts determinism contract and
      hides load-imbalance regressions.  Continuation lines (backslash)
      are folded before matching.

  double-accumulation
      A `double x = 0` accumulator followed shortly by `x +=` in src/
      outside src/la/.  Long scalar reductions belong in src/la/ where the
      blocked/pairwise kernels control rounding error and get parallelised
      consistently.  Short fixed-length loops (e.g. dim-d point distances)
      are fine - allowlist them with the justification in a comment.
      (Scope is src/ only: tests and benches accumulate reference errors
      by design.)

  kernel-type-switch
      A `case ... KernelType::` label outside src/kernel/.  Kernel-family
      dispatch lives in the registry in src/kernel/kernel.cpp; a switch over
      KernelType anywhere else silently goes stale the next time a family is
      added.  Branch on kernel::kernel_is_composite / kernel_name or extend
      the registry instead.  (Scope is src/ only: tests may enumerate
      families to pin registry behaviour.)

  omp-critical-reduction
      `#pragma omp critical` followed within 3 lines by `+=` or `.add(` in
      src/.  A critical section serializes the threads but not their
      order: partial sums folded in under it land in arrival order, so the
      floating-point result changes with the thread count and from run to
      run, breaking the bit-identical-across-thread-counts contract.
      Reduce over a fixed, shape-only partition instead (each output tile
      owned by one thread, its terms added in a fixed order).  Integer
      counters are fine — allowlist them with the justification in a
      comment.  (Scope is src/ only.)

  env-knob
      A `getenv(` call in src/.  An environment variable is a hidden
      runtime option: it changes what the library computes without
      appearing in any API, option struct, CLI flag or log line, so two
      runs of the same binary on the same input can silently differ.
      Library behaviour is configured through explicit options only; read
      the environment in a tool's main() and pass the value in.  (Scope is
      src/ only.)

Allowlist format (tools/lint_allowlist.txt): one entry per line,

    rule-id|path/relative/to/repo|substring-of-offending-line

'#' starts a comment; put the human justification in a comment above each
entry.  Entries that no longer match anything are reported as stale and
fail the run, so the allowlist cannot rot.

Exit status: 0 clean, 1 findings or stale allowlist entries, 2 usage error.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTS = (".cpp", ".hpp", ".h", ".cc")

# rule-id -> dirs it applies to (relative, prefix match)
RULE_SCOPE = {
    "naked-numeric-parse": SCAN_DIRS,
    "unseeded-rng": SCAN_DIRS,
    "omp-no-schedule": SCAN_DIRS,
    "double-accumulation": ("src",),
    "kernel-type-switch": ("src",),
    "omp-critical-reduction": ("src",),
    "env-knob": ("src",),
}

NUMERIC_PARSE = re.compile(
    r"std::sto[dilfu]\w*\s*\(|[^\w.]ato[if]\s*\(|[^\w.]strto[dlf]\w*\s*\(")
UNSEEDED_RNG = re.compile(
    r"[^\w.]s?rand\s*\(|std::random_device|std::default_random_engine"
    r"|std::mt19937(?:_64)?\s+\w+\s*;")
OMP_PARALLEL_FOR = re.compile(r"#\s*pragma\s+omp\s.*\bparallel\b.*\bfor\b")
DOUBLE_ACC_DECL = re.compile(r"\bdouble\s+(\w+)(?:\s*=\s*0(?:\.0*)?\s*[;,]|\s*=\s*0(?:\.0*)?\s*$)")
ACC_WINDOW = 30  # lines after the declaration in which `x +=` counts
KERNEL_TYPE_SWITCH = re.compile(r"\bcase\s+(?:\w+::)*KernelType::")
OMP_CRITICAL = re.compile(r"#\s*pragma\s+omp\s+critical\b")
CRITICAL_REDUCTION = re.compile(r"\+=|\.add\s*\(")
CRITICAL_WINDOW = 3  # lines after the pragma in which a reduction counts
ENV_KNOB = re.compile(r"\bgetenv\s*\(")


def strip_comments(lines):
    """Return lines with // and /* */ comment text blanked (strings kept)."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i = 0
        in_str = None
        while i < len(line):
            c = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_str:
                res.append(c)
                if c == "\\":
                    if nxt:
                        res.append(nxt)
                        i += 2
                        continue
                elif c == in_str:
                    in_str = None
                i += 1
                continue
            if c in "\"'":
                in_str = c
                res.append(c)
                i += 1
                continue
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def fold_pragma(code, start):
    """Join a pragma with its backslash-continuation lines."""
    joined = code[start].rstrip()
    i = start
    while joined.endswith("\\") and i + 1 < len(code):
        i += 1
        joined = joined[:-1] + " " + code[i].strip().rstrip()
    return joined


def scan_file(rel, raw):
    findings = []  # (rule, rel, lineno, line-text)
    code = strip_comments(raw)

    def in_scope(rule):
        return any(rel.startswith(d + os.sep) or rel == d for d in RULE_SCOPE[rule])

    for idx, line in enumerate(code):
        no = idx + 1
        text = raw[idx].rstrip("\n")
        if in_scope("naked-numeric-parse") and rel != os.path.join("src", "data", "io.cpp"):
            if NUMERIC_PARSE.search(line):
                findings.append(("naked-numeric-parse", rel, no, text))
        if in_scope("unseeded-rng") and UNSEEDED_RNG.search(line):
            findings.append(("unseeded-rng", rel, no, text))
        if in_scope("omp-no-schedule") and OMP_PARALLEL_FOR.search(line):
            folded = fold_pragma(code, idx)
            if "schedule" not in folded and "taskloop" not in folded:
                findings.append(("omp-no-schedule", rel, no, text))
        if in_scope("kernel-type-switch") and not rel.startswith(
                os.path.join("src", "kernel") + os.sep):
            if KERNEL_TYPE_SWITCH.search(line):
                findings.append(("kernel-type-switch", rel, no, text))
        if in_scope("omp-critical-reduction") and OMP_CRITICAL.search(line):
            for j in range(idx + 1, min(idx + 1 + CRITICAL_WINDOW, len(code))):
                if CRITICAL_REDUCTION.search(code[j]):
                    findings.append(("omp-critical-reduction", rel, no, text))
                    break
        if in_scope("env-knob") and ENV_KNOB.search(line):
            findings.append(("env-knob", rel, no, text))
        if in_scope("double-accumulation") and not rel.startswith(
                os.path.join("src", "la") + os.sep):
            m = DOUBLE_ACC_DECL.search(line)
            if m:
                name = m.group(1)
                plus = re.compile(r"\b" + re.escape(name) + r"\s*\+=")
                for j in range(idx + 1, min(idx + 1 + ACC_WINDOW, len(code))):
                    if plus.search(code[j]):
                        findings.append(("double-accumulation", rel, no, text))
                        break
    return findings


def load_allowlist(path):
    entries = []  # (rule, rel, substring, lineno, hits)
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|", 2)
            if len(parts) != 3:
                print(f"lint_allowlist.txt:{no}: malformed entry (want "
                      f"rule|path|substring): {line}", file=sys.stderr)
                sys.exit(2)
            rule, rel, sub = (p.strip() for p in parts)
            if rule not in RULE_SCOPE:
                print(f"lint_allowlist.txt:{no}: unknown rule '{rule}'",
                      file=sys.stderr)
                sys.exit(2)
            entries.append([rule, rel, sub, no, 0])
    return entries


def main():
    findings = []
    for d in SCAN_DIRS:
        root = os.path.join(REPO, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if not name.endswith(EXTS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, REPO)
                with open(full, encoding="utf-8", errors="replace") as f:
                    raw = f.read().splitlines()
                findings.extend(scan_file(rel, raw))

    allow = load_allowlist(os.path.join(REPO, "tools", "lint_allowlist.txt"))

    reported = []
    for rule, rel, no, text in findings:
        suppressed = False
        for entry in allow:
            if entry[0] == rule and entry[1] == rel and entry[2] in text:
                entry[4] += 1
                suppressed = True
                break
        if not suppressed:
            reported.append((rel, no, rule, text))

    status = 0
    for rel, no, rule, text in sorted(reported):
        print(f"{rel}:{no}: [{rule}] {text.strip()}")
        status = 1
    stale = [e for e in allow if e[4] == 0]
    for rule, rel, sub, no, _ in stale:
        print(f"tools/lint_allowlist.txt:{no}: stale entry (matches nothing): "
              f"{rule}|{rel}|{sub}")
        status = 1
    if status == 0:
        print(f"lint_khss: clean ({len(findings)} findings, all allowlisted: "
              f"{len(allow)} entries)")
    return status


if __name__ == "__main__":
    sys.exit(main())
