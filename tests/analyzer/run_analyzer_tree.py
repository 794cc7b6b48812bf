#!/usr/bin/env python3
"""Gates the real tree on the whole-program analyzer.

Five checks, registered together as the `analyzer_tree` ctest:

  1. `python3 tools/analyzer` over src/ + tests/ must exit 0 — every
     finding is either fixed or carries an ANALYZER_WAIVE with a written
     rationale. The full report is echoed on failure.
  2. The unresolved under-lock call-site count must stay at or below
     MAX_UNRESOLVED — the receiver-chain typing (accessor chains, member
     paths, auto locals, value decls) keeps it an order of magnitude
     below the pre-typing count (~73); regressions here silently shrink
     every interprocedural rule's coverage.
  3. The deterministic lock-graph dump must match the golden snapshot
     (tests/analyzer/golden/lock_graph.txt). Any refactor that changes
     the LockRank ladder or an observed held->acquired nesting changes
     this text; review the diff, then regenerate with
     `python3 tools/analyzer --dump-lock-graph`.
  4. The durable-effect dump must match its golden
     (tests/analyzer/golden/effect_graph.txt) the same way; regenerate
     with `python3 tools/analyzer --dump-effect-graph`.
  5. A cold `--cache-dir` run and a warm one must produce byte-identical
     reports, and both identical to the uncached report — the cache may
     only change speed, never output. Wall times are printed for the
     record.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
import time

# Check 2's ceiling. 10 sites remain unresolved today (overloaded names
# behind receivers no textual typing can recover); small headroom so an
# honest new overload doesn't flake the gate.
MAX_UNRESOLVED = 15

UNRESOLVED_RE = re.compile(
    r"note: (\d+) under-lock call site\(s\) left unresolved")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, help="repo root")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    analyzer = os.path.join(root, "tools", "analyzer")

    proc = subprocess.run(
        [sys.executable, analyzer, "--root", root],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print("FAIL: analyzer reported unwaived findings (exit %d):"
              % proc.returncode)
        print(proc.stdout, end="")
        print(proc.stderr, end="")
        return 1
    summary = [l for l in proc.stdout.splitlines()
               if l.startswith("diffindex_analyzer:")]
    print(summary[0] if summary else proc.stdout.strip())
    clean_report = proc.stdout

    m = UNRESOLVED_RE.search(clean_report)
    unresolved = int(m.group(1)) if m else 0
    if unresolved > MAX_UNRESOLVED:
        print("FAIL: %d under-lock call sites unresolved (ceiling %d); "
              "receiver-chain typing regressed — every interprocedural "
              "rule loses coverage at these sites" %
              (unresolved, MAX_UNRESOLVED))
        return 1
    print("ok: %d unresolved under-lock call site(s) (ceiling %d)"
          % (unresolved, MAX_UNRESOLVED))

    for flag, name in (("--dump-lock-graph", "lock_graph.txt"),
                       ("--dump-effect-graph", "effect_graph.txt")):
        golden_path = os.path.join(root, "tests", "analyzer", "golden",
                                   name)
        with open(golden_path, encoding="utf-8") as f:
            golden = f.read()
        proc = subprocess.run(
            [sys.executable, analyzer, "--root", root, flag],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print("FAIL: %s exited %d:\n%s%s"
                  % (flag, proc.returncode, proc.stdout, proc.stderr))
            return 1
        if proc.stdout != golden:
            print("FAIL: %s drifted from the golden snapshot." % flag)
            print("If the change is intentional, review the diff below and")
            print("regenerate: python3 tools/analyzer %s >"
                  " tests/analyzer/golden/%s" % (flag, name))
            sys.stdout.writelines(difflib.unified_diff(
                golden.splitlines(keepends=True),
                proc.stdout.splitlines(keepends=True),
                fromfile="golden/" + name,
                tofile=flag,
            ))
            return 1
        print("ok: %s matches golden snapshot" % name)

    with tempfile.TemporaryDirectory(prefix="analyzer_cache_") as cache:
        runs = {}
        for label in ("cold", "warm"):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, analyzer, "--root", root,
                 "--cache-dir", cache],
                capture_output=True,
                text=True,
            )
            runs[label] = (proc, time.monotonic() - t0)
            if proc.returncode != 0:
                print("FAIL: %s --cache-dir run exited %d:\n%s%s"
                      % (label, proc.returncode, proc.stdout, proc.stderr))
                return 1
        for label in ("cold", "warm"):
            if runs[label][0].stdout != clean_report:
                print("FAIL: %s cached report differs from the uncached "
                      "one — the cache changed analyzer output:" % label)
                sys.stdout.writelines(difflib.unified_diff(
                    clean_report.splitlines(keepends=True),
                    runs[label][0].stdout.splitlines(keepends=True),
                    fromfile="uncached", tofile=label + "-cache",
                ))
                return 1
        stats = [l for l in runs["warm"][0].stderr.splitlines()
                 if "cache" in l]
        print("ok: cached reports byte-identical "
              "(cold %.2fs, warm %.2fs; %s)"
              % (runs["cold"][1], runs["warm"][1],
                 stats[0].strip() if stats else "no stats line"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
