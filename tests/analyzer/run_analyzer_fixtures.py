#!/usr/bin/env python3
"""Proves every tools/analyzer rule still fires — and every waiver
still suppresses.

The fixture corpus under tests/analyzer/fixtures/ is a miniature repo
(its own src/, tests/, rank ladder, and DESIGN.md catalogs). For each
rule it holds one seeded violation (bad_*.cc) and one waived twin
(waived_*.cc); the analyzer is run ONCE over the whole corpus with
--root pointed at it, so the whole-program rules (yield-coverage,
failpoint-reachability, catalog-sync) see the same src/-vs-tests/ split
they see in the real tree. Two rules have no waived twin: catalog-sync
reports in DESIGN.md, where no waiver can sit, and ignore-error is
satisfied by any adjacent comment, a waiver included. Registered as the
`analyzer_fixtures` ctest, and as `lint_fixtures` for the textual rules'
historical name.
"""

import argparse
import os
import re
import subprocess
import sys

# fixture file (relative to the corpus root) -> the rules it must trip.
# Waived twins and clean.cc must trip nothing; their suppressed findings
# are counted through the report's "waived" tally instead.
EXPECTATIONS = {
    os.path.join("src", "bad_lock_order.cc"): {"lock-order-global"},
    # The same inversion reached through a class template's receivers.
    os.path.join("src", "bad_lock_order_template.cc"): {"lock-order-global"},
    os.path.join("src", "bad_blocking.cc"): {"blocking-under-lock"},
    os.path.join("src", "bad_guarded_access.cc"): {"guarded-access"},
    os.path.join("src", "bad_yield_coverage.cc"): {"yield-coverage"},
    os.path.join("src", "bad_status_flow.cc"): {"status-flow"},
    os.path.join("src", "bad_failpoint.cc"): {"failpoint-reachability"},
    # A rationale-less waiver is itself reported AND suppresses nothing,
    # so the underlying status-flow finding must surface alongside it.
    os.path.join("src", "bad_waiver_rationale.cc"):
        {"waiver-rationale", "status-flow"},
    os.path.join("src", "bad_ack_order.cc"): {"ack-after-durable"},
    os.path.join("src", "bad_apply_order.cc"): {"log-before-apply"},
    os.path.join("src", "bad_rename_sync.cc"): {"rename-after-sync"},
    os.path.join("src", "bad_checkpoint_order.cc"): {"checkpoint-after-data"},
    os.path.join("src", "bad_crash_window.cc"): {"crash-window-failpoint"},
    # Textual rules (textual.py). DESIGN.md carries three stale rows.
    "DESIGN.md": {"catalog-sync"},
    os.path.join("src", "bad_failpoint_names.cc"): {"failpoint-names"},
    os.path.join("src", "bad_metric.cc"): {"metric-names"},
    os.path.join("src", "bad_span_stage.cc"): {"metric-names"},
    os.path.join("src", "bad_yield_tags.cc"): {"yield-tags"},
    os.path.join("src", "bad_raw_mutex.cc"): {"raw-mutex"},
    os.path.join("src", "bad_naked_new.cc"): {"naked-new"},
    os.path.join("src", "bad_index_ts_put.cc"): {"index-ts"},
    os.path.join("src", "bad_index_ts_delete.cc"): {"index-ts"},
    os.path.join("src", "lsm", "bad_layering.cc"): {"lsm-layering"},
    os.path.join("src", "bad_ignore_error.cc"): {"ignore-error"},
    os.path.join("src", "waived_lock_order.cc"): set(),
    os.path.join("src", "waived_blocking.cc"): set(),
    os.path.join("src", "waived_guarded_access.cc"): set(),
    os.path.join("src", "waived_yield_coverage.cc"): set(),
    os.path.join("src", "waived_status_flow.cc"): set(),
    os.path.join("src", "waived_failpoint.cc"): set(),
    os.path.join("src", "waived_ack_order.cc"): set(),
    os.path.join("src", "waived_apply_order.cc"): set(),
    os.path.join("src", "waived_rename_sync.cc"): set(),
    os.path.join("src", "waived_checkpoint_order.cc"): set(),
    os.path.join("src", "waived_crash_window.cc"): set(),
    os.path.join("src", "waived_failpoint_names.cc"): set(),
    os.path.join("src", "waived_metric.cc"): set(),
    os.path.join("src", "waived_yield_tags.cc"): set(),
    os.path.join("src", "waived_raw_mutex.cc"): set(),
    os.path.join("src", "waived_naked_new.cc"): set(),
    os.path.join("src", "waived_index_ts.cc"): set(),
    os.path.join("src", "lsm", "waived_layering.cc"): set(),
    os.path.join("src", "clean.cc"): set(),
    os.path.join("src", "clean_textual.cc"): set(),
    os.path.join("src", "util", "lock_order.h"): set(),
    os.path.join("tests", "armed_fixture_test.cc"): set(),
}

# One suppressed finding per waived_*.cc fixture (18), plus the inline
# waived `new` in bad_naked_new.cc and in clean_textual.cc.
EXPECTED_WAIVED = 20

FINDING_RE = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")
SUMMARY_RE = re.compile(
    r"^diffindex_analyzer: (\d+) finding\(s\), (\d+) waived")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, help="repo root")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    corpus = os.path.join(root, "tests", "analyzer", "fixtures")
    analyzer = os.path.join(root, "tools", "analyzer")

    paths = []
    for dirpath, _, filenames in os.walk(corpus):
        for name in sorted(filenames):
            if name.endswith((".cc", ".h")):
                paths.append(os.path.join(dirpath, name))

    proc = subprocess.run(
        [sys.executable, analyzer, "--root", corpus] + paths,
        capture_output=True,
        text=True,
    )

    failures = []
    if proc.returncode != 1:
        failures.append(
            "expected exit 1 (seeded violations present), got %d:\n%s%s"
            % (proc.returncode, proc.stdout, proc.stderr))

    by_file = {}  # corpus-relative path -> set of rules reported
    waived = None
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            rel = os.path.normpath(m.group(1))
            by_file.setdefault(rel, set()).add(m.group(3))
        m = SUMMARY_RE.match(line)
        if m:
            waived = int(m.group(2))

    for rel, expected in sorted(EXPECTATIONS.items()):
        if not os.path.exists(os.path.join(corpus, rel)):
            failures.append("%s: fixture missing" % rel)
            continue
        got = by_file.pop(rel, set())
        if got != expected:
            failures.append(
                "%s: expected rules %s, got %s\n%s"
                % (rel, sorted(expected) or "none", sorted(got) or "none",
                   proc.stdout))
    for rel, got in sorted(by_file.items()):
        failures.append("%s: unexpected findings %s (no expectation entry)"
                        % (rel, sorted(got)))

    if waived is None:
        failures.append("no summary line in analyzer output:\n%s"
                        % proc.stdout)
    elif waived != EXPECTED_WAIVED:
        failures.append(
            "expected %d waived finding(s) (see EXPECTED_WAIVED), got %d:"
            "\n%s" % (EXPECTED_WAIVED, waived, proc.stdout))

    # A fixture on disk without an expectation entry would rot silently.
    for p in paths:
        rel = os.path.relpath(p, corpus)
        if rel not in EXPECTATIONS:
            failures.append("%s: fixture has no expectation entry" % rel)

    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1
    print("ok: %d fixtures checked, %d waived findings suppressed"
          % (len(EXPECTATIONS), waived))
    return 0


if __name__ == "__main__":
    sys.exit(main())
