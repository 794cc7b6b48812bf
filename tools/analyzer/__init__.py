"""Diff-Index whole-program static analyzer (DESIGN.md section 15).

A self-contained, stdlib-only Python package and the repo's one static
checker. It builds a comment/string-blanking tokenizer into a symbol
table, name-resolved call graph, and held-lock dataflow, then runs
interprocedural ordering rules over every translation unit
(lock-order-global, blocking-under-lock, guarded-access,
yield-coverage, status-flow, failpoint-reachability), crash-ordering
rules over durable-effect summaries, and per-file textual rules over
src/ (failpoint/metric catalogs vs DESIGN.md, raw-mutex, naked-new,
index-ts, lsm-layering, ignore-error). One waiver syntax covers all of
them: `// ANALYZER_WAIVE(rule): rationale`.

Run as `python3 tools/analyzer`; see cli.py for flags.
"""
