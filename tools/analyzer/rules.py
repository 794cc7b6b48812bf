"""The analyzer's interprocedural rules (DESIGN.md section 15).

  lock-order-global       no acquisition path, through any call chain,
                          may take a ranked lock while holding one of
                          equal or higher rank (the static twin of the
                          runtime validator in util/lock_order.h; the
                          same-rank shared+shared flush-gate edge is
                          permitted, mirroring the validator's waiver).
  blocking-under-lock     the blocking-operation catalog (CondVar waits,
                          thread joins, fsync, fabric RPC — and anything
                          that reaches one, e.g. drain/flush barriers)
                          must be unreachable while a ranked lock is
                          held, unless waived where the design argues
                          progress (makes the PR 7 failover-deadlock
                          class a compile-time error).
  guarded-access          a GUARDED_BY field may only be written while
                          its guard is held (statically: locally, via a
                          REQUIRES contract, or via a caller on every
                          propagated chain) — the PR 5 ts-inversion
                          shape, where the guarded write ran before the
                          lock, is this rule's seed fixture.
  yield-coverage          in model-checked modules (files carrying
                          CHECK_YIELD seams) every function that writes
                          a GUARDED_BY field must contain a CHECK_YIELD
                          or call a function that does, so new code
                          cannot escape the model checker's schedules.
  status-flow             interprocedural [[nodiscard]]: a Status
                          captured into a local that no later statement
                          reads, or a Status-returning call used as a
                          bare statement inside a void wrapper, is a
                          dropped error the compiler cannot see.
  failpoint-reachability  every failpoint name consulted in src/ must be
                          armed (by literal name) somewhere in tests/ —
                          an unreachable failpoint is dead chaos
                          coverage.

Crash-ordering rules (DESIGN.md section 15) run over the durable-effect
summaries from effects.py — each function's text-linear effect sequence
with callee summaries inlined at call sites:

  log-before-apply        no memtable apply may be reachable before the
                          covering WAL append on a path that logs — a
                          crash in between loses an unlogged edit.
  ack-after-durable       on a handler path that appends to the WAL, the
                          success status may not be returned before an
                          fsync covering the last append (the group-
                          commit leader protocol is the waived case).
  rename-after-sync       a durable file built in a tmp path must be
                          fsynced before the rename publishes it, or a
                          crash can publish a torn file (the PR 7
                          checkpoint discipline, enforced everywhere).
  checkpoint-after-data   the recovery checkpoint frame may only be
                          written after the manifest commit that makes
                          the flushed SSTables durable — a reordering
                          widens replay onto data that may not exist.
  crash-window-failpoint  every intentional ack-before-durable window
                          (a dead-letter record) must have a named
                          failpoint in the same innermost scope before
                          it, so the chaos harness can cut the window.

The per-file textual rules (failpoint-names, metric-names, yield-tags,
catalog-sync, raw-mutex, naked-new, index-ts, lsm-layering, ignore-error)
live in textual.py; RuleEngine dispatches them over src/ and emits their
findings through the same waiver lookup.
"""

import re
from collections import namedtuple

import dataflow
import effects as fx
import textual
from dataflow import (ACQUIRE, BLOCKING, GUARDED_WRITE, STATUS_DROP,
                      FAILPOINT, EFFECT)
from source import line_of

Finding = namedtuple(
    "Finding",
    ["rule", "rel", "line", "message", "chain", "waiver"])

DURABILITY_RULES = (
    "log-before-apply",
    "ack-after-durable",
    "rename-after-sync",
    "checkpoint-after-data",
    "crash-window-failpoint",
)

ALL_RULES = (
    "lock-order-global",
    "blocking-under-lock",
    "guarded-access",
    "yield-coverage",
    "status-flow",
    "failpoint-reachability",
) + DURABILITY_RULES + textual.RULES

# The model checker's scheduler and the annotated-primitive layer block
# by design, and both are built from raw std primitives (the annotated
# wrappers call back into the scheduler, so it cannot use them); the
# lock-order unit test violates ordering on purpose but carries inline
# waivers instead of a path exclusion, so its intent is written next to
# the code.
RAW_SYNC_HOMES = ("src/check/scheduler.h", "src/check/scheduler.cc")


def _excluded(rel, rule):
    rel = rel.replace("\\", "/")
    if rel.endswith("util/mutex.h"):
        return True
    if rule == "raw-mutex" and rel in RAW_SYNC_HOMES:
        return True
    if rel.startswith("src/check/") and rule in (
            "blocking-under-lock", "lock-order-global", "guarded-access",
            "yield-coverage"):
        return True
    if rel.startswith("tests/") and rule == "yield-coverage":
        return True
    return False


def _chain_text(chain, fn):
    steps = [("%s (%s:%d)" % (q, rel, line)) for q, rel, line in chain]
    steps.append(fn.qualname)
    return " -> ".join(steps)


class RuleEngine:
    def __init__(self, program, contexts, notes, catalogs):
        self.program = program
        self.contexts = contexts
        self.notes = notes
        self.catalogs = catalogs  # textual.Catalogs; None if unselected
        self.findings = []

    def _waiver_at(self, rule, fn, line, chain):
        """A waiver suppresses a finding at the reported line or at any
        call site on its chain (so a by-design edge is waived once,
        where the decision lives)."""
        w = fn.sf.waiver_for(rule, line)
        if w is not None:
            return w
        by_rel = {sf.rel: sf for sf in self.program.files}
        for _, rel, call_line in chain:
            sf = by_rel.get(rel)
            if sf is not None:
                w = sf.waiver_for(rule, call_line)
                if w is not None:
                    return w
        return None

    def _emit(self, rule, fn, line, message, chain=()):
        waiver = self._waiver_at(rule, fn, line, chain)
        self.findings.append(Finding(rule, fn.sf.rel, line, message,
                                     tuple(chain), waiver))

    # -- per-(function, context) checks -----------------------------------

    def run(self, rules):
        rules = set(rules)
        seen = set()
        for fn, ctxs in self.contexts.items():
            for ctx in ctxs:
                self._check_context(fn, ctx, rules, seen)
        if "yield-coverage" in rules:
            self._check_yield_coverage()
        if "failpoint-reachability" in rules:
            self._check_failpoint_reachability()
        if "status-flow" in rules:
            self._check_status_wrappers()
        ordering = rules & set(DURABILITY_RULES) - {"crash-window-failpoint"}
        if ordering:
            self._check_effect_orderings(ordering)
        if "crash-window-failpoint" in rules:
            self._check_crash_windows()
        self._check_textual(rules)
        self._check_waiver_rationales()
        return self.findings

    def _check_context(self, fn, ctx, rules, seen):
        inherited = ctx.held
        for ev in fn.events:
            if ev.kind == ACQUIRE and "lock-order-global" in rules \
                    and not _excluded(fn.sf.rel, "lock-order-global"):
                lock = ev.data["lock"]
                if lock.rank <= 0:
                    continue
                full = set(ev.held) | inherited
                for held in full:
                    if held.rank <= 0:
                        continue
                    bad = held.rank > lock.rank or (
                        held.rank == lock.rank and
                        not (held.shared and lock.shared))
                    if not bad:
                        continue
                    key = ("lock-order-global", fn.sf.rel, ev.line,
                           held.name, lock.name)
                    if key in seen:
                        continue
                    seen.add(key)
                    msg = ("acquires %s%s (rank %d) while holding %s%s "
                           "(rank %d); the declared ladder requires "
                           "strictly increasing ranks" %
                           (lock.name, " [shared]" if lock.shared else "",
                            lock.rank, held.name,
                            " [shared]" if held.shared else "", held.rank))
                    self._emit("lock-order-global", fn, ev.line, msg,
                               self._chain_for(ctx, fn, held))
            elif ev.kind == BLOCKING and "blocking-under-lock" in rules \
                    and not _excluded(fn.sf.rel, "blocking-under-lock"):
                full = set(ev.held) | inherited
                ranked = sorted((h for h in full if h.rank > 0),
                                key=lambda h: h.rank)
                if not ranked:
                    continue
                names = ", ".join("%s (rank %d)" % (h.name, h.rank)
                                  for h in ranked)
                key = ("blocking-under-lock", fn.sf.rel, ev.line,
                       tuple(h.name for h in ranked))
                if key in seen:
                    continue
                seen.add(key)
                msg = ("%s [%s] is reachable while holding ranked lock(s) "
                       "%s; a blocked holder stalls or deadlocks every "
                       "waiter of those locks" %
                       (ev.data["detail"], ev.data["op"], names))
                self._emit("blocking-under-lock", fn, ev.line, msg,
                           self._chain_for(ctx, fn, ranked[0]))
            elif ev.kind == GUARDED_WRITE and "guarded-access" in rules \
                    and not _excluded(fn.sf.rel, "guarded-access") \
                    and not inherited:
                # Checked in the base context only: the guard contract is
                # the function's own (REQUIRES or a local acquisition),
                # not something a lucky caller provides.
                guard = ev.data["guard"]
                if any(h.name == guard for h in ev.held):
                    continue
                key = ("guarded-access", fn.sf.rel, ev.line,
                       ev.data["field"])
                if key in seen:
                    continue
                seen.add(key)
                msg = ("writes '%s_' (GUARDED_BY %s) but %s is not held "
                       "here: not acquired in scope and not demanded via "
                       "REQUIRES — the PR 5 ts-inversion shape" %
                       (ev.data["field"].rstrip("_"), guard, guard))
                self._emit("guarded-access", fn, ev.line, msg)
            elif ev.kind == STATUS_DROP and "status-flow" in rules \
                    and not inherited:
                key = ("status-flow", fn.sf.rel, ev.line, ev.data["var"])
                if key in seen:
                    continue
                seen.add(key)
                msg = ("Status '%s' is assigned but never examined on any "
                       "later statement of %s; the error it may carry is "
                       "silently dropped" % (ev.data["var"], fn.qualname))
                self._emit("status-flow", fn, ev.line, msg)

    def _chain_for(self, ctx, fn, held):
        """The recorded caller chain, when the offending lock came from a
        caller; empty for purely local violations."""
        if any(h == held for h in ctx.held):
            return ctx.chain
        return ctx.chain if ctx.chain else ()

    # -- whole-program checks ---------------------------------------------

    def _check_yield_coverage(self):
        program = self.program
        yield_files = {fn.sf.rel for fn in program.functions if fn.has_yield
                       and fn.sf.rel.replace("\\", "/").startswith("src/")}
        for fn in program.functions:
            if fn.sf.rel not in yield_files \
                    or _excluded(fn.sf.rel, "yield-coverage"):
                continue
            writes = [ev for ev in fn.events if ev.kind == GUARDED_WRITE]
            if not writes or fn.has_yield:
                continue
            # Covered by a direct callee's seam?
            covered = False
            for callee in fn.direct_callees:
                for cand in program.defs_by_name.get(callee, ()):
                    if cand.has_yield:
                        covered = True
                        break
                if covered:
                    break
            if covered:
                continue
            ev = writes[0]
            msg = ("%s mutates guarded state ('%s_') in a model-checked "
                   "module but neither it nor a direct callee has a "
                   "CHECK_YIELD seam; the model checker cannot schedule "
                   "around this mutation" %
                   (fn.qualname, ev.data["field"].rstrip("_")))
            self._emit("yield-coverage", fn, ev.line, msg)

    def _check_failpoint_reachability(self):
        program = self.program
        consults = {}  # name -> (fn, line)
        armed = set()
        for sf in program.files:
            rel = sf.rel.replace("\\", "/")
            if rel.startswith("tests/"):
                # Any literal mention in a test (Arm call, chaos table,
                # scenario string) makes the point reachable.
                for m in re.finditer(r"\"([a-z_.]+)\"", sf.clean_str):
                    armed.add(m.group(1))
        for fn in program.functions:
            if not fn.sf.rel.replace("\\", "/").startswith("src/"):
                continue
            for ev in fn.events:
                if ev.kind == FAILPOINT:
                    consults.setdefault(ev.data["name"], (fn, ev.line))
        for name in sorted(consults):
            if name in armed:
                continue
            fn, line = consults[name]
            msg = ("failpoint '%s' is consulted here but never armed by "
                   "name in any test or chaos scenario; its failure mode "
                   "is untested" % name)
            self._emit("failpoint-reachability", fn, line, msg)

    def _check_status_wrappers(self):
        """The interprocedural half of status-flow: a bare-statement call
        to a Status-returning function inside a void-returning wrapper
        (no assignment, no RETURN_NOT_OK, no IgnoreError)."""
        program = self.program
        for fn in program.functions:
            if fn.return_type != "void":
                continue
            body = fn.body
            for m in re.finditer(r"(?:^|[;{}])\s*([A-Za-z_]\w*)\s*\(", body):
                callee = m.group(1)
                if callee == "Status":
                    continue
                # Resolve like a bare call from this function; flag only
                # when every candidate definition returns Status (a
                # mixed or unresolved overload set is not evidence).
                targets = program.resolve_call(callee, None, fn)
                if not targets or \
                        any(t.return_type != "Status" for t in targets):
                    continue
                args = dataflow.balanced_args(body, m.end() - 1)
                if args is None:
                    continue
                close = m.end() - 1 + len(args) + 1  # the ')'
                tail = body[close + 1:].split(";", 1)[0]
                if tail.strip():
                    continue  # chained (.IgnoreError(), .ok(), ...)
                line = line_of(fn.sf.clean, fn.body_start + m.start(1))
                msg = ("void %s drops the Status returned by %s(); "
                       "propagate it or call .IgnoreError() with a "
                       "written rationale" % (fn.qualname, callee))
                self._emit("status-flow", fn, line, msg)

    # -- crash-ordering checks over effect summaries ----------------------

    def _sf_by_rel(self):
        if not hasattr(self, "_sf_map"):
            self._sf_map = {sf.rel: sf for sf in self.program.files}
        return self._sf_map

    def _emit_at(self, rule, rel, line, message, chain):
        """Like _emit, but the finding's site may live in a different
        file than the summarized function (an inlined callee effect);
        waivers attach at the site or at any chain call site."""
        sf = self._sf_by_rel().get(rel)
        waiver = sf.waiver_for(rule, line) if sf is not None else None
        if waiver is None:
            for _, crel, cline in chain:
                csf = self._sf_by_rel().get(crel)
                if csf is not None:
                    waiver = csf.waiver_for(rule, cline)
                    if waiver is not None:
                        break
        self.findings.append(Finding(rule, rel, line, message,
                                     tuple(chain), waiver))

    def _check_effect_orderings(self, rules):
        """Scans every src/ function's flattened effect trace. The same
        site surfaces in every caller's trace too; candidates dedup by
        (rule, site) keeping the shortest chain, so a violation reports
        once, where the ordering decision lives."""
        summaries = fx.build_summaries(self.program, self.notes)
        cands = []  # (rule, rel, line, message, chain)
        for fn in self.program.functions:
            if not fn.sf.rel.replace("\\", "/").startswith("src/"):
                continue
            trace = summaries.get(fn) or []
            if "log-before-apply" in rules:
                self._scan_log_before_apply(fn, trace, cands)
            if "ack-after-durable" in rules:
                self._scan_ack_after_durable(fn, trace, cands)
            if "rename-after-sync" in rules:
                self._scan_rename_after_sync(fn, trace, cands)
            if "checkpoint-after-data" in rules:
                self._scan_checkpoint_after_data(fn, trace, cands)
        best = {}
        order = []
        for rule, rel, line, msg, chain in cands:
            key = (rule, rel, line)
            cur = best.get(key)
            if cur is None:
                order.append(key)
                best[key] = (rule, rel, line, msg, chain)
            elif len(chain) < len(cur[4]):
                best[key] = (rule, rel, line, msg, chain)
        for key in order:
            self._emit_at(*best[key])

    def _scan_log_before_apply(self, fn, trace, cands):
        first_wal = next((i for i, e in enumerate(trace)
                          if e.kind == "wal-append"), None)
        if first_wal is None:
            return
        for e in trace[:first_wal]:
            if e.kind != "memtable-apply":
                continue
            msg = ("memtable apply is reachable before the covering WAL "
                   "append on %s's path; a crash between them loses an "
                   "edit the log never saw" % fn.qualname)
            cands.append(("log-before-apply", e.rel, e.line, msg, e.chain))

    def _scan_ack_after_durable(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "rpc-ack":
                continue
            appends = [j for j in range(i) if trace[j].kind == "wal-append"]
            if not appends:
                continue  # read path or early-out before any write
            last = appends[-1]
            if any(t.kind == "fsync" for t in trace[last + 1:i]):
                continue
            msg = ("%s returns success before any fsync covering the WAL "
                   "append on this path; a crash after the ack loses an "
                   "acknowledged write" % fn.qualname)
            cands.append(("ack-after-durable", e.rel, e.line, msg, e.chain))

    def _scan_rename_after_sync(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "rename":
                continue
            tmps = [j for j in range(i) if trace[j].kind == "tmp-write"]
            if not tmps:
                continue  # rename of something this path didn't build
            if any(t.kind == "fsync" for t in trace[tmps[-1] + 1:i]):
                continue
            msg = ("rename publishes a tmp-built file on %s's path without "
                   "an fsync after the tmp write; a crash can publish a "
                   "torn file (tmp+Sync+rename discipline)" % fn.qualname)
            cands.append(("rename-after-sync", e.rel, e.line, msg, e.chain))

    def _scan_checkpoint_after_data(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "checkpoint-write":
                continue
            if any(t.kind == "manifest-write" for t in trace[:i]):
                continue
            if not any(t.kind == "manifest-write" for t in trace[i + 1:]):
                continue  # no manifest on this path at all: order unprovable
            msg = ("checkpoint frame is written before the manifest commit "
                   "on %s's path; a crash leaves a checkpoint pointing past "
                   "data that was never made durable" % fn.qualname)
            cands.append(("checkpoint-after-data", e.rel, e.line, msg,
                          e.chain))

    def _check_crash_windows(self):
        """A dead-letter record is an intentional ack-before-durable
        window; a named failpoint must sit in the same innermost scope,
        before the record, so the chaos harness can crash inside it.
        Own-body events only — the window and its seam belong together."""
        for fn in self.program.functions:
            if not fn.sf.rel.replace("\\", "/").startswith("src/"):
                continue
            fp_scopes = {}
            for ev in fn.events:
                if ev.kind == FAILPOINT:
                    fp_scopes.setdefault(ev.data.get("scope"),
                                         []).append(ev.pos)
            for ev in fn.events:
                if ev.kind != EFFECT \
                        or ev.data["effect"] != "dead-letter-record":
                    continue
                scope = ev.data.get("scope")
                if any(p < ev.pos for p in fp_scopes.get(scope, ())):
                    continue
                msg = ("dead-letter record in %s has no named failpoint in "
                       "its innermost scope before it; the chaos harness "
                       "cannot crash inside this acked-but-not-durable "
                       "window" % fn.qualname)
                self._emit("crash-window-failpoint", fn, ev.line, msg)

    # -- per-file textual rules (textual.py) ------------------------------

    def _check_textual(self, rules):
        src = [sf for sf in self.program.files
               if sf.rel.replace("\\", "/").startswith("src/")]
        for rule, check in textual.PER_FILE:
            if rule not in rules:
                continue
            for sf in src:
                if _excluded(sf.rel, rule):
                    continue
                for line, msg in check(sf, self.catalogs):
                    self._emit_at(rule, sf.rel, line, msg, ())
        if "catalog-sync" in rules:
            for line, msg in textual.catalog_sync(src, self.catalogs):
                self._emit_at("catalog-sync", textual.DESIGN_DOC, line, msg,
                              ())

    def _check_waiver_rationales(self):
        for sf in self.program.files:
            for w in sf.invalid_waivers():
                self.findings.append(Finding(
                    "waiver-rationale", sf.rel, w.line,
                    "ANALYZER_WAIVE(%s) has no written rationale; a waiver "
                    "must argue why the exception is safe" % w.rule,
                    (), None))
