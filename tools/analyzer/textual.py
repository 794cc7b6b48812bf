"""The analyzer's per-file textual rules (DESIGN.md section 15).

Repo invariants neither the compiler nor clang's Thread Safety Analysis
can see, checked over the views source.py already built (`clean`,
`clean_str`, `raw`). Scope is src/ only: tests legitimately create
ad-hoc metric names and raw primitives.

  failpoint-names  every failpoint consulted in src/ has a row in the
                   DESIGN.md failpoint catalog table.
  metric-names     every instrument name created in src/ (and every
                   SpanTimer stage) matches a row of the DESIGN.md
                   metric names table (span-stage list).
  yield-tags       every CHECK_YIELD / CHECK_YIELD_RES tag in src/ has a
                   row in the DESIGN.md yield-tag table (section 12.1).
  catalog-sync     the reverse direction: every failpoint catalog row
                   is still consulted, every metric row still matches
                   an instrument the code creates and every yield-tag
                   row still names a seam, so retired names leave the
                   catalogs. Like failpoint-reachability, it judges the
                   analyzed file set as the whole program; findings sit
                   in DESIGN.md.
  raw-mutex        no raw std synchronization primitive outside
                   util/mutex.h (and the model checker's scheduler, see
                   rules._excluded): they are invisible to TSA.
  naked-new        no naked `new`; private-ctor factories and leaked
                   singletons carry an ANALYZER_WAIVE.
  index-ts         the Section 4.3 timestamp rule: PutIndexEntry takes
                   the base edit's `<x>.ts` verbatim, DeleteIndexEntry
                   takes `<x>.ts - kDelta` verbatim.
  lsm-layering     src/lsm/ never includes cluster/ or core/ headers.
  ignore-error     every .IgnoreError() carries an adjacent rationale
                   comment saying why dropping the Status is safe.

The catalogs are read from <root>/DESIGN.md (load_catalogs). Each
per-file rule is a generator of (line, message) over one SourceFile;
RuleEngine attaches waivers and emits.
"""

import os
import re

from dataflow import balanced_args, failpoint_consults, split_args
from source import line_of

CATALOG_RULES = ("failpoint-names", "metric-names", "yield-tags",
                 "catalog-sync")

RULES = CATALOG_RULES + (
    "raw-mutex",
    "naked-new",
    "index-ts",
    "lsm-layering",
    "ignore-error",
)

DESIGN_DOC = "DESIGN.md"
FAILPOINT_TABLE = "### Failpoint catalog"
METRIC_TABLE = "**Metric names (authoritative).**"
YIELD_TABLE = "**Yield tags (authoritative).**"

# A stand-in for a dynamic (non-literal) name fragment; matches the
# wildcard character class of name_to_regex and nothing a literal row
# would.
DYN = "zzdynzz"


class CatalogError(Exception):
    pass


class Catalogs:
    """The DESIGN.md tables the catalog rules check against: failpoint
    names (section 7), metric rows as (raw name, regex) pairs, the
    span-stage regexes (section 6) and the yield tags (section 12.1)."""

    def __init__(self, text):
        self.text = text
        self.failpoints = set(_table_names(
            text, FAILPOINT_TABLE, ("### ", "## ")))
        self.yield_tags = set(_table_names(
            text, YIELD_TABLE, ("### ", "## ")))
        self.metric_rows = [
            (n, name_to_regex(n)) for n in _table_names(
                text, METRIC_TABLE, ("## ", "**Tracing.**"))
            if n != "Name"]
        m = re.search(r"Span stages [^:]*:\s*((?:`[^`]+`[,.\s]*)+)", text)
        stages = re.findall(r"`([^`]+)`", m.group(1)) if m else []
        self.span_stages = [name_to_regex(n) for n in stages]

    def row_line(self, name, table):
        """Line of `name`'s row in the table after the `table` marker."""
        start = max(self.text.find(table), 0)
        rx = re.compile(r"^\|\s*`%s`" % re.escape(name), re.M)
        m = rx.search(self.text, start)
        return line_of(self.text, m.start()) if m else 1


def load_catalogs(root):
    path = os.path.join(root, DESIGN_DOC)
    if not os.path.exists(path):
        raise CatalogError("%s not found at %s" % (DESIGN_DOC, path))
    with open(path, encoding="utf-8") as f:
        catalogs = Catalogs(f.read())
    if not catalogs.failpoints:
        raise CatalogError("no failpoint catalog parsed from " + DESIGN_DOC)
    if not catalogs.metric_rows:
        raise CatalogError("no metric names table parsed from " + DESIGN_DOC)
    if not catalogs.yield_tags:
        raise CatalogError("no yield tag table parsed from " + DESIGN_DOC)
    return catalogs


def _table_names(text, start, stops):
    """Backticked first-column names of the table after `start`, up to
    the first line beginning with one of `stops`."""
    names = []
    in_section = False
    for line in text.splitlines():
        if line.startswith(start):
            in_section = True
            continue
        if in_section and line.startswith(stops):
            break
        if in_section:
            m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
            if m:
                names.append(m.group(1))
    return names


def name_to_regex(table_name):
    """Converts a table name like `rpc.<type>.calls` or
    `span.<stage>[.<scheme>]` into a compiled regex."""
    out = []
    i, n = 0, len(table_name)
    while i < n:
        c = table_name[i]
        if table_name.startswith("[.<", i):
            j = table_name.index("]", i)
            out.append(r"(\.[A-Za-z0-9_.\-]+)?")
            i = j + 1
        elif c == "<":
            j = table_name.index(">", i)
            out.append(r"[A-Za-z0-9_.\-]+")
            i = j + 1
        else:
            out.append(re.escape(c))
            i += 1
    return re.compile("^" + "".join(out) + "$")


def _instrument_name(argtext):
    """Reconstructs the (possibly partially dynamic) instrument name from
    a name argument: literal fragments joined by '+', anything else a
    DYN segment. None when no literal fragment is present."""
    if not re.search(r"\"[^\"]*\"", argtext):
        return None
    name = []
    for piece in argtext.split("+"):
        lm = re.search(r"\"([^\"]*)\"", piece)
        name.append(lm.group(1) if lm else DYN)
    return "".join(name)


INSTRUMENT_RE = re.compile(r"\b(?:GetCounter|GetGauge|GetHistogram)\s*\(")
SPAN_RE = re.compile(r"\bSpanTimer\s+\w+\s*\(")
YIELD_TAG_RE = re.compile(r"\bCHECK_YIELD(?:_RES)?\s*\(\s*\"([^\"]+)\"")


def _yield_tags(sf):
    """Yields (offset, tag) for every literal CHECK_YIELD(_RES) tag."""
    for m in YIELD_TAG_RE.finditer(sf.clean_str):
        yield m.start(), m.group(1)


def _instruments(sf):
    """Yields (offset, kind, name) for every literal-named instrument
    creation in the file: kind "metric" for Get{Counter,Gauge,Histogram}
    first arguments, "span" for SpanTimer stage arguments."""
    text = sf.clean_str
    for m in INSTRUMENT_RE.finditer(text):
        argtext = balanced_args(text, m.end() - 1)
        if argtext is None:
            continue
        name = _instrument_name(split_args(argtext)[0])
        if name is not None:
            yield m.start(), "metric", name
    for m in SPAN_RE.finditer(text):
        argtext = balanced_args(text, m.end() - 1)
        if argtext is None:
            continue
        args = split_args(argtext)
        if len(args) < 3:
            continue
        stage = _instrument_name(args[2])
        if stage is not None:
            yield m.start(), "span", stage


def _rel(sf):
    return sf.rel.replace("\\", "/")


# -- per-file rules: (sf, catalogs) -> iterable of (line, message) ------


def failpoint_names(sf, catalogs):
    for pos, name in failpoint_consults(sf):
        if name not in catalogs.failpoints:
            yield (line_of(sf.clean_str, pos),
                   "failpoint '%s' is not documented in the DESIGN.md "
                   "failpoint catalog" % name)


def metric_names(sf, catalogs):
    if _rel(sf).endswith("obs/metrics.h"):
        return  # the registry's own declarations
    for pos, kind, name in _instruments(sf):
        shown = name.replace(DYN, "<...>")
        if kind == "metric":
            if not any(rx.match(name) for _, rx in catalogs.metric_rows):
                yield (line_of(sf.clean_str, pos),
                       "metric '%s' has no row in the DESIGN.md metric "
                       "names table" % shown)
        elif not any(rx.match(name) for rx in catalogs.span_stages):
            yield (line_of(sf.clean_str, pos),
                   "span stage '%s' is not in the DESIGN.md span-stage "
                   "list" % shown)


def yield_tags(sf, catalogs):
    for pos, tag in _yield_tags(sf):
        if tag not in catalogs.yield_tags:
            yield (line_of(sf.clean_str, pos),
                   "yield tag '%s' is not in the DESIGN.md yield tag "
                   "table; the model checker's seams are listed there"
                   % tag)


RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)


def raw_mutex(sf, catalogs):
    for m in RAW_SYNC_RE.finditer(sf.clean):
        yield (line_of(sf.clean, m.start()),
               "raw std::%s is invisible to thread-safety analysis; use "
               "the annotated wrappers in util/mutex.h" % m.group(1))


# `new Foo` but not placement new (`new (mem) Foo`), which is how the
# arena-backed skiplist constructs nodes.
NAKED_NEW_RE = re.compile(r"\bnew\s+[A-Za-z_]")


def naked_new(sf, catalogs):
    for idx, line in enumerate(sf.clean.split("\n")):
        if NAKED_NEW_RE.search(line):
            yield (idx + 1,
                   "naked new; wrap in a smart pointer factory or waive "
                   "with ANALYZER_WAIVE(naked-new)")


INDEX_CALL_RE = re.compile(r"\b((?:Stage)?(?:Put|Delete)IndexEntry)\s*\(")
TS_ARG_PUT_RE = re.compile(r"^([A-Za-z_]\w*(\.|->))?ts$")
TS_ARG_DELETE_RE = re.compile(
    r"^([A-Za-z_]\w*(\.|->))?(ts|old_ts)\s*-\s*kDelta$")
PARAM_DECL_RE = re.compile(
    r"^(const\s+)?[A-Za-z_][\w:<>]*[&*\s]+[A-Za-z_]\w*$")


def index_ts(sf, catalogs):
    text = sf.clean_str
    for m in INDEX_CALL_RE.finditer(text):
        # A qualified name is a definition (`IndexManager::PutIndexEntry(`).
        if text[max(0, m.start() - 2):m.start()].endswith("::"):
            continue
        argtext = balanced_args(text, m.end() - 1)
        if argtext is None:
            continue
        args = split_args(argtext)
        if len(args) < 3:
            continue
        ts_arg = re.sub(r"\s+", " ", args[2]).strip()
        if PARAM_DECL_RE.match(ts_arg):
            continue  # a parameter declaration ("Timestamp ts")
        func = m.group(1)
        if func.endswith("PutIndexEntry"):
            ok = TS_ARG_PUT_RE.match(ts_arg)
            want = "the base edit's `<x>.ts` verbatim"
        else:
            ok = TS_ARG_DELETE_RE.match(ts_arg)
            want = "`<x>.ts - kDelta` (or `old_ts - kDelta`) verbatim"
        if not ok:
            yield (line_of(text, m.start()),
                   "%s timestamp argument is '%s'; Section 4.3 requires %s "
                   "(index entries at the base edit's ts, old-entry "
                   "deletes at ts - delta)" % (func, ts_arg, want))


INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"(cluster|core)/', re.M)


def lsm_layering(sf, catalogs):
    if not _rel(sf).startswith("src/lsm/"):
        return
    for m in INCLUDE_RE.finditer(sf.clean_str):
        yield (line_of(sf.clean_str, m.start()),
               "src/lsm/ must not include %s/ headers; the storage engine "
               "stays below the distribution and index layers" % m.group(1))


def _line_has_comment(raw_line, nostr_line):
    """True when raw_line carries a real // comment with some substance.
    nostr_line is the same line with comments blanked but strings kept,
    so a "//" inside a string literal does not count."""
    i = raw_line.find("//")
    while i >= 0:
        if nostr_line[i:i + 2].strip() == "":
            return raw_line[i + 2:].strip(" /") != ""
        i = raw_line.find("//", i + 1)
    return False


def ignore_error(sf, catalogs):
    """A // comment somewhere on the statement, or a comment line
    directly above its first line, must say why the drop is safe."""
    if _rel(sf).endswith("util/status.h"):
        return  # the definition site, not a use
    clean = sf.clean
    raw_lines = sf.raw.split("\n")
    nostr_lines = sf.clean_str.split("\n")
    for m in re.finditer(r"\.\s*IgnoreError\s*\(\s*\)", clean):
        # The statement begins after the previous top-level ; or {.
        # Balanced brackets are skipped so initializer braces and call
        # arguments inside the statement are not mistaken for its start.
        depth = 0
        i = m.start() - 1
        while i >= 0:
            c = clean[i]
            if c in ")]}":
                depth += 1
            elif c in "([{":
                if depth == 0:
                    break
                depth -= 1
            elif c == ";" and depth == 0:
                break
            i -= 1
        stmt_start = i + 1
        while stmt_start < m.start() and clean[stmt_start].isspace():
            stmt_start += 1
        first = line_of(clean, stmt_start)
        last = line_of(clean, m.start())
        if any(_line_has_comment(raw_lines[k], nostr_lines[k])
               for k in range(first - 1, last + 1) if k < len(raw_lines)):
            continue
        prev = first - 2  # 0-based index of the line above the statement
        if prev >= 0 and raw_lines[prev].lstrip().startswith("//") \
                and raw_lines[prev].lstrip().strip(" /") != "":
            continue
        yield (last,
               ".IgnoreError() without an adjacent rationale comment; say "
               "why dropping this Status is safe (see util/status.h)")


PER_FILE = (
    ("failpoint-names", failpoint_names),
    ("metric-names", metric_names),
    ("yield-tags", yield_tags),
    ("raw-mutex", raw_mutex),
    ("naked-new", naked_new),
    ("index-ts", index_ts),
    ("lsm-layering", lsm_layering),
    ("ignore-error", ignore_error),
)


def catalog_sync(files, catalogs):
    """Yields (DESIGN.md line, message) for every catalog row no analyzed
    file backs. Wildcard metric rows (`<...>`) only need prefix liveness:
    some instrument creation must match the row, dynamic fragments
    treated as wildcards."""
    consulted = set()
    created = set()
    seams = set()
    for sf in files:
        consulted.update(name for _, name in failpoint_consults(sf))
        seams.update(tag for _, tag in _yield_tags(sf))
        for _, kind, name in _instruments(sf):
            # The recorder creates span instruments as "span." + stage.
            created.add(name if kind == "metric" else "span." + name)
    for name in sorted(catalogs.failpoints):
        if name not in consulted:
            yield (catalogs.row_line(name, FAILPOINT_TABLE),
                   "failpoint catalog row '%s' is consulted nowhere in the "
                   "analyzed tree; retire the row or restore the consult"
                   % name)
    for tag in sorted(catalogs.yield_tags - seams):
        yield (catalogs.row_line(tag, YIELD_TABLE),
               "yield tag row '%s' marks no CHECK_YIELD in the analyzed "
               "tree; retire the row or restore the seam" % tag)
    created_res = [
        re.compile("^" + ".*".join(re.escape(p) for p in name.split(DYN))
                   + "$")
        for name in created]
    for row, row_re in catalogs.metric_rows:
        if any(row_re.match(name) for name in created) \
                or any(r.match(row) for r in created_res):
            continue
        yield (catalogs.row_line(row, METRIC_TABLE),
               "metric table row '%s' matches no instrument created in the "
               "analyzed tree; retire the row or restore the instrument"
               % row)
