"""Program model: symbol table, call graph, and lock/field registries.

Built purely from text (no clang frontend is available in the build
image) over source.py's blanked views: comments and strings are blanked
first, so every position maps back to a true line.

The extraction is a scope-tracking scanner rather than a grammar: it
walks brace structure, classifies the text segment that precedes each
`{` (namespace / class / function signature / control block), and
records function definitions with their enclosing class. That is enough
to build, for this codebase's consistent style:

  * a function table keyed by qualified name, with body extents,
    return type, and REQUIRES/REQUIRES_SHARED entry locks;
  * a name-resolved call graph (virtual calls resolve by simple name to
    every definition, a sound over-approximation for the rules here);
  * the ranked-lock registry: every Mutex/SharedMutex constructed with
    a LockRank, attributed to its enclosing class;
  * the GUARDED_BY field registry per class.

Known limits are documented in DESIGN.md section 15 (templates are
scanned as text, overload sets collapse to one node, lambdas belong to
their enclosing function).
"""

import os
import re

from source import line_of

# Segment heads that open a scope but are not function definitions.
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "do", "else", "try",
    "return", "new", "delete", "throw", "case", "default", "sizeof",
    "alignof", "decltype", "static_assert", "co_await", "co_return",
}

# Annotation/assertion macros whose trailing `(...)` must not be read as
# a function signature.
MACRO_NAMES = {
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
    "EXCLUDES", "RETURN_CAPABILITY", "CAPABILITY", "SCOPED_CAPABILITY",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED",
    "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED", "NO_THREAD_SAFETY_ANALYSIS",
    "ASSERT_CAPABILITY",
    "DIFFINDEX_FAILPOINT", "DIFFINDEX_RETURN_NOT_OK", "CHECK_YIELD",
    "CHECK_YIELD_RES", "CHECK_POINT_VAL",
}

GTEST_MACROS = {"TEST", "TEST_F", "TEST_P", "TYPED_TEST", "INSTANTIATE_TEST_SUITE_P"}

# Call-site names that are never interesting callees.
CALL_BLACKLIST = CONTROL_KEYWORDS | MACRO_NAMES | GTEST_MACROS | {
    "EXPECT_TRUE", "EXPECT_FALSE", "EXPECT_EQ", "EXPECT_NE", "EXPECT_LT",
    "EXPECT_LE", "EXPECT_GT", "EXPECT_GE", "EXPECT_OK", "ASSERT_TRUE",
    "ASSERT_FALSE", "ASSERT_EQ", "ASSERT_NE", "ASSERT_OK", "FAIL",
    "ADD_FAILURE", "SCOPED_TRACE", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "defined", "assert", "move",
    "make_unique", "make_shared", "make_pair", "get", "size", "begin",
    "end", "empty", "push_back", "emplace_back", "insert", "erase",
    "find", "count", "clear", "reserve", "resize", "front", "back",
    "max", "min", "swap", "load", "store", "fetch_add", "fetch_sub",
    "c_str", "data", "append", "substr", "reset", "release", "at",
    "emplace", "pop_back", "pop_front", "push_front", "str", "value",
    "has_value", "ok", "ToString", "code", "exchange", "compare",
}


def canonical_lock_name(expr):
    """`&wal_sync_mu_`, `region->flush_gate()`, `flush_gate_` all
    resolve to `wal_sync_mu` / `flush_gate`."""
    e = expr.strip().lstrip("&*")
    e = re.sub(r"\(\s*\)", "", e)
    for sep in ("->", "."):
        if sep in e:
            e = e.rsplit(sep, 1)[-1]
    return e.strip().rstrip("_")


def parse_lock_ranks(root):
    """LockRank enumerator -> numeric rank, from util/lock_order.h."""
    path = os.path.join(root, "src", "util", "lock_order.h")
    ranks = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for m in re.finditer(r"\bk(\w+)\s*=\s*(\d+)", text):
            ranks["k" + m.group(1)] = int(m.group(2))
    return ranks


class Function:
    def __init__(self, name, qualname, cls, sf, sig_line, body_start,
                 body_end, return_type, requires, args_text=""):
        self.name = name            # simple name (last component)
        self.qualname = qualname    # Class::name or ns-qualified
        self.cls = cls              # enclosing/owning class or ""
        self.sf = sf                # SourceFile
        self.sig_line = sig_line
        self.body_start = body_start  # offset of '{' in sf.clean
        self.body_end = body_end      # offset past matching '}'
        self.return_type = return_type
        self.requires = requires    # [(raw lock expression, shared)]
        self.args_text = args_text  # parameter list text
        self.var_types = {}         # param/local name -> class type
        # Filled by the event scan (dataflow.py):
        self.events = []
        self.has_yield = False
        self.direct_callees = set()

    @property
    def body(self):
        return self.sf.clean[self.body_start:self.body_end]

    def __repr__(self):
        return "<fn %s %s:%d>" % (self.qualname, self.sf.rel, self.sig_line)


class LockDecl:
    def __init__(self, name, cls, rank_token, rank, is_shared, sf, line):
        self.name = name            # canonical (trailing _ stripped)
        self.cls = cls
        self.rank_token = rank_token
        self.rank = rank
        self.is_shared = is_shared
        self.sf = sf
        self.line = line


class GuardedField:
    def __init__(self, name, cls, guard, sf, line):
        self.name = name            # field name as written (with _)
        self.cls = cls
        self.guard = guard          # canonical lock name
        self.sf = sf
        self.line = line


SIG_TAIL_RE = re.compile(
    r"(?:\s*(?:const|noexcept|final|override|mutable|->\s*[\w:<>]+"
    r"|(?:REQUIRES|REQUIRES_SHARED|EXCLUDES|ACQUIRE|ACQUIRE_SHARED"
    r"|RELEASE|RELEASE_SHARED|TRY_ACQUIRE|RETURN_CAPABILITY"
    r"|NO_THREAD_SAFETY_ANALYSIS)\s*(?:\([^()]*\))?))*\s*$"
)

NAME_BEFORE_PAREN_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:~\s*)?[A-Za-z_]\w*|operator\s*[^\s\w]{1,3})\s*$"
)

REQUIRES_RE = re.compile(r"\b(REQUIRES|REQUIRES_SHARED)\s*\(([^()]*)\)")

# Variable-declaration shapes used to type call receivers. Class types
# in this codebase are CamelCase; requiring a leading capital keeps
# `a * b` arithmetic and builtin-typed declarations out of the map.
# A class template's arguments (`LruCache<const std::string> cache_`)
# are skipped: calls resolve by the template's name.
TEMPLATE_ARGS = r"(?:<[^<>;{}()]*>\s*)?"
SMART_PTR_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unique_ptr|shared_ptr|weak_ptr)\s*<\s*"
    r"(?:const\s+)?([A-Za-z_][\w:]*)\s*" + TEMPLATE_ARGS +
    r">\s*(?:[*&]\s*)?([A-Za-z_]\w*)")
PTR_REF_DECL_RE = re.compile(
    r"\b(?:const\s+)?([A-Z]\w*)\s*[*&]+\s*(?:const\s+)?([A-Za-z_]\w*)")
VALUE_MEMBER_RE = re.compile(
    r"\b([A-Z]\w*)\s*" + TEMPLATE_ARGS +
    r"\s(\w+_)\s*(?:GUARDED_BY\s*\([^)]*\)\s*)?[;={]")
# Type aliases of a class (`using BlockCache = LruCache<const char[]>;`):
# a receiver declared with the alias resolves as the class.
TYPE_ALIAS_RE = re.compile(
    r"\busing\s+([A-Z]\w*)\s*=\s*(?:[A-Za-z_]\w*\s*::\s*)*([A-Z]\w*)"
    r"\s*(?:<[^;]*>)?\s*;")


# Value declarations (`WalEdit edit;`, `Iterator iter(&table_);`,
# `SstBuilder builder(path, opts);`): CamelCase type, lower-case
# variable — the case split keeps class/struct heads and macro shouting
# out of the variable table.
VALUE_DECL_RE = re.compile(
    r"\b([A-Z]\w*)\s+([a-z]\w*)\s*(?:[;={]|\()")
# Template parameters: `T value` in a template body says nothing about
# the receiver's class.
VALUE_DECL_SKIP = frozenset({"T", "K", "V"})


def _bare_class(t):
    """Reduces a scanned return-type string to the bare class name a
    receiver can be typed with: `std::unique_ptr<RecordIterator>` ->
    RecordIterator, `lsm::LsmTree*` -> LsmTree."""
    if not t:
        return None
    m = re.search(r"(?:unique_ptr|shared_ptr|weak_ptr)\s*<\s*"
                  r"(?:const\s+)?([A-Za-z_][\w:]*)", t)
    if m:
        t = m.group(1)
    parts = t.replace("*", " ").replace("&", " ").split()
    if not parts:
        return None
    return parts[-1].rsplit("::", 1)[-1]

LOCK_DECL_RE = re.compile(
    r"\b(Mutex|SharedMutex)\s+(\w+)\s*\{\s*LockRank::(k\w+)")

GUARDED_FIELD_RE = re.compile(r"\b([A-Za-z_]\w*)\s+GUARDED_BY\(([^)]*)\)")


def _strip_ctor_init_list(seg):
    """Removes a trailing constructor initializer list so the signature's
    closing paren is the segment's last ')'. Heuristic: a top-level
    ` : name(...)...` after a balanced `(...)` group."""
    # Find the last top-level ':' that is not part of '::'.
    depth = 0
    for i, c in enumerate(seg):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(seg) and seg[i + 1] == ":":
                continue
            if i > 0 and seg[i - 1] == ":":
                continue
            head = seg[:i].rstrip()
            if head.endswith(")"):
                return head
    return seg


def _match_open_paren(seg, close_idx):
    depth = 0
    for i in range(close_idx, -1, -1):
        if seg[i] == ")":
            depth += 1
        elif seg[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


class Program:
    """The whole-program model over a set of SourceFiles.

    Construction is two-phase so the incremental cache can skip the
    expensive phase per unchanged file: `extract_file_model` produces a
    pure, JSON-serializable per-file model (functions, lock/field
    registries, type facts — everything derivable from that file's text
    alone), and the Program merges the per-file models into the
    whole-program registries. `file_models` may be supplied (mixing
    cached and freshly extracted entries, one per SourceFile); when
    omitted every file is extracted in-process."""

    def __init__(self, root, files, file_models=None):
        self.root = root
        self.files = files
        self.rank_values = parse_lock_ranks(root)
        self.functions = []                 # all definitions
        self.defs_by_name = {}              # simple name -> [Function]
        self.lock_decls = []                # [LockDecl]
        self.locks_by_class = {}            # (cls, canonical) -> LockDecl
        self.locks_global = {}              # canonical -> LockDecl | None(ambiguous)
        self.guarded_by_class = {}          # cls -> {field name -> GuardedField}
        self.member_types = {}              # (cls, member name) -> class type
        self.type_aliases = {}              # alias -> class it names
        self.subclasses = {}                # base -> {derived}
        self.decl_requires = {}             # (cls, method) -> {(raw, shared)}
        if file_models is None:
            file_models = [extract_file_model(sf) for sf in files]
        self.file_models = file_models
        self.functions_by_file = {}         # rel -> [Function], file order
        for sf, fm in zip(files, file_models):
            self._merge_file_model(sf, fm)
        if self.type_aliases:
            canon = lambda t: self.type_aliases.get(t, t)  # noqa: E731
            self.member_types = {k: canon(t)
                                 for k, t in self.member_types.items()}
            for fn in self.functions:
                fn.var_types = {k: canon(t)
                                for k, t in fn.var_types.items()}
        for fn in self.functions:
            self.defs_by_name.setdefault(fn.name, []).append(fn)
            for req in self.decl_requires.get((fn.cls, fn.name), ()):
                if req not in fn.requires:
                    fn.requires.append(req)
        self.known_classes = {fn.cls for fn in self.functions if fn.cls}
        for base, derived in self.subclasses.items():
            self.known_classes.add(base)
            self.known_classes.update(derived)
        self._descendants_cache = {}

    @staticmethod
    def _type_name(t):
        return t.rsplit("::", 1)[-1]

    def _merge_file_model(self, sf, fm):
        fns = []
        for d in fm["functions"]:
            fn = Function(d["name"], d["qualname"], d["cls"], sf,
                          d["sig_line"], d["body_start"], d["body_end"],
                          d["return_type"],
                          [(raw, bool(sh)) for raw, sh in d["requires"]],
                          d["args_text"])
            fn.var_types = dict(d["var_types"])
            fns.append(fn)
            self.functions.append(fn)
        self.functions_by_file[sf.rel] = fns
        for name, cls, rank_token, shared, line in fm["locks"]:
            rank = self.rank_values.get(rank_token)
            if rank is None or rank == 0:
                continue
            decl = LockDecl(name, cls, rank_token, rank, bool(shared), sf,
                            line)
            self.lock_decls.append(decl)
            self.locks_by_class[(cls, decl.name)] = decl
            if decl.name in self.locks_global:
                existing = self.locks_global[decl.name]
                if existing is not None and existing.rank != decl.rank:
                    self.locks_global[decl.name] = None  # ambiguous name
            else:
                self.locks_global[decl.name] = decl
        for name, cls, guard, line in fm["guarded"]:
            fields = self.guarded_by_class.setdefault(cls, {})
            fields[name] = GuardedField(name, cls, guard, sf, line)
        for cls, member, t in fm["member_types"]:
            self.member_types.setdefault((cls, member), t)
        for base, derived in fm["subclasses"]:
            self.subclasses.setdefault(base, set()).add(derived)
        for alias, target in fm["aliases"]:
            self.type_aliases.setdefault(alias, target)
        for cls, method, raw, shared in fm["decl_requires"]:
            self.decl_requires.setdefault((cls, method), set()).add(
                (raw, bool(shared)))

    def registry_digest(self):
        """Digest of every cross-file fact the per-file event scan
        consumes (lock ranks, guarded-field guards, receiver/member
        types, the subclass closure, and definition signatures used for
        call resolution and return-type inference). An event cache entry
        built under a different digest is stale even if its own file is
        byte-identical."""
        import hashlib
        import json as _json
        facts = {
            "ranks": sorted(self.rank_values.items()),
            "locks": sorted((cls, d.name, d.rank, d.is_shared)
                            for (cls, _), d in self.locks_by_class.items()),
            "ambiguous": sorted(n for n, d in self.locks_global.items()
                                if d is None),
            "guarded": sorted((cls, f.name, f.guard)
                              for cls, fields in self.guarded_by_class.items()
                              for f in fields.values()),
            "member_types": sorted(
                (cls, m, t) for (cls, m), t in self.member_types.items()),
            "subclasses": sorted((b, d) for b, ds in self.subclasses.items()
                                 for d in ds),
            "defs": sorted({(fn.cls, fn.name, fn.return_type)
                            for fn in self.functions}),
            "requires": sorted((cls, m, raw, sh)
                               for (cls, m), reqs in self.decl_requires.items()
                               for raw, sh in reqs),
        }
        return hashlib.sha256(
            _json.dumps(facts, sort_keys=True).encode()).hexdigest()

    def descendants(self, cls):
        cached = self._descendants_cache.get(cls)
        if cached is not None:
            return cached
        out, frontier = set(), [cls]
        while frontier:
            for d in self.subclasses.get(frontier.pop(), ()):
                if d not in out:
                    out.add(d)
                    frontier.append(d)
        self._descendants_cache[cls] = out
        return out

    # -- registries -------------------------------------------------------

    def rank_of(self, lock_name, cls):
        """Resolves a canonical lock name to its LockDecl. Bare member
        names resolve only within the enclosing class (Client::mu_ must
        not inherit AsyncUpdateQueue::mu_'s rank); accessor/receiver
        expressions fall back to the global registry when unambiguous."""
        decl = self.locks_by_class.get((cls, lock_name))
        if decl is not None:
            return decl
        decl = self.locks_global.get(lock_name)
        if decl is not None and decl.cls == cls:
            return decl
        return decl  # may be None or cross-class (receiver expressions)

    # -- call resolution --------------------------------------------------

    def method_return_type(self, cls, name):
        """The return class of method `name` on class `cls` (or any of
        its scanned subclasses), when every matching definition agrees;
        None when unknown or ambiguous. With cls=None the name must
        resolve to one return type program-wide. Smart-pointer wrappers
        (`std::unique_ptr<RecordIterator>`) unwrap to the pointee so the
        result is a bare class name usable for receiver typing."""
        cands = self.defs_by_name.get(name, [])
        if cls:
            family = {cls} | self.descendants(cls)
            cands = [f for f in cands if f.cls in family]
        typed = {f.return_type for f in cands if f.return_type}
        typed.discard("void")
        if len(typed) == 1:
            return _bare_class(next(iter(typed)))
        return None

    def _identifier_type(self, fn, name):
        t = fn.var_types.get(name) or self.member_types.get((fn.cls, name))
        if t is None:
            t = self._auto_init_type(fn, name)
        return t

    def _auto_init_type(self, fn, name, _depth=0):
        """Types `auto x = Method(...)` / `auto x = recv->Method(...)`
        locals through the initializing call's return type."""
        m = re.search(r"\bauto\s*[*&]?\s+" + re.escape(name) + r"\s*=\s*",
                      fn.body)
        if m is None:
            return None
        init = re.match(
            r"(?:([A-Za-z_]\w*)\s*(?:\.|->)\s*)?([A-Za-z_]\w*)\s*\(",
            fn.body[m.end():])
        if init is None:
            return None
        recv, method = init.group(1), init.group(2)
        if recv is None:
            cls = fn.cls or None  # implicit this (or a free function)
        elif _depth > 4:
            return None
        else:
            cls = self._identifier_type(fn, recv) if recv != "this" \
                else fn.cls
        rt = self.method_return_type(cls, method)
        if rt is None and cls is None:
            rt = self.method_return_type(None, method)
        return rt

    def chain_receiver_type(self, fn, body, name_start, _depth=0):
        """Types the receiver of a call whose callee name starts at
        `name_start`, covering the shapes the regex capture alone can't:
        accessor chains ending in a call (`region->tree()->Flush(...)`
        resolves through Region::tree's return type to LsmTree) and
        member paths (`options_.env->RemoveFile(...)` resolves through
        the options_ member's declared type). Returns a class name or
        None."""
        i = name_start - 1
        while i >= 0 and body[i].isspace():
            i -= 1
        if i >= 1 and body[i] == ":" and body[i - 1] == ":":
            # Qualified static call (`Writer::Open(...)`). Only a name
            # the scan knows as a class types the call — a namespace
            # qualifier (`lsm::BuildSst(...)`) must not, or the family
            # filter would empty out real candidate sets.
            q = i - 2
            while q >= 0 and body[q].isspace():
                q -= 1
            p = q
            while p >= 0 and (body[p].isalnum() or body[p] == "_"):
                p -= 1
            name = body[p + 1:q + 1]
            return name if name in self.known_classes else None
        if i >= 1 and body[i] == ">" and body[i - 1] == "-":
            i -= 2
        elif i >= 0 and body[i] == ".":
            i -= 1
        else:
            return None
        return self._postfix_expr_type(fn, body, i, _depth)

    def _postfix_expr_type(self, fn, body, end, _depth=0):
        """Type of the postfix expression whose last character is at or
        before `end`: a plain identifier, a member path (`expr.ident`,
        `expr->ident`), or an accessor call (`expr->method()`)."""
        if _depth > 6:
            return None
        i = end
        while i >= 0 and body[i].isspace():
            i -= 1
        if i < 0:
            return None
        if body[i] == ")":
            # Accessor call: type its receiver, then its return type.
            open_idx = _match_open_paren(body[:i + 1], i)
            if open_idx <= 0:
                return None
            j = open_idx - 1
            while j >= 0 and body[j].isspace():
                j -= 1
            end_name = j + 1
            while j >= 0 and (body[j].isalnum() or body[j] == "_"):
                j -= 1
            name = body[j + 1:end_name]
            if not re.match(r"^[A-Za-z_]\w*$", name) \
                    or name in CALL_BLACKLIST:
                return None
            k = j
            while k >= 0 and body[k].isspace():
                k -= 1
            cls = None
            had_sep = True
            if k >= 1 and body[k] == ">" and body[k - 1] == "-":
                cls = self._postfix_expr_type(fn, body, k - 2, _depth + 1)
            elif k >= 0 and body[k] == "." \
                    and not (k >= 1 and body[k - 1].isdigit()):
                cls = self._postfix_expr_type(fn, body, k - 1, _depth + 1)
            else:
                had_sep = False
                cls = fn.cls or None  # implicit this (or a free function)
            if had_sep and cls is None:
                return None
            rt = self.method_return_type(cls, name)
            if rt is None and cls is None:
                rt = self.method_return_type(None, name)
            return rt
        if body[i].isalnum() or body[i] == "_":
            q = i
            while q >= 0 and (body[q].isalnum() or body[q] == "_"):
                q -= 1
            name = body[q + 1:i + 1]
            if not re.match(r"^[A-Za-z_]\w*$", name):
                return None
            k = q
            while k >= 0 and body[k].isspace():
                k -= 1
            if k >= 1 and body[k] == ">" and body[k - 1] == "-":
                pre = self._postfix_expr_type(fn, body, k - 2, _depth + 1)
                return self.member_types.get((pre, name)) if pre else None
            if k >= 0 and body[k] == "." \
                    and not (k >= 1 and body[k - 1].isdigit()):
                pre = self._postfix_expr_type(fn, body, k - 1, _depth + 1)
                return self.member_types.get((pre, name)) if pre else None
            if name == "this":
                return fn.cls
            return self._identifier_type(fn, name)
        return None

    def resolve_call(self, callee, receiver, fn, recv_type=None):
        """Candidate definitions for a call site.

        Plain/this calls prefer the caller's own class. Receiver calls
        resolve through the receiver's declared type when a member,
        parameter, or local declaration reveals it (including scanned
        subclasses, so an interface call reaches every implementation);
        accessor-chained receivers (`region->tree()->Flush`) arrive
        pre-typed via `recv_type` from method return-type inference.
        A multi-class name with an untypable receiver resolves to
        nothing — the caller counts those sites so the imprecision is
        reported, never silently absorbed as false edges."""
        cands = self.defs_by_name.get(callee, [])
        if not cands:
            return []
        if recv_type is not None:
            family = {recv_type} | self.descendants(recv_type)
            return [f for f in cands if f.cls in family]
        if receiver in (None, "", "this"):
            own = [f for f in cands if f.cls == fn.cls]
            if own:
                return own
        else:
            t = self._identifier_type(fn, receiver)
            if t is not None:
                family = {t} | self.descendants(t)
                return [f for f in cands if f.cls in family]
        classes = {f.cls for f in cands}
        if len(classes) == 1:
            return cands
        return []



# -- per-file scanning (pure; the unit the incremental cache stores) ------


def _fn_to_dict(fn):
    return {
        "name": fn.name, "qualname": fn.qualname, "cls": fn.cls,
        "sig_line": fn.sig_line, "body_start": fn.body_start,
        "body_end": fn.body_end, "return_type": fn.return_type,
        "requires": [[raw, sh] for raw, sh in fn.requires],
        "args_text": fn.args_text, "var_types": fn.var_types,
    }


def _type_variables(fn):
    """Types call receivers from parameter and local declarations
    (pointer/reference and smart-pointer shapes only)."""
    for text in (fn.args_text, fn.body):
        for m in SMART_PTR_DECL_RE.finditer(text):
            fn.var_types.setdefault(
                m.group(2), Program._type_name(m.group(1)))
        for m in PTR_REF_DECL_RE.finditer(text):
            fn.var_types.setdefault(
                m.group(2), Program._type_name(m.group(1)))
        for m in VALUE_DECL_RE.finditer(text):
            if m.group(1) not in VALUE_DECL_SKIP:
                fn.var_types.setdefault(m.group(2), m.group(1))


def extract_file_model(sf):
    """Scans one SourceFile into a JSON-serializable model dict. Uses
    only the file's own text — no cross-file state — so the result can
    be cached keyed by the file's content hash alone."""
    fm = {
        "functions": [],      # function dicts (see _fn_to_dict)
        "locks": [],          # [name, cls, rank_token, shared, line, anns]
        "guarded": [],        # [field, cls, guard, line]
        "member_types": [],   # [cls, member, type]
        "subclasses": [],     # [base, derived]
        "aliases": [],        # [alias, class]
        "decl_requires": [],  # [cls, method, raw, shared]
    }
    for fn in _scan_functions(sf):
        _type_variables(fn)
        fm["functions"].append(_fn_to_dict(fn))
    _register_decls(sf, fm)
    return fm


def _scan_functions(sf):
    clean = sf.clean
    functions = []
    # Scope stack entries: (kind, name) with kind in
    # {namespace, class, function, block, enum}.
    stack = []
    seg_start = 0
    i, n = 0, len(clean)
    current_fn_stack = []
    while i < n:
        c = clean[i]
        if c == ";":
            # Class-scope declarations carry lock/field registrations.
            seg_start = i + 1
        elif c == "{":
            seg = clean[seg_start:i]
            # A brace directly after '=', ',' or '(' is an
            # initializer (`extra = {}`, `f({...})`), not a scope:
            # keep accumulating the current segment through it.
            if seg.rstrip()[-1:] in ("=", ",", "("):
                stack.append(("init", ""))
                i += 1
                continue
            kind, name = _classify_segment(seg)
            if kind == "function" and not current_fn_stack:
                fn = _make_function(sf, seg, seg_start, i, stack)
                if fn is not None:
                    functions.append(fn)
                    current_fn_stack.append((len(stack), fn))
                    stack.append(("function", fn.name))
                else:
                    stack.append(("block", ""))
            elif kind in ("namespace", "class", "enum"):
                stack.append((kind, name))
            else:
                stack.append(("block", ""))
            seg_start = i + 1
        elif c == "}":
            if stack:
                kind, name = stack.pop()
                if kind == "init":
                    i += 1
                    continue  # still inside the pending segment
                if kind == "function" and current_fn_stack and \
                        current_fn_stack[-1][0] == len(stack):
                    _, fn = current_fn_stack.pop()
                    fn.body_end = i + 1
            seg_start = i + 1
        i += 1
    return functions


def _register_decls(sf, fm):
    """Registries scan flat text with class attribution via a second
    pass: attribute each lock/field decl to the class whose body
    contains it."""
    clean = sf.clean
    class_spans = _class_spans(clean, fm)
    for m in TYPE_ALIAS_RE.finditer(clean):
        if m.group(1) != m.group(2):
            fm["aliases"].append([m.group(1), m.group(2)])

    def owner(pos):
        best = ""
        best_len = None
        for (start, end, name) in class_spans:
            if start <= pos < end and (best_len is None or
                                       end - start < best_len):
                best, best_len = name, end - start
        return best

    # Locks. Rank tokens stay symbolic here; the Program resolves them
    # against the rank table at merge time (so a cached model survives a
    # lock_order.h renumbering — the registry digest catches the rest).
    for m in LOCK_DECL_RE.finditer(clean):
        kind, raw_name, rank_token = m.groups()
        fm["locks"].append([canonical_lock_name(raw_name), owner(m.start()),
                            rank_token, kind == "SharedMutex",
                            line_of(clean, m.start())])
    # Guarded fields.
    for m in GUARDED_FIELD_RE.finditer(clean):
        cls = owner(m.start())
        fm["guarded"].append([m.group(1), cls,
                              canonical_lock_name(m.group(2)),
                              line_of(clean, m.start())])
    # Member variable types (for receiver-based call resolution).
    seen_members = set()
    for (start, end, cls) in class_spans:
        body = clean[start:end]
        for rex in (SMART_PTR_DECL_RE, PTR_REF_DECL_RE, VALUE_MEMBER_RE):
            for m in rex.finditer(body):
                key = (cls, m.group(2))
                if key not in seen_members:
                    seen_members.add(key)
                    fm["member_types"].append(
                        [cls, m.group(2), Program._type_name(m.group(1))])
    # Declaration-site REQUIRES: annotations live on the header
    # prototype (`void FooLocked() REQUIRES(mu_);`), not the
    # definition; fold them into the matching Function by
    # (class, method) after all files are scanned.
    for m in REQUIRES_RE.finditer(clean):
        cls = owner(m.start())
        head = clean[max(0, m.start() - 400):m.start()].rstrip()
        while True:
            q = re.search(r"(?:\bconst|\bnoexcept|\boverride|\bfinal"
                          r"|\bREQUIRES(?:_SHARED)?\s*\([^()]*\))\s*$",
                          head)
            if q is None:
                break
            head = head[:q.start()].rstrip()
        if not head.endswith(")"):
            continue
        open_idx = _match_open_paren(head, len(head) - 1)
        if open_idx <= 0:
            continue
        nm = NAME_BEFORE_PAREN_RE.search(head[:open_idx])
        if nm is None:
            continue
        method = re.sub(r"\s+", "", nm.group(1)).rsplit("::", 1)[-1]
        if method in CONTROL_KEYWORDS or method in MACRO_NAMES:
            continue
        shared = m.group(1) == "REQUIRES_SHARED"
        for arg in m.group(2).split(","):
            a = arg.strip()
            if a:
                fm["decl_requires"].append([cls, method, a, shared])


def _class_spans(clean, fm):
    """[(start, end, name)] body spans of class/struct definitions.
    Also records base classes into the file model's subclass edges."""
    spans = []
    seen_edges = set()
    for m in re.finditer(r"\b(?:class|struct)\s+(?:CAPABILITY\s*\([^)]*\)\s*|SCOPED_CAPABILITY\s+)?([A-Za-z_]\w*)\s*(?:final\s*)?(:[^;{()]*)?\{", clean):
        name = m.group(1)
        bases = m.group(2) or ""
        for bm in re.finditer(r"[A-Za-z_][\w:]*", bases):
            base = bm.group(0)
            if base in ("public", "protected", "private", "virtual",
                        "final", "std"):
                continue
            base = Program._type_name(base)
            if base != name and (base, name) not in seen_edges:
                seen_edges.add((base, name))
                fm["subclasses"].append([base, name])
        start = m.end() - 1
        depth = 0
        for j in range(start, len(clean)):
            if clean[j] == "{":
                depth += 1
            elif clean[j] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((start, j + 1, name))
                    break
    return spans


def _classify_segment(seg):
        s = seg.strip()
        if not s:
            return "block", ""
        m = re.search(r"\bnamespace\s*([A-Za-z_]\w*)?\s*$", s)
        if m:
            return "namespace", m.group(1) or ""
        if re.search(r"\benum\b", s):
            return "enum", ""
        m = re.search(r"\b(?:class|struct|union)\s+(?:CAPABILITY\s*\([^)]*\)\s*|SCOPED_CAPABILITY\s+)?([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?$", s)
        if m:
            return "class", m.group(1)
        # Lambda introducer directly before the brace: `[..](..) {` or
        # `[..] {` — not a named function.
        if re.search(r"\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:REQUIRES(?:_SHARED)?\s*\([^()]*\)\s*)?(?:->\s*[\w:<>]+\s*)?$", s):
            return "block", ""
        stripped = _strip_ctor_init_list(s)
        tail = SIG_TAIL_RE.search(stripped)
        head = stripped[:tail.start()] if tail else stripped
        if not head.rstrip().endswith(")"):
            return "block", ""
        close = head.rstrip()
        open_idx = _match_open_paren(close, len(close) - 1)
        if open_idx <= 0:
            return "block", ""
        nm = NAME_BEFORE_PAREN_RE.search(close[:open_idx])
        if nm is None:
            return "block", ""
        name = re.sub(r"\s+", "", nm.group(1))
        simple = name.rsplit("::", 1)[-1]
        if simple in CONTROL_KEYWORDS or simple in MACRO_NAMES:
            return "block", ""
        if simple in GTEST_MACROS:
            return "function", name
        return "function", name

def _make_function(sf, seg, seg_start, brace_pos, stack):
        s = seg.strip()
        stripped = _strip_ctor_init_list(s)
        tail = SIG_TAIL_RE.search(stripped)
        head = stripped[:tail.start()] if tail else stripped
        tail_text = stripped[tail.start():] if tail else ""
        head = head.rstrip()
        if not head.endswith(")"):
            return None
        open_idx = _match_open_paren(head, len(head) - 1)
        if open_idx <= 0:
            return None
        nm = NAME_BEFORE_PAREN_RE.search(head[:open_idx])
        if nm is None:
            return None
        name = re.sub(r"\s+", "", nm.group(1))
        simple = name.rsplit("::", 1)[-1]
        if simple in CONTROL_KEYWORDS or simple in MACRO_NAMES:
            return None
        args_text = head[open_idx + 1:-1]
        if simple in GTEST_MACROS:
            parts = [a.strip() for a in args_text.split(",")]
            qual = ".".join(p for p in parts if p)
            fn_name = qual or simple
            # TEST_F/TEST_P bodies run as methods of the fixture class:
            # attributing them to it resolves fixture-helper calls.
            cls = parts[0] if parts and simple in (
                "TEST_F", "TEST_P", "TYPED_TEST") else ""
            qualname = simple + ":" + qual
            return_type = "void"
            requires = []
        else:
            # Enclosing class from the scope stack (innermost class).
            cls = ""
            for kind, scope_name in reversed(stack):
                if kind == "class":
                    cls = scope_name
                    break
            if "::" in name:
                qual_cls = name.rsplit("::", 2)[-2]
                cls = qual_cls
                qualname = name
            else:
                qualname = (cls + "::" + name) if cls else name
            fn_name = simple
            ret_head = head[:nm.start()].strip()
            ret_tokens = [t for t in re.split(r"[\s&*]+", ret_head)
                          if t and t not in ("static", "inline", "virtual",
                                             "explicit", "constexpr",
                                             "friend", "mutable", "const")]
            return_type = ret_tokens[-1] if ret_tokens else ""
            requires = []
            for rm in REQUIRES_RE.finditer(tail_text):
                shared = rm.group(1) == "REQUIRES_SHARED"
                for arg in rm.group(2).split(","):
                    a = arg.strip()
                    if a:
                        requires.append((a, shared))
        sig_line = line_of(sf.clean, seg_start + len(seg) - len(seg.lstrip()))
        return Function(fn_name, qualname, cls, sf, sig_line, brace_pos,
                        len(sf.clean), return_type, requires, args_text)
