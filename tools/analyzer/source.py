"""Source-file layer of the Diff-Index whole-program analyzer.

Loads each translation unit / header once and derives the views the
rest of the package works on:

  raw        the file exactly as on disk (waiver comments live here)
  clean      comments AND string literals blanked, line structure kept
  clean_str  comments blanked, string literals kept (failpoint,
             metric and include names)
  waivers    parsed ANALYZER_WAIVE annotations

Waiver grammar (DESIGN.md section 15): a finding is suppressed by a
comment on the reported line or the line directly above it:

    // ANALYZER_WAIVE(rule-name): written rationale for the exception

The rationale is mandatory — a waiver whose rationale is missing or
trivially short is itself reported (rule `waiver-rationale`) and does
not suppress anything. For interprocedural findings the waiver may sit
at any call site on the reported chain, so a deliberate by-design edge
is waived once, where the design decision lives.
"""

import os
import re

WAIVE_RE = re.compile(r"ANALYZER_WAIVE\(([a-z-]+)\)\s*(?::\s*(.*))?")

# A rationale must be a real sentence, not an empty tag.
MIN_RATIONALE_CHARS = 12


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments (and optionally string literals), preserving
    line structure so reported line numbers stay true."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j
        elif c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            j = min(j + 1, n)
            if keep_strings:
                out.append(text[i:j])
            else:
                out.append('"' + " " * max(0, j - i - 2) + '"')
            i = j
        elif c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                j += 1
            j = min(j + 1, n)
            out.append("'" + " " * max(0, j - i - 2) + "'")
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Waiver:
    def __init__(self, rule, rationale, line):
        self.rule = rule
        self.rationale = rationale
        self.line = line

    @property
    def valid(self):
        return len(self.rationale.strip()) >= MIN_RATIONALE_CHARS


class SourceFile:
    def __init__(self, path, root):
        self.path = os.path.normpath(path)
        self.rel = os.path.relpath(self.path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.clean = strip_comments_and_strings(self.raw)
        self.clean_str = strip_comments_and_strings(self.raw, keep_strings=True)
        self.lines = self.raw.splitlines()
        # line -> [Waiver]; a waiver covers its own line and the next one.
        # A waiver inside a multi-line // comment block anchors to the
        # first statement after the block, so rationales may wrap.
        self.waivers = {}
        raw_lines = self.raw.split("\n")
        for m in WAIVE_RE.finditer(self.raw):
            line = line_of(self.raw, m.start())
            w = Waiver(m.group(1), m.group(2) or "", line)
            self.waivers.setdefault(line, []).append(w)
            anchor = line  # 1-based; raw_lines[anchor] is the next line
            while (anchor < len(raw_lines)
                   and raw_lines[anchor].lstrip().startswith("//")):
                anchor += 1
            if anchor != line:
                self.waivers.setdefault(anchor + 1, []).append(w)

    def waiver_for(self, rule, line):
        """Returns a valid Waiver covering `line` for `rule`, or None.
        A waiver comment covers its own line and the line below it (the
        usual comment-above-the-statement placement)."""
        for probe in (line, line - 1):
            for w in self.waivers.get(probe, ()):
                if w.rule == rule and w.valid:
                    return w
        return None

    def invalid_waivers(self):
        out = []
        for waivers in self.waivers.values():
            out.extend(w for w in waivers if not w.valid)
        return out


SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")

# Directories whose files are never analyzed: the fixture corpus seeds
# deliberate violations.
EXCLUDED_DIR_PARTS = (
    os.path.join("tests", "analyzer", "fixtures"),
)


def gather_files(root, subdirs=("src", "tests")):
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            if any(part in dirpath for part in EXCLUDED_DIR_PARTS):
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.normpath(os.path.join(dirpath, name)))
    return sorted(files)
