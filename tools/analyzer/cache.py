"""Incremental analysis cache (`--cache-dir`).

The analyzer's per-file work splits into two cacheable units:

  model   `extract_file_model` output — pure over the file's own text,
          so it is keyed by the file content hash alone.
  events  the `build_events` output (event list, yield flag, direct
          callees per function) — consumes cross-file registries (lock
          ranks, member types, definition signatures for receiver
          typing), so entries are keyed additionally by the Program's
          `registry_digest()`; a cached event list built under a
          different digest is stale even for a byte-identical file.

One JSON blob per source file, named by the content hash, holding the
model plus the event lists for the most recent registry digest. The
interprocedural phases (context propagation, rules) always run live —
they are whole-program and cheap. Cache statistics go to stderr only,
so a warm run's report is byte-identical to a cold run's.
"""

import hashlib
import json
import os

from dataflow import Event, HeldLock

# Bump whenever the per-file model dict, the event format, or the
# classification that feeds them changes shape or semantics.
SCHEMA_VERSION = 4


def content_key(sf):
    h = hashlib.sha256()
    h.update(("diffindex-analyzer-v%d\n" % SCHEMA_VERSION).encode())
    h.update(sf.raw.encode("utf-8", "replace") if isinstance(sf.raw, str)
             else sf.raw)
    return h.hexdigest()


def _blob_path(cache_dir, key):
    return os.path.join(cache_dir, key[:2], key + ".json")


def load(cache_dir, key):
    try:
        with open(_blob_path(cache_dir, key)) as f:
            blob = json.load(f)
    except (OSError, ValueError):
        return None
    if blob.get("schema") != SCHEMA_VERSION:
        return None
    return blob


def store(cache_dir, key, blob):
    """Atomic publish — fittingly, tmp + rename (fsync skipped: a torn
    cache entry is re-derived, not trusted)."""
    path = _blob_path(cache_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(blob, f, separators=(",", ":"))
    os.replace(tmp, path)


# -- event (de)serialization ----------------------------------------------


def _ser_event(ev):
    data = dict(ev.data)
    if "lock" in data:
        data["lock"] = list(data["lock"])
    return [ev.kind, ev.pos, ev.line, [list(h) for h in ev.held], data]


def _deser_event(row):
    kind, pos, line, held, data = row
    if "lock" in data:
        data["lock"] = HeldLock(*data["lock"])
    return Event(kind, pos, line, tuple(HeldLock(*h) for h in held), data)


def capture_events(fn):
    return {
        "events": [_ser_event(ev) for ev in fn.events],
        "has_yield": fn.has_yield,
        "direct_callees": sorted(fn.direct_callees),
    }


def restore_events(fn, row):
    fn.events = [_deser_event(r) for r in row["events"]]
    fn.has_yield = bool(row["has_yield"])
    fn.direct_callees = set(row["direct_callees"])
