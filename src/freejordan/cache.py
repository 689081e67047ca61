"""Content-addressed JSON cache for expensive rank results.

Entries are keyed by the operation name, the canonical JSON form of its
parameters, and a sha256 digest of the package's own source files; any
change to the code orphans every old entry.  A corrupt or mismatched file
is treated as a miss (with a warning) and overwritten by the recomputed
value.  Access is a single read or an atomic replace per key, so
concurrent processes at worst recompute the same value.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path


def cache_dir() -> Path:
    env = os.environ.get("FREEJORDAN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "freejordan"


@cache
def source_digest() -> str:
    """sha256 over the package's *.py files, read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _canonical(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def _entry_path(operation: str, params: dict) -> Path:
    digest = hashlib.sha256(
        ("%s\n%s\n%s" % (operation, _canonical(params), source_digest())).encode()
    ).hexdigest()
    return cache_dir() / ("%s-%s.json" % (operation, digest[:24]))


def cache_get(operation: str, params: dict):
    """The stored result, or None on miss, stale source, or corruption."""
    path = _entry_path(operation, params)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            blob = json.load(fh)
        if (
            blob["operation"] != operation
            or blob["params"] != _canonical(params)
            or blob["source"] != source_digest()
        ):
            return None
        return blob["result"]
    except (OSError, ValueError, KeyError) as err:
        print(
            "warning: ignoring corrupt cache entry %s (%s)" % (path.name, err),
            file=sys.stderr,
        )
        return None


def cache_put(operation: str, params: dict, result):
    """Store result atomically; returns it for call-through style."""
    path = _entry_path(operation, params)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = {
        "operation": operation,
        "params": _canonical(params),
        "source": source_digest(),
        "result": result,
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(blob, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def cached(operation: str, params: dict, compute):
    """Serve from the cache or compute, store, and return."""
    hit = cache_get(operation, params)
    if hit is not None:
        return hit
    return cache_put(operation, params, compute())
