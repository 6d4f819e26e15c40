"""Content-addressed file cache for expensive command outputs.

Entries are keyed by a stable hash of the request (system, weights,
operation, parameters); the stored payload carries its own checksum so a
corrupt entry is detected, logged, and transparently recomputed.  Writes
go through a temp file and an atomic rename, so concurrent readers never
observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional

log = logging.getLogger(__name__)


def cache_dir() -> Path:
    """Cache root: $HOLDERLAB_CACHE if set, else ~/.cache/holderlab."""
    env = os.environ.get("HOLDERLAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "holderlab"


def cache_key(payload) -> str:
    """Stable hex key for a JSON-serialisable request description."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _entry_path(key: str, root: Path) -> Path:
    return root / key[:2] / key


def _checksum(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest().encode("ascii")


def cached_bytes(key: str, producer: Callable[[], bytes],
                 root: Optional[Path] = None) -> bytes:
    """Return the cached payload for `key`, producing and storing on miss.

    The stored file is `<sha256 of body>\\n<body>`; a mismatch between the
    recorded and recomputed checksum marks the entry corrupt, which is
    logged and repaired by re-running the producer.
    """
    root = cache_dir() if root is None else Path(root)
    path = _entry_path(key, root)
    if path.exists():
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        if head == _checksum(body):
            return body
        log.warning("corrupt cache entry %s; recomputing", path)

    body = producer()
    _write_atomic(path, _checksum(body) + b"\n" + body)
    return body


def _write_atomic(path: Path, body: bytes):
    """Write `body` to `path` through a temp file and an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
