"""Content-addressed on-disk result cache.

Simulation points are pure functions of their configuration, so their
results can be memoised across processes and sessions.  A cache key is
the SHA-256 of

* the **canonical JSON** of the point's configuration (every field of
  every :class:`~repro.value.Value` and dataclass, recursively, with
  sorted keys), and
* a **code version token** — a hash over the source text of the whole
  ``repro`` package, so any code change invalidates every entry rather
  than serving stale numbers.

Entries are JSON files under ``<dir>/<key[:2]>/<key>.json`` (the git
object-store layout, keeping directories small).  Reads tolerate any
corruption by treating the entry as a miss; writes are atomic
(temp file + rename) so parallel writers never expose torn entries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ..value import Value

__all__ = [
    "ResultCache",
    "fingerprint",
    "code_version_token",
    "default_cache_dir",
]

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_NFS_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_NFS_CACHE_DIR``, else ``~/.cache/repro-nfs``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-nfs")


@functools.lru_cache(maxsize=1)
def code_version_token() -> str:
    """Hash of every ``.py`` source file in the ``repro`` package.

    Computed once per process; any edit to the simulator (or anything it
    imports from the package) changes the token and thereby every key.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _jsonable(value: Any) -> Any:
    """Reduce configs to canonically serialisable structures.

    A :class:`~repro.value.Value` and a dataclass instance both become
    their class name under ``"__dataclass__"`` plus their fields, so a
    spec's key does not depend on which of the two defines it.
    """
    names = None
    if isinstance(value, Value):
        names = value.FIELDS
    elif hasattr(type(value), "__dataclass_fields__"):
        # Only tooling specs (``JobSpec``) are dataclasses, and their
        # modules have imported ``dataclasses`` already.
        import dataclasses

        names = [f.name for f in dataclasses.fields(value)]
    if names is not None:
        return {
            "__dataclass__": type(value).__name__,
            **{name: _jsonable(getattr(value, name)) for name in names},
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r}; "
        "job specs must be built from Value records, dataclasses and plain values"
    )


def fingerprint(spec: Any, version: Optional[str] = None) -> str:
    """Content address of a configuration object.

    ``version`` defaults to :func:`code_version_token`; tests pass an
    explicit token to decouple themselves from the working tree.
    """
    canonical = json.dumps(
        _jsonable(spec), sort_keys=True, separators=(",", ":")
    )
    token = code_version_token() if version is None else version
    return hashlib.sha256(f"{token}\0{canonical}".encode()).hexdigest()


class ResultCache:
    """On-disk JSON store addressed by :func:`fingerprint` keys."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = Path(directory or default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` (corrupt entries are misses)."""
        path = self._path(key)
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stores"
