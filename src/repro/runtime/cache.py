"""Content-addressed result cache for experiment payloads.

Keys are SHA-256 digests over the canonical JSON encoding of
``(cache version, experiment id, kwargs, code fingerprint)`` — the seed
rides along inside ``kwargs``, and the fingerprint (see
:mod:`repro.runtime.fingerprint`) ties every entry to the exact source
tree that produced it.  Values are JSON documents holding the rendered
report, the claim checklist and any CSV/SVG artifacts, stored under
``<root>/<key[:2]>/<key>.json`` so re-runs with unchanged inputs are a
single file read.

Robustness contract (see docs/ROBUSTNESS.md):

* **Strict canonicalization.**  Keys and payloads are encoded by one
  strict canonical encoder that *raises* :class:`CacheKeyError` on
  anything not JSON-encodable — a ``repr`` fallback would let two
  distinct objects with identical reprs silently collide on one key.
* **Atomic writes.**  Entries are written to a temp file and
  ``os.replace``\\ d into place; a killed run never leaves a
  half-written entry behind.
* **Checksummed reads.**  Every entry carries a SHA-256 checksum of its
  payload, verified on :meth:`ResultCache.get`.  A corrupt entry is a
  miss, and is *quarantined* to ``<key>.corrupt`` for post-mortem
  rather than silently deleted.
* **Advisory per-key locks.**  :meth:`ResultCache.lock` takes an
  ``fcntl`` flock on ``<key>.lock`` so two processes sharing a cache
  dir compute each key exactly once
  (:meth:`ResultCache.get_or_compute`).  The lock dies with its holder,
  and a configurable timeout bounds how long a waiter honours a holder
  that is alive but hung — after it expires the waiter computes anyway
  (the lock is advisory; duplicated work beats a deadlock).

``python -m repro.runtime cache verify|prune`` (also reachable as
``python -m repro.runtime.cache``) audits and garbage-collects a cache
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

try:  # POSIX only; on other platforms locks degrade to no-ops.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.obs.spans import span as obs_span
from repro.runtime.fingerprint import code_fingerprint
from repro.util.atomicio import atomic_write_text

__all__ = [
    "CacheKeyError",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "main",
    "payload_checksum",
]

#: Bump to orphan every existing entry when the payload layout changes.
CACHE_VERSION = 2

#: Default seconds a waiter honours another process's per-key lock.
DEFAULT_LOCK_TIMEOUT_S = 600.0


class CacheKeyError(TypeError):
    """Raised when a cache key or payload is not canonically encodable."""


def canonical_json(doc: Any, *, allow_nan: bool = False) -> str:
    """The one canonical JSON encoding used for keys and checksums.

    Sorted keys, minimal separators, and — crucially — *no* ``default``
    fallback: a non-encodable object raises instead of degrading to a
    ``repr`` that may collide across distinct objects.
    """
    try:
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan
        )
    except (TypeError, ValueError) as exc:
        raise CacheKeyError(f"not canonically JSON-encodable: {exc}") from exc


def payload_checksum(payload: Any) -> str:
    """SHA-256 over the canonical encoding of *payload*."""
    body = canonical_json(payload, allow_nan=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def cache_key(experiment: str, kwargs: Mapping[str, Any], fingerprint: str) -> str:
    """Deterministic content address for one experiment invocation.

    Raises :class:`CacheKeyError` when *kwargs* contains anything not
    JSON-encodable — better to fail loudly at submission than to let
    ``repr``-keyed entries alias each other.
    """
    doc = {
        "version": CACHE_VERSION,
        "experiment": experiment,
        "kwargs": dict(kwargs),
        "fingerprint": fingerprint,
    }
    canonical = canonical_json(doc)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """File-backed content-addressed store of experiment payloads."""

    def __init__(self, root: str, *, fingerprint: Optional[str] = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()

    def key(self, experiment: str, kwargs: Mapping[str, Any]) -> str:
        return cache_key(experiment, kwargs, self.fingerprint)

    def entry_path(self, key: str) -> Path:
        """Where *key*'s entry lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a damaged entry aside as ``<key>.corrupt`` for post-mortem."""
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        return target

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for *key*, or ``None``.

        Unreadable or checksum-mismatched entries are quarantined to
        ``<key>.corrupt`` and read as misses; version-mismatched entries
        (an older, well-formed format) are plain misses.
        """
        path = self.entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
            return None
        payload = entry.get("payload")
        try:
            expected = payload_checksum(payload)
        except CacheKeyError:  # pragma: no cover - payload was strict at put time
            expected = None
        if entry.get("checksum") != expected or expected is None:
            self._quarantine(path)
            return None
        return payload

    def put(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Atomically persist *payload* under *key*; returns the entry path.

        The payload is normalized through the canonical encoder (tuples
        become lists, exactly as a later ``get`` will see them) and
        stored with a SHA-256 checksum.  Raises :class:`CacheKeyError`
        for payloads or meta that are not JSON-encodable.
        """
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = canonical_json(payload, allow_nan=True)
        entry = {
            "version": CACHE_VERSION,
            "key": key,
            "fingerprint": self.fingerprint,
            "meta": dict(meta or {}),
            "checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "payload": json.loads(body),
        }
        text = canonical_json(entry, allow_nan=True)
        atomic_write_text(path, text)
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # -- concurrency ---------------------------------------------------------

    @contextmanager
    def lock(
        self,
        key: str,
        *,
        timeout: Optional[float] = DEFAULT_LOCK_TIMEOUT_S,
        poll_s: float = 0.05,
    ) -> Iterator[bool]:
        """Advisory exclusive per-key lock (``fcntl`` flock on ``<key>.lock``).

        Yields ``True`` when the lock was acquired, ``False`` when the
        platform has no ``fcntl`` or *timeout* seconds elapsed first (a
        live-but-hung holder must not deadlock the fleet — the caller
        proceeds unlocked and at worst duplicates work).  A holder that
        *dies* releases the lock instantly: flocks are kernel-owned, so
        there are no stale lockfiles to clean up — the ``.lock`` files
        themselves are inert and removed by ``cache prune``.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield False
            return
        lock_path = self.entry_path(key).with_suffix(".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        acquired = False
        try:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    time.sleep(poll_s)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - kernel releases on close
                    pass
            os.close(fd)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Dict[str, Any]],
        *,
        meta: Optional[Mapping[str, Any]] = None,
        refresh: bool = False,
        lock_timeout: Optional[float] = DEFAULT_LOCK_TIMEOUT_S,
    ) -> Tuple[Dict[str, Any], bool]:
        """Return ``(payload, hit)``, computing under the per-key lock.

        The double-checked pattern guarantees that concurrent callers
        sharing a cache dir compute each key once: losers of the lock
        race block until the winner has published, then read the entry.
        ``refresh=True`` skips lookups but still locks and republishes.
        """
        if not refresh:
            with obs_span("cache.lookup", key=key[:12]) as handle:
                hit = self.get(key)
                handle.set(hit=hit is not None)
            if hit is not None:
                return hit, True
        with self.lock(key, timeout=lock_timeout):
            if not refresh:
                with obs_span("cache.lookup", key=key[:12], locked=True) as handle:
                    hit = self.get(key)  # published while we waited for the lock
                    handle.set(hit=hit is not None)
                if hit is not None:
                    return hit, True
            with obs_span("cache.compute", key=key[:12]):
                payload = compute()
            with obs_span("cache.publish", key=key[:12]):
                self.put(key, payload, meta=meta)
        return payload, False

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache, sorted."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("??/*.json")))

    def verify_entry(self, path: Path) -> str:
        """Classify one entry file: ``ok``, ``stale`` or ``corrupt``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            return "corrupt"
        except ValueError:
            return "corrupt"
        if not isinstance(entry, dict):
            return "corrupt"
        if entry.get("version") != CACHE_VERSION or entry.get("fingerprint") != self.fingerprint:
            return "stale"
        try:
            expected = payload_checksum(entry.get("payload"))
        except CacheKeyError:
            return "corrupt"
        return "ok" if entry.get("checksum") == expected else "corrupt"


# -- maintenance CLI ---------------------------------------------------------


def _cmd_verify(cache: ResultCache, *, quarantine: bool) -> int:
    counts = {"ok": 0, "stale": 0, "corrupt": 0}
    corrupt: List[Path] = []
    for path in cache.entries():
        verdict = cache.verify_entry(path)
        counts[verdict] += 1
        if verdict == "corrupt":
            corrupt.append(path)
    for path in corrupt:
        if quarantine:
            moved = cache._quarantine(path)
            print(f"quarantined {path} -> {moved}")
        else:
            print(f"corrupt: {path}")
    print(
        f"cache verify: {counts['ok']} ok, {counts['stale']} stale, "
        f"{counts['corrupt']} corrupt under {cache.root}"
    )
    return 1 if counts["corrupt"] else 0


def _cmd_prune(cache: ResultCache, *, include_corrupt: bool) -> int:
    removed = {"stale": 0, "lock": 0, "tmp": 0, "corrupt": 0}
    for path in list(cache.entries()):
        if cache.verify_entry(path) == "stale":
            path.unlink(missing_ok=True)
            removed["stale"] += 1
    if cache.root.is_dir():
        for pattern, label in (("??/*.lock", "lock"), ("??/*.tmp", "tmp")):
            for path in sorted(cache.root.glob(pattern)):
                path.unlink(missing_ok=True)
                removed[label] += 1
        if include_corrupt:
            for path in sorted(cache.root.glob("??/*.corrupt")):
                path.unlink(missing_ok=True)
                removed["corrupt"] += 1
    print(
        f"cache prune: removed {removed['stale']} stale entr(ies), "
        f"{removed['lock']} lockfile(s), {removed['tmp']} temp file(s), "
        f"{removed['corrupt']} quarantined file(s) under {cache.root}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.runtime.cache {verify,prune}``."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Audit and garbage-collect a repro result cache directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="checksum-verify every entry")
    verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt entries aside as <key>.corrupt",
    )
    prune = sub.add_parser("prune", help="remove stale entries, lockfiles and temp files")
    prune.add_argument(
        "--corrupt",
        action="store_true",
        help="also delete quarantined <key>.corrupt files",
    )
    for p in (verify, prune):
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=os.path.join("results", "cache"),
            help="cache location (default results/cache)",
        )
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.command == "verify":
        return _cmd_verify(cache, quarantine=args.quarantine)
    return _cmd_prune(cache, include_corrupt=args.corrupt)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
