"""Content-addressed, namespace-aware artifact store.

:class:`ArtifactStore` is an on-disk cache for expensive simulation
artifacts (synthetic traces, OPT profiles, hint maps, timing results).
Keys are SHA-256 hashes of the *full recipe* that produced an artifact
plus a version salt, so any change to the recipe — or to the artifact
format — naturally invalidates old entries.  Writes are atomic (temp
file + ``os.replace``) and every payload carries an integrity digest; a
corrupt file is moved into a ``.quarantine/`` directory for forensics
and the artifact is recomputed, never served stale.

Multi-tenancy (the service's isolation primitive): a root store hands
out **namespaces** via :meth:`ArtifactStore.namespace` — child stores
rooted at ``<root>/tenants/<name>`` with their own
:class:`~repro.harness.reporting.CacheStats` and an optional byte quota.
Two namespaces never share artifact files, so one tenant can neither
read nor evict another's cache; a namespace over its quota rejects new
writes with :class:`QuotaExceededError` instead of growing unbounded.

Usage accounting: every store keeps one on-disk usage counter, seeded
lazily by a single full scan on first read (or on the first write
under a quota) and updated by every in-process write under its root —
artifact writes and replacements, quarantine moves, run-log lines
appended through :meth:`ArtifactStore.append`, and, through
:meth:`ArtifactStore.note_dir`, the run journals and manifests the
engine and the service write next to the artifacts.  What counts is
every file under the root: artifacts, quarantine, run journals and
manifests.  Reading it (:meth:`ArtifactStore.usage_bytes`,
:meth:`ArtifactStore.namespaces_summary`) is O(1).  Writes the counter
cannot see — worker processes writing through their own store objects —
are followed by :meth:`ArtifactStore.drop_usage`, which re-seeds it with
one full scan at the next read.  Every full scan is counted as
``store/usage_scans``.

Concurrency: interleaved submitters (the asyncio service, threaded
tests) share one store object, so every stats/usage update happens under
an internal lock and :meth:`ArtifactStore.fetch` is **single-flight** —
concurrent fetches of the same key run the compute exactly once and the
other callers block until the artifact lands, then read it back.  File
I/O itself was already safe (atomic renames, digest-verified reads).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.harness.reporting import CacheStats
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span

log = logging.getLogger(__name__)

__all__ = ["ArtifactStore", "QuotaExceededError", "QUARANTINE_DIR",
           "STORE_VERSION", "TENANTS_DIR", "artifact_key",
           "validate_namespace"]

#: Bump to invalidate every cached artifact (format or semantics change).
#: "2": BTBStats grew the ``target_mismatches`` counter, so version-1
#: pickles would deserialize without the field.  "3": ``OptProfile``
#: holds int64 columns instead of a dict of ``BranchProfile`` objects.
STORE_VERSION = "3"

_MAGIC = b"RPRO"
_DIGEST_BYTES = 32  # sha256

#: Corrupt artifacts are moved here (under the store root) instead of
#: being destroyed, so a digest failure stays diagnosable after the fact.
QUARANTINE_DIR = ".quarantine"

#: Namespace (tenant) roots live here, under the parent store's root.
TENANTS_DIR = "tenants"

#: How many run directories :meth:`ArtifactStore.note_dir` remembers.
_DIR_MEMO = 64

#: Namespace names must be path-safe: no separators, no dot-dot.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_namespace(name: str) -> str:
    """``name`` back if it is a legal namespace (tenant) name.

    Raises :class:`ValueError` otherwise — the same check
    :meth:`ArtifactStore.namespace` enforces, exposed so front doors
    (the service's wire handler) can reject a bad tenant name up front
    instead of letting it explode mid-run.
    """
    if not _NAMESPACE_RE.match(name or ""):
        raise ValueError(f"invalid namespace name {name!r}: must "
                         f"match {_NAMESPACE_RE.pattern}")
    return name


def _file_size(path: Union[str, Path]) -> int:
    """``path``'s size in bytes, 0 when it does not exist."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _files_size(directory: str) -> int:
    """Bytes of the regular files directly inside ``directory`` (0 when
    it does not exist)."""
    total = 0
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                try:
                    if entry.is_file(follow_symlinks=False):
                        total += entry.stat().st_size
                except OSError:
                    continue
    except OSError:
        pass
    return total


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------

def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives for hashing.

    Dataclasses are tagged with their type name so two configs with
    coincidentally equal fields still key differently.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def artifact_key(kind: str, salt: str = STORE_VERSION, **fields) -> str:
    """SHA-256 content key for an artifact of ``kind`` built from
    ``fields``.  Stable across processes and machines (no reliance on
    ``hash()`` or dict order)."""
    payload = json.dumps({"kind": kind, "salt": salt,
                          "fields": _canonical(fields)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class QuotaExceededError(RuntimeError):
    """A namespace write would push its on-disk footprint past its quota.

    The store rejects the write (nothing is evicted and nothing partial
    is left behind); the artifact simply stays uncached, so callers that
    treat the store as a cache keep working — they just recompute.
    """

    def __init__(self, message: str, namespace: Optional[str] = None,
                 quota_bytes: Optional[int] = None,
                 usage_bytes: Optional[int] = None):
        super().__init__(message)
        self.namespace = namespace
        self.quota_bytes = quota_bytes
        self.usage_bytes = usage_bytes


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------

class ArtifactStore:
    """Content-addressed pickle store with atomic writes, integrity
    checks, and tenant namespaces.

    Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl`` where each file is
    ``MAGIC + sha256(payload) + payload``.  A file that is missing, has a
    bad digest, or fails to unpickle is a cache miss; the corrupt bytes
    are quarantined under ``<root>/.quarantine/<kind>/`` and the caller
    recomputes the artifact — stale or mangled bytes are never returned.

    ``namespace``/``quota_bytes`` are normally set by
    :meth:`namespace`, which roots a child store at
    ``<root>/tenants/<name>`` — see the module docstring for the
    isolation and quota semantics.
    """

    def __init__(self, root: Union[str, Path], salt: str = STORE_VERSION,
                 *, namespace: Optional[str] = None,
                 quota_bytes: Optional[int] = None):
        self.root = Path(root).expanduser()
        self.salt = salt
        #: This store's tenant name (None for a root store).
        self.tenant = namespace
        self.quota_bytes = (int(quota_bytes)
                            if quota_bytes is not None else None)
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``root`` as a string, for the read path's ``os.path.join``
        #: (a warm hit builds no ``Path``).
        self._root_str = str(self.root)
        self._lock = threading.RLock()
        #: (kind, key) → lock serializing in-flight fetch computes.
        self._flights: Dict[Tuple[str, str], threading.Lock] = {}
        self._namespaces: Dict[str, "ArtifactStore"] = {}
        #: The store whose root contains this one (set for namespaces):
        #: a write here changes the parent's footprint too.
        self._parent: Optional["ArtifactStore"] = None
        self._prefix = os.path.join(os.path.abspath(self.root), "")
        #: On-disk bytes under the root; None until the seeding scan.
        self._usage_bytes: Optional[int] = None
        #: Directory → bytes of its files as last accounted (bounded,
        #: most recent last) — the baseline :meth:`note_dir` diffs to.
        self._dir_sizes: "OrderedDict[str, int]" = OrderedDict()
        #: Artifact writes between reservation and rename; a seeding
        #: scan waits for none to be in flight, so it never counts a
        #: temp file that is about to become an accounted artifact.
        self._writes_in_flight = 0
        self._writes_idle = threading.Condition(self._lock)

    # -- namespaces ------------------------------------------------------
    def namespace(self, name: str,
                  quota_bytes: Optional[int] = None) -> "ArtifactStore":
        """The child store for tenant ``name`` (created on first use),
        rooted at ``<root>/tenants/<name>`` with its own stats and
        optional quota.  Repeated calls return the same object; a
        ``quota_bytes`` on a later call tightens/loosens the existing
        namespace's quota."""
        validate_namespace(name)
        with self._lock:
            child = self._namespaces.get(name)
            if child is None:
                child = ArtifactStore(self.root / TENANTS_DIR / name,
                                      salt=self.salt, namespace=name,
                                      quota_bytes=quota_bytes)
                child._parent = self
                self._namespaces[name] = child
            elif quota_bytes is not None:
                child.set_quota(quota_bytes)
            return child

    def namespaces(self) -> Dict[str, "ArtifactStore"]:
        """The live namespace children handed out so far (name → store)."""
        with self._lock:
            return dict(self._namespaces)

    def set_quota(self, quota_bytes: Optional[int]) -> None:
        """(Re)bound this store's on-disk footprint; None lifts it."""
        with self._lock:
            self.quota_bytes = (int(quota_bytes)
                                if quota_bytes is not None else None)

    # -- usage accounting ------------------------------------------------
    def _walk_sizes(self) -> Dict[str, int]:
        """One full scan: directory → bytes of the files directly in it,
        for every directory under the root."""
        get_registry().count("store/usage_scans")
        sizes: Dict[str, int] = {}
        for dirpath, _dirnames, _filenames in os.walk(self.root):
            directory = os.path.abspath(dirpath)
            sizes[directory] = _files_size(directory)
        return sizes

    def _scan_usage(self) -> int:
        """On-disk footprint of this store's root (artifacts, manifests,
        quarantine — everything a tenant occupies), by a full scan."""
        return sum(self._walk_sizes().values())

    def _seed_usage(self) -> None:
        """Seed the counter by one full scan if it is not seeded (the
        caller holds ``self._lock``).  Remembered directories take their
        baselines from the same scan."""
        while self._writes_in_flight:
            self._writes_idle.wait()
        if self._usage_bytes is not None:
            return
        sizes = self._walk_sizes()
        for directory in self._dir_sizes:
            self._dir_sizes[directory] = sizes.get(directory, 0)
        self._usage_bytes = sum(sizes.values())

    def _add_usage(self, delta: int) -> None:
        """Apply a footprint change (caller holds ``self._lock``); a
        no-op while the counter is unseeded — the seeding scan will
        see the bytes on disk."""
        if self._usage_bytes is not None:
            self._usage_bytes += delta

    def _changed(self) -> None:
        """Something under this root changed, and so under every
        ancestor store's root: their counters re-seed at next read."""
        if self._parent is not None:
            self._parent.drop_usage()

    def drop_usage(self) -> None:
        """Forget the counter (here and in every ancestor store) so the
        next read re-seeds it with one full scan — for after writes this
        process did not make, e.g. a run whose pool workers wrote
        through their own store objects."""
        with self._lock:
            self._usage_bytes = None
        self._changed()

    def note_dir(self, directory: Union[str, Path]) -> None:
        """Account the files directly inside ``directory`` — a run
        directory whose journal and manifest files are written without
        the store.  Re-sums only that directory and applies the change
        since the last note (or since the seeding scan); a directory
        outside this store's root is ignored.  The baselines are a
        bounded memo of the most recent directories, so note a directory
        once before writing into it and again after."""
        key = os.path.abspath(directory)
        if not key.startswith(self._prefix):
            return
        size = (_files_size(key) if self._usage_bytes is not None
                else None)
        with self._lock:
            baseline = self._dir_sizes.pop(key, 0)
            if self._usage_bytes is None:
                # Just remember it: the seeding scan sets its baseline.
                size = baseline
            elif size is None:  # seeded since the unlocked check
                size = _files_size(key)
            self._add_usage(size - baseline)
            self._dir_sizes[key] = size
            while len(self._dir_sizes) > _DIR_MEMO:
                self._dir_sizes.popitem(last=False)
        self._changed()

    def usage_bytes(self) -> int:
        """Current on-disk footprint of this store's root: artifacts,
        quarantine, and run journals/manifests.  An O(1) read of the
        usage counter, seeded by one full scan on first use."""
        with self._lock:
            self._seed_usage()
            return self._usage_bytes

    def namespace_summary(self) -> Dict[str, Any]:
        """This store's own tenancy summary (stats + quota + usage) as
        plain JSON — one row of a manifest's/status endpoint's
        ``namespaces`` mapping."""
        with self._lock:
            return {
                "namespace": self.tenant,
                "quota_bytes": self.quota_bytes,
                "usage_bytes": self.usage_bytes(),
                "cache": self.stats.to_dict(),
            }

    def namespaces_summary(self) -> Dict[str, Dict[str, Any]]:
        """Tenancy summaries for manifests / the service status endpoint:
        one entry per child namespace for a parent store, or this
        store's own entry when it *is* a namespace."""
        if self.tenant is not None:
            return {self.tenant: self.namespace_summary()}
        return {name: child.namespace_summary()
                for name, child in sorted(self.namespaces().items())}

    # -- keys and paths --------------------------------------------------
    def key(self, kind: str, **fields) -> str:
        return artifact_key(kind, salt=self.salt, **fields)

    def path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def quarantine_path(self, kind: str, key: str) -> Path:
        return self.root / QUARANTINE_DIR / kind / f"{key}.pkl"

    # -- encode / decode -------------------------------------------------
    @staticmethod
    def _encode(obj: Any) -> bytes:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return _MAGIC + hashlib.sha256(payload).digest() + payload

    @staticmethod
    def _decode(blob: bytes) -> Tuple[Optional[Tuple[Any]], Optional[str]]:
        """``((obj,), None)`` on success, or ``(None, reason)`` where
        ``reason`` is ``"format"`` (bad magic / truncated header),
        ``"digest"`` (integrity-digest mismatch), or ``"unpickle"``."""
        header = len(_MAGIC) + _DIGEST_BYTES
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None, "format"
        digest = blob[len(_MAGIC):header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "digest"
        try:
            return (pickle.loads(payload),), None
        except Exception:
            return None, "unpickle"

    def _quarantine(self, kind: str, key: str,
                    path: Union[str, Path]) -> None:
        """Move a corrupt file out of the addressable tree (atomic
        rename; falls back to unlink) so it can never satisfy a get."""
        target = self.quarantine_path(kind, key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            with self._lock:
                # The move stays under the root, so only an earlier
                # quarantined copy it replaces leaves the footprint.
                replaced = _file_size(target)
                os.replace(path, target)
                self._add_usage(-replaced)
                self.stats.quarantined += 1
            get_registry().count("store/quarantined")
        except OSError:
            with self._lock:
                size = _file_size(path)
                try:
                    os.unlink(path)
                except OSError:
                    return
                self._add_usage(-size)
        finally:
            self._changed()

    # -- store protocol --------------------------------------------------
    def get(self, kind: str, key: str, probe: bool = False
            ) -> Optional[Any]:
        """The cached artifact, or None on a miss (absent or corrupt).

        Corruption — a bad integrity digest, mangled header, or
        unpicklable payload — is counted, logged as a warning, and the
        file quarantined (moved aside) so the caller recomputes the
        artifact instead of ever receiving stale bytes.

        ``probe=True`` counts only a hit: a miss is left untouched for
        the compute path's own read to count (and quarantine).
        """
        registry = get_registry()
        # self.path(kind, key) as a string: pathlib's argument parsing
        # was a measurable share of a warm request.
        path = os.path.join(self._root_str, kind, key[:2], key + ".pkl")
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            if probe:
                return None
            with self._lock:
                self.stats.misses += 1
            registry.count("store/miss")
            return None
        decoded, reason = self._decode(blob)
        if decoded is None and probe:
            return None
        if decoded is None:
            with self._lock:
                self.stats.corrupt += 1
                if reason == "digest":
                    self.stats.digest_failures += 1
                self.stats.misses += 1
            registry.count("store/miss")
            registry.count("store/corrupt")
            self._quarantine(kind, key, path)
            log.warning("corrupt %s artifact %s (%s, %d bytes); "
                        "quarantined for recompute", kind, key[:12],
                        reason, len(blob))
            return None
        with self._lock:
            self.stats.hits += 1
            self.stats.bytes_read += len(blob)
        registry.count("store/hit")
        registry.count("store/bytes_read", len(blob))
        return decoded[0]

    def put(self, kind: str, key: str, obj: Any) -> None:
        """Atomically persist an artifact (write-to-temp + rename, so a
        concurrent reader never observes a partial file).

        Under a namespace quota, a *new* write that would push the
        footprint past the bound is rejected with
        :class:`QuotaExceededError` before any bytes touch disk
        (overwrites of an existing key are always allowed — the store
        is content-addressed, so they replace like with like).  The
        quota check and the usage update happen in one lock scope: the
        footprint change is reserved while the check holds, so
        interleaved puts cannot each pass the check and overshoot the
        quota together.
        """
        blob = self._encode(obj)
        path = self.path(kind, key)
        size = len(blob)
        reserved: Optional[int] = None
        with self._lock:
            if self.quota_bytes is not None:
                self._seed_usage()
            if self._usage_bytes is not None:
                prior = _file_size(path)
                if (self.quota_bytes is not None and prior == 0
                        and self._usage_bytes + size > self.quota_bytes):
                    self.stats.quota_rejected += 1
                    get_registry().count("store/quota_rejected")
                    raise QuotaExceededError(
                        f"namespace {self.tenant or self.root.name!r} "
                        f"over quota: {self._usage_bytes} + {size} "
                        f"bytes exceeds {self.quota_bytes}",
                        namespace=self.tenant,
                        quota_bytes=self.quota_bytes,
                        usage_bytes=self._usage_bytes)
                reserved = size - prior
                self._usage_bytes += reserved
            self._writes_in_flight += 1
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{key[:8]}.",
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            with self._lock:
                # Settle the reservation against the file actually
                # replaced (a racing write of the same key may have
                # landed since).
                replaced = (_file_size(path) if reserved is not None
                            else 0)
                os.replace(tmp, path)
                tmp = None
                if reserved is not None:
                    self._add_usage(size - replaced - reserved)
                self.stats.bytes_written += size
        except BaseException:
            with self._lock:
                if reserved is not None:
                    self._add_usage(-reserved)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise
        finally:
            with self._lock:
                self._writes_in_flight -= 1
                self._writes_idle.notify_all()
            self._changed()
        get_registry().count("store/bytes_written", size)

    def append(self, path: Union[str, Path], data: bytes) -> None:
        """Append ``data`` to ``path`` in one ``O_APPEND`` write (the run
        log), accounting the bytes when ``path`` is under the root."""
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            with self._lock:
                written = os.write(fd, data)
                if os.path.abspath(path).startswith(self._prefix):
                    self._add_usage(written)
        finally:
            os.close(fd)
        self._changed()

    def _join_flight(self, kind: str, key: str
                     ) -> Tuple[threading.Lock, bool]:
        """Become the one caller in flight for ``(kind, key)``, first
        waiting out each caller already in flight.  Returns the held
        flight lock (the caller releases it after removing the entry)
        and whether it waited."""
        waited = False
        while True:
            with self._lock:
                flight = self._flights.get((kind, key))
                if flight is None:
                    flight = threading.Lock()
                    flight.acquire()
                    self._flights[(kind, key)] = flight
                    return flight, waited
            waited = True
            with flight:
                pass

    def fetch(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """get-or-compute-and-put.

        Single-flight: when several threads fetch the same key
        concurrently, one runs ``compute`` and the rest block on it,
        then read the stored artifact back — the compute never runs
        twice for one key.  Distinct keys never block each other.

        Quota rejections never fail the fetch: the computed value is
        returned uncached (the rejection is counted in the stats) and a
        later fetch simply recomputes.
        """
        with span("store.fetch", kind=kind) as fspan:
            flight, waited = self._join_flight(kind, key)
            try:
                # One read per caller: a caller that waited reads what
                # the flight it waited on stored.
                cached = self.get(kind, key)
                if cached is not None:
                    fspan.set(hit=True)
                    if waited:
                        fspan.set(coalesced=True)
                    return cached
                fspan.set(hit=False)
                value = compute()
                try:
                    self.put(kind, key, value)
                except QuotaExceededError:
                    pass
            finally:
                with self._lock:
                    del self._flights[(kind, key)]
                flight.release()
            return value
