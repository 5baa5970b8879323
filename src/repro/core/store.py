"""Crash-safe persistent artifact store for finished mappings.

Every warm structure in the serving stack — layer-cost caches,
sub-problem solutions, whole tenant sessions — dies with its process.
:class:`MappingStore` is the durable tier underneath: an on-disk,
content-addressed store keyed by the PR-5 fingerprints
``(graph_fp, topology_fp, config_fp, seed)``, so a crash-respawned
shard worker or a whole fresh frontend on another machine starts warm
from the artifacts previous processes searched.

The store is built for hostile conditions, in order of severity:

* **Torn writes never exist.** Entries are written to a temp file in
  the destination directory, ``fsync``'d, then :func:`os.replace`'d
  into place — a reader sees the whole entry or no entry, never half.
* **Corruption never propagates.** Every read re-verifies a BLAKE2b
  payload digest and the entry's embedded fingerprints against the
  *requesting* graph/topology/config/seed. A truncated, bit-flipped,
  or wrong-keyed entry is moved to ``quarantine/`` with a typed
  :class:`StoreCorruption` record and the lookup reports a miss — a
  corrupt artifact can surface in stats, never in a search result.
* **Writers never collide.** Publishes take a per-entry advisory file
  lock (``fcntl.flock``, skipped on platforms without it — the atomic
  rename alone already keeps readers safe).
* **A broken store never breaks a search.** Every I/O failure is
  retried with bounded exponential backoff, then downgraded to a cache
  miss (reads) or a dropped publish (writes) with a counter bump;
  after :attr:`StoreSpec.failure_limit` consecutive failures the store
  object disables itself so a dead disk costs one counter increment
  per lookup, not a retry loop. The scope is one :class:`MappingStore`,
  not the process: every :class:`~repro.core.session.MarsSession`
  opens its own, so each tenant session of a serving registry (one
  rebuilt after an eviction too) starts enabled and pays its own
  failures. :meth:`MappingStore.get` and :meth:`MappingStore.put`
  never raise.

The store moves *payload bytes*, not domain objects: callers pass a
picklable payload to :meth:`~MappingStore.put` and a ``decode``
callback to :meth:`~MappingStore.get` (the session layer decodes
through the fingerprint-verifying serialization in
:mod:`repro.utils.serialization`, which re-homes the mapping onto the
requester's graph/topology objects). A decode rejection quarantines
the entry like any other corruption.

Layout under :attr:`StoreSpec.path`::

    objects/<aa>/<digest>.entry   # aa = first two hex chars
    locks/<digest>.lock           # advisory writer locks
    quarantine/<digest>.<reason>  # corrupt entries, moved aside
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Callable, Iterator

from repro.utils.rng import stable_digest
from repro.utils.validation import require, require_positive

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "DirectoryBackend",
    "MappingStore",
    "StoreCorruption",
    "StoreSpec",
    "StoreStats",
]

#: Leading bytes of every entry file; anything else is quarantined as
#: ``bad_magic`` before a single header byte is trusted.
STORE_MAGIC = b"MARS-STORE\n"

#: Entry format version, embedded in every header. A reader finding a
#: different version treats the entry as a miss for-format (quarantine
#: would punish a legitimate rolling upgrade), never as trusted data.
STORE_VERSION = 1


@dataclass(frozen=True)
class StoreSpec:
    """Configuration of a :class:`MappingStore` — frozen and picklable,
    so it ships inside a :class:`~repro.core.config.SearchConfig` to
    shard worker processes, which open the same store on cold start.

    Attributes:
        path: Root directory of the store (created on first use).
        max_attempts: I/O attempts per operation before the failure is
            downgraded (>= 1).
        backoff_seconds: Sleep before the first retry; doubles per
            retry (bounded by ``max_attempts``).
        lock_timeout_seconds: How long a publisher waits on another
            writer's entry lock before dropping the publish.
        failure_limit: Consecutive failed operations after which a
            :class:`MappingStore` disables itself for the rest of its
            life (lookups become instant misses instead of retry
            loops). Each session opens its own store object, so each
            tenant session counts its own failures.
        publish: ``False`` makes the store read-only — lookups hit,
            fresh results are not written back.
    """

    path: str
    max_attempts: int = 3
    backoff_seconds: float = 0.01
    lock_timeout_seconds: float = 2.0
    failure_limit: int = 8
    publish: bool = True

    def __post_init__(self) -> None:
        require(bool(self.path), "store path must be non-empty")
        require_positive(self.max_attempts, "max_attempts")
        require(self.backoff_seconds >= 0, "backoff_seconds must be >= 0")
        require(
            self.lock_timeout_seconds >= 0,
            "lock_timeout_seconds must be >= 0",
        )
        require_positive(self.failure_limit, "failure_limit")


@dataclass(frozen=True)
class StoreCorruption:
    """One corrupt entry, detected on read and moved aside.

    ``reason`` is one of ``"truncated"``, ``"bad_magic"``,
    ``"bad_header"``, ``"digest_mismatch"``, ``"fingerprint_mismatch"``
    or ``"decode_error"`` — the verification stage that failed, in
    check order. ``quarantined_to`` is the file's new home under
    ``quarantine/`` (``None`` when the move itself failed; the entry
    was still removed from service if at all possible).
    """

    name: str
    reason: str
    detail: str
    quarantined_to: str | None


@dataclass(frozen=True)
class StoreStats:
    """Counters of one :class:`MappingStore` instance (process-local)."""

    #: Lookups answered with a verified artifact.
    hits: int
    #: Lookups that found nothing usable (absent, corrupt, degraded).
    misses: int
    #: Artifacts written successfully.
    publishes: int
    #: Corrupt entries quarantined (each also appears in ``records``,
    #: most recent last, bounded).
    corruptions: int
    #: Operations that exhausted their I/O retries and were downgraded.
    io_errors: int
    #: Publishes dropped waiting on another writer's entry lock.
    lock_timeouts: int
    #: Whether the store has disabled itself (``failure_limit`` hit).
    disabled: bool
    #: The most recent quarantine records (bounded ring).
    records: tuple[StoreCorruption, ...] = ()


class DirectoryBackend:
    """Filesystem backend: the one concrete backend today.

    The store talks to its backend through four operations — ``read``,
    ``write`` (atomic), ``quarantine`` (move aside) and ``lock`` — so a
    fleet-remote backend (object store, shared cache service) can slot
    in behind the same :class:`MappingStore` verification pipeline
    without touching callers. ``read`` returns ``None`` for an absent
    entry and raises :class:`OSError` for genuine I/O failure; the
    distinction is what separates a cold miss from a degraded store.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def _entry_path(self, name: str) -> str:
        return os.path.join(self.root, "objects", name[:2], f"{name}.entry")

    def _lock_path(self, name: str) -> str:
        return os.path.join(self.root, "locks", f"{name}.lock")

    def read(self, name: str) -> bytes | None:
        """The entry's bytes, or ``None`` when it does not exist."""
        try:
            with open(self._entry_path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def write(self, name: str, data: bytes) -> None:
        """Atomically persist an entry: temp file + fsync + rename.

        The temp file lives in the destination directory so the rename
        never crosses a filesystem boundary (cross-device renames are
        copies, which can tear). A crash at any point leaves either the
        old entry, the new entry, or a stray ``.tmp`` file — never a
        half-written ``.entry`` a reader could trust.
        """
        path = self._entry_path(name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=f".{name[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        # Make the rename itself durable. Directory fsync is
        # best-effort: some filesystems refuse it, and the entry data
        # is already safe — only the name could be lost to a crash.
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def quarantine(self, name: str, reason: str) -> str | None:
        """Move a corrupt entry into ``quarantine/``; its new path.

        ``None`` when the entry vanished before the move (a concurrent
        quarantine or an unlink won the race). Raises :class:`OSError`
        only when the move failed with the file still in place.
        """
        destination_dir = os.path.join(self.root, "quarantine")
        os.makedirs(destination_dir, exist_ok=True)
        destination = os.path.join(destination_dir, f"{name}.{reason}")
        try:
            os.replace(self._entry_path(name), destination)
        except FileNotFoundError:
            return None
        return destination

    @contextmanager
    def lock(
        self, name: str, timeout: float, poll: float = 0.005
    ) -> Iterator[None]:
        """Advisory per-entry writer lock; :class:`TimeoutError` on
        contention past ``timeout`` seconds.

        Readers never lock — the atomic rename already guarantees them
        a consistent entry — so the lock only serializes concurrent
        publishers of one entry (same content either way; the lock
        spares the loser a redundant temp-file write, and keeps any
        future read-modify-write backend correct).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        lock_path = self._lock_path(name)
        os.makedirs(os.path.dirname(lock_path), exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"store entry lock {name} held past "
                            f"{timeout}s"
                        ) from None
                    time.sleep(poll)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


class MappingStore:
    """Content-addressed persistence for finished search artifacts.

    One instance per :class:`~repro.core.session.MarsSession` (sessions
    in different processes open the same directory — that is the
    point). All counters are process-local; the on-disk state is the
    shared truth.

    The verification pipeline on every read, in order: magic bytes,
    header parse, payload length, payload digest, header fingerprints
    against the requesting key, unpickle, caller ``decode``. The first
    failing stage quarantines the entry under its reason and the
    lookup reports a miss — so the worst possible corruption costs one
    fresh search, exactly what a cold cache would have cost.
    """

    #: Bound on retained :class:`StoreCorruption` records.
    CORRUPTION_RECORD_LIMIT = 16

    def __init__(
        self, spec: StoreSpec, backend: DirectoryBackend | None = None
    ) -> None:
        self.spec = spec
        self.backend = (
            backend if backend is not None else DirectoryBackend(spec.path)
        )
        self._hits = 0
        self._misses = 0
        self._publishes = 0
        self._io_errors = 0
        self._lock_timeouts = 0
        self._consecutive_failures = 0
        self._disabled = False
        self._records: deque[StoreCorruption] = deque(
            maxlen=self.CORRUPTION_RECORD_LIMIT
        )
        self._corruptions = 0
        # Injectable for tests: the retry backoff's sleep.
        self._sleep: Callable[[float], None] = time.sleep

    @classmethod
    def from_spec(cls, spec: StoreSpec) -> "MappingStore":
        return cls(spec)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @staticmethod
    def entry_name(
        graph_fp: str, topology_fp: str, config_fp: str, seed: int
    ) -> str:
        """The entry's content address — stable across processes and
        machines, like every fingerprint it is derived from."""
        return stable_digest(
            "mapping-store-entry-v1", graph_fp, topology_fp, config_fp, seed
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(
        self,
        *,
        graph_fp: str,
        topology_fp: str,
        config_fp: str,
        seed: int,
        decode: Callable[[Any], Any] | None = None,
    ) -> Any | None:
        """The stored artifact for this key, fully verified — or ``None``.

        Never raises: absent entries, I/O failures (after bounded
        retries) and corrupt entries (after quarantine) all return
        ``None``. ``decode`` maps the unpickled payload to the caller's
        result type; any exception it raises quarantines the entry as
        ``decode_error`` and misses.
        """
        if self._disabled:
            self._misses += 1
            return None
        name = self.entry_name(graph_fp, topology_fp, config_fp, seed)
        try:
            data = self._attempt(lambda: self.backend.read(name))
        except OSError as exc:
            self._io_failure(exc)
            self._misses += 1
            return None
        self._io_success()
        if data is None:
            self._misses += 1
            return None
        payload = self._verify(
            name, data, graph_fp, topology_fp, config_fp, seed
        )
        if payload is None:
            self._misses += 1
            return None
        if decode is not None:
            try:
                payload = decode(payload)
            except Exception as exc:
                self._quarantine(name, "decode_error", repr(exc))
                self._misses += 1
                return None
        self._hits += 1
        return payload

    def _verify(
        self,
        name: str,
        data: bytes,
        graph_fp: str,
        topology_fp: str,
        config_fp: str,
        seed: int,
    ) -> Any | None:
        """Run the verification pipeline; the unpickled payload or
        ``None`` (entry quarantined under the failing stage)."""
        if not data.startswith(STORE_MAGIC):
            self._quarantine(
                name, "bad_magic", f"leading bytes {data[:12]!r}"
            )
            return None
        header_end = data.find(b"\n", len(STORE_MAGIC))
        if header_end < 0:
            self._quarantine(name, "truncated", "no header line")
            return None
        try:
            header = json.loads(data[len(STORE_MAGIC):header_end])
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
        except ValueError as exc:
            self._quarantine(name, "bad_header", repr(exc))
            return None
        if header.get("version") != STORE_VERSION:
            # A future format, not damage: leave it alone, miss.
            return None
        try:
            expected_bytes = int(header["payload_bytes"])
            expected_digest = str(header["payload_digest"])
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(name, "bad_header", repr(exc))
            return None
        payload_bytes = data[header_end + 1:]
        if len(payload_bytes) != expected_bytes:
            self._quarantine(
                name,
                "truncated",
                f"payload {len(payload_bytes)} bytes, header says "
                f"{expected_bytes}",
            )
            return None
        digest = blake2b(payload_bytes, digest_size=16).hexdigest()
        if digest != expected_digest:
            self._quarantine(
                name,
                "digest_mismatch",
                f"payload digests {digest}, header says {expected_digest}",
            )
            return None
        stored_key = (
            header.get("graph"),
            header.get("topology"),
            header.get("config"),
            header.get("seed"),
        )
        if stored_key != (graph_fp, topology_fp, config_fp, seed):
            self._quarantine(
                name,
                "fingerprint_mismatch",
                f"entry is keyed {stored_key}, requested "
                f"{(graph_fp, topology_fp, config_fp, seed)}",
            )
            return None
        try:
            return pickle.loads(payload_bytes)
        except Exception as exc:
            self._quarantine(name, "decode_error", repr(exc))
            return None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(
        self,
        payload: Any,
        *,
        graph_fp: str,
        topology_fp: str,
        config_fp: str,
        seed: int,
    ) -> bool:
        """Persist an artifact under its key; ``True`` on success.

        Never raises: unpicklable payloads, lock contention past the
        spec's timeout and I/O failures (after bounded retries) all
        drop the publish with a counter bump — a search result is never
        lost to a failed publish, only its durability is.
        """
        if self._disabled or not self.spec.publish:
            return False
        name = self.entry_name(graph_fp, topology_fp, config_fp, seed)
        try:
            payload_bytes = pickle.dumps(
                payload, protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            self._io_errors += 1
            return False
        header = {
            "version": STORE_VERSION,
            "graph": graph_fp,
            "topology": topology_fp,
            "config": config_fp,
            "seed": seed,
            "payload_bytes": len(payload_bytes),
            "payload_digest": blake2b(
                payload_bytes, digest_size=16
            ).hexdigest(),
        }
        blob = (
            STORE_MAGIC
            + json.dumps(header, sort_keys=True).encode("utf-8")
            + b"\n"
            + payload_bytes
        )
        try:
            with self.backend.lock(name, self.spec.lock_timeout_seconds):
                self._attempt(lambda: self.backend.write(name, blob))
        except TimeoutError:
            self._lock_timeouts += 1
            return False
        except OSError as exc:
            self._io_failure(exc)
            return False
        self._io_success()
        self._publishes += 1
        return True

    # ------------------------------------------------------------------
    # Degradation machinery
    # ------------------------------------------------------------------

    def _attempt(self, operation: Callable[[], Any]) -> Any:
        """Run one I/O operation with bounded exponential backoff.

        Re-raises the final :class:`OSError` once the attempts are
        spent; the callers downgrade it (miss / dropped publish).
        """
        delay = self.spec.backoff_seconds
        for attempt in range(self.spec.max_attempts):
            try:
                return operation()
            except OSError:
                if attempt == self.spec.max_attempts - 1:
                    raise
                if delay > 0:
                    self._sleep(delay)
                delay *= 2

    def _io_failure(self, exc: OSError) -> None:
        self._io_errors += 1
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.spec.failure_limit:
            self._disabled = True

    def _io_success(self) -> None:
        self._consecutive_failures = 0

    def _quarantine(self, name: str, reason: str, detail: str) -> None:
        """Move a corrupt entry aside and record it; never raises."""
        destination: str | None = None
        try:
            destination = self._attempt(
                lambda: self.backend.quarantine(name, reason)
            )
        except OSError as exc:
            self._io_failure(exc)
        self._corruptions += 1
        self._records.append(
            StoreCorruption(
                name=name,
                reason=reason,
                detail=detail,
                quarantined_to=destination,
            )
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def disabled(self) -> bool:
        """Whether the store gave up after consecutive I/O failures."""
        return self._disabled

    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            publishes=self._publishes,
            corruptions=self._corruptions,
            io_errors=self._io_errors,
            lock_timeouts=self._lock_timeouts,
            disabled=self._disabled,
            records=tuple(self._records),
        )
