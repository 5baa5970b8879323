"""MappingStore: durability, integrity quarantine, graceful degradation.

The store's contract, in three layers. *Round trip*: a published
artifact is returned verified on the same key and only on that key —
seed, config and workload all isolate. *Integrity*: every way an entry
can rot on disk (truncation, bit flips, wrong magic, garbage headers,
entries copied across keys, undecodable payloads) is detected on read,
quarantined with a typed record, and reported as a miss — corruption
surfaces in stats, never in a search result. *Degradation*: a broken
or flaky backend costs bounded retries, then downgrades to a miss or a
dropped publish; after enough consecutive failures the store disables
itself. ``get`` and ``put`` never raise, so a session with a dead
store behaves exactly like a session with no store.
"""

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import Mars, MarsSession
from repro.core.config import SearchConfig
from repro.core.ga import SearchBudget
from repro.core.store import (
    STORE_MAGIC,
    STORE_VERSION,
    DirectoryBackend,
    MappingStore,
    StoreSpec,
)
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")

#: Fresh no-store results, computed once per module — the reference
#: every store hit must be bit-identical to.
_FRESH: dict = {}


def fresh(seed):
    if seed not in _FRESH:
        _FRESH[seed] = Mars(CNN, TOPOLOGY).search(seed=seed)
    return _FRESH[seed]


def _same_result(stored, reference):
    assert stored.latency_ms == reference.latency_ms
    assert stored.describe() == reference.describe()
    assert stored.ga.history == reference.ga.history


KEY = {
    "graph_fp": "graph-fp",
    "topology_fp": "topo-fp",
    "config_fp": "config-fp",
    "seed": 0,
}


def make_store(tmp_path, **overrides):
    return MappingStore.from_spec(
        StoreSpec(path=str(tmp_path / "store"), **overrides)
    )


def entry_files(store):
    return sorted(Path(store.spec.path).glob("objects/*/*.entry"))


def quarantine_files(store):
    return sorted(Path(store.spec.path).glob("quarantine/*"))


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StoreSpec(path="")
        with pytest.raises(ValueError):
            StoreSpec(path="/x", max_attempts=0)
        with pytest.raises(ValueError):
            StoreSpec(path="/x", backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            StoreSpec(path="/x", lock_timeout_seconds=-1.0)
        with pytest.raises(ValueError):
            StoreSpec(path="/x", failure_limit=0)

    def test_spec_survives_pickling(self, tmp_path):
        spec = StoreSpec(path=str(tmp_path))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRoundTrip:
    def test_put_then_get_returns_payload(self, tmp_path):
        store = make_store(tmp_path)
        payload = {"answer": 42, "trace": [1.0, 2.0]}
        assert store.put(payload, **KEY)
        assert store.get(**KEY) == payload
        stats = store.stats()
        assert (stats.publishes, stats.hits, stats.misses) == (1, 1, 0)
        assert stats.corruptions == 0 and stats.io_errors == 0

    def test_absent_entry_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.get(**KEY) is None
        assert store.stats().misses == 1

    def test_keys_isolate(self, tmp_path):
        store = make_store(tmp_path)
        store.put("artifact", **KEY)
        for field, other in (
            ("seed", 1),
            ("graph_fp", "other-graph"),
            ("topology_fp", "other-topo"),
            ("config_fp", "other-config"),
        ):
            assert store.get(**{**KEY, field: other}) is None
        assert store.get(**KEY) == "artifact"
        assert store.stats().corruptions == 0  # misses, not mismatches

    def test_put_overwrites_atomically(self, tmp_path):
        store = make_store(tmp_path)
        store.put("first", **KEY)
        store.put("second", **KEY)
        assert store.get(**KEY) == "second"
        assert len(entry_files(store)) == 1

    def test_read_only_store_never_publishes(self, tmp_path):
        writer = make_store(tmp_path)
        writer.put("artifact", **KEY)
        reader = MappingStore.from_spec(
            StoreSpec(path=writer.spec.path, publish=False)
        )
        assert not reader.put("other", **{**KEY, "seed": 9})
        assert reader.get(**KEY) == "artifact"  # lookups still hit
        assert reader.stats().publishes == 0

    def test_two_stores_share_the_directory(self, tmp_path):
        a = make_store(tmp_path)
        b = MappingStore.from_spec(a.spec)
        a.put("artifact", **KEY)
        assert b.get(**KEY) == "artifact"

    def test_entry_name_is_stable(self):
        name = MappingStore.entry_name("g", "t", "c", 7)
        assert name == MappingStore.entry_name("g", "t", "c", 7)
        assert name != MappingStore.entry_name("g", "t", "c", 8)


def _populated(tmp_path, payload="artifact"):
    store = make_store(tmp_path)
    store.put(payload, **KEY)
    (entry,) = entry_files(store)
    return store, entry


class TestCorruptionQuarantine:
    """Every rot mode: detected, quarantined with a typed record,
    reported as a miss — and the store keeps working afterwards."""

    def _assert_quarantined(self, store, reason):
        assert store.get(**KEY) is None
        stats = store.stats()
        assert stats.corruptions == 1 and stats.hits == 0
        (record,) = stats.records
        assert record.reason == reason
        assert record.quarantined_to is not None
        assert Path(record.quarantined_to).exists()
        assert record.quarantined_to.endswith(f".{reason}")
        assert entry_files(store) == []  # removed from service
        return record

    def test_truncated_entry(self, tmp_path):
        store, entry = _populated(tmp_path)
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) - 3])
        self._assert_quarantined(store, "truncated")

    def test_headerless_entry(self, tmp_path):
        store, entry = _populated(tmp_path)
        entry.write_bytes(STORE_MAGIC + b"no newline ends this header")
        self._assert_quarantined(store, "truncated")

    def test_bit_flip_in_payload(self, tmp_path):
        store, entry = _populated(tmp_path)
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        self._assert_quarantined(store, "digest_mismatch")

    def test_foreign_leading_bytes(self, tmp_path):
        store, entry = _populated(tmp_path)
        entry.write_bytes(b"GIF89a" + entry.read_bytes())
        self._assert_quarantined(store, "bad_magic")

    def test_garbage_header(self, tmp_path):
        store, entry = _populated(tmp_path)
        data = entry.read_bytes()
        payload = data.split(b"\n", 2)[2]
        entry.write_bytes(STORE_MAGIC + b"{not json]\n" + payload)
        self._assert_quarantined(store, "bad_header")

    def test_header_missing_required_fields(self, tmp_path):
        store, entry = _populated(tmp_path)
        data = entry.read_bytes()
        payload = data.split(b"\n", 2)[2]
        header = json.dumps({"version": STORE_VERSION}).encode()
        entry.write_bytes(STORE_MAGIC + header + b"\n" + payload)
        self._assert_quarantined(store, "bad_header")

    def test_entry_copied_across_keys(self, tmp_path):
        """An intact entry renamed onto another key's address must be
        rejected: its embedded fingerprints disagree with the request."""
        store, entry = _populated(tmp_path)
        other = MappingStore.entry_name(
            KEY["graph_fp"], KEY["topology_fp"], KEY["config_fp"], 1
        )
        target = Path(store.spec.path) / "objects" / other[:2]
        target.mkdir(parents=True, exist_ok=True)
        entry.rename(target / f"{other}.entry")
        assert store.get(**{**KEY, "seed": 1}) is None
        (record,) = store.stats().records
        assert record.reason == "fingerprint_mismatch"

    def test_undecodable_payload(self, tmp_path):
        store, entry = _populated(tmp_path)

        def decode(payload):
            raise ValueError("stored payload fails the domain checks")

        assert store.get(**KEY, decode=decode) is None
        (record,) = store.stats().records
        assert record.reason == "decode_error"

    def test_future_version_is_a_silent_miss(self, tmp_path):
        """A newer entry format is not damage: left in place, no
        quarantine — a rolling upgrade must not eat its own artifacts."""
        store, entry = _populated(tmp_path)
        data = entry.read_bytes()
        header_line, payload = data[len(STORE_MAGIC):].split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = STORE_VERSION + 1
        entry.write_bytes(
            STORE_MAGIC + json.dumps(header).encode() + b"\n" + payload
        )
        assert store.get(**KEY) is None
        stats = store.stats()
        assert stats.corruptions == 0 and stats.misses == 1
        assert len(entry_files(store)) == 1  # untouched

    def test_store_recovers_after_quarantine(self, tmp_path):
        store, entry = _populated(tmp_path)
        entry.write_bytes(b"garbage")
        assert store.get(**KEY) is None
        assert store.put("fresh artifact", **KEY)
        assert store.get(**KEY) == "fresh artifact"
        stats = store.stats()
        assert stats.corruptions == 1 and stats.hits == 1
        assert len(quarantine_files(store)) == 1

    def test_corruption_records_are_bounded(self, tmp_path):
        store = make_store(tmp_path)
        limit = MappingStore.CORRUPTION_RECORD_LIMIT
        for seed in range(limit + 4):
            key = {**KEY, "seed": seed}
            store.put("artifact", **key)
            (entry,) = entry_files(store)
            entry.write_bytes(b"garbage")
            assert store.get(**key) is None
        stats = store.stats()
        assert stats.corruptions == limit + 4
        assert len(stats.records) == limit  # most recent kept


class _FlakyBackend(DirectoryBackend):
    """Fails each operation's first ``failures`` attempts."""

    def __init__(self, root, failures):
        super().__init__(root)
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise OSError("injected transient failure")

    def read(self, name):
        self._maybe_fail()
        return super().read(name)

    def write(self, name, data):
        self._maybe_fail()
        super().write(name, data)


class _DeadBackend(DirectoryBackend):
    """Every operation fails, forever."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = 0

    def read(self, name):
        self.calls += 1
        raise OSError("disk is gone")

    def write(self, name, data):
        self.calls += 1
        raise OSError("disk is gone")


class TestDegradation:
    def test_transient_failures_are_retried_with_backoff(self, tmp_path):
        spec = StoreSpec(
            path=str(tmp_path), max_attempts=3, backoff_seconds=0.01
        )
        store = MappingStore(spec, backend=_FlakyBackend(str(tmp_path), 2))
        delays = []
        store._sleep = delays.append
        assert store.put("artifact", **KEY)
        assert delays == [0.01, 0.02]  # doubling, bounded by attempts
        stats = store.stats()
        assert stats.io_errors == 0 and stats.publishes == 1

    def test_exhausted_retries_downgrade_not_raise(self, tmp_path):
        spec = StoreSpec(path=str(tmp_path), max_attempts=2)
        store = MappingStore(spec, backend=_DeadBackend(str(tmp_path)))
        store._sleep = lambda delay: None
        assert not store.put("artifact", **KEY)
        assert store.get(**KEY) is None
        stats = store.stats()
        assert stats.io_errors == 2  # one per operation, not per attempt
        assert stats.misses == 1

    def test_store_disables_itself_after_consecutive_failures(
        self, tmp_path
    ):
        spec = StoreSpec(path=str(tmp_path), max_attempts=1, failure_limit=3)
        backend = _DeadBackend(str(tmp_path))
        store = MappingStore(spec, backend=backend)
        for _ in range(3):
            assert store.get(**KEY) is None
        assert store.disabled
        calls_when_disabled = backend.calls
        # Disabled lookups are instant misses: the backend is not hit.
        assert store.get(**KEY) is None
        assert not store.put("artifact", **KEY)
        assert backend.calls == calls_when_disabled
        assert store.stats().disabled

    def test_success_resets_the_failure_streak(self, tmp_path):
        spec = StoreSpec(
            path=str(tmp_path), max_attempts=1, failure_limit=2
        )
        backend = _FlakyBackend(str(tmp_path), 1)
        store = MappingStore(spec, backend=backend)
        assert store.get(**KEY) is None  # failure 1 of 2
        assert store.put("artifact", **KEY)  # success: streak resets
        backend.failures = 1
        assert store.get(**KEY) is None  # failure 1 of 2 again
        assert not store.disabled

    def test_store_root_is_a_file_never_raises(self, tmp_path):
        root = tmp_path / "store"
        root.write_text("not a directory")
        store = MappingStore.from_spec(
            StoreSpec(path=str(root), max_attempts=1)
        )
        assert store.get(**KEY) is None
        assert not store.put("artifact", **KEY)
        assert store.stats().io_errors == 2

    def test_lock_contention_drops_the_publish(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        store = make_store(tmp_path, lock_timeout_seconds=0.05)
        name = MappingStore.entry_name(
            KEY["graph_fp"], KEY["topology_fp"], KEY["config_fp"],
            KEY["seed"],
        )
        lock_path = Path(store.spec.path) / "locks" / f"{name}.lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            assert not store.put("artifact", **KEY)
        stats = store.stats()
        assert stats.lock_timeouts == 1
        assert stats.io_errors == 0  # contention is not disk failure
        assert not stats.disabled
        assert store.put("artifact", **KEY)  # lock released: fine now


class TestSessionIntegration:
    """The store wired through MarsSession: consult before, publish
    after, hits bit-identical to a fresh Mars run."""

    def _spec(self, tmp_path):
        return StoreSpec(path=str(tmp_path / "artifacts"))

    def test_miss_publish_then_cross_process_style_hit(self, tmp_path):
        spec = self._spec(tmp_path)
        with MarsSession(CNN, TOPOLOGY, config=SearchConfig.from_kwargs(
            store=spec
        )) as cold:
            first = cold.search(seed=0)
            stats = cold.stats
            assert stats.store_misses == 1 and stats.store_hits == 0
            assert stats.store_publishes == 1
        # A brand-new session — as a respawned shard worker would build
        # — opens the same directory and answers from disk.
        with MarsSession(CNN, TOPOLOGY, config=SearchConfig.from_kwargs(
            store=spec
        )) as warm:
            second = warm.search(seed=0)
            stats = warm.stats
            assert stats.store_hits == 1 and stats.store_publishes == 0
            assert stats.layer_cache.lookups == 0  # no GA ran
        _same_result(second, first)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_store_hit_is_bit_identical_to_fresh_mars(self, tmp_path, seed):
        spec = self._spec(tmp_path)
        config = SearchConfig.from_kwargs(store=spec)
        with MarsSession(CNN, TOPOLOGY, config=config) as cold:
            cold.search(seed=seed)
        with MarsSession(CNN, TOPOLOGY, config=config) as warm:
            _same_result(warm.search(seed=seed), fresh(seed))

    def test_seeds_isolate_within_one_session(self, tmp_path):
        config = SearchConfig.from_kwargs(store=self._spec(tmp_path))
        with MarsSession(CNN, TOPOLOGY, config=config) as session:
            session.search(seed=0)
            session.search(seed=1)
            stats = session.stats
            assert stats.store_misses == 2 and stats.store_publishes == 2
            # Repeats hit (the session consults the store first).
            session.search(seed=0)
            assert session.stats.store_hits == 1

    def test_wall_clock_spellings_share_artifacts(self, tmp_path):
        """Backends never change results, so artifacts published by one
        spelling (caches off) warm-start another (level-2 fitness cache
        on, layer cache off) — the ``result_fingerprint`` normalization
        under test."""
        spec = self._spec(tmp_path)
        writer_config = SearchConfig.from_kwargs(store=spec)
        budget = SearchBudget.fast()
        reader_config = SearchConfig.from_kwargs(
            store=spec,
            budget=replace(budget, level2=replace(budget.level2, cache=True)),
            layer_cache=False,
        )
        with MarsSession(CNN, TOPOLOGY, config=writer_config) as writer:
            writer.search(seed=0)
        with MarsSession(CNN, TOPOLOGY, config=reader_config) as reader:
            _same_result(reader.search(seed=0), fresh(0))
            assert reader.stats.store_hits == 1

    def test_result_changing_knobs_do_not_share(self, tmp_path):
        spec = self._spec(tmp_path)
        with MarsSession(CNN, TOPOLOGY, config=SearchConfig.from_kwargs(
            store=spec
        )) as writer:
            writer.search(seed=0)
        other_objective = SearchConfig.from_kwargs(
            store=spec, objective="throughput"
        )
        with MarsSession(
            CNN, TOPOLOGY, config=other_objective
        ) as reader:
            reader.search(seed=0)
            stats = reader.stats
            assert stats.store_hits == 0 and stats.store_misses == 1

    def test_corrupt_artifact_falls_through_to_fresh_search(self, tmp_path):
        spec = self._spec(tmp_path)
        config = SearchConfig.from_kwargs(store=spec)
        with MarsSession(CNN, TOPOLOGY, config=config) as cold:
            cold.search(seed=0)
        (entry,) = sorted(Path(spec.path).glob("objects/*/*.entry"))
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        with MarsSession(CNN, TOPOLOGY, config=config) as session:
            result = session.search(seed=0)
            stats = session.stats
            assert stats.store_quarantined == 1
            assert stats.store_hits == 0
        _same_result(result, fresh(0))

    def test_broken_store_path_never_breaks_a_search(self, tmp_path):
        root = tmp_path / "artifacts"
        root.write_text("a file where the store directory should be")
        config = SearchConfig.from_kwargs(
            store=StoreSpec(path=str(root), max_attempts=1)
        )
        with MarsSession(CNN, TOPOLOGY, config=config) as session:
            result = session.search(seed=0)
            assert session.stats.store_errors > 0
        _same_result(result, fresh(0))

    def test_store_excluded_from_search_identity(self, tmp_path):
        with_store = SearchConfig.from_kwargs(store=self._spec(tmp_path))
        without = SearchConfig.from_kwargs()
        assert with_store.result_fingerprint() == without.result_fingerprint()

    def test_mars_facade_never_carries_the_store(self, tmp_path):
        config = SearchConfig.from_kwargs(store=self._spec(tmp_path))
        mars = Mars(CNN, TOPOLOGY, config)
        assert mars.config.store is None
        assert mars.store is None
