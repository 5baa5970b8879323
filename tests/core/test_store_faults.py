"""Crash recovery through the persistent store: warm-start from disk.

The durability contract across process death: artifacts published by a
shard worker outlive it. A worker killed ``SIGKILL`` mid-backlog is
cold-respawned and serves repeat fingerprints *from disk* — a verified
store hit, no GA — and a whole fresh frontend (new process tree, same
store directory) starts warm on day one. A broken store degrades to
cache-miss behaviour: no store I/O error ever surfaces through
``submit()``/``search()``.
"""

from pathlib import Path

import pytest

from repro.core import Mars, SloServing
from repro.core.config import SearchConfig
from repro.core.store import StoreSpec
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")

_FRESH: dict = {}


def fresh(graph, seed):
    key = (graph.fingerprint(), seed)
    if key not in _FRESH:
        _FRESH[key] = Mars(graph, TOPOLOGY).search(seed=seed)
    return _FRESH[key]


def _same_result(routed, reference):
    assert routed.latency_ms == reference.latency_ms
    assert routed.describe() == reference.describe()
    assert routed.ga.history == reference.ga.history


def store_config(tmp_path, **spec_overrides):
    spec = StoreSpec(path=str(tmp_path / "artifacts"), **spec_overrides)
    return SearchConfig.from_kwargs(store=spec)


def _lifetime(frontend):
    """Every shard registry's lifetime counters, folded into one."""
    return frontend.stats(worker_stats=True).merged.lifetime


class TestCrashRecovery:
    def test_respawned_shard_serves_repeats_from_disk(self, tmp_path):
        """Kill the only shard after one published artifact: the cold
        respawn answers the repeat fingerprint with a store hit instead
        of re-searching."""
        config = store_config(tmp_path)
        with SloServing(TOPOLOGY, shards=1, config=config) as serving:
            _same_result(serving.search(CNN, seed=0), fresh(CNN, 0))
            futures = [serving.submit(CNN, seed=s) for s in (1, 2)]
            serving._handles[0].process.kill()
            for seed, future in zip((1, 2), futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            # The respawned worker's in-memory state is empty — this
            # repeat can only be warm if it came from the store.
            _same_result(serving.search(CNN, seed=0), fresh(CNN, 0))
            stats = serving.stats(worker_stats=True)
            assert stats.respawns >= 1
            assert stats.merged.lifetime.store_hits >= 1

    def test_slo_frontend_kill_mid_backlog_recovers_from_disk(
        self, tmp_path
    ):
        """A backlog of repeat fingerprints stranded by SIGKILL drains
        through the respawned worker as store hits."""
        config = store_config(tmp_path)
        with SloServing(TOPOLOGY, shards=1, config=config) as frontend:
            _same_result(
                frontend.submit(CNN, seed=0).result(timeout=240),
                fresh(CNN, 0),
            )
            frontend.suspend()  # strand a backlog of repeats
            futures = [frontend.submit(CNN, seed=0) for _ in range(2)]
            frontend._handles[0].process.kill()
            frontend.resume()
            for future in futures:
                _same_result(future.result(timeout=240), fresh(CNN, 0))
            stats = frontend.stats(worker_stats=True)
            assert stats.respawns == 1
            assert stats.completed == 3
            assert stats.merged.lifetime.store_hits >= 2

    def test_fresh_frontend_warm_starts_from_populated_store(
        self, tmp_path
    ):
        """A brand-new frontend (new process tree) on a populated store
        serves every known fingerprint from disk: zero GA activity."""
        config = store_config(tmp_path)
        requests = [(CNN, 0), (CNN, 1), (RESNET, 0)]
        with SloServing(TOPOLOGY, shards=2, config=config) as cold:
            for graph, seed in requests:
                cold.search(graph, seed=seed)
            assert _lifetime(cold).store_publishes == len(requests)
        with SloServing(TOPOLOGY, shards=2, config=config) as warm:
            for graph, seed in requests:
                _same_result(
                    warm.search(graph, seed=seed), fresh(graph, seed)
                )
            lifetime = _lifetime(warm)
            assert lifetime.store_hits == len(requests)
            assert lifetime.store_misses == 0
            assert lifetime.layer_cache.lookups == 0  # no GA ran

    def test_artifacts_survive_on_disk_between_frontends(self, tmp_path):
        config = store_config(tmp_path)
        with SloServing(TOPOLOGY, shards=1, config=config) as serving:
            serving.search(CNN, seed=0)
        entries = list(
            Path(str(tmp_path / "artifacts")).glob("objects/*/*.entry")
        )
        assert len(entries) == 1  # durable artifact outlives the pool


class TestStoreDegradationInServing:
    def test_broken_store_path_never_propagates(self, tmp_path):
        """The store root occupied by a regular file: every search
        still completes bit-identically, errors surface only in stats."""
        root = tmp_path / "artifacts"
        root.write_text("a file where the store directory should be")
        config = SearchConfig.from_kwargs(
            store=StoreSpec(path=str(root), max_attempts=1)
        )
        with SloServing(TOPOLOGY, shards=1, config=config) as serving:
            _same_result(serving.search(CNN, seed=0), fresh(CNN, 0))
            lifetime = _lifetime(serving)
            assert lifetime.store_errors > 0
            assert lifetime.store_hits == 0

    def test_corrupt_artifact_falls_through_to_fresh_search(
        self, tmp_path
    ):
        config = store_config(tmp_path)
        with SloServing(TOPOLOGY, shards=1, config=config) as cold:
            cold.search(CNN, seed=0)
        (entry,) = Path(str(tmp_path / "artifacts")).glob(
            "objects/*/*.entry"
        )
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        with SloServing(TOPOLOGY, shards=1, config=config) as serving:
            _same_result(serving.search(CNN, seed=0), fresh(CNN, 0))
            lifetime = _lifetime(serving)
            assert lifetime.store_quarantined == 1
            assert lifetime.store_hits == 0
