"""SloServing's shard protocol: placement, determinism, crash policy.

The client half (spawning, the crash policy, the interned-graph
handshake) is ``SloServing`` in ``repro.core.frontend``; the worker
half, ``_shard_worker``, is in ``repro.core.serving``.

The contract: tenants are placed stickily by content
fingerprint; every routed search — across shard counts {1, 2}, after a
crash-triggered cold respawn, and through the inline fallback once the
respawn budget is spent — is bit-identical to a fresh ``Mars`` run
with the same configuration and seed; the interned-graph handshake
ships each workload's graph once per worker incarnation; and
``close()`` drains every submitted request before shutting workers
down.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Mars, SloServing, SloServingStats
from repro.core.config import SearchConfig
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")

#: Fresh single-process results, computed once per module — every
#: sharded test compares against these.
_FRESH: dict = {}


def fresh(graph, seed, objective="latency"):
    key = (graph.fingerprint(), seed, objective)
    if key not in _FRESH:
        _FRESH[key] = Mars(graph, TOPOLOGY, objective=objective).search(
            seed=seed
        )
    return _FRESH[key]


def _same_result(sharded, reference):
    assert sharded.latency_ms == reference.latency_ms
    assert sharded.describe() == reference.describe()
    assert sharded.ga.history == reference.ga.history


class TestPlacement:
    def test_placement_is_sticky_and_deterministic(self):
        with SloServing(TOPOLOGY, shards=2) as a:
            with SloServing(TOPOLOGY, shards=2) as b:
                for graph in (CNN, RESNET):
                    assert a.shard_of(graph) == b.shard_of(graph)
                    assert a.shard_of(graph) == a.shard_of(
                        build_model(graph.name)  # equal content, new object
                    )

    def test_all_requests_for_one_tenant_land_on_one_shard(self):
        with SloServing(TOPOLOGY, shards=2) as serving:
            home = serving.shard_of(CNN)
            for seed in (0, 1, 2):
                serving.search(CNN, seed=seed)
            stats = serving.stats(worker_stats=True)
        assert stats.per_shard[home].searches == 3
        assert stats.per_shard[1 - home].searches == 0
        assert stats.graph_ships[home] == 1
        assert stats.fp_sends[home] == 2
        assert stats.graph_ships[1 - home] == stats.fp_sends[1 - home] == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            SloServing(TOPOLOGY, shards=0)


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_results_match_fresh_mars_across_shard_counts(self, shards):
        with SloServing(TOPOLOGY, shards=shards) as serving:
            futures = {
                (graph.name, seed): serving.submit(graph, seed=seed)
                for graph in (CNN, RESNET)
                for seed in (0, 1)
            }
            for (name, seed), future in futures.items():
                graph = CNN if name == CNN.name else RESNET
                _same_result(future.result(), fresh(graph, seed))

    def test_objective_override_routes_and_matches(self):
        with SloServing(TOPOLOGY, shards=2) as serving:
            result = serving.search(CNN, seed=0, objective="throughput")
        _same_result(result, fresh(CNN, 0, objective="throughput"))


class TestCrashPolicy:
    def test_killed_worker_respawns_cold_and_results_identical(self):
        with SloServing(TOPOLOGY, shards=2) as serving:
            home = serving.shard_of(CNN)
            serving.search(CNN, seed=0)
            serving._handles[home].process.kill()
            result = serving.search(CNN, seed=1)  # crash detected mid-send
            stats = serving.stats(worker_stats=True)
        _same_result(result, fresh(CNN, 1))
        assert stats.respawns == 1
        assert stats.per_shard[home] is not None

    def test_respawn_budget_exhausted_falls_back_inline(self, monkeypatch):
        monkeypatch.setattr(SloServing, "SHARD_RESPAWN_LIMIT", 0)
        with SloServing(TOPOLOGY, shards=2) as serving:
            home = serving.shard_of(CNN)
            serving._handles[home].process.kill()
            result = serving.search(CNN, seed=0)  # served inline
            stats = serving.stats(worker_stats=True)
            _same_result(result, fresh(CNN, 0))
            assert stats.per_shard[home] is None  # worker permanently gone
            assert stats.fallback is not None
            assert stats.fallback.searches == 1
            # The frontend keeps serving the dead shard's tenants.
            _same_result(serving.search(CNN, seed=1), fresh(CNN, 1))


class TestLifecycleAndStats:
    def test_close_drains_submitted_requests(self):
        serving = SloServing(TOPOLOGY, shards=2)
        futures = [serving.submit(CNN, seed=s) for s in (0, 1)]
        serving.close()  # must complete both before shutting down
        for seed, future in enumerate(futures):
            _same_result(future.result(timeout=0), fresh(CNN, seed))

    def test_submit_after_close_raises(self):
        # submit() after close() must be a clean RuntimeError that
        # never touches the stopped dispatchers — not an argument
        # ValueError — and so must a probe of the stopped workers.
        # Frontend-side counters stay readable.
        serving = SloServing(TOPOLOGY, shards=1)
        serving.close()
        with pytest.raises(RuntimeError, match="closed"):
            serving.submit(CNN)
        with pytest.raises(RuntimeError, match="closed"):
            serving.stats(worker_stats=True)
        assert serving.stats().submitted == 0
        serving.close()  # idempotent

    def test_shard_workers_can_host_pooled_tenant_sessions(self):
        # Regression: daemonic shard workers could not parent the
        # tenant sessions' worker pools — every pooled batch broke and
        # silently degraded to serial with executor churn. A workers=2
        # tenant inside a shard must spawn its pool once and never
        # break it.
        config = SearchConfig.from_kwargs(workers=2)
        with SloServing(TOPOLOGY, shards=1, config=config) as serving:
            result = serving.search(CNN, seed=0)
            stats = serving.stats(worker_stats=True)
        tenant = stats.per_shard[0].per_tenant["tiny_cnn"]
        assert tenant.pool_spawns == 1
        assert tenant.pool_failures == 0
        assert tenant.pool_respawns == 0
        _same_result(result, fresh(CNN, 0))

    def test_abandoned_frontend_does_not_hang_interpreter_exit(
        self, tmp_path
    ):
        # Shard workers are non-daemonic (so tenant sessions can start
        # their own pools); a frontend abandoned without close() must
        # still let the interpreter exit — the module atexit hook
        # closes it before multiprocessing joins its children. This
        # guards the atexit *registration order*, which is easy to
        # break silently.
        script = tmp_path / "abandon.py"
        script.write_text(
            "from repro.core import SloServing\n"
            "from repro.dnn import build_model\n"
            "from repro.system import f1_16xlarge\n"
            "serving = SloServing(f1_16xlarge(), shards=1)\n"
            "serving.search(build_model('tiny_cnn'), seed=0)\n"
            "print('done')\n"  # exits WITHOUT serving.close()
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "done" in result.stdout

    def test_interned_graph_handshake_ships_each_graph_once(self):
        # The handshake's whole point: one full-graph pickle per
        # (workload, worker incarnation), fingerprints thereafter.
        with SloServing(TOPOLOGY, shards=1) as serving:
            for seed in (0, 1, 2):
                serving.search(CNN, seed=seed)
            for seed in (0, 1):
                serving.search(RESNET, seed=seed)
            stats = serving.stats()
        assert stats.graph_ships == (2,)  # one per distinct workload
        assert stats.fp_sends == (3,)  # every repeat went as a hash

    def test_handshake_reships_after_crash_respawn(self):
        # A cold replacement worker has interned nothing; the frontend
        # must notice (its ledger clears on reap) and ship the full
        # graph again rather than strand the tenant on unknown_fp.
        with SloServing(TOPOLOGY, shards=1) as serving:
            serving.search(CNN, seed=0)
            serving._handles[0].process.kill()
            result = serving.search(CNN, seed=1)
            stats = serving.stats()
        _same_result(result, fresh(CNN, 1))
        assert stats.respawns == 1
        assert stats.graph_ships == (2,)

    def test_stats_aggregate_across_shards(self):
        with SloServing(TOPOLOGY, shards=2) as serving:
            for graph in (CNN, RESNET):
                for seed in (0, 1):
                    serving.search(graph, seed=seed)
            frontend_only = serving.stats()
            stats = serving.stats(worker_stats=True)
        assert isinstance(stats, SloServingStats)
        assert len(stats.per_shard) == 2
        assert stats.submitted == stats.completed == 4
        merged = stats.merged
        assert merged.searches == 4
        assert merged.tenants == 2
        assert merged.hits == 2  # second seed of each tenant was warm
        assert merged.misses == 2
        assert merged.retired.searches == 0
        # Without the worker probe no registry reports: all zeros.
        assert frontend_only.per_shard == ()
        assert frontend_only.merged.searches == 0
