"""MultiModelSession: multi-tenant routing, eviction, determinism.

The registry's contract: every request reaches a warm session keyed by
content — (graph fingerprint, topology fingerprint, objective) — so
structurally identical workloads share one tenant; capacity pressure
closes the least-recently-used tenant; and none of that routing ever
changes a result — each tenant search is bit-identical to a fresh
``Mars`` run with the same configuration and seed, whether the tenant
was warm, cold, or rebuilt after eviction.
"""

import pytest

from repro.core import Mars, MultiModelSession
from repro.dnn import build_model
from repro.dnn.multi import combine_graphs
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")


def _same_result(a, b):
    assert a.latency_ms == b.latency_ms
    assert a.describe() == b.describe()
    assert a.ga.history == b.ga.history


class TestRouting:
    def test_tenant_searches_match_fresh_mars(self):
        with MultiModelSession(TOPOLOGY, capacity=4) as registry:
            for graph in (CNN, RESNET):
                for seed in (0, 1):
                    _same_result(
                        registry.search(graph, seed=seed),
                        Mars(graph, TOPOLOGY).search(seed=seed),
                    )
            stats = registry.stats()
        assert stats.tenants == 2
        assert stats.misses == 2  # one session build per graph
        assert stats.hits == 2  # second seed of each graph reused it
        assert stats.searches == 4
        assert set(stats.per_tenant) == {"tiny_cnn", "tiny_resnet"}
        assert stats.per_tenant["tiny_cnn"].searches == 2

    def test_repeat_requests_reuse_the_same_session(self):
        with MultiModelSession(TOPOLOGY) as registry:
            first = registry.session_for(CNN)
            assert registry.session_for(CNN) is first
            assert len(registry) == 1
            assert CNN in registry
            assert RESNET not in registry

    def test_tenants_are_content_addressed(self):
        # Equal content, distinct object: fingerprints agree, so the
        # twin routes to the SAME warm tenant (and an unpickled copy
        # would too — the property sharding is built on).
        twin = build_model("tiny_cnn")
        with MultiModelSession(TOPOLOGY) as registry:
            a = registry.session_for(CNN)
            b = registry.session_for(twin)
            assert a is b
            assert registry.stats().hits == 1
            assert len(registry) == 1

    def test_same_name_different_content_gets_its_own_tenant(self):
        from repro.dnn.models.tiny import tiny_cnn

        other = tiny_cnn(num_classes=12)  # same graph name, new content
        assert other.name == CNN.name
        assert other.fingerprint() != CNN.fingerprint()
        with MultiModelSession(TOPOLOGY) as registry:
            a = registry.session_for(CNN)
            b = registry.session_for(other)
            assert a is not b
            labels = set(registry.stats().per_tenant)
        assert labels == {"tiny_cnn", "tiny_cnn@2"}

    def test_objective_is_part_of_the_tenant_key(self):
        with MultiModelSession(TOPOLOGY) as registry:
            latency = registry.session_for(CNN)
            throughput = registry.session_for(CNN, objective="throughput")
            assert latency is not throughput
            labels = set(registry.stats().per_tenant)
        assert labels == {"tiny_cnn", "tiny_cnn:throughput"}

    def test_combined_multi_dnn_graph_is_an_ordinary_tenant(self):
        merged = combine_graphs([CNN, RESNET])
        with MultiModelSession(TOPOLOGY, capacity=3) as registry:
            result = registry.search(merged, seed=0)
            fresh = Mars(merged, TOPOLOGY).search(seed=0)
            _same_result(result, fresh)
            assert "tiny_cnn+tiny_resnet" in registry.stats().per_tenant


class TestEviction:
    def test_capacity_evicts_least_recently_used_and_closes_it(self):
        with MultiModelSession(TOPOLOGY, capacity=1) as registry:
            first = registry.session_for(CNN)
            registry.session_for(RESNET)  # pushes CNN out
            assert first.closed
            assert len(registry) == 1
            assert CNN not in registry
            assert RESNET in registry
            assert registry.stats().evictions == 1

    def test_recency_refresh_protects_the_hot_tenant(self):
        from repro.dnn.models.tiny import tiny_cnn

        third = tiny_cnn(num_classes=12)  # distinct content, third tenant
        with MultiModelSession(TOPOLOGY, capacity=2) as registry:
            registry.session_for(CNN)
            resnet_session = registry.session_for(RESNET)
            registry.session_for(CNN)  # CNN becomes most recent
            registry.session_for(third)  # evicts RESNET, not CNN
            assert resnet_session.closed
            assert CNN in registry

    def test_rebuilt_tenant_searches_identically_after_eviction(self):
        with MultiModelSession(TOPOLOGY, capacity=1) as registry:
            warm = registry.search(CNN, seed=0)
            registry.search(RESNET, seed=0)  # evicts the CNN tenant
            rebuilt = registry.search(CNN, seed=0)  # cold rebuild
            _same_result(warm, rebuilt)
            assert registry.stats().misses == 3  # CNN built twice

    def test_explicit_evict(self):
        with MultiModelSession(TOPOLOGY) as registry:
            session = registry.session_for(CNN)
            assert registry.evict(CNN)
            assert session.closed
            assert not registry.evict(CNN)  # already gone
            assert len(registry) == 0
            # Deliberate drops are not capacity pressure.
            assert registry.stats().evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MultiModelSession(TOPOLOGY, capacity=0)


class TestRetiredStats:
    def test_capacity_eviction_folds_counters_into_retired(self):
        with MultiModelSession(TOPOLOGY, capacity=1) as registry:
            registry.search(CNN, seed=0)
            registry.search(CNN, seed=1)
            before = registry.stats()
            assert before.retired.searches == 0
            registry.search(RESNET, seed=0)  # evicts the CNN tenant
            after = registry.stats()
        assert after.retired.searches == 2
        assert after.retired.subproblem_hits == (
            before.per_tenant["tiny_cnn"].subproblem_hits
        )

    def test_explicit_evict_folds_counters_into_retired(self):
        with MultiModelSession(TOPOLOGY) as registry:
            registry.search(CNN, seed=0)
            registry.evict(CNN)
            stats = registry.stats()
        assert stats.retired.searches == 1
        assert stats.per_tenant == {}

    def test_lifetime_spans_live_and_retired_tenants(self):
        with MultiModelSession(TOPOLOGY, capacity=1) as registry:
            registry.search(CNN, seed=0)
            registry.search(RESNET, seed=0)  # evicts CNN
            stats = registry.stats()
            assert stats.lifetime.searches == 2
            # A closed registry still reports the full history.
        final = registry.stats()
        assert final.per_tenant == {}
        assert final.retired.searches == 2
        assert final.lifetime.searches == 2

    def test_rebuild_after_eviction_keeps_cumulative_history(self):
        registry = MultiModelSession(TOPOLOGY, capacity=1)
        registry.search(CNN, seed=0)
        registry.search(RESNET, seed=0)  # evicts the CNN tenant
        registry.search(CNN, seed=0)  # evicts RESNET, rebuilds CNN cold
        registry.close()  # retires the rebuilt CNN tenant
        stats = registry.stats()
        # Every search ever routed stays counted: one per tenant
        # incarnation, none lost to the eviction churn.
        assert stats.retired.searches == 3
        assert stats.lifetime.searches == 3


class TestLifecycle:
    def test_close_closes_every_tenant_and_refuses_routing(self):
        registry = MultiModelSession(TOPOLOGY)
        a = registry.session_for(CNN)
        b = registry.session_for(RESNET)
        registry.close()
        assert a.closed and b.closed
        assert len(registry) == 0
        with pytest.raises(ValueError):
            registry.session_for(CNN)
        registry.close()  # idempotent

    def test_evict_refuses_on_a_closed_registry(self):
        # Regression: evict() used to silently return False after
        # close() while session_for() raised — mutation now refuses
        # consistently.
        registry = MultiModelSession(TOPOLOGY)
        registry.session_for(CNN)
        registry.close()
        with pytest.raises(ValueError, match="closed"):
            registry.evict(CNN)

    def test_contains_reports_false_on_a_closed_registry(self):
        registry = MultiModelSession(TOPOLOGY)
        registry.session_for(CNN)
        assert CNN in registry
        registry.close()
        assert CNN not in registry  # a closed registry holds no tenants

    def test_close_folds_every_tenant_into_retired(self):
        registry = MultiModelSession(TOPOLOGY)
        registry.search(CNN, seed=0)
        registry.search(RESNET, seed=0)
        registry.close()
        assert registry.stats().retired.searches == 2

    def test_workers_thread_through_to_tenant_sessions(self):
        with MultiModelSession(TOPOLOGY, workers=2) as registry:
            session = registry.session_for(CNN)
            assert session.pool is not None
            assert session.config.budget.level1.workers == 2
        assert session.closed

    def test_merge_never_stacks_label_suffixes(self):
        # Aggregating registries whose labels are already @n-suffixed
        # must renumber from the root, not produce "foo@2@2".
        from repro.core.serving import ServingStats
        from repro.core.session import SessionStats

        def stats_with(labels):
            return ServingStats(
                capacity=8,
                tenants=len(labels),
                hits=0,
                misses=0,
                evictions=0,
                searches=0,
                per_tenant={l: SessionStats.zero() for l in labels},
                retired=SessionStats.zero(),
            )

        merged = stats_with(["foo", "foo@2"]).merge(stats_with(["foo@2"]))
        assert set(merged.per_tenant) == {"foo", "foo@2", "foo@3"}

    def test_stats_keep_a_literal_at_suffixed_graph_name(self):
        # A graph genuinely named "foo@2" must keep its name in
        # registry-local stats — root-stripping applies only to merge.
        from repro.dnn.models.tiny import tiny_cnn

        oddly_named = tiny_cnn()
        oddly_named.name = "tiny_cnn@2"
        with MultiModelSession(TOPOLOGY) as registry:
            registry.session_for(oddly_named)
            labels = set(registry.stats().per_tenant)
        assert labels == {"tiny_cnn@2"}

    def test_stats_hit_rate(self):
        with MultiModelSession(TOPOLOGY) as registry:
            registry.session_for(CNN)
            registry.session_for(CNN)
            stats = registry.stats()
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
