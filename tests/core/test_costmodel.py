"""The pluggable cost-model layer: bit-identity, identity threading.

Three contracts pin the refactor:

* **Bit-identity** — ``AnalyticalCostModel`` (the default) reproduces
  the pre-refactor evaluator exactly. The goldens under
  ``goldens/costmodel_goldens.json`` were recorded at the commit
  *before* the extraction (full search outcomes across the zoo, layer
  cache on and off, floats stored as hex); every cell must replay
  byte-equal forever.
* **Pluggability** — a second registered model
  (``ContentionDeratedCostModel``) genuinely changes pricing, degrades
  to the analytical model at unit derates, and calibrates from the
  validation harness's divergence report.
* **Identity threading** — the :class:`CostModelSpec` participates in
  config fingerprints, store keys, serving tenant keys and the
  evaluator's layer-cache keys, so two deployments priced by different
  models can never alias anywhere results are cached or persisted.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.core import Mars, MarsSession
from repro.core.config import SearchConfig
from repro.core.costmodel import (
    AnalyticalCostModel,
    ContentionDeratedCostModel,
    CostModel,
    CostModelSpec,
    available_cost_models,
    register_cost_model,
)
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.ga import SearchBudget
from repro.core.serving import MultiModelSession
from repro.core.store import StoreSpec
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils.cache import LruCache
from repro.utils.rng import stable_digest
from repro.utils.serialization import mapping_to_dict

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "costmodel_goldens.json").read_text()
)

TOPOLOGY = f1_16xlarge()

#: A spec that prices communication differently from the default.
DERATED = CostModelSpec.with_params(
    "contention-derated",
    collective_derate=1.5,
    transfer_derate=1.25,
    host_derate=1.1,
)


def _search(model, seed, layer_cache, cost_model=None):
    kwargs = {"budget": SearchBudget.fast(), "layer_cache": layer_cache}
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    with Mars(build_model(model), TOPOLOGY, **kwargs) as mars:
        return mars.search(seed=seed)


def _mapping_digest(mapping):
    return stable_digest(json.dumps(mapping_to_dict(mapping), sort_keys=True))


class TestGoldenBitIdentity:
    """The refactored evaluator replays the pre-refactor goldens."""

    @pytest.mark.parametrize("cell", sorted(GOLDENS["cells"]))
    def test_cell_bit_identical(self, cell):
        model, seed_part, cache_part = cell.split("/")
        seed = int(seed_part.removeprefix("seed"))
        layer_cache = cache_part == "cache=on"
        result = _search(model, seed, layer_cache)
        golden = GOLDENS["cells"][cell]
        assert result.feasible == golden["feasible"]
        assert (
            float(result.evaluation.latency_seconds).hex()
            == golden["latency_seconds_hex"]
        )
        assert (
            float(result.evaluation.transfer_seconds).hex()
            == golden["transfer_seconds_hex"]
        )
        assert (
            float(result.evaluation.host_input_seconds).hex()
            == golden["host_input_seconds_hex"]
        )
        assert _mapping_digest(result.mapping) == golden["mapping_digest"]
        assert [
            float(h).hex() for h in result.ga.history
        ] == golden["ga_history_hex"]

    def test_explicit_analytical_spec_matches_default(self):
        implicit = _search("tiny_cnn", 0, True)
        explicit = _search("tiny_cnn", 0, True, cost_model=CostModelSpec())
        assert (
            explicit.evaluation.latency_seconds
            == implicit.evaluation.latency_seconds
        )
        assert explicit.ga.history == implicit.ga.history
        assert _mapping_digest(explicit.mapping) == _mapping_digest(
            implicit.mapping
        )


class TestCostModelSpec:
    def test_params_canonicalized(self):
        a = CostModelSpec(kind="x", params=(("b", 2.0), ("a", 1.0)))
        b = CostModelSpec(kind="x", params=(("a", 1.0), ("b", 2.0)))
        assert a == b
        assert a.token() == b.token()
        assert a.params == (("a", 1.0), ("b", 2.0))

    def test_with_params_round_trips(self):
        spec = CostModelSpec.with_params("x", beta=2.0, alpha=1.0)
        assert spec.param_dict() == {"alpha": 1.0, "beta": 2.0}

    def test_tokens_separate_kinds_and_params(self):
        tokens = {
            CostModelSpec().token(),
            CostModelSpec.with_params("analytical", extra=1.0).token(),
            DERATED.token(),
            CostModelSpec.with_params(
                "contention-derated",
                collective_derate=1.5,
                transfer_derate=1.25,
                host_derate=1.2,
            ).token(),
        }
        assert len(tokens) == 4

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(DERATED))
        assert clone == DERATED
        assert clone.token() == DERATED.token()

    def test_build_unknown_kind_names_registry(self):
        with pytest.raises(KeyError, match="analytical"):
            CostModelSpec(kind="no-such-model").build(TOPOLOGY)

    def test_registry_lists_shipped_models(self):
        assert "analytical" in available_cost_models()
        assert "contention-derated" in available_cost_models()

    def test_register_refuses_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_cost_model("analytical")
            class Impostor(CostModel):
                pass

    def test_built_model_spec_round_trips(self):
        model = DERATED.build(TOPOLOGY)
        assert model.spec == DERATED
        assert model.spec.token() == DERATED.token()
        assert AnalyticalCostModel(TOPOLOGY).spec == CostModelSpec()


class TestContentionDeratedModel:
    def test_unit_derates_bit_identical_to_analytical(self):
        unit = CostModelSpec.with_params(
            "contention-derated",
            collective_derate=1.0,
            transfer_derate=1.0,
            host_derate=1.0,
        )
        base = _search("tiny_cnn", 0, True)
        derated = _search("tiny_cnn", 0, True, cost_model=unit)
        assert (
            derated.evaluation.latency_seconds
            == base.evaluation.latency_seconds
        )
        assert derated.ga.history == base.ga.history
        assert _mapping_digest(derated.mapping) == _mapping_digest(
            base.mapping
        )

    def test_derates_change_prices(self):
        base = AnalyticalCostModel(TOPOLOGY)
        derated = DERATED.build(TOPOLOGY)
        group = (0, 1, 2, 3)
        assert derated.allreduce_seconds(group, 1e6) == pytest.approx(
            1.5 * base.allreduce_seconds(group, 1e6)
        )
        assert derated.ring_step_seconds(group, 1e6) == pytest.approx(
            1.5 * base.ring_step_seconds(group, 1e6)
        )
        assert derated.transfer_seconds(
            (0, 1), (2, 3), 1e6
        ) == pytest.approx(1.25 * base.transfer_seconds((0, 1), (2, 3), 1e6))
        assert derated.host_read_seconds(0, 1e6) == pytest.approx(
            1.1 * base.host_read_seconds(0, 1e6)
        )
        assert derated.host_round_trip_seconds(0, 1e6) == pytest.approx(
            1.1 * base.host_round_trip_seconds(0, 1e6)
        )

    def test_derated_search_never_beats_analytical_pricing(self):
        base = _search("tiny_cnn", 0, True)
        derated = _search("tiny_cnn", 0, True, cost_model=DERATED)
        assert (
            derated.evaluation.latency_seconds
            >= base.evaluation.latency_seconds
        )

    def test_derates_below_one_rejected(self):
        with pytest.raises(ValueError, match="collective_derate"):
            ContentionDeratedCostModel(TOPOLOGY, collective_derate=0.5)

    def test_from_divergence_fits_and_clamps(self):
        report = {
            "patterns": {
                "allreduce": {
                    "analytical_seconds": 1.0,
                    "simulated_seconds": 2.0,
                },
                "halo": {
                    "analytical_seconds": 1.0,
                    "simulated_seconds": 1.0,
                },
                "reshard": {
                    "analytical_seconds": 1.0,
                    # Simulator under-runs the closed form: clamped.
                    "simulated_seconds": 0.0,
                },
                "host-input": {
                    "analytical_seconds": 2.0,
                    "simulated_seconds": 2.2,
                },
            }
        }
        spec = ContentionDeratedCostModel.from_divergence(report)
        params = spec.param_dict()
        assert params["collective_derate"] == pytest.approx(1.5)
        assert params["transfer_derate"] == 1.0
        assert params["host_derate"] == pytest.approx(1.1)
        model = spec.build(TOPOLOGY)
        assert isinstance(model, ContentionDeratedCostModel)


class TestIdentityThreading:
    """The spec reaches every fingerprint, key and cache that matters."""

    def test_config_fingerprints_differ_by_cost_model(self):
        base = SearchConfig()
        derated = SearchConfig(cost_model=DERATED)
        assert base != derated
        assert base.result_fingerprint() != derated.result_fingerprint()

    def test_equal_specs_share_fingerprints(self):
        a = SearchConfig(cost_model=CostModelSpec())
        b = SearchConfig()
        assert a == b
        assert a.result_fingerprint() == b.result_fingerprint()

    def test_config_pickle_preserves_cost_model(self):
        config = SearchConfig(cost_model=DERATED)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.cost_model == DERATED
        assert clone == config
        assert clone.result_fingerprint() == config.result_fingerprint()

    def test_store_artifacts_do_not_alias_across_models(self, tmp_path):
        """A mapping searched under one model must never warm-start a
        deployment priced by another."""
        store = StoreSpec(path=str(tmp_path / "artifacts"))
        graph = build_model("tiny_cnn")
        base_config = SearchConfig.from_kwargs(store=store)
        derated_config = SearchConfig.from_kwargs(
            store=store, cost_model=DERATED
        )
        with MarsSession(graph, TOPOLOGY, config=base_config) as session:
            session.search(seed=0)
            assert session.stats.store_publishes == 1
        with MarsSession(graph, TOPOLOGY, config=derated_config) as session:
            result = session.search(seed=0)
            stats = session.stats
            # Different pricing -> different store key -> a miss, a
            # fresh search, and a second (non-aliasing) publish.
            assert stats.store_hits == 0
            assert stats.store_misses == 1
            assert stats.store_publishes == 1
        with MarsSession(graph, TOPOLOGY, config=derated_config) as session:
            warm = session.search(seed=0)
            assert session.stats.store_hits == 1
            assert (
                warm.evaluation.latency_seconds
                == result.evaluation.latency_seconds
            )

    def test_tenant_keys_differ_by_cost_model(self):
        graph = build_model("tiny_cnn")
        base = MultiModelSession(TOPOLOGY, budget=SearchBudget.fast())
        derated = MultiModelSession(
            TOPOLOGY, budget=SearchBudget.fast(), cost_model=DERATED
        )
        try:
            base.session_for(graph)
            derated.session_for(graph)
            [key_a], [key_b] = list(base._tenants), list(derated._tenants)
            assert key_a != key_b
            assert key_a[:3] == key_b[:3]  # only the model token differs
        finally:
            base.close()
            derated.close()

    def test_slo_tenant_key_includes_cost_model_token(self):
        # Shard placement and registry routing share this one key.
        from repro.core.serving import _tenant_key

        graph = build_model("tiny_cnn")
        key = _tenant_key(graph, TOPOLOGY, "latency", DERATED)
        assert key[-1] == DERATED.token()

    def test_evaluator_rejects_nothing_yet_builds_from_spec(self):
        graph = build_model("tiny_cnn")
        from_spec = MappingEvaluator(graph, TOPOLOGY, cost_model=DERATED)
        assert isinstance(from_spec.cost_model, ContentionDeratedCostModel)
        default = MappingEvaluator(graph, TOPOLOGY)
        assert isinstance(default.cost_model, AnalyticalCostModel)


class TestLayerCacheAliasing:
    """Satellite: two evaluators with different cost models never share
    cached entries — even through a literally shared cache object."""

    def _evaluate(self, evaluator, graph):
        from repro.accelerators import design1_superlip
        from repro.core.strategy_space import longest_dims_strategy

        nodes = graph.nodes()
        strategies = {
            node.name: longest_dims_strategy(node.conv_spec())
            for node in graph.compute_nodes()
        }
        return evaluator.evaluate_set(
            nodes, (0, 1, 2, 3), design1_superlip(), strategies
        )

    def test_shared_cache_never_mixes_models(self):
        graph = build_model("tiny_cnn")
        options = EvaluatorOptions(layer_cache=True)
        analytical = MappingEvaluator(graph, TOPOLOGY, options)
        derated = MappingEvaluator(
            graph, TOPOLOGY, options, cost_model=DERATED
        )
        # Reference prices from private caches first.
        expect_a = self._evaluate(analytical, graph).latency_seconds
        expect_b = self._evaluate(derated, graph).latency_seconds
        assert expect_b > expect_a

        # Now force both evaluators through ONE cache object. If the
        # cost model were missing from the key, the second evaluator
        # would replay the first one's (differently priced) entries.
        shared = LruCache(65536)
        fresh_a = MappingEvaluator(graph, TOPOLOGY, options)
        fresh_b = MappingEvaluator(graph, TOPOLOGY, options, cost_model=DERATED)
        fresh_a._layer_cache = shared
        fresh_b._layer_cache = shared
        got_a = self._evaluate(fresh_a, graph).latency_seconds
        populated = len(shared)
        got_b = self._evaluate(fresh_b, graph).latency_seconds
        assert got_a == expect_a
        assert got_b == expect_b
        # The second walk added its own entries instead of hitting the
        # first model's.
        assert len(shared) == 2 * populated
        assert shared.hits == 0

    def test_cache_keys_carry_distinct_cost_tokens(self):
        graph = build_model("tiny_cnn")
        a = MappingEvaluator(graph, TOPOLOGY)
        b = MappingEvaluator(graph, TOPOLOGY, cost_model=DERATED)
        assert a._cost_token != b._cost_token
        assert a._cost_token == AnalyticalCostModel(TOPOLOGY).spec.token()
        assert b._cost_token == DERATED.token()
