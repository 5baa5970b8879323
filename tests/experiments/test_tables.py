"""Experiment runners: structure and headline shapes on quick configs."""

import pytest

from repro.core.ga import GAConfig, SearchBudget
from repro.experiments import run_table2, run_table3, run_table4

QUICK = SearchBudget(
    level1=GAConfig(population_size=6, generations=4, elite_count=1, patience=3),
    level2=GAConfig(population_size=8, generations=5, elite_count=1, patience=3),
)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(models=("alexnet",))

    def test_three_design_rows(self, result):
        assert len(result.design_rows) == 3

    def test_design_parameters_rendered(self, result):
        text = result.to_text()
        assert "64, 7, 7, 14" in text  # SuperLIP tile parameters
        assert "11, 13, 8" in text  # systolic array
        assert "6, 2, 8" in text  # Winograd

    def test_profile_included(self, result):
        assert "alexnet" in result.profiles
        text = result.to_text()
        assert "Norm. score" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(models=("alexnet",), budget=QUICK, seed=0)

    def test_row_statistics_match_model(self, result):
        row = result.rows[0]
        assert row.model == "alexnet"
        assert row.num_convs == 5
        assert row.params_m == pytest.approx(61.1, rel=0.02)

    def test_mars_beats_baseline(self, result):
        """The headline claim of Table III, on its easiest row."""
        row = result.rows[0]
        assert row.mars_ms < row.baseline_ms
        assert row.reduction_pct > 0

    def test_mapping_description_present(self, result):
        assert "Design" in result.rows[0].mapping_found

    def test_text_report(self, result):
        text = result.to_text()
        assert "Table III" in text
        assert "Mean latency reduction" in text


class TestTable3Sharded:
    MODELS = ("tiny_cnn", "tiny_resnet")

    def test_sharded_rows_match_in_process(self):
        local = run_table3(models=self.MODELS)
        sharded = run_table3(models=self.MODELS, shards=2)
        # Row equality compares every field, mapping_found included.
        assert sharded.rows == local.rows
        assert sharded.serving.completed == len(self.MODELS)

    def test_whole_sweep_is_admitted(self):
        # Regression: the sweep is submitted up front, and a default
        # TrafficPolicy (queue_depth=64) shed the 65th seed of a model
        # with TenantQueueFull. The policy is sized to the sweep.
        result = run_table3(
            models=("tiny_cnn",), shards=1, seeds=tuple(range(70))
        )
        assert result.serving.completed == 70
        assert result.serving.shed == 0

    def test_deadline_requires_shards(self):
        with pytest.raises(ValueError, match="deadline requires shards"):
            run_table3(models=("tiny_cnn",), deadline=300.0)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(
            models=("facebagnet",),
            bandwidth_levels={"Low-(1Gbps)": 1.0, "High(10Gbps)": 10.0},
            budget=QUICK,
            seed=0,
        )

    def test_mars_beats_h2h_at_every_level(self, result):
        for by_model in result.cells.values():
            for cell in by_model.values():
                assert cell.mars_ms < cell.h2h_ms

    def test_latency_decreases_with_bandwidth(self, result):
        low = result.cells["Low-(1Gbps)"]["facebagnet"]
        high = result.cells["High(10Gbps)"]["facebagnet"]
        assert high.h2h_ms < low.h2h_ms
        assert high.mars_ms < low.mars_ms

    def test_text_report(self, result):
        text = result.to_text()
        assert "Table IV" in text
        assert "H2H" in text
