"""The ``python -m repro.experiments`` command-line runner."""

import pytest

from repro.experiments.__main__ import main

#: Lines table3 prints after its table: counters, not results.
SUMMARY_PREFIXES = (
    "layer-cost cache:",
    "persistent store:",
    "serving registry:",
    "sharded serving:",
)


def _table_text(out: str) -> str:
    """table3's output above its first summary line."""
    lines = out.splitlines()
    end = next(
        i for i, line in enumerate(lines) if line.startswith(SUMMARY_PREFIXES)
    )
    return "\n".join(lines[:end])


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2", "--models", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_table3_quick(self, capsys):
        assert main(["table3", "--models", "tiny_cnn", "--budget", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "tiny_cnn" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_budget_flag_accepts_paper(self):
        # Argument parsing only; no need to actually run the big budget.
        with pytest.raises(SystemExit):
            main(["table3", "--budget", "huge"])

    def test_table3_reports_layer_cache_stats(self, capsys):
        assert main(["table3", "--models", "tiny_cnn"]) == 0
        out = capsys.readouterr().out
        assert "layer-cost cache:" in out
        assert "hit rate" in out

    def test_no_layer_cache_rejected_for_table2(self):
        with pytest.raises(SystemExit):
            main(["table2", "--models", "alexnet", "--no-layer-cache"])

    def test_workers_rejected_for_table2(self, capsys):
        # table2 has no sub-problems to fan out; a pool would sit idle.
        with pytest.raises(SystemExit):
            main(["table2", "--models", "alexnet", "--workers", "2"])
        assert "--workers does not apply to table2" in capsys.readouterr().err

    def test_no_layer_cache_flag(self, capsys):
        assert (
            main(["table3", "--models", "tiny_cnn", "--no-layer-cache"]) == 0
        )
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "layer-cost cache:" not in out

    def test_backend_flags_never_change_the_table(self, capsys):
        tables = []
        for flags in ([], ["--workers", "2"], ["--no-layer-cache"]):
            assert main(["table3", "--models", "tiny_cnn", *flags]) == 0
            tables.append(_table_text(capsys.readouterr().out))
        assert "Table III" in tables[0]
        assert tables[1] == tables[0]
        assert tables[2] == tables[0]

    def test_cache_flag_is_gone(self, capsys):
        # Level 1 always memoizes; GAConfig(cache=True) on level 2 is the
        # one spelling of level-2 memoization.
        with pytest.raises(SystemExit):
            main(["table3", "--models", "tiny_cnn", "--cache"])
        assert "unrecognized arguments: --cache" in capsys.readouterr().err

    def test_table3_reports_serving_registry(self, capsys):
        assert main(["table3", "--models", "tiny_cnn"]) == 0
        out = capsys.readouterr().out
        assert "serving registry:" in out

    def test_table3_combined_adds_merged_row(self, capsys):
        assert (
            main(
                [
                    "table3",
                    "--models",
                    "tiny_cnn",
                    "tiny_resnet",
                    "--combined",
                    "--session-capacity",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tiny_cnn+tiny_resnet" in out
        assert "evictions" in out

    @pytest.mark.parametrize("extra", [[], ["--deadline", "300"]])
    def test_table3_shards_prints_one_serving_summary(self, capsys, extra):
        argv = ["table3", "--models", "tiny_cnn", "--shards", "1", *extra]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        summaries = [line for line in lines if "serving" in line]
        assert summaries == [lines[-1]]
        assert lines[-1].startswith("sharded serving: 1 shards")
        assert "1 completed, 0 shed, 0 expired" in lines[-1]

    def test_deadline_requires_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--models", "tiny_cnn", "--deadline", "300"])
        assert "--deadline requires --shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--validate", "--models", "tiny_cnn", "--tolerance", "nan"],
            ["--validate", "--models", "tiny_cnn", "--tolerance", "inf"],
            ["table3", "--models", "tiny_cnn", "--shards", "1",
             "--deadline", "nan"],
            ["table3", "--models", "tiny_cnn", "--shards", "1",
             "--deadline", "inf"],
        ],
    )
    def test_non_finite_tolerance_and_deadline_rejected(self, capsys, argv):
        # ``divergence > nan`` is always false, so a NaN tolerance could
        # never fail the validation gate.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be a finite number > 0" in capsys.readouterr().err

    def test_combined_needs_two_models(self):
        with pytest.raises(SystemExit):
            main(["table3", "--models", "tiny_cnn", "--combined"])

    def test_session_capacity_rejected_outside_table3(self):
        with pytest.raises(SystemExit):
            main(["table4", "--session-capacity", "2"])

    def test_session_capacity_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table3", "--models", "tiny_cnn", "--session-capacity", "0"])
