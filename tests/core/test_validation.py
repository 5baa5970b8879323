"""The cost-model validation harness: patterns, pricing, reports, CLI.

``repro.core.validation`` replays searched mappings through the event
simulator and compares each program step against its cost-model price.
These tests pin the harness mechanics: label -> pattern classification,
how ``price_step`` prices each step kind under each shipped model,
exact reconciliation on contention-free steps, infeasible-mapping
exclusion (the divergence-side twin of the store's sentinel guard), and
the ``python -m repro.experiments --validate`` entry point.
"""

import json

import pytest

from repro.core.costmodel import (
    AnalyticalCostModel,
    ContentionDeratedCostModel,
    CostModel,
    CostModelSpec,
)
from repro.core.ga import GAConfig, SearchBudget
from repro.core.validation import (
    CONTENTION_FREE_PATTERNS,
    compare_program,
    divergence_report,
    format_report,
    price_step,
    step_pattern,
    validate_model,
)
from repro.experiments.__main__ import main as experiments_main
from repro.simulator.program import (
    CollectiveStep,
    ComputeStep,
    ExecutionProgram,
    HostStep,
    TransferStep,
)
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()

#: Smallest legal GA budget — determinism and reconciliation don't need
#: good mappings, just real ones.
MINI_BUDGET = SearchBudget(
    level1=GAConfig(
        population_size=2, generations=1, elite_count=1, patience=1,
        tournament_size=2,
    ),
    level2=GAConfig(
        population_size=2, generations=1, elite_count=1, patience=1,
        tournament_size=2,
    ),
)


class TestStepPattern:
    @pytest.mark.parametrize(
        "step,expected",
        [
            (ComputeStep((0,), 1e-6, label="conv1:compute"), "compute"),
            (ComputeStep((0,), 1e-6, label="pool1"), "compute"),
            (
                CollectiveStep("allreduce", (0, 1), 1e3, label="c1:allreduce"),
                "allreduce",
            ),
            (
                CollectiveStep(
                    "ring_step", (0, 1), 1e3, label="c1:ss-rotation"
                ),
                "ss-rotation",
            ),
            (CollectiveStep("ring_step", (0, 1), 1e3, label="c1:halo"), "halo"),
            (
                TransferStep((0,), (1,), 1e3, label="c1:reshard"),
                "reshard",
            ),
            (
                TransferStep((0,), (4,), 1e3, label="set0->set1:boundary"),
                "boundary",
            ),
            (HostStep(0, 1e3, label="c1:host-input"), "host-input"),
            (HostStep(0, 1e3, label="weight-stream"), "weight-stream"),
            (
                HostStep(0, 1e3, kind="round_trip", label="dram-spill"),
                "dram-spill",
            ),
        ],
    )
    def test_labels_classify(self, step, expected):
        assert step_pattern(step) == expected


def _collective(model, step):
    return getattr(model, f"{step.kind}_seconds")(step.group, step.nbytes)


def _transfer(model, step):
    return model.transfer_seconds(
        step.src_group, step.dst_group, step.total_bytes, step.bytes_per_dst
    )


#: Step kind -> (step, how the model prices it, the derate that scales
#: it under ``ContentionDeratedCostModel``, or ``None``).
PRICED_STEPS = {
    "compute": (
        ComputeStep((0, 1), 3.25e-6, label="l:compute"),
        lambda model, step: step.seconds,
        None,
    ),
    "allreduce": (
        CollectiveStep("allreduce", (0, 1, 2, 3), 4096.0, label="l:allreduce"),
        _collective,
        "collective_derate",
    ),
    "allgather": (
        CollectiveStep("allgather", (0, 1, 2), 4096.0),
        _collective,
        None,
    ),
    "reduce_scatter": (
        CollectiveStep("reduce_scatter", (0, 1, 2), 4096.0),
        _collective,
        None,
    ),
    "ring_step": (
        CollectiveStep("ring_step", (0, 1, 2, 3), 512.0, label="l:halo"),
        _collective,
        "collective_derate",
    ),
    "reshard": (
        TransferStep((0, 1), (2, 3), 8192.0, label="l:reshard"),
        _transfer,
        "transfer_derate",
    ),
    "boundary": (  # each destination needs the whole tensor
        TransferStep((0, 1), (4, 5), 8192.0, 8192.0, label="b:boundary"),
        _transfer,
        "transfer_derate",
    ),
    "host_read": (
        HostStep(0, 65536.0, label="l:host-input"),
        lambda model, step: model.host_read_seconds(step.acc, step.nbytes),
        "host_derate",
    ),
    "host_round_trip": (
        HostStep(1, 65536.0, kind="round_trip", label="dram-spill"),
        lambda model, step: model.host_round_trip_seconds(
            step.acc, step.nbytes
        ),
        "host_derate",
    ),
}

ANALYTICAL = AnalyticalCostModel(TOPOLOGY)
#: Distinct derates, so a step scaled by another class's derate shows.
DERATED = ContentionDeratedCostModel(
    TOPOLOGY, collective_derate=1.25, transfer_derate=1.5, host_derate=1.75
)


class TestPriceStep:
    """``price_step`` is the only analytical step pricer: each step kind
    maps onto one model method, a derated model scales it by exactly
    its class's derate, and all-gather and reduce-scatter, which no
    mapping emits, keep the idle-network price."""

    @pytest.mark.parametrize("kind", sorted(PRICED_STEPS))
    def test_analytical_price_is_the_matching_method(self, kind):
        step, priced, _ = PRICED_STEPS[kind]
        price = price_step(ANALYTICAL, step)
        assert price > 0.0
        assert price == priced(ANALYTICAL, step)

    @pytest.mark.parametrize("kind", sorted(PRICED_STEPS))
    def test_derated_price_scales_by_its_class_derate(self, kind):
        step, _, derate = PRICED_STEPS[kind]
        idle = price_step(ANALYTICAL, step)
        scale = 1.0 if derate is None else getattr(DERATED, derate)
        assert price_step(DERATED, step) == idle * scale

    @pytest.mark.parametrize("kind", ["allgather", "reduce_scatter"])
    def test_a_model_without_the_method_takes_the_idle_price(self, kind):
        step = PRICED_STEPS[kind][0]
        assert price_step(CostModel(TOPOLOGY), step) == price_step(
            ANALYTICAL, step
        )


class TestCompareProgram:
    def test_compute_only_program_reconciles_exactly(self):
        program = ExecutionProgram(TOPOLOGY)
        # Power-of-two durations accumulate exactly, so the end-time
        # differences replay the step seconds bit-for-bit.
        for index in range(5):
            program.append(
                ComputeStep((0,), 2.0 ** -(index + 1), label=f"l{index}:compute")
            )
        result = compare_program(program)
        assert set(result.patterns) == {"compute"}
        assert result.patterns["compute"].steps == 5
        assert result.contention_free_divergence() == 0.0
        assert result.worst_steps == []

    def test_searched_program_contention_free_steps_reconcile(self):
        from repro.core import Mars
        from repro.dnn import build_model

        with Mars(
            build_model("tiny_cnn"), TOPOLOGY, budget=MINI_BUDGET
        ) as mars:
            program = mars.compile_program(mars.search(seed=0))
        result = compare_program(program)
        assert result.contention_free_divergence() < 1e-9
        assert "compute" in result.patterns
        total = sum(p.steps for p in result.patterns.values())
        assert total == len(program)

    def test_worst_steps_sorted_by_gap(self):
        from repro.core import Mars
        from repro.dnn import build_model

        with Mars(
            build_model("alexnet"), TOPOLOGY, budget=MINI_BUDGET
        ) as mars:
            program = mars.compile_program(mars.search(seed=0))
        result = compare_program(program, worst=3)
        gaps = [
            abs(w["simulated_seconds"] - w["analytical_seconds"])
            for w in result.worst_steps
        ]
        assert gaps == sorted(gaps, reverse=True)
        assert len(result.worst_steps) <= 3


class TestValidateModel:
    def test_feasible_record_shape(self):
        record = validate_model("tiny_cnn", seed=0, budget=MINI_BUDGET)
        assert record["model"] == "tiny_cnn"
        assert record["feasible"] and not record["skipped"]
        assert record["steps"] > 0
        assert record["patterns"]
        assert record["contention_free_divergence"] < 1e-9

    def test_infeasible_mapping_skipped(self):
        starved = f1_16xlarge(dram_bytes=4096)
        record = validate_model(
            "tiny_cnn", topology=starved, seed=0, budget=MINI_BUDGET
        )
        assert record["skipped"] and not record["feasible"]
        assert "patterns" not in record

    def test_report_excludes_infeasible_from_stats(self):
        starved = f1_16xlarge(dram_bytes=4096)
        report = divergence_report(
            ["tiny_cnn"], topology=starved, budget=MINI_BUDGET
        )
        assert report["skipped_infeasible"] == 1
        assert report["patterns"] == {}
        assert report["analytical_seconds"] == 0.0
        assert report["simulated_seconds"] == 0.0


class TestDivergenceReport:
    def test_aggregates_across_models(self):
        report = divergence_report(
            ["tiny_cnn", "tiny_resnet"], budget=MINI_BUDGET
        )
        assert len(report["models"]) == 2
        assert report["skipped_infeasible"] == 0
        for pattern, stats in report["patterns"].items():
            per_model = sum(
                r["patterns"][pattern]["steps"]
                for r in report["models"]
                if pattern in r["patterns"]
            )
            assert stats["steps"] == per_model
        assert report["contention_free_divergence"] < 1e-9
        assert report["cost_model"]["kind"] == "analytical"
        assert report["cost_model"]["token"] == CostModelSpec().token()
        assert "cost-model validation" in format_report(report)

    def test_contention_free_patterns_are_the_serial_ones(self):
        assert "compute" in CONTENTION_FREE_PATTERNS
        assert "allreduce" not in CONTENTION_FREE_PATTERNS
        assert "reshard" not in CONTENTION_FREE_PATTERNS


class TestExperimentsValidateCli:
    def test_validate_flag_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = experiments_main(
            ["--validate", "--models", "tiny_cnn", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "cost-model validation" in printed
        report = json.loads(out.read_text())
        assert report["patterns"]
        assert report["contention_free_divergence"] < 1e-9

    def test_validate_positional_spelling(self, capsys):
        assert experiments_main(["validate", "--models", "tiny_cnn"]) == 0
        assert "per pattern" in capsys.readouterr().out

    def test_validate_conflicts_with_table(self):
        with pytest.raises(SystemExit):
            experiments_main(["table3", "--validate"])

    def test_out_requires_validate(self, tmp_path):
        with pytest.raises(SystemExit):
            experiments_main(
                ["table2", "--out", str(tmp_path / "x.json")]
            )

    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            experiments_main([])
