"""E5: Fig. 2 — the cost anatomy of ES and SS parallelism strategies.

Regenerates the figure's two worked examples (ES = {Cin, W} and
ES = {W} + SS = {Cout}) as cost rows across set sizes, and benchmarks
the sharding-plan construction that sits in the GA's inner loop.
"""

from repro.core.sharding import ParallelismStrategy, make_sharding_plan
from repro.dnn.layers import ConvSpec, LoopDim
from repro.core.costmodel import AnalyticalCostModel
from repro.system import f1_16xlarge
from repro.utils.tables import format_table

from _report import emit

#: A VGG-8-like mid-network layer (the kind Fig. 2 illustrates).
LAYER = ConvSpec(
    out_channels=512,
    in_channels=256,
    out_h=28,
    out_w=28,
    kernel_h=3,
    kernel_w=3,
)

FIG2B = ParallelismStrategy(es=(LoopDim.CIN, LoopDim.W))
FIG2C = ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.COUT)


def bench_sharding_plan_construction(benchmark):
    """The per-(layer, strategy, P) plan build — the GA hot path."""
    plan = benchmark(make_sharding_plan, LAYER, FIG2B, 4)
    assert plan is not None


def bench_sharding_plan_with_ss(benchmark):
    plan = benchmark(make_sharding_plan, LAYER, FIG2C, 4)
    assert plan is not None


def bench_fig2_report(benchmark):
    def build():
        model = AnalyticalCostModel(f1_16xlarge())
        group = (0, 1, 2, 3)
        rows = []
        for name, strategy in (
            ("Fig2(b) ES={Cin,W}", FIG2B),
            ("Fig2(c) ES={W}+SS={Cout}", FIG2C),
            ("ES={H,W}", ParallelismStrategy(es=(LoopDim.H, LoopDim.W))),
            ("ES={Cout,Cin}", ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN))),
        ):
            plan = make_sharding_plan(LAYER, strategy, 4)
            allreduce = (
                model.allreduce_seconds(
                    group[: plan.allreduce_group], plan.allreduce_bytes
                )
                if plan.allreduce_group > 1
                else 0.0
            )
            rotation = (plan.phases - 1) * model.ring_step_seconds(
                group, plan.rotation_bytes
            )
            rows.append(
                [
                    name,
                    str(plan.phases),
                    f"{plan.phase_spec.macs:,}",
                    f"{allreduce * 1e6:.1f}",
                    f"{rotation * 1e6:.1f}",
                    f"{plan.weight_bytes_per_acc // 1024} KiB",
                ]
            )
        return format_table(
            [
                "Strategy",
                "Phases",
                "MACs/phase/acc",
                "All-reduce /us",
                "SS rotations /us",
                "Weights/acc",
            ],
            rows,
            title="Fig. 2 strategies on a 256->512 3x3 28x28 layer, P = 4",
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("fig2_strategies", text)
    assert "Fig2(b)" in text
