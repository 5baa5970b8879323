#!/usr/bin/env python3
"""Fig. 2 walkthrough: exclusive shards (ES) and shared shards (SS).

Reproduces both panels of the paper's Fig. 2 on a concrete convolution:

* panel (b): ``ES = {Cin, W}`` on four accelerators — a 2x2 grid with
  partial-sum all-reduce;
* panel (c): ``ES = {W}, SS = {Cout}`` on two accelerators — the
  three-phase compute/rotate/compute schedule.

Usage::

    python examples/parallelism_strategies.py
"""

from __future__ import annotations

from repro.core.costmodel import AnalyticalCostModel
from repro.core.sharding import ParallelismStrategy, make_sharding_plan
from repro.dnn.layers import ConvSpec, LoopDim
from repro.system import f1_16xlarge
from repro.utils import bytes_to_human, seconds_to_human

#: The example layer of Fig. 2: In (Cin, H, W) * Weight (Cout, Cin, K, K).
LAYER = ConvSpec(
    out_channels=64,
    in_channels=64,
    out_h=56,
    out_w=56,
    kernel_h=3,
    kernel_w=3,
)


def show_plan(title: str, strategy: ParallelismStrategy, parallelism: int) -> None:
    print(f"=== {title} ===")
    print(f"strategy: {strategy.describe()}, P = {parallelism}")
    plan = make_sharding_plan(LAYER, strategy, parallelism)
    if plan is None:
        print("  infeasible for this layer shape\n")
        return
    print(f"  ES grid degrees : { {d.value: g for d, g in plan.degrees.items()} }")
    print(f"  phases          : {plan.phases}")
    spec = plan.phase_spec
    print(
        f"  per-phase shard : Cout={spec.out_channels} Cin={spec.in_channels} "
        f"H={spec.out_h} W={spec.out_w} ({spec.macs:,} MACs)"
    )
    if plan.allreduce_group > 1:
        print(
            f"  all-reduce      : groups of {plan.allreduce_group}, "
            f"message {bytes_to_human(plan.allreduce_bytes)}"
        )
    else:
        print("  all-reduce      : not needed")
    if plan.rotation_bytes:
        print(
            f"  SS rotations    : {plan.phases - 1} ring steps of "
            f"{bytes_to_human(plan.rotation_bytes)}"
        )
    print(f"  weights/acc     : {bytes_to_human(plan.weight_bytes_per_acc)}")

    comm = AnalyticalCostModel(f1_16xlarge())
    group = tuple(range(parallelism))
    allreduce = (
        comm.allreduce_seconds(group[: plan.allreduce_group], plan.allreduce_bytes)
        if plan.allreduce_group > 1
        else 0.0
    )
    rotations = (plan.phases - 1) * comm.ring_step_seconds(
        group, plan.rotation_bytes
    )
    print(f"  comm on F1 links: all-reduce {seconds_to_human(allreduce)}, "
          f"rotations {seconds_to_human(rotations)}")
    print()


def main() -> None:
    print(f"Layer: Cout=64, Cin=64, H=W=56, K=3 "
          f"({LAYER.macs:,} MACs, weights {bytes_to_human(LAYER.weight_params * 2)})\n")

    # Fig. 2(a): the default — nothing partitioned.
    show_plan("Fig. 2(a): default <N, N, N>", ParallelismStrategy(), 1)

    # Fig. 2(b): exclusive shards on Cin and W across four accelerators.
    show_plan(
        "Fig. 2(b): exclusive shards",
        ParallelismStrategy(es=(LoopDim.CIN, LoopDim.W)),
        4,
    )

    # Fig. 2(c): ES on W + shared shards on Cout across two accelerators.
    show_plan(
        "Fig. 2(c): exclusive + shared shards",
        ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.COUT),
        2,
    )

    # Extra: what the paper's deep-layer mappings look like.
    show_plan(
        "Deep-layer motif: channels partitioned",
        ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN)),
        4,
    )


if __name__ == "__main__":
    main()
