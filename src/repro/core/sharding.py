"""Parallelism strategies: exclusive shards (ES) and shared shards (SS).

Section IV of the paper. A strategy annotates dimensions of the
canonical convolution loop nest:

* **ES dims** divide the work *spatially*: the set's P accelerators form
  a (1-D or 2-D) logical grid over the ES dims, each computing the loop
  ranges of its grid coordinate. Tensors indexed by an ES dim are cut
  into exclusive shards. Partitioning a *reduction* dim (Cin/Kh/Kw)
  leaves partial sums that must be all-reduced across the accelerators
  sharing an output shard (Fig. 2(b)).
* **The SS dim** divides tensor *residency* temporally: the tensors it
  indexes are cut into P shared shards that rotate around a ring; each
  of P phases computes the strategy's ES portion restricted to the
  current SS slice (Fig. 2(c)). Work per accelerator is unchanged, but
  each holds only 1/P of the rotating tensors and pays (P-1) ring
  rotations over the (fast, intra-group) links instead of replicating
  the tensor or re-reading it from the host.

:class:`ShardingPlan` turns ``(ConvSpec, strategy, P)`` into the
numbers the evaluator needs: per-phase shard specs, collective sizes,
and per-accelerator memory footprints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.dnn.layers import (
    LOOP_DIMS,
    REDUCTION_DIMS,
    ConvSpec,
    LoopDim,
)
from repro.utils.validation import require


@dataclass(frozen=True)
class ParallelismStrategy:
    """An (ES, SS) annotation of the loop nest.

    ``es`` holds up to two dims (the paper's ``C(6,2)`` choices plus the
    one- and zero-dim degenerations its mappings also use); ``ss`` is at
    most one dim not already in ``es``.
    """

    es: tuple[LoopDim, ...] = ()
    ss: LoopDim | None = None

    def __post_init__(self) -> None:
        # Messages are built only on failure: strategies are constructed
        # hundreds of thousands of times per search.
        if len(self.es) > 2:
            raise ValueError(f"at most 2 ES dims, got {self.es}")
        if len(set(self.es)) != len(self.es):
            raise ValueError(f"duplicate ES dims in {self.es}")
        if self.ss is not None and self.ss in self.es:
            raise ValueError(f"SS dim {self.ss} already in ES {self.es}")

    @property
    def is_replicated(self) -> bool:
        """True when nothing is partitioned (the <N,...,N> default)."""
        return not self.es and self.ss is None

    def canonical_es(self) -> tuple[LoopDim, ...]:
        """ES dims in canonical loop order, for stable hashing/printing."""
        return tuple(d for d in LOOP_DIMS if d in self.es)

    def describe(self) -> str:
        """Render like the paper's Table III: ``ES = {H, W}, SS = {Cout}``."""
        es = (
            "{" + ", ".join(d.value for d in self.canonical_es()) + "}"
            if self.es
            else "(empty)"
        )
        ss = "{" + self.ss.value + "}" if self.ss else "(empty)"
        return f"ES = {es}, SS = {ss}"

    def __str__(self) -> str:
        return self.describe()


#: Strategy that leaves the nest unpartitioned.
NO_PARALLELISM = ParallelismStrategy()


def _factor_pairs(p: int) -> list[tuple[int, int]]:
    """All ordered factorizations p = a * b with a, b >= 1."""
    pairs = []
    for a in range(1, p + 1):
        if p % a == 0:
            pairs.append((a, p // a))
    return pairs


def assign_degrees(
    strategy: ParallelismStrategy,
    extents: dict[LoopDim, int],
    parallelism: int,
) -> dict[LoopDim, int] | None:
    """Distribute ``parallelism`` accelerators over the ES dims.

    Returns per-dim partition degrees (product = parallelism), or
    ``None`` when infeasible (a dim would be cut finer than its extent).
    With two ES dims the factorization is chosen to minimize padding
    waste: ``prod(ceil(e/g) * g)`` over the dims, tie-broken towards
    splitting the first canonical dim less.

    Not memoized: its one caller, :func:`make_sharding_plan`, is
    memoized per plan by :func:`cached_sharding_plan`.
    """
    es = strategy.canonical_es()
    if parallelism == 1 or not es:
        return {}
    if len(es) == 1:
        dim = es[0]
        if extents[dim] < parallelism:
            return None
        return {dim: parallelism}
    d1, d2 = es
    best: tuple[int, int, int] | None = None
    best_pair: tuple[int, int] | None = None
    for g1, g2 in _factor_pairs(parallelism):
        if extents[d1] < g1 or extents[d2] < g2:
            continue
        padded = (math.ceil(extents[d1] / g1) * g1) * (
            math.ceil(extents[d2] / g2) * g2
        )
        # Prefer minimal padding waste, then balanced grids (smaller
        # shard perimeters -> cheaper halos), then a stable order.
        key = (padded, abs(g1 - g2), g1)
        if best is None or key < best:
            best = key
            best_pair = (g1, g2)
    if best_pair is None:
        return None
    return {d1: best_pair[0], d2: best_pair[1]}


@dataclass(frozen=True)
class ShardingPlan:
    """Everything the evaluator needs about one (layer, strategy, P).

    Attributes:
        spec: The unpartitioned layer.
        strategy: The (ES, SS) annotation.
        parallelism: Number of accelerators P in the set.
        degrees: ES partition degree per dim (product = P, or {} when
            nothing is spatially split).
        phases: 1 without SS, P with SS.
        phase_spec: Loop bounds of the shard one accelerator computes in
            one phase.
        allreduce_group: Size of the partial-sum reduction group
            (product of ES degrees on reduction dims; 1 = no all-reduce).
        allreduce_bytes: Output-shard bytes each group member reduces.
        rotation_bytes: Bytes forwarded per accelerator per SS ring step
            (0 without SS).
        halo_bytes: Neighbour-exchange bytes for spatially partitioned
            convolutions with overlapping receptive fields.
        weight_bytes_per_acc: Resident weight-shard bytes (doubled for
            the in-flight SS buffer when the weight rotates).
        weight_load_bytes_per_acc: Weight bytes each accelerator must
            fetch from host memory when weights are streamed per
            inference (the stored shard, no double-buffer factor).
        activation_bytes_per_acc: Input + output shard residency.
    """

    spec: ConvSpec
    strategy: ParallelismStrategy
    parallelism: int
    degrees: dict[LoopDim, int]
    phases: int
    phase_spec: ConvSpec
    allreduce_group: int
    allreduce_bytes: int
    rotation_bytes: int
    halo_bytes: int
    weight_bytes_per_acc: int
    weight_load_bytes_per_acc: int
    activation_bytes_per_acc: int
    dtype_bytes: int = 2

    @property
    def output_sharding(self) -> dict[LoopDim, int]:
        """Partition degrees of the *output* tensor after this layer.

        Only ES degrees on output dims persist spatially; the SS dim's
        slices are reassembled locally over the phases, and reduction
        dims collapse in the all-reduce.
        """
        return {
            dim: degree
            for dim, degree in self.degrees.items()
            if dim in (LoopDim.COUT, LoopDim.H, LoopDim.W)
        }

    @property
    def input_fraction_needed(self) -> float:
        """Fraction of the full input one accelerator must hold.

        ES degrees on input dims (CIN, H, W) shrink the needed slice;
        an SS dim touching the input does too (the rest arrives by
        rotation).
        """
        fraction = 1.0
        inp = self.spec.tensors()["input"]
        for dim, degree in self.degrees.items():
            if inp.has_dim(dim):
                fraction /= degree
        if self.strategy.ss is not None and inp.has_dim(self.strategy.ss):
            fraction /= self.parallelism
        return fraction


def _rotating_tensor_bytes(
    spec: ConvSpec,
    strategy: ParallelismStrategy,
    degrees: dict[LoopDim, int],
    parallelism: int,
    dtype_bytes: int,
) -> int:
    """Bytes each accelerator forwards per SS ring step.

    The input-side tensors (input feature map, weight) indexed by the SS
    dim rotate; each accelerator holds — and forwards — the intersection
    of its ES slices with the current SS slice.
    """
    if strategy.ss is None or parallelism <= 1:
        return 0
    ss_degrees = dict(degrees)
    ss_degrees[strategy.ss] = parallelism
    total = 0
    tensors = spec.tensors()
    for name in ("input", "weight"):
        tensor = tensors[name]
        if tensor.has_dim(strategy.ss):
            total += tensor.sharded_numel(ss_degrees) * dtype_bytes
    return total


def _halo_exchange_bytes(
    spec: ConvSpec,
    degrees: dict[LoopDim, int],
    dtype_bytes: int,
) -> int:
    """Neighbour halo bytes when H/W are spatially cut under a K>1 kernel.

    Each boundary between adjacent shards needs ``K - stride`` rows (or
    columns) of the input slice; we price one exchange per partitioned
    spatial dim at the widest boundary.
    """
    overlap_rows = max(0, spec.kernel_h - spec.stride)
    overlap_cols = max(0, spec.kernel_w - spec.stride)
    cin = math.ceil(spec.in_channels / degrees.get(LoopDim.CIN, 1))
    total = 0
    if degrees.get(LoopDim.H, 1) > 1 and overlap_rows > 0:
        shard_w = math.ceil(spec.out_w / degrees.get(LoopDim.W, 1))
        total += overlap_rows * shard_w * cin * dtype_bytes
    if degrees.get(LoopDim.W, 1) > 1 and overlap_cols > 0:
        shard_h = math.ceil(spec.out_h / degrees.get(LoopDim.H, 1))
        total += overlap_cols * shard_h * cin * dtype_bytes
    return total


def make_sharding_plan(
    spec: ConvSpec,
    strategy: ParallelismStrategy,
    parallelism: int,
    dtype_bytes: int = 2,
) -> ShardingPlan | None:
    """Build the sharding plan, or ``None`` if the strategy is infeasible
    for this layer shape and set size (paper: strategies must split each
    annotated dim into at least one element per shard)."""
    require(parallelism >= 1, f"parallelism must be >= 1, got {parallelism}")
    if spec.groups > 1:
        # Grouped convolutions: input channels and kernel taps are tied
        # to their group, so only spatial dims and whole-group COUT
        # slices can shard cleanly.
        blocked = {LoopDim.CIN, LoopDim.KH, LoopDim.KW}
        if blocked.intersection(strategy.es) or strategy.ss in blocked:
            return None
    extents = spec.loop_extents()
    degrees = assign_degrees(strategy, extents, parallelism)
    if degrees is None:
        return None
    if spec.groups > 1:
        cout_degree = degrees.get(LoopDim.COUT, 1)
        ss_cout = strategy.ss == LoopDim.COUT
        total_cout_cut = cout_degree * (parallelism if ss_cout else 1)
        if total_cout_cut > 1 and (
            spec.groups % total_cout_cut != 0
            or spec.out_channels % total_cout_cut != 0
        ):
            return None
    if strategy.ss is not None:
        if parallelism == 1:
            # SS degenerates to local execution; treat as no-SS.
            strategy = ParallelismStrategy(es=strategy.es, ss=None)
        elif extents[strategy.ss] < parallelism:
            return None

    phases = parallelism if strategy.ss is not None else 1
    phase_extents = {
        dim: math.ceil(extents[dim] / degree) for dim, degree in degrees.items()
    }
    if strategy.ss is not None:
        phase_extents[strategy.ss] = math.ceil(
            extents[strategy.ss] / parallelism
        )
    phase_spec = spec.with_extents(phase_extents)

    reduction_degrees = [
        degree
        for dim, degree in degrees.items()
        if dim in REDUCTION_DIMS and degree > 1
    ]
    allreduce_group = math.prod(reduction_degrees) if reduction_degrees else 1
    tensors = spec.tensors()
    out_shard_bytes = (
        tensors["output"].sharded_numel(
            {
                dim: degree
                for dim, degree in degrees.items()
                if tensors["output"].has_dim(dim)
            }
        )
        * dtype_bytes
    )
    allreduce_bytes = out_shard_bytes if allreduce_group > 1 else 0

    rotation_bytes = _rotating_tensor_bytes(
        spec, strategy, degrees, parallelism, dtype_bytes
    )
    halo_bytes = _halo_exchange_bytes(spec, degrees, dtype_bytes)

    weight = tensors["weight"]
    weight_degrees = {
        dim: degree for dim, degree in degrees.items() if weight.has_dim(dim)
    }
    weight_rotates = (
        strategy.ss is not None and weight.has_dim(strategy.ss)
    )
    if weight_rotates:
        weight_degrees[strategy.ss] = parallelism
    weight_load_bytes = weight.sharded_numel(weight_degrees) * dtype_bytes
    weight_bytes = weight_load_bytes
    if weight_rotates:
        weight_bytes *= 2  # double-buffer the in-flight shard

    inp = tensors["input"]
    input_degrees = {
        dim: degree for dim, degree in degrees.items() if inp.has_dim(dim)
    }
    input_rotates = strategy.ss is not None and inp.has_dim(strategy.ss)
    if input_rotates:
        input_degrees[strategy.ss] = parallelism
    input_bytes = inp.sharded_numel(input_degrees) * dtype_bytes
    if input_rotates:
        input_bytes *= 2

    activation_bytes = input_bytes + out_shard_bytes

    return ShardingPlan(
        spec=spec,
        strategy=strategy,
        parallelism=parallelism,
        degrees=degrees,
        phases=phases,
        phase_spec=phase_spec,
        allreduce_group=allreduce_group,
        allreduce_bytes=allreduce_bytes,
        rotation_bytes=rotation_bytes,
        halo_bytes=halo_bytes,
        weight_bytes_per_acc=weight_bytes,
        weight_load_bytes_per_acc=weight_load_bytes,
        activation_bytes_per_acc=activation_bytes,
        dtype_bytes=dtype_bytes,
    )


@lru_cache(maxsize=65536)
def cached_sharding_plan(
    spec: ConvSpec,
    strategy: ParallelismStrategy,
    parallelism: int,
    dtype_bytes: int = 2,
) -> ShardingPlan | None:
    """Memoized :func:`make_sharding_plan` for the search's hot paths.

    Plan construction is pure but not free (tensor signatures, degree
    assignment, collective sizing); the level-2 decode and the
    evaluator's per-layer cost function both re-derive the same
    ``(spec, strategy, P)`` triples thousands of times per search.
    Returned plans are shared and must be treated as read-only — which
    all call sites already do (:class:`ShardingPlan` is frozen and its
    ``degrees`` dict is never mutated downstream).
    """
    return make_sharding_plan(spec, strategy, parallelism, dtype_bytes)
