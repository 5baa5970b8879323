"""ES/SS sharding semantics — the Fig. 2 examples, exactly."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    assign_degrees,
    make_sharding_plan,
)
from repro.dnn.layers import LOOP_DIMS, ConvSpec, LoopDim


def _spec(cout=8, cin=8, h=16, w=16, k=3, stride=1) -> ConvSpec:
    return ConvSpec(
        out_channels=cout,
        in_channels=cin,
        out_h=h,
        out_w=w,
        kernel_h=k,
        kernel_w=k,
        stride=stride,
    )


class TestStrategyValidation:
    def test_three_es_dims_rejected(self):
        with pytest.raises(ValueError):
            ParallelismStrategy(es=(LoopDim.H, LoopDim.W, LoopDim.COUT))

    def test_ss_in_es_rejected(self):
        with pytest.raises(ValueError):
            ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.W)

    def test_duplicate_es_rejected(self):
        with pytest.raises(ValueError):
            ParallelismStrategy(es=(LoopDim.W, LoopDim.W))

    def test_describe_matches_paper_notation(self):
        s = ParallelismStrategy(es=(LoopDim.H, LoopDim.W))
        assert s.describe() == "ES = {H, W}, SS = (empty)"
        s2 = ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.COUT)
        assert s2.describe() == "ES = {W}, SS = {Cout}"

    def test_replicated_default(self):
        assert NO_PARALLELISM.is_replicated

    def test_canonical_order(self):
        s = ParallelismStrategy(es=(LoopDim.W, LoopDim.CIN))
        assert s.canonical_es() == (LoopDim.CIN, LoopDim.W)


class TestAssignDegrees:
    def test_single_dim_gets_full_parallelism(self):
        spec = _spec()
        degrees = assign_degrees(
            ParallelismStrategy(es=(LoopDim.H,)), spec.loop_extents(), 4
        )
        assert degrees == {LoopDim.H: 4}

    def test_two_dims_factorize(self):
        spec = _spec()
        degrees = assign_degrees(
            ParallelismStrategy(es=(LoopDim.H, LoopDim.W)),
            spec.loop_extents(),
            4,
        )
        assert degrees == {LoopDim.H: 2, LoopDim.W: 2}
        assert math.prod(degrees.values()) == 4

    def test_uneven_extents_prefer_larger_dim(self):
        spec = _spec(cout=64, h=4)
        degrees = assign_degrees(
            ParallelismStrategy(es=(LoopDim.COUT, LoopDim.H)),
            spec.loop_extents(),
            8,
        )
        # Splitting H=4 eight ways is impossible; Cout should absorb more.
        assert degrees is not None
        assert math.prod(degrees.values()) == 8
        assert degrees[LoopDim.H] <= 4

    def test_infeasible_when_extent_too_small(self):
        spec = _spec(k=3)
        degrees = assign_degrees(
            ParallelismStrategy(es=(LoopDim.KH,)), spec.loop_extents(), 4
        )
        assert degrees is None  # cannot split 3 kernel rows four ways

    def test_no_es_means_no_degrees(self):
        spec = _spec()
        assert assign_degrees(NO_PARALLELISM, spec.loop_extents(), 4) == {}

    def test_parallelism_one_is_trivial(self):
        spec = _spec()
        degrees = assign_degrees(
            ParallelismStrategy(es=(LoopDim.H,)), spec.loop_extents(), 1
        )
        assert degrees == {}


class TestFig2bExample:
    """ES = {Cin, W} on four accelerators (paper Fig. 2(b))."""

    @pytest.fixture()
    def plan(self):
        return make_sharding_plan(
            _spec(cout=8, cin=8, h=8, w=8, k=3),
            ParallelismStrategy(es=(LoopDim.CIN, LoopDim.W)),
            parallelism=4,
        )

    def test_grid_is_2x2(self, plan):
        assert plan.degrees == {LoopDim.CIN: 2, LoopDim.W: 2}

    def test_single_phase(self, plan):
        assert plan.phases == 1

    def test_phase_spec_quarters_the_work(self, plan):
        assert plan.phase_spec.in_channels == 4
        assert plan.phase_spec.out_w == 4
        assert plan.phase_spec.macs * 4 == plan.spec.macs

    def test_allreduce_over_cin_pairs(self, plan):
        # Accs sharing a W shard but different Cin shards reduce: group 2.
        assert plan.allreduce_group == 2

    def test_allreduce_message_is_output_w_shard(self, plan):
        out_bytes = plan.spec.tensors()["output"].numel * 2
        assert plan.allreduce_bytes == out_bytes // 2  # W split in two

    def test_no_rotation_without_ss(self, plan):
        assert plan.rotation_bytes == 0

    def test_each_acc_holds_half_the_weights(self, plan):
        weight_bytes = plan.spec.tensors()["weight"].numel * 2
        assert plan.weight_bytes_per_acc == weight_bytes // 2  # Cin split


class TestFig2cExample:
    """ES = {W}, SS = {Cout} on two accelerators (paper Fig. 2(c))."""

    @pytest.fixture()
    def plan(self):
        return make_sharding_plan(
            _spec(cout=8, cin=8, h=8, w=8, k=3),
            ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.COUT),
            parallelism=2,
        )

    def test_three_phase_structure(self, plan):
        # P phases of compute; P-1 rotations between them = the paper's
        # phase 1 / communicate / phase 3 storyline for P = 2.
        assert plan.phases == 2

    def test_phase_computes_quarter(self, plan):
        # W halved spatially, Cout halved temporally.
        assert plan.phase_spec.out_w == 4
        assert plan.phase_spec.out_channels == 4

    def test_weight_shards_rotate(self, plan):
        weight_bytes = plan.spec.tensors()["weight"].numel * 2
        assert plan.rotation_bytes == weight_bytes // 2

    def test_no_allreduce(self, plan):
        assert plan.allreduce_group == 1
        assert plan.allreduce_bytes == 0

    def test_weight_residency_halved_but_double_buffered(self, plan):
        weight_bytes = plan.spec.tensors()["weight"].numel * 2
        assert plan.weight_bytes_per_acc == 2 * (weight_bytes // 2)

    def test_output_sharded_along_w_only(self, plan):
        assert plan.output_sharding == {LoopDim.W: 2}


class TestSSVariants:
    def test_ss_on_cin_rotates_input_and_weight(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.CIN), 2
        )
        tensors = plan.spec.tensors()
        in_shard = tensors["input"].sharded_numel(
            {LoopDim.H: 2, LoopDim.CIN: 2}
        )
        w_shard = tensors["weight"].sharded_numel({LoopDim.CIN: 2})
        assert plan.rotation_bytes == (in_shard + w_shard) * 2

    def test_ss_on_h_rotates_input_only(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(LoopDim.COUT,), ss=LoopDim.H), 2
        )
        tensors = plan.spec.tensors()
        in_shard = tensors["input"].sharded_numel({LoopDim.H: 2})
        assert plan.rotation_bytes == in_shard * 2

    def test_ss_infeasible_when_dim_too_small(self):
        plan = make_sharding_plan(
            _spec(k=3), ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.KW), 4
        )
        assert plan is None

    def test_ss_with_parallelism_one_degenerates(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(), ss=LoopDim.COUT), 1
        )
        assert plan is not None
        assert plan.phases == 1
        assert plan.rotation_bytes == 0


class TestHalo:
    def test_h_partition_with_3x3_has_halo(self):
        plan = make_sharding_plan(
            _spec(k=3), ParallelismStrategy(es=(LoopDim.H,)), 4
        )
        assert plan.halo_bytes > 0

    def test_1x1_kernel_has_no_halo(self):
        plan = make_sharding_plan(
            _spec(k=1), ParallelismStrategy(es=(LoopDim.H,)), 4
        )
        assert plan.halo_bytes == 0

    def test_channel_partition_has_no_halo(self):
        plan = make_sharding_plan(
            _spec(k=3), ParallelismStrategy(es=(LoopDim.COUT,)), 4
        )
        assert plan.halo_bytes == 0

    def test_stride_reduces_halo(self):
        overlap_1 = make_sharding_plan(
            _spec(k=3, stride=1), ParallelismStrategy(es=(LoopDim.H,)), 4
        ).halo_bytes
        overlap_2 = make_sharding_plan(
            _spec(k=3, stride=2), ParallelismStrategy(es=(LoopDim.H,)), 4
        ).halo_bytes
        assert overlap_2 < overlap_1


class TestInputFraction:
    def test_cout_only_needs_full_input(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(LoopDim.COUT,)), 4
        )
        assert plan.input_fraction_needed == 1.0

    def test_spatial_partition_shrinks_input(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(LoopDim.H, LoopDim.W)), 4
        )
        assert plan.input_fraction_needed == pytest.approx(0.25)

    def test_ss_on_input_dim_shrinks_residency(self):
        plan = make_sharding_plan(
            _spec(), ParallelismStrategy(es=(LoopDim.COUT,), ss=LoopDim.H), 4
        )
        assert plan.input_fraction_needed == pytest.approx(0.25)


@given(
    parallelism=st.sampled_from([1, 2, 4, 8]),
    es_pick=st.sets(st.sampled_from(LOOP_DIMS), max_size=2),
    ss_pick=st.sampled_from([None, *LOOP_DIMS]),
)
def test_plan_work_conservation(parallelism, es_pick, ss_pick):
    """Across all accelerators and phases, at least the original MACs
    are computed (ceil rounding can only add padding work)."""
    if ss_pick is not None and ss_pick in es_pick:
        ss_pick = None
    strategy = ParallelismStrategy(es=tuple(sorted(es_pick, key=LOOP_DIMS.index)), ss=ss_pick)
    spec = _spec(cout=32, cin=16, h=28, w=28, k=3)
    plan = make_sharding_plan(spec, strategy, parallelism)
    if plan is None:
        return
    spatial = math.prod(plan.degrees.values()) if plan.degrees else 1
    total_macs = plan.phase_spec.macs * plan.phases * spatial
    if strategy.es:
        assert total_macs >= spec.macs
    else:
        # Replicated execution: every accelerator does the full layer.
        assert plan.phase_spec.macs * plan.phases >= spec.macs


@given(parallelism=st.sampled_from([2, 4, 8]))
def test_memory_shrinks_with_parallelism(parallelism):
    """Weight residency never grows when the weight-cutting degree rises."""
    spec = _spec(cout=64, cin=64, h=14, w=14, k=3)
    single = make_sharding_plan(spec, ParallelismStrategy(es=(LoopDim.COUT,)), 1)
    multi = make_sharding_plan(spec, ParallelismStrategy(es=(LoopDim.COUT,)), parallelism)
    assert multi.weight_bytes_per_acc <= single.weight_bytes_per_acc
