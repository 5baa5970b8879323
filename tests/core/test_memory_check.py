"""DRAM accounting for sets of sharded layers."""

import pytest

from repro.core.sharding import ParallelismStrategy, make_sharding_plan
from repro.dnn.layers import ConvSpec, LoopDim
from repro.utils.units import GIB, MIB
from tests.core.reference_walk import set_memory_report


def _plan(cout=64, cin=64, hw=28, k=3, p=4, es=(LoopDim.H, LoopDim.W), ss=None):
    spec = ConvSpec(
        out_channels=cout,
        in_channels=cin,
        out_h=hw,
        out_w=hw,
        kernel_h=k,
        kernel_w=k,
    )
    return make_sharding_plan(spec, ParallelismStrategy(es=es, ss=ss), p)


class TestSetMemoryReport:
    def test_weights_accumulate_across_layers(self):
        plans = [_plan(), _plan(cout=128)]
        report = set_memory_report(plans, [], 1 * GIB)
        assert report.weight_bytes == sum(p.weight_bytes_per_acc for p in plans)

    def test_activations_take_the_peak(self):
        small = _plan(hw=14)
        large = _plan(hw=56)
        report = set_memory_report([small, large], [], 1 * GIB)
        assert report.peak_activation_bytes == max(
            small.activation_bytes_per_acc, large.activation_bytes_per_acc
        )

    def test_lightweight_layers_contribute_to_peak(self):
        plan = _plan(hw=7)
        huge_elementwise = 512 * MIB
        report = set_memory_report([plan], [huge_elementwise], 1 * GIB)
        assert report.peak_activation_bytes == huge_elementwise

    def test_fits_and_overflow(self):
        plan = _plan()
        total = plan.weight_bytes_per_acc + plan.activation_bytes_per_acc
        fits = set_memory_report([plan], [], total)
        assert fits.fits and fits.overflow_bytes == 0
        tight = set_memory_report([plan], [], total - 1)
        assert not tight.fits
        assert tight.overflow_bytes == 1

    def test_empty_set(self):
        report = set_memory_report([], [], 1 * GIB)
        assert report.total_bytes == 0
        assert report.fits


class TestShardingMemoryInteraction:
    def test_channel_es_partitions_weights(self):
        whole = _plan(p=1, es=())
        split = _plan(p=4, es=(LoopDim.COUT,))
        assert split.weight_bytes_per_acc * 4 <= whole.weight_bytes_per_acc * 1.01

    def test_spatial_es_replicates_weights(self):
        whole = _plan(p=1, es=())
        split = _plan(p=4, es=(LoopDim.H, LoopDim.W))
        assert split.weight_bytes_per_acc == whole.weight_bytes_per_acc

    def test_ss_cuts_residency_but_double_buffers(self):
        es_only = _plan(p=4, es=(LoopDim.H,))
        with_ss = _plan(p=4, es=(LoopDim.H,), ss=LoopDim.COUT)
        # 2 buffers of 1/4 < 1 full copy.
        assert with_ss.weight_bytes_per_acc < es_only.weight_bytes_per_acc
