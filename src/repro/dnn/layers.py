"""Layer definitions and the canonical convolution loop nest.

The MARS formulation treats each compute-intensive layer as a nested
loop. ``Conv2d`` is the canonical six-deep nest over
``(Cout, Cin, H, W, Kh, Kw)`` (Fig. 2(a) of the paper); fully-connected
layers are handled as 1x1 convolutions. Lightweight layers
(pool/BN/activation/add/concat) are carried in the graph so workload
allocation covers the whole network, but their cost is element-wise.

Shapes describe single-image inference (batch = 1), matching the paper's
latency experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

from repro.utils.validation import require, require_positive

#: Default datum size in bytes. FPGA CNN accelerators in the paper's
#: catalog use 16-bit fixed-point datapaths.
DEFAULT_DTYPE_BYTES = 2


class LoopDim(enum.Enum):
    """Dimensions of the canonical convolution loop nest (Fig. 2(a))."""

    COUT = "Cout"
    CIN = "Cin"
    H = "H"
    W = "W"
    KH = "Kh"
    KW = "Kw"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoopDim.{self.name}"

    # Identity hash (C slot, no Python frame): enum members are
    # singletons, and loop dims key every dict on the search's hottest
    # paths — the default Enum.__hash__ is a Python-level call that
    # shows up in profiles.
    __hash__ = object.__hash__


#: Deterministic ordering of the loop dims, used by genomes and reports.
LOOP_DIMS: tuple[LoopDim, ...] = (
    LoopDim.COUT,
    LoopDim.CIN,
    LoopDim.H,
    LoopDim.W,
    LoopDim.KH,
    LoopDim.KW,
)

#: Dims whose partitioning produces partial sums that must be all-reduced.
REDUCTION_DIMS: frozenset[LoopDim] = frozenset(
    {LoopDim.CIN, LoopDim.KH, LoopDim.KW}
)


@dataclass(frozen=True)
class FeatureMap:
    """A (channels, height, width) activation shape for batch-1 inference."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        require_positive(self.channels, "channels")
        require_positive(self.height, "height")
        require_positive(self.width, "width")

    @property
    def numel(self) -> int:
        return self.channels * self.height * self.width

    def nbytes(self, dtype_bytes: int = DEFAULT_DTYPE_BYTES) -> int:
        return self.numel * dtype_bytes

    def __str__(self) -> str:
        return f"{self.channels}x{self.height}x{self.width}"


@dataclass(frozen=True)
class TensorSpec:
    """A tensor described by which loop dims index it.

    The sharding machinery reasons about tensors through their loop-dim
    signature: e.g. a convolution weight is indexed by
    ``(COUT, CIN, KH, KW)``, so partitioning ``CIN`` shards the weight
    while partitioning ``H`` leaves it whole.
    """

    name: str
    dims: tuple[LoopDim, ...]
    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        require(
            len(self.dims) == len(self.extents),
            f"tensor {self.name!r}: {len(self.dims)} dims vs "
            f"{len(self.extents)} extents",
        )
        require(
            len(set(self.dims)) == len(self.dims),
            f"tensor {self.name!r}: duplicate loop dims {self.dims}",
        )
        for dim, extent in zip(self.dims, self.extents):
            require(extent >= 1, f"tensor {self.name!r}: {dim} extent {extent} < 1")

    @property
    def numel(self) -> int:
        return math.prod(self.extents)

    def nbytes(self, dtype_bytes: int = DEFAULT_DTYPE_BYTES) -> int:
        return self.numel * dtype_bytes

    def extent_of(self, dim: LoopDim) -> int:
        """Extent along ``dim``; 1 if the tensor is not indexed by it."""
        try:
            return self.extents[self.dims.index(dim)]
        except ValueError:
            return 1

    def has_dim(self, dim: LoopDim) -> bool:
        return dim in self.dims

    def sharded_numel(self, degrees: dict[LoopDim, int]) -> int:
        """Element count of one shard under per-dim partition ``degrees``.

        Dims absent from the tensor are ignored: partitioning ``H`` does
        not shrink a weight tensor. Ceil division models the largest
        shard, which is what memory checks and per-accelerator compute
        bounds need.
        """
        numel = 1
        for dim, extent in zip(self.dims, self.extents):
            degree = degrees.get(dim, 1)
            if degree < 1:  # message built only on failure: a hot path
                raise ValueError(f"partition degree for {dim} must be >= 1")
            numel *= math.ceil(extent / degree)
        return numel


@dataclass(frozen=True)
class ConvSpec:
    """Normalized convolution workload handed to accelerator models.

    Every performance model in :mod:`repro.accelerators` consumes this
    spec; fully-connected layers normalize to a 1x1 convolution over a
    1x1 feature map. ``groups > 1`` describes grouped convolutions
    (``groups == in_channels == out_channels`` is depthwise): each
    group connects ``in_channels/groups`` inputs to
    ``out_channels/groups`` outputs.
    """

    out_channels: int
    in_channels: int
    out_h: int
    out_w: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    in_h: int | None = None
    in_w: int | None = None
    groups: int = 1

    def __post_init__(self) -> None:
        require_positive(self.out_channels, "out_channels")
        require_positive(self.in_channels, "in_channels")
        require_positive(self.out_h, "out_h")
        require_positive(self.out_w, "out_w")
        require_positive(self.kernel_h, "kernel_h")
        require_positive(self.kernel_w, "kernel_w")
        require_positive(self.stride, "stride")
        require_positive(self.groups, "groups")
        require(
            self.in_channels % self.groups == 0,
            f"in_channels {self.in_channels} not divisible by groups {self.groups}",
        )
        require(
            self.out_channels % self.groups == 0,
            f"out_channels {self.out_channels} not divisible by groups {self.groups}",
        )

    @property
    def macs(self) -> int:
        """Multiply-accumulate count; the paper's FLOPs column counts MACs."""
        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.out_h
            * self.out_w
            * self.kernel_h
            * self.kernel_w
        )

    @property
    def weight_params(self) -> int:
        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kernel_h
            * self.kernel_w
        )

    def per_group(self) -> "ConvSpec":
        """The dense convolution one group computes (groups = 1)."""
        return ConvSpec(
            out_channels=self.out_channels // self.groups,
            in_channels=self.in_channels // self.groups,
            out_h=self.out_h,
            out_w=self.out_w,
            kernel_h=self.kernel_h,
            kernel_w=self.kernel_w,
            stride=self.stride,
            in_h=self.in_h,
            in_w=self.in_w,
        )

    def loop_extents(self) -> dict[LoopDim, int]:
        """The six loop bounds of the canonical nest for this layer.

        Memoized per spec (hot in the GA decode and plan construction);
        the returned dict is shared and must be treated as read-only.
        """
        return _spec_loop_extents(self)

    def _build_loop_extents(self) -> dict[LoopDim, int]:
        return {
            LoopDim.COUT: self.out_channels,
            LoopDim.CIN: self.in_channels,
            LoopDim.H: self.out_h,
            LoopDim.W: self.out_w,
            LoopDim.KH: self.kernel_h,
            LoopDim.KW: self.kernel_w,
        }

    def with_extents(self, extents: dict[LoopDim, int]) -> "ConvSpec":
        """A copy with loop bounds replaced (used to cost one shard).

        For grouped convolutions a COUT shard carries its groups along:
        the shard's group count shrinks proportionally so channel
        divisibility is preserved.
        """
        out_channels = extents.get(LoopDim.COUT, self.out_channels)
        in_channels = extents.get(LoopDim.CIN, self.in_channels)
        groups = self.groups
        if groups > 1 and out_channels != self.out_channels:
            shrink = self.out_channels / out_channels
            groups = max(1, round(self.groups / shrink))
            in_channels = (self.in_channels * out_channels) // self.out_channels
        return ConvSpec(
            out_channels=out_channels,
            in_channels=in_channels,
            out_h=extents.get(LoopDim.H, self.out_h),
            out_w=extents.get(LoopDim.W, self.out_w),
            kernel_h=extents.get(LoopDim.KH, self.kernel_h),
            kernel_w=extents.get(LoopDim.KW, self.kernel_w),
            stride=self.stride,
            in_h=self.in_h,
            in_w=self.in_w,
            groups=groups,
        )

    def tensors(self) -> dict[str, TensorSpec]:
        """Input/weight/output tensors with their loop-dim signatures.

        The input feature map is indexed by ``(CIN, H, W)``: its spatial
        extent is tied to the *output* H/W loop bounds (each output pixel
        reads a KxK window), which is the resolution the sharding
        machinery needs — an output H-shard implies an input H-shard of
        the same loop range plus halo.

        Memoized per spec (this runs on the mapping search's hottest
        path); the returned dict and its specs are shared and must be
        treated as read-only.
        """
        return _spec_tensors(self)

    def _build_tensors(self) -> dict[str, TensorSpec]:
        return {
            "input": TensorSpec(
                "input",
                (LoopDim.CIN, LoopDim.H, LoopDim.W),
                (self.in_channels, self.out_h, self.out_w),
            ),
            "weight": TensorSpec(
                "weight",
                (LoopDim.COUT, LoopDim.CIN, LoopDim.KH, LoopDim.KW),
                (
                    self.out_channels,
                    self.in_channels // self.groups,
                    self.kernel_h,
                    self.kernel_w,
                ),
            ),
            "output": TensorSpec(
                "output",
                (LoopDim.COUT, LoopDim.H, LoopDim.W),
                (self.out_channels, self.out_h, self.out_w),
            ),
        }


@lru_cache(maxsize=65536)
def _spec_tensors(spec: ConvSpec) -> dict[str, TensorSpec]:
    """Shared, read-only tensor dict of a spec (see ConvSpec.tensors)."""
    return spec._build_tensors()


@lru_cache(maxsize=65536)
def _spec_loop_extents(spec: ConvSpec) -> dict[LoopDim, int]:
    """Shared, read-only loop extents of a spec (see ConvSpec.loop_extents)."""
    return spec._build_loop_extents()


#: Layer kinds that carry a convolution loop nest and dominate latency.
COMPUTE_KINDS: frozenset[str] = frozenset({"conv2d", "fullyconnected"})


@dataclass(frozen=True)
class Layer:
    """Base class for graph layers.

    Subclasses implement shape inference (:meth:`infer_output`) and
    bookkeeping (:meth:`param_count`, :meth:`mac_count`). Instances are
    immutable; a layer can therefore be shared between graphs.
    """

    #: The lower-cased class name, e.g. ``"conv2d"``. Set once per class
    #: (the search asks millions of times), not stored per instance.
    kind: ClassVar[str] = "layer"
    #: Whether :attr:`kind` is one of :data:`COMPUTE_KINDS`.
    is_compute: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.lower()
        cls.is_compute = cls.kind in COMPUTE_KINDS

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        raise NotImplementedError

    def param_count(self) -> int:
        return 0

    def mac_count(self, inputs: tuple[FeatureMap, ...]) -> int:
        return 0

    @property
    def arity(self) -> int:
        """Number of inputs the layer expects (None-checked by the graph)."""
        return 1

    def _single(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        require(
            len(inputs) == 1,
            f"{type(self).__name__} expects exactly 1 input, got {len(inputs)}",
        )
        return inputs[0]


@dataclass(frozen=True)
class InputLayer(Layer):
    """Graph entry point carrying the input image shape."""

    channels: int
    height: int
    width: int

    @property
    def arity(self) -> int:
        return 0

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        require(len(inputs) == 0, "InputLayer takes no inputs")
        return FeatureMap(self.channels, self.height, self.width)


@dataclass(frozen=True)
class Conv2d(Layer):
    """2-D convolution, the six-deep canonical nest of the paper.

    ``groups > 1`` describes grouped convolutions; set
    ``groups == in_channels == out_channels`` for depthwise layers
    (MobileNet-style separable blocks).
    """

    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    bias: bool = True
    role: str = "main"
    groups: int = 1

    def __post_init__(self) -> None:
        require_positive(self.out_channels, "out_channels")
        require_positive(self.kernel, "kernel")
        require_positive(self.stride, "stride")
        require_positive(self.groups, "groups")
        require(self.padding >= 0, f"padding must be >= 0, got {self.padding}")
        require(
            self.out_channels % self.groups == 0,
            f"out_channels {self.out_channels} not divisible by "
            f"groups {self.groups}",
        )
        require(
            self.role in ("main", "projection"),
            f"role must be 'main' or 'projection', got {self.role!r}",
        )

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        fmap = self._single(inputs)
        out_h = (fmap.height + 2 * self.padding - self.kernel) // self.stride + 1
        out_w = (fmap.width + 2 * self.padding - self.kernel) // self.stride + 1
        require(
            out_h >= 1 and out_w >= 1,
            f"conv produces empty output from {fmap} "
            f"(kernel={self.kernel}, stride={self.stride}, padding={self.padding})",
        )
        return FeatureMap(self.out_channels, out_h, out_w)

    def spec(self, input_shape: FeatureMap) -> ConvSpec:
        out = self.infer_output((input_shape,))
        return ConvSpec(
            out_channels=self.out_channels,
            in_channels=input_shape.channels,
            out_h=out.height,
            out_w=out.width,
            kernel_h=self.kernel,
            kernel_w=self.kernel,
            stride=self.stride,
            in_h=input_shape.height,
            in_w=input_shape.width,
            groups=self.groups,
        )

    def param_count_for(self, in_channels: int) -> int:
        weights = (
            self.out_channels
            * (in_channels // self.groups)
            * self.kernel
            * self.kernel
        )
        return weights + (self.out_channels if self.bias else 0)

    def mac_count(self, inputs: tuple[FeatureMap, ...]) -> int:
        return self.spec(self._single(inputs)).macs


@dataclass(frozen=True)
class Pool2d(Layer):
    """Max or average pooling."""

    kernel: int
    stride: int
    padding: int = 0
    mode: str = "max"

    def __post_init__(self) -> None:
        require_positive(self.kernel, "kernel")
        require_positive(self.stride, "stride")
        require(self.padding >= 0, f"padding must be >= 0, got {self.padding}")
        require(
            self.mode in ("max", "avg"),
            f"mode must be 'max' or 'avg', got {self.mode!r}",
        )

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        fmap = self._single(inputs)
        out_h = (fmap.height + 2 * self.padding - self.kernel) // self.stride + 1
        out_w = (fmap.width + 2 * self.padding - self.kernel) // self.stride + 1
        require(
            out_h >= 1 and out_w >= 1,
            f"pool produces empty output from {fmap}",
        )
        return FeatureMap(fmap.channels, out_h, out_w)


@dataclass(frozen=True)
class GlobalAvgPool(Layer):
    """Adaptive average pooling to 1x1 (ResNet heads)."""

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        fmap = self._single(inputs)
        return FeatureMap(fmap.channels, 1, 1)


@dataclass(frozen=True)
class Activation(Layer):
    """Element-wise nonlinearity."""

    fn: str = "relu"

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        return self._single(inputs)


@dataclass(frozen=True)
class BatchNorm(Layer):
    """Batch normalization (inference-mode affine transform)."""

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        return self._single(inputs)

    def param_count_for(self, channels: int) -> int:
        return 2 * channels  # learnable scale and shift (standard counters)


@dataclass(frozen=True)
class Add(Layer):
    """Element-wise sum of two equal-shaped inputs (residual connections)."""

    @property
    def arity(self) -> int:
        return 2

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        require(len(inputs) == 2, f"Add expects 2 inputs, got {len(inputs)}")
        left, right = inputs
        require(
            left == right,
            f"Add requires equal shapes, got {left} and {right}",
        )
        return left


@dataclass(frozen=True)
class Concat(Layer):
    """Channel-wise concatenation (multi-branch fusion points)."""

    num_inputs: int = 2

    def __post_init__(self) -> None:
        require(self.num_inputs >= 2, "Concat needs at least 2 inputs")

    @property
    def arity(self) -> int:
        return self.num_inputs

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        require(
            len(inputs) == self.num_inputs,
            f"Concat expects {self.num_inputs} inputs, got {len(inputs)}",
        )
        first = inputs[0]
        for fmap in inputs[1:]:
            require(
                fmap.height == first.height and fmap.width == first.width,
                f"Concat requires equal spatial dims, got {first} and {fmap}",
            )
        channels = sum(fmap.channels for fmap in inputs)
        return FeatureMap(channels, first.height, first.width)


@dataclass(frozen=True)
class Flatten(Layer):
    """Collapse (C, H, W) into (C*H*W, 1, 1) ahead of FC layers."""

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        fmap = self._single(inputs)
        return FeatureMap(fmap.numel, 1, 1)


@dataclass(frozen=True)
class FullyConnected(Layer):
    """Dense layer, normalized to a 1x1 convolution for mapping."""

    out_features: int
    bias: bool = True

    def __post_init__(self) -> None:
        require_positive(self.out_features, "out_features")

    def infer_output(self, inputs: tuple[FeatureMap, ...]) -> FeatureMap:
        fmap = self._single(inputs)
        require(
            fmap.height == 1 and fmap.width == 1,
            f"FullyConnected expects a flattened 1x1 input, got {fmap}",
        )
        return FeatureMap(self.out_features, 1, 1)

    def spec(self, input_shape: FeatureMap) -> ConvSpec:
        return ConvSpec(
            out_channels=self.out_features,
            in_channels=input_shape.numel,
            out_h=1,
            out_w=1,
            kernel_h=1,
            kernel_w=1,
            stride=1,
            in_h=1,
            in_w=1,
        )

    def param_count_for(self, in_features: int) -> int:
        return self.out_features * in_features + (
            self.out_features if self.bias else 0
        )

    def mac_count(self, inputs: tuple[FeatureMap, ...]) -> int:
        return self.spec(self._single(inputs)).macs

