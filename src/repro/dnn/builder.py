"""Fluent construction of computation graphs with shape inference.

Model-zoo factories use this builder; it assigns deterministic names,
infers every layer's output shape at insertion time, and returns an
immutable :class:`~repro.dnn.graph.ComputationGraph`.
"""

from __future__ import annotations

from collections import Counter

from repro.dnn.graph import ComputationGraph, LayerNode
from repro.dnn.layers import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv2d,
    FeatureMap,
    Flatten,
    FullyConnected,
    GlobalAvgPool,
    InputLayer,
    Layer,
    Pool2d,
)
from repro.utils.validation import require


class GraphBuilder:
    """Incrementally builds a :class:`ComputationGraph`.

    Each ``add``-style method returns the new node's name, which is then
    passed as the input handle to downstream layers:

    >>> b = GraphBuilder("tiny")
    >>> x = b.input(3, 32, 32)
    >>> x = b.conv(x, 8, kernel=3, padding=1)
    >>> x = b.relu(x)
    >>> graph = b.build()
    """

    def __init__(self, name: str):
        self.name = name
        self._nodes: list[LayerNode] = []
        self._shapes: dict[str, FeatureMap] = {}
        self._kind_counts: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Core insertion
    # ------------------------------------------------------------------

    def add(self, layer: Layer, inputs: tuple[str, ...], name: str | None = None) -> str:
        """Insert ``layer`` fed by ``inputs`` and return its node name."""
        node_name = name or self._auto_name(layer.kind)
        require(
            node_name not in self._shapes,
            f"duplicate layer name {node_name!r}",
        )
        input_shapes = []
        for source in inputs:
            require(
                source in self._shapes,
                f"unknown input {source!r} for layer {node_name!r}",
            )
            input_shapes.append(self._shapes[source])
        output_shape = layer.infer_output(tuple(input_shapes))
        node = LayerNode(
            name=node_name,
            layer=layer,
            inputs=tuple(inputs),
            input_shapes=tuple(input_shapes),
            output_shape=output_shape,
        )
        self._nodes.append(node)
        self._shapes[node_name] = output_shape
        return node_name

    def _auto_name(self, kind: str) -> str:
        self._kind_counts[kind] += 1
        return f"{kind}{self._kind_counts[kind]}"

    def shape_of(self, name: str) -> FeatureMap:
        return self._shapes[name]

    # ------------------------------------------------------------------
    # Convenience wrappers (one per layer kind)
    # ------------------------------------------------------------------

    def input(self, channels: int, height: int, width: int, name: str = "input") -> str:
        return self.add(InputLayer(channels, height, width), (), name)

    def conv(
        self,
        source: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        role: str = "main",
        name: str | None = None,
    ) -> str:
        layer = Conv2d(
            out_channels=out_channels,
            kernel=kernel,
            stride=stride,
            padding=padding,
            bias=bias,
            role=role,
        )
        return self.add(layer, (source,), name)

    def maxpool(
        self,
        source: str,
        kernel: int,
        stride: int,
        padding: int = 0,
        name: str | None = None,
    ) -> str:
        return self.add(Pool2d(kernel, stride, padding, "max"), (source,), name)

    def global_avgpool(self, source: str, name: str | None = None) -> str:
        return self.add(GlobalAvgPool(), (source,), name)

    def relu(self, source: str, name: str | None = None) -> str:
        return self.add(Activation("relu"), (source,), name)

    def batchnorm(self, source: str, name: str | None = None) -> str:
        return self.add(BatchNorm(), (source,), name)

    def add_residual(self, left: str, right: str, name: str | None = None) -> str:
        return self.add(Add(), (left, right), name)

    def concat(self, sources: list[str], name: str | None = None) -> str:
        return self.add(Concat(len(sources)), tuple(sources), name)

    def flatten(self, source: str, name: str | None = None) -> str:
        return self.add(Flatten(), (source,), name)

    def fc(
        self,
        source: str,
        out_features: int,
        bias: bool = True,
        name: str | None = None,
    ) -> str:
        return self.add(FullyConnected(out_features, bias), (source,), name)

    # ------------------------------------------------------------------
    # Composite blocks shared by the model zoo
    # ------------------------------------------------------------------

    def conv_bn_relu(
        self,
        source: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        role: str = "main",
        name: str | None = None,
    ) -> str:
        """Conv -> BN -> ReLU, the standard CNN building unit."""
        conv = self.conv(
            source,
            out_channels,
            kernel,
            stride=stride,
            padding=padding,
            bias=False,
            role=role,
            name=name,
        )
        bn = self.batchnorm(conv)
        return self.relu(bn)

    def build(self) -> ComputationGraph:
        return ComputationGraph(self.name, list(self._nodes))
