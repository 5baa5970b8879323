"""Computation-graph representation of a DNN workload.

The paper formulates a workload as a DAG of layers flattened in
topological order (Section III). :class:`ComputationGraph` stores the
layers with resolved shapes, provides that deterministic flattening, and
exposes the statistics reported in Table III (#Convs, #Params, FLOPs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.dnn.layers import (
    BatchNorm,
    Conv2d,
    ConvSpec,
    FeatureMap,
    FullyConnected,
    InputLayer,
    Layer,
)
from repro.utils.rng import stable_digest
from repro.utils.validation import require


@dataclass(frozen=True)
class LayerNode:
    """A layer placed in a graph with resolved input/output shapes."""

    name: str
    layer: Layer
    inputs: tuple[str, ...]
    input_shapes: tuple[FeatureMap, ...]
    output_shape: FeatureMap

    @property
    def kind(self) -> str:
        return self.layer.kind

    @property
    def is_compute(self) -> bool:
        """True for layers carrying a convolution loop nest (conv / FC)."""
        return self.layer.is_compute

    @cached_property
    def _conv_spec(self) -> ConvSpec:
        layer = self.layer
        if isinstance(layer, (Conv2d, FullyConnected)):
            return layer.spec(self.input_shapes[0])
        raise TypeError(f"layer {self.name!r} ({self.kind}) has no conv spec")

    def conv_spec(self) -> ConvSpec:
        """The normalized loop nest; only valid for compute layers.

        Cached per node — the GA decode and the evaluator ask for the
        spec thousands of times per search.
        """
        return self._conv_spec

    @property
    def param_count(self) -> int:
        layer = self.layer
        if isinstance(layer, Conv2d):
            return layer.param_count_for(self.input_shapes[0].channels)
        if isinstance(layer, FullyConnected):
            return layer.param_count_for(self.input_shapes[0].numel)
        if isinstance(layer, BatchNorm):
            return layer.param_count_for(self.input_shapes[0].channels)
        return 0

    @property
    def mac_count(self) -> int:
        return self.layer.mac_count(self.input_shapes)

    @property
    def output_bytes(self) -> int:
        return self.output_shape.nbytes()

    def __str__(self) -> str:
        ins = ", ".join(self.inputs) if self.inputs else "-"
        return f"{self.name}[{self.kind}] ({ins}) -> {self.output_shape}"


@dataclass(frozen=True)
class GraphStats:
    """Aggregate statistics matching Table III's model columns."""

    num_layers: int
    num_convs: int
    num_convs_with_projections: int
    params: int
    macs: int

    @property
    def params_m(self) -> float:
        """Parameters in millions, as the paper reports them."""
        return self.params / 1e6

    @property
    def flops_g(self) -> float:
        """MAC count in GFLOPs using the paper's FLOPs=MACs convention."""
        return self.macs / 1e9


class ComputationGraph:
    """A validated DAG of named :class:`LayerNode` objects.

    Nodes are kept in insertion order, which is also a valid topological
    order (the builder only allows references to already-added nodes),
    giving the deterministic flattening the mapper relies on.
    """

    def __init__(self, name: str, nodes: list[LayerNode]):
        require(bool(nodes), f"graph {name!r} has no layers")
        self.name = name
        self._nodes: dict[str, LayerNode] = {}
        self._consumers: dict[str, list[str]] = {}
        for node in nodes:
            require(
                node.name not in self._nodes,
                f"duplicate layer name {node.name!r} in graph {name!r}",
            )
            for source in node.inputs:
                require(
                    source in self._nodes,
                    f"layer {node.name!r} references unknown input {source!r}; "
                    "nodes must be added in topological order",
                )
            self._nodes[node.name] = node
            self._consumers[node.name] = []
            for source in node.inputs:
                self._consumers[source].append(node.name)
        self._order: tuple[str, ...] = tuple(self._nodes)
        self._fingerprint: str | None = None
        self._validate_single_component()

    def _validate_single_component(self) -> None:
        """Reject graphs with unreachable islands (mapping assumes one net)."""
        roots = [name for name in self._order if not self._nodes[name].inputs]
        require(bool(roots), f"graph {self.name!r} has no input layer")
        seen: set[str] = set()
        frontier: deque[str] = deque(roots)
        while frontier:
            name = frontier.popleft()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(self._consumers[name])
        unreachable = [name for name in self._order if name not in seen]
        require(
            not unreachable,
            f"graph {self.name!r} has layers unreachable from inputs: "
            f"{unreachable[:5]}",
        )

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> LayerNode:
        return self._nodes[name]

    def nodes(self) -> list[LayerNode]:
        """All nodes in topological (insertion) order."""
        return [self._nodes[name] for name in self._order]

    def topological_order(self) -> list[str]:
        return list(self._order)

    def predecessors(self, name: str) -> list[str]:
        return list(self._nodes[name].inputs)

    def successors(self, name: str) -> list[str]:
        return list(self._consumers[name])

    def edges(self) -> list[tuple[str, str]]:
        return [
            (source, node.name)
            for node in self.nodes()
            for source in node.inputs
        ]

    # ------------------------------------------------------------------
    # Mapping-oriented views
    # ------------------------------------------------------------------

    def compute_nodes(self) -> list[LayerNode]:
        """Conv/FC layers in topological order (the mapper's unit of work)."""
        return [node for node in self.nodes() if node.is_compute]

    def conv_nodes(self, include_projections: bool = True) -> list[LayerNode]:
        """Convolution layers; Table III excludes projection shortcuts."""
        result = []
        for node in self.nodes():
            layer = node.layer
            if not isinstance(layer, Conv2d):
                continue
            if not include_projections and layer.role == "projection":
                continue
            result.append(node)
        return result

    def output_nodes(self) -> list[LayerNode]:
        return [node for node in self.nodes() if not self._consumers[node.name]]

    def input_nodes(self) -> list[LayerNode]:
        return [
            node for node in self.nodes() if isinstance(node.layer, InputLayer)
        ]

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the graph (name, layers, shapes, edges).

        Two graphs fingerprint identically iff they were built from the
        same name and layer structure — every node's name, layer
        parameters, wiring and resolved shapes contribute, so any
        perturbation (a changed channel count, kernel, edge or layer
        name) produces a different digest. The derivation goes through
        :func:`repro.utils.rng.stable_digest`, so it is identical
        across processes and interpreter runs — unlike an object-identity
        key, a fingerprint survives pickling, which is what lets the
        sharded serving frontend address tenants across process
        boundaries.

        Computed once and cached; graphs are immutable after
        construction.
        """
        if self._fingerprint is None:
            self._fingerprint = stable_digest(
                "graph-v1",
                self.name,
                tuple(
                    (
                        node.name,
                        node.kind,
                        repr(node.layer),
                        node.inputs,
                        tuple(
                            (s.channels, s.height, s.width)
                            for s in node.input_shapes
                        ),
                        (
                            node.output_shape.channels,
                            node.output_shape.height,
                            node.output_shape.width,
                        ),
                    )
                    for node in self.nodes()
                ),
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> GraphStats:
        params = sum(node.param_count for node in self.nodes())
        macs = sum(node.mac_count for node in self.nodes())
        return GraphStats(
            num_layers=len(self),
            num_convs=len(self.conv_nodes(include_projections=False)),
            num_convs_with_projections=len(self.conv_nodes()),
            params=params,
            macs=macs,
        )

    def summary(self) -> str:
        stats = self.stats()
        return (
            f"{self.name}: {stats.num_layers} layers, "
            f"{stats.num_convs} convs, {stats.params_m:.1f}M params, "
            f"{stats.flops_g:.2f}G MACs"
        )

    def __repr__(self) -> str:
        return f"ComputationGraph({self.name!r}, {len(self)} layers)"
