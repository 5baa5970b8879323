"""Pluggable per-layer cost models behind a declared interface.

Both GA levels, compiled programs and the validation harness price
through one :class:`CostModel`: compute, collectives, transfers and
host traffic as separate overridable operations, so the mapper stays
generic while each platform (or fidelity level) declares its own
model, the shape MATCH uses for its per-target
``CostModelEvaluation`` subclasses.

Two implementations ship:

* :class:`AnalyticalCostModel` — the paper's closed forms, and the
  only place they live: compute from the per-design cycle model, and
  the ring, set-to-set and host formulas over the topology's
  bottleneck bandwidths. Committed goldens pin its prices across the
  zoo, layer cache on and off.
* :class:`ContentionDeratedCostModel` — the same forms with per-class
  multiplicative derates on the communication terms, the standard way
  to fold link contention (which the closed forms ignore — they price
  each collective on an idle network) back into a fast model. The
  derates are *fit from event-simulator replays*:
  :meth:`ContentionDeratedCostModel.from_divergence` turns the
  per-pattern divergence report of :mod:`repro.core.validation` into a
  calibrated model.

Identity: models are configured by a frozen, picklable
:class:`CostModelSpec` that lives on
:class:`~repro.core.config.SearchConfig`, participates in the config's
result fingerprint and in the evaluator's per-layer cache key, and rebuilds
the right model on the far side of a process boundary (shard workers
rebuild their registry from the shipped config). Two deployments priced
by different models therefore never alias — not in warm caches, not in
tenant keys, not in persistent store artifacts.

Registering a model::

    @register_cost_model("my-platform")
    class MyPlatformCostModel(AnalyticalCostModel):
        def conv_compute_seconds(self, designs, plan):
            ...  # platform-specific cycle model

    config = SearchConfig(cost_model=CostModelSpec(kind="my-platform"))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.accelerators.base import AcceleratorDesign, cached_conv_cycles
from repro.core.sharding import ShardingPlan
from repro.system.topology import SystemTopology
from repro.utils.rng import stable_digest
from repro.utils.units import transfer_seconds as wire_seconds
from repro.utils.validation import require

__all__ = [
    "AnalyticalCostModel",
    "ContentionDeratedCostModel",
    "CostModel",
    "CostModelSpec",
    "available_cost_models",
    "register_cost_model",
]


@dataclass(frozen=True)
class CostModelSpec:
    """Declared identity of a cost model — frozen, picklable, hashable.

    The spec, not the model object, is what travels: it rides on
    :class:`~repro.core.config.SearchConfig` across pickle boundaries
    (shard workers rebuild the model from it), keys the evaluator's
    per-layer cache entries, and participates in the config's result
    fingerprint so results priced by different models never alias.

    Attributes:
        kind: Registry name of the model class (``"analytical"`` is the
            default and reproduces the pre-refactor evaluator
            bit-identically).
        params: Model parameters as a canonically-sorted tuple of
            ``(name, value)`` pairs — tuple-of-tuples rather than a
            dict so the spec stays frozen and hashable. Use
            :meth:`with_params` to build one from keywords.
    """

    kind: str = "analytical"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.kind), "cost model kind must be non-empty")
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))
        canonical = tuple(sorted((str(k), v) for k, v in self.params))
        if canonical != self.params:
            object.__setattr__(self, "params", canonical)

    @classmethod
    def with_params(cls, kind: str, **params: float) -> "CostModelSpec":
        """Spec for ``kind`` with keyword parameters, canonically sorted."""
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, float]:
        return dict(self.params)

    def token(self) -> str:
        """Stable identity token for cache keys and fingerprints.

        Two specs share a token iff they configure the same model with
        the same parameters; the token survives process boundaries.
        """
        return stable_digest("cost-model-v1", self.kind, self.params)

    def build(self, topology: SystemTopology) -> "CostModel":
        """Instantiate the named model against ``topology``.

        Raises :class:`KeyError` with the registered names when the
        kind is unknown — e.g. a config shipped to a worker missing a
        plugin registration.
        """
        try:
            factory = _COST_MODELS[self.kind]
        except KeyError:
            known = ", ".join(sorted(_COST_MODELS))
            raise KeyError(
                f"unknown cost model {self.kind!r}; registered: {known}"
            ) from None
        return factory(topology, self.param_dict())


#: Registry of cost-model factories: kind -> (topology, params) -> model.
_COST_MODELS: dict = {}


def register_cost_model(kind: str):
    """Class decorator registering a :class:`CostModel` under ``kind``.

    The class must be constructible as ``cls(topology, **params)`` with
    the float params of a :class:`CostModelSpec`. Registration is
    idempotent per class but refuses to silently shadow a *different*
    class — two plugins claiming one name is a deployment bug worth
    surfacing at import time.
    """

    def decorate(cls):
        existing = _COST_MODELS.get(kind)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"cost model kind {kind!r} already registered to "
                f"{existing.cls.__name__}"
            )
        _COST_MODELS[kind] = _Factory(cls)
        cls.kind = kind
        return cls

    return decorate


class _Factory:
    """Adapter from the registry's (topology, params) calling
    convention onto a model class's keyword constructor."""

    def __init__(self, cls) -> None:
        self.cls = cls

    def __call__(self, topology: SystemTopology, params: dict):
        return self.cls(topology, **params)


def available_cost_models() -> tuple[str, ...]:
    """Registered cost-model kinds, sorted."""
    return tuple(sorted(_COST_MODELS))


class CostModel:
    """The declared pricing interface of :class:`MappingEvaluator`.

    Each method prices one class of work; the evaluator composes them
    into per-layer and whole-mapping costs but never prices anything
    itself. Subclass and override individual operations to declare a
    new platform or fidelity level — everything not overridden keeps
    the base behaviour.

    Contract: every method is a **pure function** of its arguments and
    the model's frozen configuration — no RNG, no mutable state, no
    wall clock. The evaluator's per-layer LRU cache memoizes around
    these methods keyed by :meth:`CostModelSpec.token`, so an impure
    model would cache stale prices.

    Models must be picklable (they ride inside the evaluator to
    process-pool workers) and must derive their identity from a
    :class:`CostModelSpec`; construction happens via
    :meth:`CostModelSpec.build` everywhere identity matters.
    """

    #: Registry name; set by :func:`register_cost_model`.
    kind: str = ""

    def __init__(self, topology: SystemTopology) -> None:
        self.topology = topology

    @property
    def spec(self) -> CostModelSpec:
        """The spec that rebuilds this model (identity for caches)."""
        return CostModelSpec(kind=self.kind, params=self._spec_params())

    def _spec_params(self) -> tuple[tuple[str, float], ...]:
        """Canonical ``(name, value)`` parameter pairs (none by default)."""
        return ()

    # -- compute -------------------------------------------------------

    def conv_compute_seconds(
        self, designs: list[AcceleratorDesign], plan: ShardingPlan
    ) -> float:
        """Sharded conv/FC compute time across a set's phases."""
        raise NotImplementedError

    def elementwise_compute_seconds(
        self, designs: list[AcceleratorDesign], shard_numel: int
    ) -> float:
        """Non-conv (pool/relu/concat/...) shard compute time."""
        raise NotImplementedError

    # -- collectives ---------------------------------------------------

    def allreduce_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Partial-sum reduction across ``group``."""
        raise NotImplementedError

    def ring_step_seconds(
        self, group: tuple[int, ...], shard_bytes: float
    ) -> float:
        """One SS rotation / halo exchange ring step."""
        raise NotImplementedError

    # -- transfers -----------------------------------------------------

    def transfer_seconds(
        self,
        src_accs: tuple[int, ...],
        dst_accs: tuple[int, ...],
        total_bytes: float,
        bytes_per_dst: float | None = None,
    ) -> float:
        """Set-to-set tensor movement (boundary or resharding)."""
        raise NotImplementedError

    # -- host traffic --------------------------------------------------

    def host_read_seconds(self, acc: int, nbytes: float) -> float:
        """One-way host-memory -> accelerator load."""
        raise NotImplementedError

    def host_round_trip_seconds(self, acc: int, nbytes: float) -> float:
        """Spill to host memory and read back (DRAM overflow)."""
        raise NotImplementedError


@register_cost_model("analytical")
class AnalyticalCostModel(CostModel):
    """The paper's closed forms, and the only place they live.

    Compute comes from the memoized per-design cycle model
    (:func:`~repro.accelerators.base.cached_conv_cycles`; fixed-design
    sets stall until the slowest member finishes, Section VI-C), and
    communication from ring-algorithm formulas over the topology's
    bottleneck links, priced on an idle network as ASTRA-Sim's
    analytical backend does. ``allgather_seconds``,
    ``reduce_scatter_seconds`` and ``p2p_seconds`` are outside the
    :class:`CostModel` seam: no mapping emits those steps, and the
    figure benches and the simulator cross-checks use them.
    """

    def conv_compute_seconds(
        self, designs: list[AcceleratorDesign], plan: ShardingPlan
    ) -> float:
        return (
            max(
                cached_conv_cycles(d, plan.phase_spec) / d.frequency_hz
                for d in designs
            )
            * plan.phases
        )

    def elementwise_compute_seconds(
        self, designs: list[AcceleratorDesign], shard_numel: int
    ) -> float:
        return max(
            math.ceil(shard_numel / d.num_pes) / d.frequency_hz
            for d in designs
        )

    # -- ring collectives within an accelerator set --------------------

    def allreduce_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Ring all-reduce of an ``nbytes`` tensor across ``group``.

        Reduce-scatter + all-gather: ``2 (P-1)/P * S / B`` plus
        ``2 (P-1)`` hop latencies. Degenerates to 0 for P <= 1.
        """
        p = len(group)
        if p <= 1 or nbytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        wire = 2 * (p - 1) / p * wire_seconds(nbytes, bandwidth)
        return wire + 2 * (p - 1) * latency

    def allgather_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Ring all-gather so every member ends with the full ``nbytes``."""
        p = len(group)
        if p <= 1 or nbytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        wire = (p - 1) / p * wire_seconds(nbytes, bandwidth)
        return wire + (p - 1) * latency

    def reduce_scatter_seconds(
        self, group: tuple[int, ...], nbytes: float
    ) -> float:
        """Ring reduce-scatter; same wire time as all-gather."""
        return self.allgather_seconds(group, nbytes)

    def ring_step_seconds(
        self, group: tuple[int, ...], shard_bytes: float
    ) -> float:
        """One SS rotation: every member forwards its shard to its ring
        neighbour concurrently (Fig. 2(c) phase boundary)."""
        if len(group) <= 1 or shard_bytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        return wire_seconds(shard_bytes, bandwidth) + latency

    # -- point-to-point and set-to-set ---------------------------------

    def p2p_seconds(self, src: int, dst: int, nbytes: float) -> float:
        """One ``src`` -> ``dst`` message over the effective path."""
        if nbytes == 0 or src == dst:
            return 0.0
        bandwidth = self.topology.effective_bandwidth(src, dst)
        return wire_seconds(nbytes, bandwidth) + self.topology.path_latency(
            src, dst
        )

    def transfer_seconds(
        self,
        src_accs: tuple[int, ...],
        dst_accs: tuple[int, ...],
        total_bytes: float,
        bytes_per_dst: float | None = None,
    ) -> float:
        """Move a tensor from one accelerator set to the next.

        The producer set holds the tensor sharded over ``src_accs``; the
        consumer set needs ``bytes_per_dst`` on each member (defaults to
        an even split of ``total_bytes``). The cost is a LogP-style
        bound: the slower of source-side egress and destination-side
        ingress over the bottleneck pairwise bandwidth, plus one path
        latency.
        """
        require(bool(src_accs) and bool(dst_accs), "empty accelerator set")
        if total_bytes == 0:
            return 0.0
        bottleneck = self.topology.bottleneck_between(src_accs, dst_accs)
        if bottleneck is None:
            return 0.0  # single accelerator on both sides: data is local
        if bytes_per_dst is None:
            bytes_per_dst = total_bytes / len(dst_accs)
        total_moved = bytes_per_dst * len(dst_accs)
        bandwidth, latency = bottleneck
        egress = wire_seconds(total_moved / len(src_accs), bandwidth)
        ingress = wire_seconds(bytes_per_dst, bandwidth)
        return max(egress, ingress) + latency

    # -- host traffic --------------------------------------------------

    def host_read_seconds(self, acc: int, nbytes: float) -> float:
        """One-way host-memory -> accelerator read (e.g. initial input)."""
        if nbytes == 0:
            return 0.0
        bandwidth = self.topology.host_bandwidth(acc)
        return wire_seconds(nbytes, bandwidth) + self.topology.host_latency_s

    def host_round_trip_seconds(self, acc: int, nbytes: float) -> float:
        """Spill ``nbytes`` to host memory and read it back (overflow)."""
        if nbytes == 0:
            return 0.0
        bandwidth = self.topology.host_bandwidth(acc)
        return 2 * (
            wire_seconds(nbytes, bandwidth) + self.topology.host_latency_s
        )


@register_cost_model("contention-derated")
class ContentionDeratedCostModel(AnalyticalCostModel):
    """Analytical forms with link-contention derates on every comm term.

    The closed forms price each collective on an idle network; the
    event simulator serializes link occupancy and therefore runs
    slower wherever transfers contend. This model folds that gap back
    into the fast path as per-class multiplicative penalties — the
    proof that the :class:`CostModel` seam carries a genuinely
    different model through the whole stack (caches, fingerprints,
    store keys, shard shipment), and a useful fidelity knob in its own
    right.

    Args:
        topology: The system being priced.
        collective_derate: Multiplier (>= 1) on all-reduce, SS-rotation
            and halo ring terms.
        transfer_derate: Multiplier on set-to-set transfers
            (reshardings and boundary crossings).
        host_derate: Multiplier on host reads and spill round-trips.

    A derate of 1.0 everywhere is bit-identical to
    :class:`AnalyticalCostModel` (regression-tested) — the penalties
    are pure multiplications on the analytical results.
    """

    def __init__(
        self,
        topology: SystemTopology,
        collective_derate: float = 1.0,
        transfer_derate: float = 1.0,
        host_derate: float = 1.0,
    ) -> None:
        super().__init__(topology)
        for name, value in (
            ("collective_derate", collective_derate),
            ("transfer_derate", transfer_derate),
            ("host_derate", host_derate),
        ):
            require(value >= 1.0, f"{name} must be >= 1.0, got {value}")
        self.collective_derate = float(collective_derate)
        self.transfer_derate = float(transfer_derate)
        self.host_derate = float(host_derate)

    def _spec_params(self) -> tuple[tuple[str, float], ...]:
        return tuple(
            sorted(
                {
                    "collective_derate": self.collective_derate,
                    "transfer_derate": self.transfer_derate,
                    "host_derate": self.host_derate,
                }.items()
            )
        )

    @classmethod
    def from_divergence(cls, report: dict) -> CostModelSpec:
        """Calibrate derates from a validation divergence report.

        ``report`` is the dict produced by
        :func:`repro.core.validation.divergence_report`: per
        step-pattern sums of analytical and simulated seconds. Each
        derate becomes the simulated/analytical ratio of its step
        class, clamped to >= 1.0 (the simulator can only add
        contention, and a model must never price *below* the idle-
        network closed form). Returns the :class:`CostModelSpec` so the
        fitted model threads through configs like any other.
        """
        groups = {
            "collective_derate": ("allreduce", "ss-rotation", "halo"),
            "transfer_derate": ("reshard", "boundary"),
            "host_derate": ("host-input", "weight-stream", "dram-spill"),
        }
        patterns = report.get("patterns", {})
        params: dict[str, float] = {}
        for derate, kinds in groups.items():
            analytical = sum(
                patterns[k]["analytical_seconds"]
                for k in kinds
                if k in patterns
            )
            simulated = sum(
                patterns[k]["simulated_seconds"] for k in kinds if k in patterns
            )
            ratio = simulated / analytical if analytical > 0 else 1.0
            params[derate] = max(1.0, ratio)
        return CostModelSpec.with_params("contention-derated", **params)

    def allreduce_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        return super().allreduce_seconds(group, nbytes) * self.collective_derate

    def ring_step_seconds(
        self, group: tuple[int, ...], shard_bytes: float
    ) -> float:
        return (
            super().ring_step_seconds(group, shard_bytes)
            * self.collective_derate
        )

    def transfer_seconds(
        self,
        src_accs: tuple[int, ...],
        dst_accs: tuple[int, ...],
        total_bytes: float,
        bytes_per_dst: float | None = None,
    ) -> float:
        return (
            super().transfer_seconds(
                src_accs, dst_accs, total_bytes, bytes_per_dst
            )
            * self.transfer_derate
        )

    def host_read_seconds(self, acc: int, nbytes: float) -> float:
        return super().host_read_seconds(acc, nbytes) * self.host_derate

    def host_round_trip_seconds(self, acc: int, nbytes: float) -> float:
        return super().host_round_trip_seconds(acc, nbytes) * self.host_derate
