"""The MARS facade: one call from workload + system to a mapping.

>>> from repro.core.mapper import Mars
>>> from repro.dnn import build_model
>>> from repro.system import f1_16xlarge
>>> result = Mars(build_model("tiny_cnn"), f1_16xlarge()).search(seed=0)
>>> result.latency_ms  # doctest: +SKIP

A ``Mars`` *is* a :class:`~repro.core.session.MarsSession`, so repeated
``search`` calls (seed sweeps) and ``compile_program`` share one warm
evaluator and one cross-search sub-problem cache. Warm state never
changes results — only wall-clock (see :mod:`repro.core.session`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import SearchConfig
from repro.core.session import MarsResult, MarsSession
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology

__all__ = ["Mars", "MarsResult", "MarsSession", "SearchConfig"]


class Mars(MarsSession):
    """The MARS mapping framework (paper Sections III-V).

    A :class:`~repro.core.session.MarsSession` configured the same way
    — a :class:`~repro.core.config.SearchConfig` or its keywords — that
    drops ``config.store``: a ``Mars`` run is the reference baseline
    every store hit is tested bit-identical against, so it always
    searches. ``adaptive`` topologies draw designs from
    ``config.designs``; ``fixed`` ones use the designs baked into the
    topology.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        topology: SystemTopology,
        config: SearchConfig | None = None,
        **kwargs,
    ) -> None:
        config = SearchConfig.of(config, **kwargs)
        super().__init__(graph, topology, replace(config, store=None))
