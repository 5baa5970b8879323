"""The benchmark's own tracer: spans and per-name counters around calls
into the mapper's layers, installed from outside ``src/``.

Every wrapped call pushes a frame on one stack, so each name gets a
call count, an inclusive time and a self time (its duration minus the
time of the wrapped calls nested in it). Coarse calls additionally
become in-memory span records ``(name, start, end, parent, op)`` —
``op`` is the search or request the span belongs to — written out when
the run ends. Hot leaf calls (topology and cost-model queries run
hundreds of thousands of times per search) keep only the counters.

Untraced runs never call :func:`install`, so they run the library's
own functions with no wrapper in the way. The tracer assumes traced
calls run on one thread; forked pool workers switch it off, because
what they record could never reach the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time

#: (module, owner, attribute, layer, span?) for every wrapped entry
#: point. ``owner`` is a class name in ``module`` or ``None`` for a
#: module-level function, wrapped in the module that looks it up.
ENTRY_POINTS = (
    ("repro.core.session", "MarsSession", "search", "session", True),
    ("repro.core.ga.level1", "Level1Search", "run", "level1", True),
    ("repro.core.ga.level1", "Level1Search", "fitness", "level1", True),
    ("repro.core.ga.level1", "Level1Search", "prefetch_population", "level1", True),
    ("repro.core.ga.level1", "Level1Search", "seed_genomes", "level1", True),
    ("repro.core.ga.level1", None, "optimize_set", "level2", True),
    ("repro.core.ga.level1", None, "candidate_partitions", "level1", True),
    ("repro.core.ga.level1", None, "profile_designs", "level1", True),
    ("repro.core.ga.engine", "GeneticAlgorithm", "run", "engine", True),
    ("repro.core.ga.backends", "ProcessPoolBackend", "map_subproblems", "backends", True),
    ("repro.core.ga.backends", "ProcessPoolBackend", "evaluate", "backends", True),
    ("repro.core.ga.level2", "Level2Fitness", "prepare_population", "level2", True),
    ("repro.core.ga.level2", None, "greedy_strategies", "level2", True),
    ("repro.core.evaluator", "MappingEvaluator", "evaluate_mapping", "evaluator", True),
    ("repro.core.evaluator", "MappingEvaluator", "evaluate_set", "evaluator", False),
    ("repro.core.store", "MappingStore", "get", "store", True),
    ("repro.core.store", "MappingStore", "put", "store", True),
    ("repro.core.frontend", "SloServing", "submit", "frontend", True),
    *(
        ("repro.core.costmodel", "AnalyticalCostModel", op, "costmodel", False)
        for op in (
            "conv_compute_seconds",
            "elementwise_compute_seconds",
            "allreduce_seconds",
            "ring_step_seconds",
            "transfer_seconds",
            "host_read_seconds",
            "host_round_trip_seconds",
        )
    ),
    *(
        ("repro.system.topology", "SystemTopology", query, "topology", False)
        for query in (
            "direct_bandwidth",
            "effective_bandwidth",
            "path_latency",
            "min_bandwidth_within",
            "max_latency_within",
        )
    ),
)


class Tracer:
    """Counters and spans of the calls made while :attr:`enabled`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: The id of the operation (search or request) now running.
        self.op: int | None = None
        #: name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        #: name -> layer, for every wrapped name
        self.layers: dict[str, str] = {}
        #: [name, start, end, parent index, op, self seconds]
        self.spans: list[list] = []
        # Frames of the calls in progress: [child seconds, span index].
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def wrap(self, owner, attr: str, name: str, layer: str, span: bool,
             on_return=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper named ``name``;
        ``on_return`` (optional) sees every value a traced call returns."""
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layers[name] = layer
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, -1]
            if span:
                frame[1] = len(spans)
                spans.append(
                    [name, 0.0, 0.0, span_stack[-1] if span_stack else -1,
                     self.op, 0.0]
                )
                span_stack.append(frame[1])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                stat[0] += 1
                stat[1] += own
                stat[2] += duration
                if stack:
                    stack[-1][0] += duration
                if span:
                    span_stack.pop()
                    record = spans[frame[1]]
                    record[1] = start
                    record[2] = end
                    record[5] = own
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, traced)

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def self_s(self, name: str) -> float:
        return self.stats[name][1]

    def incl_s(self, name: str) -> float:
        return self.stats[name][2]

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every wrapped name of ``layer``."""
        return sum(
            stat[1]
            for name, stat in self.stats.items()
            if self.layers[name] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            stat[0]
            for name, stat in self.stats.items()
            if self.layers[name] == layer
        )

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one summary line per name."""
        with open(path, "w") as out:
            for name, start, end, parent, op, own in self.spans:
                out.write(json.dumps({
                    "span": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self": own,
                }) + "\n")
            for name, (calls, own, incl) in sorted(self.stats.items()):
                out.write(json.dumps({
                    "name": name, "layer": self.layers[name],
                    "calls": calls, "self_s": own, "incl_s": incl,
                }) + "\n")


def install(tracer: Tracer, hooks: dict | None = None) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` with ``tracer``.

    ``hooks`` maps a wrapped name to a callback that sees each value the
    call returns (e.g. ``GeneticAlgorithm.run`` for its ``GAResult``
    counters).
    """
    hooks = hooks or {}
    import importlib

    for module_name, owner_name, attr, layer, span in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        name = f"{owner_name}.{attr}" if owner_name else attr
        tracer.wrap(owner, attr, name, layer, span, hooks.get(name))
