"""Shard replies in the store's result codec, re-homed on the frontend.

A shard worker answers a search with ``encode_result(result)`` — the
mapping decision plus the evaluation and GA trace, the payload the
store writes — instead of the whole ``MarsResult``, so neither the
tenant's graph nor the topology is pickled back. The frontend rebuilds
the result with ``decode_result`` against the graph object its caller
submitted and the topology the request used.

The contract: a served result references the caller's graph and the
request's topology and is bit-identical to a fresh ``Mars`` run across
shard counts {1, 2}; the reply payload carries no ``ComputationGraph``,
``SystemTopology`` or ``ShardingPlan`` and is smaller than the result,
and a payload whose layer costs still carry plans decodes without them;
and a well-formed ``ok`` reply that decodes to another workload or
system, or does not decode at all, is treated as a corrupt reply — the
worker is replaced and the request re-sent — so it never reaches a
caller.
"""

import copy
import multiprocessing
import pickle
import pickletools
import threading
from collections import deque

import pytest

from repro.core import LivenessPolicy, Mars, SloServing
from repro.core.config import SearchConfig
from repro.core.serving import _shard_worker
from repro.core.session import decode_result, encode_result
from repro.core.sharding import cached_sharding_plan
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils.serialization import mapping_to_dict
from tests.core.test_health import _ScriptConn, _StubProcess

TOPOLOGY = f1_16xlarge()
#: A per-request override: the same system name, other contents.
OVERRIDE = f1_16xlarge(host_gbps=4.0)
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")
#: The tenants of perfbench's ``serve_mixed`` workload.
SERVE_TENANTS = ("tiny_cnn", "tiny_resnet", "squeezenet", "mobilenet_v1")

_FRESH: dict = {}


def fresh(graph, seed, topology=TOPOLOGY):
    key = (graph.fingerprint(), seed, topology.fingerprint())
    if key not in _FRESH:
        _FRESH[key] = Mars(graph, topology).search(seed=seed)
    return _FRESH[key]


def _bit_identical(served, reference):
    assert served.evaluation.latency_seconds.hex() == (
        reference.evaluation.latency_seconds.hex()
    )
    assert served.ga.history == reference.ga.history
    assert mapping_to_dict(served.mapping) == mapping_to_dict(
        reference.mapping
    )
    assert served.describe() == reference.describe()


def _pickled_names(data: bytes) -> set[str]:
    """Every word of every string operand in a pickle: module and class
    names of its globals among them."""
    names = set()
    for _, arg, _ in pickletools.genops(data):
        if isinstance(arg, str):
            names.update(arg.split())
    return names


class TestRehoming:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_results_reference_the_callers_graph_and_topology(self, shards):
        with SloServing(TOPOLOGY, shards=shards) as frontend:
            futures = [
                frontend.submit(CNN, seed=0),
                frontend.submit(RESNET, seed=1),
                frontend.submit(CNN, seed=0, topology=OVERRIDE),
            ]
            cnn, resnet, override = (f.result(timeout=240) for f in futures)
            stats = frontend.stats()
        # Served by the workers, not rescued by the inline fallback.
        assert stats.fallback is None and stats.respawns == 0
        assert not any(stats.corrupt_replies)
        assert cnn.mapping.graph is CNN
        assert resnet.mapping.graph is RESNET
        assert override.mapping.graph is CNN
        assert cnn.mapping.topology is frontend.topology
        assert resnet.mapping.topology is frontend.topology
        assert override.mapping.topology is OVERRIDE
        _bit_identical(cnn, fresh(CNN, 0))
        _bit_identical(resnet, fresh(RESNET, 1))
        _bit_identical(override, fresh(CNN, 0, OVERRIDE))


class TestReplyPayload:
    def test_replies_carry_neither_graph_nor_topology(self):
        config = SearchConfig()
        parent, child = multiprocessing.get_context("spawn").Pipe()
        worker = threading.Thread(
            target=_shard_worker, args=(child, TOPOLOGY, config), daemon=True
        )
        worker.start()
        try:
            for name in SERVE_TENANTS:
                graph = build_model(name)
                parent.send(("search", graph, 0, None, "latency"))
                wire = parent.recv_bytes()
                status, payload = pickle.loads(wire)
                assert status == "ok"
                result = decode_result(
                    payload, graph, TOPOLOGY, config.designs
                )
                _bit_identical(result, fresh(graph, 0))
                whole = pickle.dumps(("ok", result))
                # The scan sees both classes where they are pickled...
                assert {"ComputationGraph", "SystemTopology"} <= (
                    _pickled_names(whole)
                )
                # ...and the reply carries neither.
                assert _pickled_names(wire).isdisjoint(
                    {"ComputationGraph", "SystemTopology"}
                ), name
                assert len(wire) < len(whole), name
        finally:
            parent.send(("shutdown",))
            assert parent.recv()[0] == "bye"
            parent.close()
            worker.join(timeout=60)
        assert not worker.is_alive()


class TestPlanFreeEvaluations:
    def test_layer_costs_carry_no_plans_and_old_payloads_decode(self):
        """Replies and store payloads carry no ``ShardingPlan``, and a
        payload written while each ``LayerCost`` still carried its plan
        (a store entry of an earlier version) decodes to the same
        result, whose layer costs hold no plan."""
        reference = fresh(CNN, 0)
        payload = encode_result(reference)
        assert "ShardingPlan" not in _pickled_names(
            pickle.dumps(("ok", payload))
        )
        old = copy.deepcopy(payload)
        specs = {node.name: node.conv_spec() for node in CNN.compute_nodes()}
        for evaluation, assignment in zip(
            old["evaluation"].set_evaluations, reference.mapping.assignments
        ):
            for cost in evaluation.layer_costs:
                cost.plan = (
                    cached_sharding_plan(
                        specs[cost.name],
                        assignment.strategy_for(cost.name),
                        assignment.acc_set.size,
                    )
                    if cost.name in specs
                    else None
                )
        data = pickle.dumps(old)
        assert "ShardingPlan" in _pickled_names(data)
        result = decode_result(
            pickle.loads(data), CNN, TOPOLOGY, SearchConfig().designs
        )
        _bit_identical(result, reference)
        assert result.evaluation == reference.evaluation
        # ...and keeps none of the old plans.
        costs = [
            cost
            for evaluation in result.evaluation.set_evaluations
            for cost in evaluation.layer_costs
        ]
        assert costs and not any(hasattr(cost, "plan") for cost in costs)


def _right_payload():
    return encode_result(fresh(CNN, 0))


#: ``ok`` payloads, each in a well-formed reply, that must not reach a
#: caller asking for ``CNN`` seed 0 on ``TOPOLOGY``.
MISDECODING = {
    "other workload": lambda: encode_result(fresh(RESNET, 0)),
    "other system": lambda: encode_result(fresh(CNN, 0, OVERRIDE)),
    "whole result": lambda: fresh(CNN, 0),
    "missing key": lambda: {
        k: v for k, v in _right_payload().items() if k != "ga"
    },
    "wrong type": lambda: {
        **_right_payload(),
        "evaluation": _right_payload()["ga"],
    },
}


#: Stub pipes answer at once; a short stall budget turns an unanswered
#: message into a quick hang instead of a 300 s spin.
STUB_LIVENESS = LivenessPolicy(
    stall_budget=1.0, poll_interval=0.01, term_grace=0.01, spawn_grace=None
)


class TestMismatchedReply:
    @pytest.mark.parametrize("case", sorted(MISDECODING))
    def test_reply_that_does_not_decode_is_corrupt(self, case, monkeypatch):
        # Both ack a shutdown, so a frontend that wrongly kept the bad
        # worker still closes promptly and fails the asserts below.
        bad = _ScriptConn([("ok", MISDECODING[case]()), ("bye", None)])
        good = _ScriptConn([("ok", _right_payload()), ("bye", None)])
        conns = deque([bad, good])

        def spawn(self, handle):
            handle.interned.clear()
            handle.fresh = True
            handle.process = _StubProcess(obeys="join")
            handle.conn = conns.popleft()

        monkeypatch.setattr(SloServing, "_spawn_worker", spawn)
        frontend = SloServing(TOPOLOGY, shards=1, liveness=STUB_LIVENESS)
        with frontend:
            frontend._sleep = lambda seconds: None  # no respawn backoff
            result = frontend.search(CNN, seed=0)
            stats = frontend.stats()
        assert not conns  # the original worker and one replacement
        assert result.mapping.graph is CNN
        assert result.mapping.topology is TOPOLOGY
        _bit_identical(result, fresh(CNN, 0))
        assert stats.corrupt_replies == (1,)
        assert stats.respawns == 1
        assert stats.fallback is None
        assert bad.closed
        # The replacement knows no graph: the request is re-sent whole.
        assert [message[0] for message in good.sent] == ["search", "shutdown"]
        assert stats.graph_ships == (2,)
