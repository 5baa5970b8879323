"""Import hygiene: a process that only searches loads only what it runs.

A search process (CLI run, pool worker, shard respawn) pays for every
module it imports, in start-up time and in resident memory. The search
path must not pull in a graph library or the multi-process serving
stack; ``repro.core`` resolves its re-exports on first use, so the
serving names still import from it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a search must never load.
UNUSED_BY_SEARCH = (
    "networkx",
    "asyncio",
    "multiprocessing",
    "repro.core.frontend",
    "repro.core.serving",
    "repro.core.health",
)

_CHILD_CODE = f"""
import json
import sys

import repro.core.session
import repro.dnn
import repro.system
from repro.core.session import MarsSession
from repro.dnn import build_model
from repro.system import f1_16xlarge

MarsSession(build_model("tiny_cnn"), f1_16xlarge()).search(seed=0)
loaded = [name for name in {UNUSED_BY_SEARCH!r} if name in sys.modules]

import repro.core
from repro.core import LivenessPolicy, MultiModelSession, SloServing
from repro.core.frontend import SloServing as defined_slo
from repro.core.health import LivenessPolicy as defined_liveness
from repro.core.serving import MultiModelSession as defined_multi

print(json.dumps({{
    "loaded_by_search": loaded,
    "serving_names_are_defined_classes": [
        SloServing is defined_slo,
        MultiModelSession is defined_multi,
        LivenessPolicy is defined_liveness,
    ],
    "unresolved": [
        name for name in repro.core.__all__ if not hasattr(repro.core, name)
    ],
}}))
"""


def _child_report() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_CODE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_search_loads_no_graph_library_or_serving_stack():
    report = _child_report()
    assert report["loaded_by_search"] == []
    assert report["serving_names_are_defined_classes"] == [True, True, True]
    assert report["unresolved"] == []
