"""Smoke tests: every shipped example must run end-to-end.

Each example is executed in a subprocess with its quickest arguments;
the assertions check the banner output so a silently-broken example
cannot pass.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_tiny():
    out = _run("quickstart.py", "--model", "tiny_cnn")
    assert "End-to-end latency" in out
    assert "Mapping found" in out
    assert "Latency decomposition" in out


def test_parallelism_strategies():
    out = _run("parallelism_strategies.py")
    assert "Fig. 2(b)" in out
    assert "Fig. 2(c)" in out
    assert "all-reduce" in out
    assert "SS rotations" in out


def test_f1_topology_tour():
    out = _run("f1_topology_tour.py")
    assert "group1" in out
    assert "Communication asymmetry" in out
    assert "AccSet partition candidates" in out


def test_mapping_walkthrough_tiny():
    out = _run("mapping_walkthrough.py", "--model", "tiny_resnet")
    assert "Profiled design scores" in out
    assert "Convergence" in out
    assert "Final latency" in out


def test_custom_accelerator():
    out = _run("custom_accelerator.py")
    assert "Catalog of 3" in out
    assert "Catalog of 4" in out


@pytest.mark.slow
def test_heterogeneous_models_quick():
    out = _run("heterogeneous_models.py", "--model", "facebagnet", "--quick")
    assert "H2H mapping" in out
    assert "MARS mapping" in out


@pytest.mark.slow
def test_multi_dnn_serving(tmp_path):
    trace = tmp_path / "trace.json"
    out = _run("multi_dnn_serving.py", "--trace-out", str(trace))
    assert "pipeline interval" in out
    assert "slo serving:" in out
    assert "results identical" in out
    assert "timeline:" in out
    assert trace.exists()
