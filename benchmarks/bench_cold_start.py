"""Cold-start bench: what a fresh process pays before it does any work.

Every search process, CLI run, spawned shard worker and crash respawn
starts a new interpreter, so import time and the memory imports hold
are paid per process. Each round launches fresh interpreters on this
tree's ``src`` and takes three readings:

* ``search_path`` — launch until the search path is imported
  (``repro.core.mapper``, ``repro.core.session``) and resnet34 and
  ``f1_16xlarge()`` are built: wall time, peak RSS and the number of
  loaded modules;
* ``cli_help`` — wall time of ``python -m repro.experiments --help``;
* ``serving`` — launch until ``SloServing(shards=2)`` has both workers
  answering a stats probe (``ready_s``), and apart from it the four
  tenants' cold seed-0 searches through that frontend
  (``tenant_searches_s``).

Rounds interleave the readings so host noise spreads over all three.
``src`` is byte-compiled first, so no reading pays for compiling.
Medians and interquartile ranges land in the repo-root
``BENCH_cold_start.json``; there is no gate. Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cold_start.py -q

Medians of separate runs drift more than a start-up change moves them,
so to compare two trees, point ``REPRO_COLD_START_BASELINE`` at the
other tree's ``src``: each round then takes every reading on both
trees back to back, alternating which goes first, and the JSON gains
the baseline's medians and IQRs (``baseline``) and the median of the
per-round ratios, this tree over the baseline (``ratio``).
"""

import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from _report import (
    COLD_START_TRAJECTORY_PATH,
    cold_start_baseline,
    emit,
    emit_trajectory,
    run_metadata,
)

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 8
TIMEOUT_S = 300
TENANTS = ("tiny_cnn", "tiny_resnet", "squeezenet", "mobilenet_v1")

#: Peak RSS is the child's ``VmHWM``, not its ``ru_maxrss``: Linux
#: carries the launcher's peak across ``exec`` into ``ru_maxrss``, and
#: the launcher (pytest included) can be larger than the child.
_SEARCH_PATH = """
import json, re, sys, time
import repro.core.mapper
import repro.core.session
from repro.dnn import build_model
from repro.system import f1_16xlarge
build_model("resnet34")
f1_16xlarge()
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
print(json.dumps({
    "at": time.monotonic(),
    "peak_rss_mb": peak_kb / 1024,
    "modules": len(sys.modules),
}))
"""

_SERVING = f"""
import json, time
from repro.core.frontend import SloServing
from repro.dnn import build_model
from repro.system import f1_16xlarge
graphs = [build_model(name) for name in {TENANTS!r}]
with SloServing(f1_16xlarge(), shards=2) as serving:
    serving.stats(worker_stats=True)
    ready = time.monotonic()
    for future in [serving.submit(graph, seed=0) for graph in graphs]:
        future.result()
    searched = time.monotonic()
print(json.dumps({{"at": ready, "tenant_searches_s": searched - ready}}))
"""


def _launch(src: Path, *args: str) -> tuple[float, float, str]:
    """Launch and exit times (monotonic, comparable across processes)
    of a fresh interpreter on the tree at ``src``, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    launched = time.monotonic()
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=env,
        check=True,
    )
    return launched, time.monotonic(), result.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr": [q1, q3]}


def _search_path(src: Path) -> dict[str, float]:
    launched, _, stdout = _launch(src, "-c", _SEARCH_PATH)
    report = _last_json(stdout)
    return {
        "search_path.wall_s": report["at"] - launched,
        "search_path.peak_rss_mb": report["peak_rss_mb"],
        "search_path.modules": report["modules"],
    }


def _cli_help(src: Path) -> dict[str, float]:
    launched, exited, _ = _launch(src, "-m", "repro.experiments", "--help")
    return {"cli_help.wall_s": exited - launched}


def _serving(src: Path) -> dict[str, float]:
    launched, _, stdout = _launch(src, "-c", _SERVING)
    report = _last_json(stdout)
    return {
        "serving.ready_s": report["at"] - launched,
        "serving.tenant_searches_s": report["tenant_searches_s"],
    }


def bench_cold_start():
    """Fresh-interpreter start-up of the search path, CLI and frontend."""
    trees = {"tree": SRC}
    baseline = cold_start_baseline()
    if baseline is not None:
        trees["baseline"] = baseline
    for src in trees.values():
        compileall.compile_dir(str(src), quiet=1)
    readings: dict[str, dict[str, list[float]]] = {
        tree: defaultdict(list) for tree in trees
    }
    for round_index in range(ROUNDS):
        order = list(trees) if round_index % 2 == 0 else list(trees)[::-1]
        for take in (_search_path, _cli_help, _serving):
            for tree in order:
                for name, value in take(trees[tree]).items():
                    readings[tree][name].append(value)

    summaries = {
        name: _summary(values) for name, values in readings["tree"].items()
    }
    payload = {**summaries, "rounds": ROUNDS}
    lines = [
        f"{name:27s}: {summary['median']:9.3f} "
        f"[{summary['iqr'][0]:.3f}, {summary['iqr'][1]:.3f}]"
        for name, summary in summaries.items()
    ]
    if baseline is not None:
        payload["baseline"] = {
            name: _summary(values)
            for name, values in readings["baseline"].items()
        }
        payload["ratio"] = {
            name: statistics.median(
                ours / theirs
                for ours, theirs in zip(values, readings["baseline"][name])
            )
            for name, values in readings["tree"].items()
        }
        lines = [
            f"{line}   baseline {payload['baseline'][name]['median']:9.3f}"
            f"   ratio {payload['ratio'][name]:.3f}"
            for line, name in zip(lines, summaries)
        ]
    cpus = run_metadata()["cpus"]
    emit(
        "cold_start",
        f"Cold start: {ROUNDS} rounds of fresh interpreters ({cpus} cpus); "
        "median [IQR]"
        + (f"; baseline {baseline}" if baseline is not None else "")
        + "\n"
        + "\n".join(lines),
    )
    emit_trajectory("cold_start", payload, path=COLD_START_TRAJECTORY_PATH)


if __name__ == "__main__":
    bench_cold_start()
