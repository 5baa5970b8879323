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
"""

import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _report import (
    COLD_START_TRAJECTORY_PATH,
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


def _launch(*args: str) -> tuple[float, float, str]:
    """Launch and exit times (monotonic, comparable across processes)
    of a fresh interpreter on this tree's ``src``, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
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


def bench_cold_start():
    """Fresh-interpreter start-up of the search path, CLI and frontend."""
    compileall.compile_dir(str(SRC), quiet=1)
    readings: dict[str, list[float]] = {
        "search_path.wall_s": [],
        "search_path.peak_rss_mb": [],
        "search_path.modules": [],
        "cli_help.wall_s": [],
        "serving.ready_s": [],
        "serving.tenant_searches_s": [],
    }
    for _ in range(ROUNDS):
        launched, _, stdout = _launch("-c", _SEARCH_PATH)
        report = _last_json(stdout)
        readings["search_path.wall_s"].append(report["at"] - launched)
        readings["search_path.peak_rss_mb"].append(report["peak_rss_mb"])
        readings["search_path.modules"].append(report["modules"])
        launched, exited, _ = _launch("-m", "repro.experiments", "--help")
        readings["cli_help.wall_s"].append(exited - launched)
        launched, _, stdout = _launch("-c", _SERVING)
        report = _last_json(stdout)
        readings["serving.ready_s"].append(report["at"] - launched)
        readings["serving.tenant_searches_s"].append(report["tenant_searches_s"])

    summaries = {name: _summary(values) for name, values in readings.items()}
    cpus = run_metadata()["cpus"]
    emit(
        "cold_start",
        f"Cold start: {ROUNDS} rounds of fresh interpreters ({cpus} cpus); "
        "median [IQR]\n"
        + "\n".join(
            f"{name:27s}: {summary['median']:9.3f} "
            f"[{summary['iqr'][0]:.3f}, {summary['iqr'][1]:.3f}]"
            for name, summary in summaries.items()
        ),
    )
    emit_trajectory(
        "cold_start",
        {**summaries, "rounds": ROUNDS},
        path=COLD_START_TRAJECTORY_PATH,
    )


if __name__ == "__main__":
    bench_cold_start()
