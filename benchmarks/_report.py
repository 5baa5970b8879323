"""Shared helpers for the benchmark harness.

Each bench regenerates one paper artifact and *emits* its report: the
table is printed (visible with ``pytest -s``) and persisted under
``benchmarks/reports/`` so the regenerated rows survive pytest's output
capture.

Runs are parameterized by environment (no pytest flags needed, so the
same knobs work in CI):

* ``REPRO_BENCH_BUDGET`` — ``fast`` (default) or ``paper``;
* ``REPRO_BENCH_WORKERS`` — the level-1 sub-problem pool size
  (``budget.level1.workers``) of every :func:`search_budget`/
  :func:`quick_budget` consumer: sessions build the pool themselves,
  benches that build ``Level1Search`` directly take one from
  :func:`subproblem_pool`. Level-2 GAs always run serial; results stay
  bit-identical, so the speedup contracts are unaffected. Recorded in
  every JSON payload so multi-core runs are reproducible from the
  report alone;
* ``REPRO_COLD_START_BASELINE`` — another tree's ``src`` directory,
  which ``bench_cold_start.py`` times interleaved with this tree's
  (unset: this tree alone).
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.core.ga import GAConfig, ProcessPoolBackend, SearchBudget

REPORT_DIR = Path(__file__).parent / "reports"

#: Machine-readable perf trajectory at the repo root: headline numbers
#: from the asserting hot-path benches, merged across benches of one
#: run into one diffable, version-controlled artifact (unlike the
#: gitignored per-bench reports under ``benchmarks/reports/``).
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_hot_paths.json"

#: The serving-load trajectory: p50/p99 latency, throughput and shed
#: rate of the SLO frontend under the three traffic mixes of
#: ``bench_serving.py``. Kept separate from the hot-path file because
#: it tracks a different axis (traffic discipline, not kernel speed)
#: and CI uploads it as its own artifact.
SERVING_TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_serving.json"

#: The durability trajectory: cold-start vs store-warm-start wall clock
#: of a fresh ``SloServing`` deployment (``bench_store.py``). Its
#: own file for the same reason as the serving trajectory — it tracks
#: artifact reuse across process trees, not kernel speed.
STORE_TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_store.json"

#: The cost-model validation trajectory: per-step-pattern divergence
#: between the analytical cost model and the event-driven simulator
#: across a zoo sweep (``bench_costmodel.py``), plus the contention
#: derates fitted from it. Its own file because it tracks model
#: *fidelity*, not speed, and CI's validate job gates and uploads it.
COSTMODEL_TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_costmodel.json"

#: The start-up trajectory: wall time, peak RSS and module count of
#: fresh interpreters on the search path, the CLI and a serving
#: frontend (``bench_cold_start.py``). Its own file because it tracks
#: what a process pays before it does any work, not kernel speed.
COLD_START_TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_cold_start.json"


def bench_workers() -> int:
    """Sub-problem pool size for this run (``REPRO_BENCH_WORKERS``)."""
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


@contextmanager
def subproblem_pool(
    budget: SearchBudget,
) -> Iterator[ProcessPoolBackend | None]:
    """The pool ``budget.level1.workers`` asks for, for benches that
    build ``Level1Search`` directly (``None`` when serial); closed on
    exit, as a session closes its own."""
    if budget.level1.workers == 1:
        yield None
        return
    with ProcessPoolBackend(budget.level1.workers) as pool:
        yield pool


def bench_shards() -> int:
    """Shard worker processes for the sharded-serving bench
    (``REPRO_BENCH_SHARDS``, default 2)."""
    return max(1, int(os.environ.get("REPRO_BENCH_SHARDS", "2")))


def cold_start_baseline() -> Path | None:
    """The baseline ``src`` the cold-start bench interleaves with this
    tree's (``REPRO_COLD_START_BASELINE``; ``None`` when unset)."""
    path = os.environ.get("REPRO_COLD_START_BASELINE")
    return Path(path).resolve() if path else None


def budget_name() -> str:
    """The selected search-budget name (``fast`` or ``paper``)."""
    if os.environ.get("REPRO_BENCH_BUDGET", "fast").lower() == "paper":
        return "paper"
    return "fast"


def run_metadata() -> dict:
    """Reproducibility metadata attached to every JSON report."""
    if hasattr(os, "sched_getaffinity"):  # absent on macOS/Windows
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return {
        "budget": budget_name(),
        "workers": bench_workers(),
        "cpus": cpus,
    }


def emit(name: str, text: str) -> None:
    """Print a report and persist it to ``benchmarks/reports/{name}.txt``."""
    print(f"\n{text}\n")
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Persist machine-readable numbers to ``reports/BENCH_{name}.json``.

    Companion to :func:`emit`: the text report is for humans, the JSON
    one feeds regression tooling (CI trend lines, cross-run diffing).
    The run's metadata (budget, workers, cpus) rides along under
    ``meta`` so a multi-core or paper-budget run is distinguishable
    from the default configuration after the fact.
    """
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"BENCH_{name}.json"
    payload = {**payload, "meta": run_metadata()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_trajectory(name: str, payload: dict, path: Path | None = None) -> None:
    """Merge one bench's headline numbers into a repo-root trajectory.

    Defaults to ``BENCH_hot_paths.json``, which accumulates the
    asserting hot-path benches of a run (layer cache, warm sessions,
    batch decode) under one key per bench; the serving bench passes
    :data:`SERVING_TRAJECTORY_PATH` to keep its traffic numbers in
    ``BENCH_serving.json`` instead. Trajectory files are committed, so
    the repository carries its current perf numbers; any bench run
    (including the CI smoke, in its workspace) regenerates them in
    place — re-commit when the numbers move to keep the trajectory
    honest.
    """
    if path is None:
        path = TRAJECTORY_PATH
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data[name] = payload
    data["meta"] = run_metadata()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def search_budget() -> SearchBudget:
    """Search budget for benches.

    Defaults to the fast budget so the full harness completes in
    minutes; set ``REPRO_BENCH_BUDGET=paper`` for the larger budget used
    to produce EXPERIMENTS.md. ``REPRO_BENCH_WORKERS`` sizes the level-1
    sub-problem pool (bit-identical results; wall-clock only).
    """
    budget = (
        SearchBudget.paper() if budget_name() == "paper" else SearchBudget.fast()
    )
    return budget.with_backend(workers=bench_workers())


def quick_budget() -> SearchBudget:
    """Minimal budget for ablations that run many searches."""
    return SearchBudget(
        level1=GAConfig(
            population_size=6, generations=4, elite_count=1, patience=3
        ),
        level2=GAConfig(
            population_size=8, generations=6, elite_count=1, patience=3
        ),
    ).with_backend(workers=bench_workers())
