"""Benchmark entry point for the MARS reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 20 --trace 0

Each measurement runs ``perfbench/workload.py`` in a child process that
leads its own process group. ``--trace 0`` makes set-up probes and one
measured run, and prints every end-to-end metric of ``BENCHMARK.json``
(``setup_s`` is the median of all the set-ups).
``--trace 1`` makes one untraced and one traced run of the same seed,
requires their results to be bit-identical, and prints every per-layer
metric (zero for a layer the workload leaves idle). The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``, with
``"correct": false`` and no metrics when a check failed; progress
and a readable summary go to stderr, and each child's full record
(inputs, metadata, per-operation latencies, spans) stays under
``.perfbench_runs/``.

No process outlives a run: this process becomes the subreaper of
everything its children start; a timeout, SIGTERM or SIGINT stops the
child with SIGTERM (it closes its sessions and frontends in
``finally``) and then SIGKILLs its whole group; and after every child
the process table is scanned for members of its group, each survivor
failing the run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
RUNS_DIR = ".perfbench_runs"
#: Extra fresh-interpreter set-ups per --trace 0 run.
SETUP_PROBES = 4
#: How long a child may take to close down after SIGTERM.
TERM_GRACE_S = 20.0
#: How long a finished child's group may take to empty on its own.
STRAGGLER_GRACE_S = 5.0
#: The whole command must end within 180 s.
BUDGET_S = 170.0
_PR_SET_CHILD_SUBREAPER = 36


class RunFailed(Exception):
    """A child crashed, timed out or left a process behind."""


def prctl(option: int, value: int) -> None:
    """Linux ``prctl(option, value)``; a no-op where libc lacks it."""
    try:
        call = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    call.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    call.restype = ctypes.c_int
    call(option, value, 0, 0, 0)


def exit_on_signals() -> None:
    """Turn the first SIGTERM/SIGINT into ``SystemExit`` so every
    ``finally`` runs; later ones are ignored so they cannot cut that
    clean-up short."""

    def handler(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


def proc_stats():
    """(pid, fields after the command name) of every ``/proc/<pid>/stat``:
    fields[0] is the state, [1] the parent, [2] the process group."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                yield int(entry), stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    return [
        pid for pid, fields in proc_stats()
        if int(fields[2]) == pgid and fields[0] != "Z"
    ]


def reap() -> None:
    """Collect every exited descendant handed to us as subreaper."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sweep(pgid: int) -> int:
    """Collect what is left of a finished child's group; count survivors.

    Members get :data:`STRAGGLER_GRACE_S` to exit on their own (the
    ``multiprocessing`` resource tracker ends just after its parent);
    whatever is still alive then is a survivor, and is killed and
    reaped.
    """
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    while True:
        reap()
        survivors = group_members(pgid)
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    deadline = time.monotonic() + 10.0
    while group_members(pgid) and time.monotonic() < deadline:
        kill_group(pgid)
        time.sleep(0.05)
        reap()
    if group_members(pgid):
        raise RunFailed(f"process group {pgid} could not be killed")
    return len(survivors)


def run_child(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload child to completion or to ``deadline``.

    Returns the child's launch time (monotonic) and its output file,
    with its exit code added. Raises :class:`RunFailed` on timeout, an
    exit without output, or a process left behind.
    """
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    launched = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, WORKLOAD, *argv],
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            kill_group(child.pid)
            child.wait()
        sweep(child.pid)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunFailed(f"{argv} timed out") from None
        raise
    survivors = sweep(child.pid)
    if survivors:
        raise RunFailed(f"{survivors} process(es) outlived {argv}")
    if not os.path.exists(out):
        raise RunFailed(f"{argv} exited with {code} and no output")
    with open(out) as handle:
        result = json.load(handle)
    result["exit_code"] = code
    return launched, result


def load_benchmark() -> dict:
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def measure(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """--trace 0: set-up probes plus one measured run."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    for index in range(SETUP_PROBES):
        launched, probe = run_child(
            [*common, "--setup-only",
             "--out", os.path.join(workdir, f"probe{index}.json")],
            deadline,
        )
        if probe["exit_code"] != 0:
            return probe, {}
        setups.append((probe["ready_at"] - launched) / probe["ready_slowdown"])
    launched, main = run_child(
        [*common, "--trace", "0", "--out", os.path.join(workdir, "main.json")],
        deadline,
    )
    setups.append((main["ready_at"] - launched) / main["ready_slowdown"])
    metrics = dict(main.get("end_to_end", {}))
    metrics["setup_s"] = statistics.median(setups)
    return main, metrics


def trace(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """--trace 1: an untraced and a traced run of the same seed."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    _, plain = run_child(
        [*common, "--trace", "0", "--out", os.path.join(workdir, "plain.json")],
        deadline,
    )
    if plain["exit_code"] != 0:
        return plain, {}
    _, traced = run_child(
        [*common, "--trace", "1", "--out", os.path.join(workdir, "traced.json")],
        deadline,
    )
    if traced["fingerprints"] != plain["fingerprints"]:
        traced["checks"]["failures"].append(
            "traced results differ from the untraced run's"
        )
        traced["exit_code"] = 1
    metrics = dict(traced.get("layers", {}))
    metrics.update(plain["untraced_layers"])
    metrics["proc.trace_overhead"] = traced["headline_s"] / plain["headline_s"]
    return traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a MARS checkout (no src/repro)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S - TERM_GRACE_S
    spec = load_benchmark()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Orphans of our children reparent here, so we can reap them.
    prctl(_PR_SET_CHILD_SUBREAPER, 1)
    exit_on_signals()
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            result, values = trace(args, workdir, deadline)
            wanted = spec["per_layer"]
        else:
            result, values = measure(args, workdir, deadline)
            wanted = spec["end_to_end"]
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for failure in result["checks"]["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    correct = result["exit_code"] == 0 and not result["checks"]["failures"]
    if not values:
        emit(False, result, {})
        return 1
    metrics = {}
    for metric in wanted:
        # A per-layer metric of a layer this workload leaves idle reads 0.
        value = values.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            print(f"perfbench: no value for {metric['name']}", file=sys.stderr)
            return 3
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    record = result["record"]
    tails = ", ".join(
        f"{kind} tail at p{record[key]:.1f}"
        for kind, key in (("search", "search_tail_pct"), ("serve", "serve_tail_pct"))
        if key in record
    )
    counts = {k: v for k, v in result["checks"].items() if k != "failures"}
    print(
        f"perfbench: {args.workload} seed {args.seed}: {record.get('samples')} "
        f"samples; {tails}; checks {counts}",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    emit(correct, result, metrics)
    return 0 if correct else 1


def emit(correct: bool, result: dict, metrics: dict) -> None:
    """Print the result line; a failed set-up probe counts as one
    attempted operation."""
    print(json.dumps({
        "correct": correct,
        "attempted": result.get("attempted", 1),
        "failed": result.get("failed", 0),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
