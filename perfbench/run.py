"""Benchmark runner for the freqmoments CLI.

    python3 perfbench/run.py --workload scan-full --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it runs the
workload's CLI invocations as subprocesses, one at a time (a closed loop
with one client), repeating the workload until ``--seconds`` is used, and
reports the end-to-end metrics as medians over the repetitions.  The run
is pinned to as many CPUs as the workload asks for workers, and each
invocation's wall and CPU time are rescaled to the reference speed of
``accounting.probe``, read on those CPUs around and during it
(``wall_ref_s``, ``cpu_ref_s``), because on a shared host CPU speed drifts
by more than the benchmark's bounds between runs; the raw times are printed
too.  With ``--trace 1`` it makes one untraced pass and one traced pass, in which
``freqmoments.cli.main`` runs in this process at ``--jobs 1`` under the
wrappers in ``tracing.py``, and reports the per-layer metrics.

Every output is checked.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import accounting
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-trace"

WORKLOAD_NAMES = ("scan-full", "certify-band", "tables-all")

# Children still running this long after start are killed and their
# operations counted as failed, so a run ends within its 180 s limit.
RUN_LIMIT_S = 165.0


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _check(inv, exit_code: int, stdout: bytes) -> int:
    """Failed operations of one invocation; unparseable output fails all."""
    try:
        return inv.check(exit_code, stdout)
    except (ValueError, KeyError, TypeError, IndexError):
        return inv.operations


def _run_pass(workload, env, deadline: float) -> list[tuple]:
    """Each invocation of the workload once, in order: (invocation,
    accounting.Completed, failed operations)."""
    out = []
    for inv in workload.invocations:
        argv = [sys.executable, "-m", "freqmoments.cli", *inv.argv]
        done = accounting.spawn(argv, env, WORKDIR, deadline - time.monotonic())
        out.append((inv, done, _check(inv, done.exit_code, done.stdout)))
    return out


def _role_wall(passes: list[list[tuple]], role: str) -> float:
    walls = [done.wall_s for p in passes for inv, done, _ in p if inv.role == role]
    return statistics.median(walls) if walls else 0.0


def timed_run(workload, seconds: int, env, deadline: float) -> tuple[dict, dict, int, int]:
    """Repeat the workload until the next repetition would overrun the
    window; report medians over repetitions."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, env, deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    attempted = sum(inv.operations for p in passes for inv, _, _ in p)
    failed = sum(f for p in passes for _, _, f in p)

    def median_sum(field):
        return statistics.median(sum(getattr(d, field) for _, d, _ in p) for p in passes)

    metrics = {
        "wall_ref_s": median_sum("wall_ref_s"),
        "cpu_ref_s": median_sum("cpu_ref_s"),
        "peak_rss_mb": max(d.peak_rss_mb for p in passes for _, d, _ in p),
    }
    notes = {
        "repetitions": len(passes),
        "wall_s (raw)": f"{median_sum('wall_s'):.6g} s",
        "cpu_s (raw)": f"{median_sum('cpu_s'):.6g} s",
    }
    if any(inv.role == "pass" for inv in workload.invocations):
        notes["proof_s"] = f"{_role_wall(passes, 'pass'):.6g} s"
        notes["refute_s"] = f"{_role_wall(passes, 'fail'):.6g} s"
    return metrics, notes, attempted, failed


def traced_run(workload, seed: int, env, deadline: float) -> tuple[dict, dict, int, int]:
    """One untraced pass, then one traced in-process pass at --jobs 1 whose
    stdout must match the untraced stdout byte for byte."""
    untraced = _run_pass(workload, env, deadline)
    tracer = tracing.Tracer()
    traced = []
    with tracer.installed():
        for inv in workload.invocations:
            traced.append(tracer.run_cli(inv.traced_argv()))
    attempted = failed = 0
    for (inv, done, bad), (code, stdout, _) in zip(untraced, traced):
        attempted += 2 * inv.operations
        failed += bad
        same = hashlib.sha256(stdout).digest() == hashlib.sha256(done.stdout).digest()
        failed += _check(inv, code, stdout) if same else inv.operations
    cpu = sum(done.cpu_s for _, done, _ in untraced)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.pool.efficiency"] = cpu / sum(
        inv.jobs * done.wall_s for inv, done, _ in untraced
    )
    metrics["trace.overhead_frac"] = sum(wall for _, _, wall in traced) / cpu
    metrics["proof_s"] = _role_wall([untraced], "pass")
    metrics["refute_s"] = _role_wall([untraced], "fail")
    trace_file = TRACE_DIR / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_file, {"workload": workload.name, "seed": seed, "inputs": workload.inputs})
    return metrics, {"trace_file": str(trace_file.relative_to(ROOT))}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "freqmoments" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no freqmoments sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports freqmoments, so only once src/ is on the path

    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.build(args.workload, args.seed)
    env = accounting.child_env(SRC)
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, notes, attempted, failed = traced_run(workload, args.seed, env, deadline)
        else:
            # Children inherit this process's CPU affinity, and the probes
            # read the CPUs in it: set-up on one CPU, then the workload on as
            # many as its invocations ask for workers.
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, cpus[:1])
            setup, setup_raw = accounting.setup_seconds(env, WORKDIR, deadline)
            jobs = max(inv.jobs for inv in workload.invocations)
            os.sched_setaffinity(0, cpus[:jobs])
            metrics, notes, attempted, failed = timed_run(workload, args.seconds, env, deadline)
            metrics["setup_s"] = setup
            notes["setup_s (raw)"] = f"{setup_raw:.6g} s"
            notes["cpus"] = f"{cpus[:jobs]} (set-up on {cpus[:1]})"
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"  inputs: {workload.inputs}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"  {name}: {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
