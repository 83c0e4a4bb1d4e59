"""Spawn one CLI process at a time and account for it from the OS.

CPU time and peak resident set come from the rusage that ``os.wait4``
returns for that one child.  That rusage covers the child and every
descendant it waited for (the scan's worker pool), and nothing else, unlike
``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is a running maximum over every
child this process ever reaped.

On a shared host the speed of each CPU drifts, independently of the
other CPUs (by up to ~1.6x within seconds on a 2-vCPU shared VM), so raw
times of the same code spread by 20-35% from run to run.  ``probe`` reads
how fast the CPUs this process may run on are right now, by timing a fixed
pure-Python loop on each.  ``spawn`` takes a reading just before the child starts,
every ``PROBE_EVERY_S`` while it runs and just after it exits, and rescales
the child's times by their mean to the loop's reference speed.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SETUP_SAMPLES = 11

# The probe's median CPU time on the machine baseline.json describes, and
# how often it is read while a child runs.  A reading costs that CPU time
# on each CPU, taken from the child: ~1.5% of its time.
PROBE_REF_S = 0.008
PROBE_EVERY_S = 0.5

# Nonconstant exponents of Euler's pentagonal series up to index 1500, with
# alternating signs: the probe is a sparse subtraction recurrence, the kind
# of interpreted list and small-integer work the CLI spends its time on.
_PROBE_N = 1500
_PROBE_EXPS = sorted({k * (3 * k + d) // 2 for k in range(1, 32) for d in (-1, 1)})
_PROBE_SIGNS = [1 if i % 2 else -1 for i in range(len(_PROBE_EXPS))]

_SETUP_CODE = (
    "import time\n"
    "from freqmoments.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.monotonic()))\n"
)


@dataclass(frozen=True)
class Completed:
    """One finished child: exit code, output, its own resource use, and
    the mean probe reading around and during it."""

    exit_code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    probe_s: float
    started: float  # time.monotonic() at spawn

    @property
    def wall_ref_s(self) -> float:
        """Wall time at the probe's reference speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s

    @property
    def cpu_ref_s(self) -> float:
        """CPU time at the probe's reference speed."""
        return self.cpu_s * PROBE_REF_S / self.probe_s


def child_env(src: Path) -> dict[str, str]:
    """The environment every child runs in: the checkout's sources first,
    and no coefficient-budget override, so the CLI default applies."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("FREQMOMENTS_MAX_COEFFS", None)
    return env


def _probe_pass() -> int:
    coeffs = [1] + [0] * _PROBE_N
    exps, signs = _PROBE_EXPS, _PROBE_SIGNS
    for n in range(1, _PROBE_N + 1):
        acc = 0
        for i in range(len(exps)):
            e = exps[i]
            if e > n:
                break
            if signs[i] > 0:
                acc += coeffs[n - e]
            else:
                acc -= coeffs[n - e]
        coeffs[n] = (coeffs[n] - acc) % 1_000_003
    return coeffs[-1]


def probe() -> float:
    """CPU seconds of one pass of a fixed pure-Python loop, run in this
    process on each CPU of its affinity set in turn and averaged: a reading
    of how fast those CPUs run right now.  CPU time, unlike wall time, does
    not count the share a running child takes of the same CPU.  The loop
    uses no code of the program, so no change to the program moves it."""
    home = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(home):
            os.sched_setaffinity(0, {cpu})
            start = time.process_time()
            _probe_pass()
            readings.append(time.process_time() - start)
    finally:
        os.sched_setaffinity(0, home)
    return statistics.fmean(readings)


def spawn(argv: list[str], env: dict[str, str], workdir: Path, timeout: float) -> Completed:
    """Run argv to completion with stdout and stderr sent to files in
    workdir, timing it from spawn to exit and reading the probe around and
    during it.  A child still running after timeout seconds is killed; its
    exit code is then -9."""
    out_path = workdir / "stdout"
    err_path = workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    readings = [probe()]
    started = time.monotonic()
    start = time.perf_counter()
    deadline = start + max(timeout, 0.01)
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                print(f"killed after {timeout:.0f} s: {' '.join(argv)}", file=sys.stderr)
                break
            exited, _, _ = select.select([pidfd], [], [], min(PROBE_EVERY_S, left))
            if exited:
                break
            readings.append(probe())
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    readings.append(probe())
    return Completed(
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=out_path.read_bytes(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        probe_s=statistics.fmean(readings),
        started=started,
    )


def setup_seconds(env: dict[str, str], workdir: Path, deadline: float) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to having
    ``freqmoments.cli`` imported and ``build_parser()`` returned: at the
    probe's reference speed, and raw.

    One untimed spawn first compiles the bytecode caches, which a user pays
    once per install, not once per run.  ``deadline`` is on the
    ``time.monotonic`` clock.
    """
    argv = [sys.executable, "-c", _SETUP_CODE]
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = spawn(argv, env, workdir, deadline - time.monotonic())
        if done.exit_code != 0:
            err = (workdir / "stderr").read_text(errors="replace").strip()
            raise RuntimeError(f"importing freqmoments.cli failed: {err}")
        if i:
            raw.append(float(done.stdout) - done.started)
            scaled.append(raw[-1] * PROBE_REF_S / done.probe_s)
    return statistics.median(scaled), statistics.median(raw)
