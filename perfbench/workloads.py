"""The three workloads: the CLI invocations each one makes, and the checks
that decide, for every operation, whether its output is right.

An operation is one scan, one certification, or one table row.  A check
returns how many of an invocation's operations failed; a wrong exit code
(exit 3, the resource cap, included) fails every operation of that
invocation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

from freqmoments.arith import SturmConfig, primes_up_to, sturm_bound
from freqmoments.congruence import predicted_hits
from freqmoments.moments import ensemble_moments
from freqmoments.qseries import ORDINARY, CoefficientRing

GOLDEN = Path(__file__).resolve().parent / "golden"

# The ROADMAP full-range grid: odd m <= 99 against the primes 5..97.
SCAN_MS = tuple(range(1, 100, 2))
SCAN_ELLS = tuple(p for p in primes_up_to(97).primes if p >= 5)

# Top index N = ell*B + r of the certify-band pairs.  The band holds two
# pairs, (m, m') = (71, 69) at ell = 11 with r = 0 or 6, whose total N
# differ by 12 in 204,744, so the seed changes which progression is proven
# without changing how much work a run measures.  Widening it to 110,000
# adds (73, 75), 5.7% more N and ~9% more work, which moves a run's time by
# more than the benchmark's noise allows.
CERTIFY_BAND = (100_000, 105_000)

# FAIL witnesses are re-derived with exact integers; that path is quadratic
# in big-int work, so it is only trusted this far.
ORACLE_MAX_INDEX = 2_000

# The published tables, in the order ``tables --which all`` prints them:
# (ensemble, m, ell, r, modulus, mode, level 4L, Sturm bound B, max index).
TABLE_ROWS = (
    ("ordinary", 3, 7, 0, 7, "sharp24", 28, 14, 98),
    ("ordinary", 3, 7, 0, 7, "sharp24", 196, 98, 686),
    ("ordinary", 3, 7, 5, 7, "sharp24", 28, 14, 103),
    ("ordinary", 3, 7, 5, 7, "sharp24", 196, 98, 691),
    ("ordinary", 3, 11, 0, 11, "sharp24", 44, 21, 231),
    ("ordinary", 3, 11, 0, 11, "sharp24", 484, 231, 2541),
    ("ordinary", 3, 11, 6, 11, "sharp24", 44, 21, 237),
    ("ordinary", 3, 11, 6, 11, "sharp24", 484, 231, 2547),
    ("ordinary", 7, 11, 6, 11, "sharp24", 44, 45, 501),
    ("ordinary", 7, 11, 6, 11, "sharp24", 484, 495, 5451),
    ("overpartition", 5, 5, 0, 5, "conservative12", 100, 165, 825),
    ("overpartition", 9, 5, 0, 5, "conservative12", 100, 285, 1425),
    ("overpartition", 7, 7, 0, 7, "conservative12", 196, 420, 2940),
    ("overpartition", 13, 7, 0, 7, "conservative12", 196, 756, 5292),
    ("overpartition", 11, 11, 0, 11, "conservative12", 484, 1518, 16698),
    ("overpartition", 13, 13, 0, 13, "conservative12", 676, 2457, 31941),
    ("ordinary", 3, 5, 4, 5, "sharp24", 100, 52, 264),
    ("ordinary", 11, 5, 4, 5, "sharp24", 100, 172, 864),
)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments after ``freqmoments``, the worker count
    they ask for, how many operations it attempts, and its output check."""

    role: str
    argv: tuple[str, ...]
    jobs: int
    operations: int
    check: Callable[[int, bytes], int]

    def traced_argv(self) -> list[str]:
        """The same invocation at --jobs 1, as the traced run makes it."""
        argv = list(self.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    inputs: str  # the generated inputs, printed beside the metrics


# ---------------------------------------------------------------------------
# scan-full
# ---------------------------------------------------------------------------


def _scan_triples(report: dict) -> frozenset[tuple[int, int, int]]:
    classes = report["zero_classes"] + report["nonzero_classes"]
    return frozenset((m, c["ell"], c["r"]) for c in classes for m in c["m"])


def _check_scan(exit_code: int, stdout: bytes) -> int:
    if exit_code != 0:
        return 1
    # the --jobs 1 reference output, byte for byte
    if stdout != (GOLDEN / "scan-full.json").read_bytes():
        return 1
    triples = _scan_triples(json.loads(stdout))
    return 0 if triples == predicted_hits(SCAN_MS, SCAN_ELLS) else 1


def scan_full() -> Workload:
    argv = (
        "scan", "--ensemble", "ordinary", "--m-odd-max", "99", "--ell-max", "97",
        "--nscan", "2000", "--format", "json", "--jobs", "2",
    )
    return Workload(
        "scan-full",
        (Invocation("scan", argv, 2, 1, _check_scan),),
        f"{len(SCAN_MS)} odd m x {len(SCAN_ELLS)} primes, nscan 2000, jobs 2",
    )


# ---------------------------------------------------------------------------
# certify-band
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyPair:
    """A predicted progression (PASS) and its nearest unpredicted partner
    m' with the same ell and r (FAIL)."""

    m: int
    ell: int
    r: int
    n_top: int
    m_fail: int
    n_top_fail: int


def _top_index(m: int, ell: int, r: int) -> int:
    # conservative12 at the safe level: the certify command's defaults
    return ell * sturm_bound(m, SturmConfig(), ell) + r


def certify_pool() -> list[CertifyPair]:
    """Every PASS/FAIL pair whose two top indices lie in CERTIFY_BAND.
    The partner is the nearest odd m' <= 99 that is not predicted; a tie
    goes to the smaller m'."""
    lo, hi = CERTIFY_BAND
    hits = predicted_hits(SCAN_MS, SCAN_ELLS)
    pool = []
    for m, ell, r in sorted(hits):
        top = _top_index(m, ell, r)
        if not lo <= top <= hi:
            continue
        partners = [
            mm for mm in SCAN_MS
            if (mm, ell, r) not in hits and lo <= _top_index(mm, ell, r) <= hi
        ]
        if partners:
            m_fail = min(partners, key=lambda mm: (abs(mm - m), mm))
            pool.append(CertifyPair(m, ell, r, top, m_fail, _top_index(m_fail, ell, r)))
    return pool


def _certify_argv(m: int, ell: int, r: int) -> tuple[str, ...]:
    return (
        "certify", "--ensemble", "ordinary", "--m", str(m), "--ell", str(ell),
        "--r", str(r), "--prime", str(ell), "--format", "json",
    )


@lru_cache(maxsize=None)
def _exact_moments(m: int, n: int) -> tuple[int, ...]:
    series = ensemble_moments(ORDINARY, m, n, CoefficientRing.exact_integers())
    return series.values.coeffs


def _witness_holds(m: int, ell: int, r: int, witness: dict) -> bool:
    """Re-derive a FAIL witness over exact integers: M(ell*j + r) = 0
    (mod ell) for j < n, and M(ell*n + r) = residue != 0 (mod ell)."""
    n, t, residue = witness["n"], witness["t"], witness["residue"]
    if n < 0 or t != ell * n + r or t > ORACLE_MAX_INDEX:
        return False
    exact = _exact_moments(m, t)
    if any(exact[ell * j + r] % ell for j in range(n)):
        return False
    return residue != 0 and exact[t] % ell == residue


def _certify_check(m: int, ell: int, r: int, n_top: int, expect_pass: bool):
    def check(exit_code: int, stdout: bytes) -> int:
        if exit_code != (0 if expect_pass else 1):
            return 1
        records = json.loads(stdout)
        if len(records) != 1:
            return 1
        rec = records[0]
        if (rec["ensemble"], rec["m"], rec["ell"], rec["r"], rec["modulus"]) != (
            "ordinary", m, ell, r, ell
        ):
            return 1
        if rec["bound_B"] != (n_top - r) // ell:
            return 1
        if expect_pass:
            ok = (
                rec["status"] == "PASS"
                and rec["fail_witness"] is None
                and rec["max_index_checked"] == n_top
            )
        else:
            ok = (
                rec["status"] == "FAIL"
                and rec["fail_witness"] is not None
                and _witness_holds(m, ell, r, rec["fail_witness"])
            )
        return 0 if ok else 1

    return check


def certify_band(seed: int) -> Workload:
    pool = certify_pool()
    p = random.Random(seed).choice(pool)
    return Workload(
        "certify-band",
        (
            Invocation(
                "pass", _certify_argv(p.m, p.ell, p.r), 1, 1,
                _certify_check(p.m, p.ell, p.r, p.n_top, True),
            ),
            Invocation(
                "fail", _certify_argv(p.m_fail, p.ell, p.r), 1, 1,
                _certify_check(p.m_fail, p.ell, p.r, p.n_top_fail, False),
            ),
        ),
        f"PASS (m={p.m}, ell={p.ell}, r={p.r}, N={p.n_top}), "
        f"FAIL (m={p.m_fail}, ell={p.ell}, r={p.r}, N={p.n_top_fail}); "
        f"pair chosen from a pool of {len(pool)}",
    )


# ---------------------------------------------------------------------------
# tables-all
# ---------------------------------------------------------------------------


def _check_tables(exit_code: int, stdout: bytes) -> int:
    if exit_code != 0:
        return len(TABLE_ROWS)
    records = json.loads(stdout)
    failed = abs(len(records) - len(TABLE_ROWS))
    for rec, row in zip(records, TABLE_ROWS):
        got = (
            rec["ensemble"], rec["m"], rec["ell"], rec["r"], rec["modulus"], rec["mode"],
            rec["level"], rec["bound_B"], rec["max_index_checked"],
        )
        if got != row or rec["status"] != "PASS":
            failed += 1
    return min(failed, len(TABLE_ROWS))


def tables_all() -> Workload:
    argv = ("tables", "--which", "all", "--format", "json")
    return Workload(
        "tables-all",
        (Invocation("tables", argv, 1, len(TABLE_ROWS), _check_tables),),
        f"{len(TABLE_ROWS)} published rows",
    )


def build(name: str, seed: int) -> Workload:
    if name == "scan-full":
        return scan_full()
    if name == "certify-band":
        return certify_band(seed)
    if name == "tables-all":
        return tables_all()
    raise ValueError(f"unknown workload {name!r}")
