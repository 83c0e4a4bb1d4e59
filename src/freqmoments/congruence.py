"""Progression projection, heuristic congruence scanning, and Sturm-bound
certification.

The pipeline is scan-then-certify: a cheap pass over the moment series up
to n_scan filters candidate progressions M(ell*n + r) = 0 (mod ell), and
survivors are proven by checking every projected coefficient up to the
half-integral Sturm bound.  A PASS record together with the bound is a
proof for all n; a FAIL record carries the first counterexample and
refutes the congruence outright.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import lcm

import numpy as np

from .arith import SturmConfig, is_prime, sturm_bound_for_level
from .divisorweights import (
    DirichletCharacterSpec,
    DivisorWeight,
    GlaisherFilter,
    _divisor_sums_mod,
    _weight_terms_mod,
    _weight_values_mod,
    filter_modular_data,
    weighted_sigma_table,
)
# master_transform stays importable here: perfbench/tracing.py wraps
# congruence.master_transform by name
from .moments import MomentSeries, fermat_reduce, master_transform  # noqa: F401
from .qseries import (
    CoefficientRing,
    Ensemble,
    Series,
    _convolve_mod,
    companion_series,
    ORDINARY,
    OVERPARTITION,
)

__all__ = [
    "CertificationRecord",
    "DEFAULT_COEFF_BUDGET",
    "Progression",
    "ResourceLimitError",
    "ScanReport",
    "certify",
    "certify_batch",
    "certify_filtered",
    "predicted_hits",
    "project",
    "records_to_csv",
    "records_to_json",
    "records_to_text",
    "scan",
    "scan_report_to_csv",
    "scan_report_to_json",
    "scan_report_to_text",
]

DEFAULT_COEFF_BUDGET = 1 << 25

# certify checks projected rows 0..min(B, _PROBE_ROWS) before building the
# series for all B + 1 rows
_PROBE_ROWS = 64


class ResourceLimitError(RuntimeError):
    """A requested series would exceed the configured coefficient budget."""


@dataclass(frozen=True)
class Progression:
    """The arithmetic progression ell*n + r for a prime ell."""

    ell: int
    r: int

    def __post_init__(self) -> None:
        if not is_prime(self.ell):
            raise ValueError(f"ell={self.ell} must be prime")
        if not 0 <= self.r < self.ell:
            raise ValueError(f"residue r={self.r} out of range for ell={self.ell}")


def project(moments: MomentSeries, prog: Progression) -> Series:
    """The subsequence M(ell*n + r) for 0 <= n <= floor((N - r)/ell).

    Residues r >= ell are rejected by Progression itself.
    """
    if moments.n_max < prog.r:
        raise ValueError("series too short to contain the residue class")
    return Series(moments.ring, moments.values.coeffs[prog.r :: prog.ell])


@dataclass(frozen=True)
class CertificationRecord:
    """One certification outcome, mirroring the published table rows."""

    ensemble: str
    weight: str
    m: int
    ell: int
    r: int
    modulus: int
    mode: str
    level_model: str
    level: int  # the full 4L
    bound_b: int
    max_index_checked: int
    status: str  # "PASS" or "FAIL"
    fail_witness: tuple[int, int, int] | None = None  # (n, t, residue)

    def to_json_dict(self) -> dict:
        witness = None
        if self.fail_witness is not None:
            n, t, residue = self.fail_witness
            witness = {"n": n, "t": t, "residue": residue}
        return {
            "ensemble": self.ensemble,
            "weight": self.weight,
            "m": self.m,
            "ell": self.ell,
            "r": self.r,
            "modulus": self.modulus,
            "mode": self.mode,
            "level": self.level,
            "bound_B": self.bound_b,
            "max_index_checked": self.max_index_checked,
            "status": self.status,
            "fail_witness": witness,
        }

    def csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.m,
                self.ell,
                self.r,
                self.modulus,
                self.level // 4,
                self.level_model,
                self.bound_b,
                self.max_index_checked,
                self.status,
            )
        )


CSV_HEADER = "m,ell,r,prime,L,model,sturm_B,max_index,status"


def _projected_moment_values(sigma: Series, comp: Series, ell: int, r: int, count: int):
    """Yield M(ell*n + r) mod modulus for n = 0..count-1 in order.

    With t = ell*n + r and d = ell*i + j (0 <= j < ell), the term
    sigma(d) comp(t - d) of M(t) has t - d = ell*(n - i) + (r - j) when
    j <= r and ell*(n - i - 1) + (ell + r - j) when j > r.  So, writing
    x_j for the phase x[j::ell], the projection is the polyphase sum

        M(ell*n + r) = sum_{j <= r} (sigma_j * comp_{r-j})[n]
                     + sum_{j > r} (sigma_j * comp_{ell+r-j})[n - 1]

    of ell truncated products of about count terms each, every one a
    qseries._convolve_mod with its exactness.  Besides int64 copies of the
    two series, each product needs memory O(count), not O(ell * count) as
    one product over the whole series would.  sigma(0) = 0, so the d = 0
    term adds nothing and this is the transform.
    """
    modulus = sigma.ring.modulus
    assert modulus is not None
    top = ell * (count - 1) + r + 1
    if modulus < 2**63:
        sig = np.array(sigma.coeffs[:top], dtype=np.int64)
        cmp = np.array(comp.coeffs[:top], dtype=np.int64)
    else:
        sig, cmp = sigma.coeffs[:top], comp.coeffs[:top]
    # each product is reduced, so the sum of ell of them stays below ell * modulus
    total = np.zeros(count, dtype=np.int64 if ell * modulus < 2**63 else object)
    for j in range(ell):
        shift = 0 if j <= r else 1
        rows = count - shift
        if rows > 0:
            part = _convolve_mod(sig[j::ell][:rows], cmp[(r - j) % ell :: ell][:rows], modulus)
            total[shift:] += part.astype(total.dtype, copy=False)
    yield from (total % modulus).tolist()


def filtered_safe_level(ell: int, conductor: int, level_model: str) -> int:
    """Level parameter L for a twisted certification: lcm(ell, conductor),
    squared in the safe model.  Generalizes the single published instance
    4 * 5^2 where conductor = ell = 5."""
    base = lcm(ell, conductor)
    return base * base if level_model == "safe" else base


def _level(weight: DivisorWeight, ell: int, config: SturmConfig) -> int:
    """The L of Gamma0(4L) a certification of this weight runs at."""
    sel = weight.selector
    if config.level_model == "custom" or not isinstance(
        sel, (DirichletCharacterSpec, GlaisherFilter)
    ):
        return config.resolve_level(ell)
    if isinstance(sel, DirichletCharacterSpec):
        conductor = sel.level_factor
    else:
        conductor = filter_modular_data(sel, weight.exponent).level // 4
    return filtered_safe_level(ell, conductor, config.level_model)


def certify(
    ensemble: Ensemble,
    m: int,
    prog: Progression,
    modulus: int,
    config: SturmConfig,
    *,
    weight: DivisorWeight | None = None,
    max_coeffs: int = DEFAULT_COEFF_BUDGET,
) -> CertificationRecord:
    """Check M(ell*n + r) = 0 (mod modulus) for 0 <= n <= B, where B is the
    Sturm bound for weight m + 1/2 on Gamma0(4L).  A PASS proves the
    congruence for all n >= 0; a FAIL refutes it with the first bad
    coefficient.

    weight defaults to the ensemble's canonical c(d) * d^m; its exponent
    must equal m.  The level rule: a custom level model takes L as given;
    plain and canonical weights take L = ell (natural) or ell^2 (safe); a
    character or filter weight takes L = lcm(ell, conductor) (natural) or
    its square (safe), where the conductor is the character's level factor
    or the filter's level over 4.  The record stores 4L, so the rule is
    auditable.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and >= 1")
    if not is_prime(modulus):
        raise ValueError("modulus must be prime")
    if weight is None:
        weight = DivisorWeight(m, ensemble.exponents)
    elif weight.exponent != m:
        raise ValueError("weight exponent disagrees with m")
    level = _level(weight, prog.ell, config)
    bound = sturm_bound_for_level(m, config.mode, level)
    n_max = prog.ell * bound + prog.r
    if n_max + 1 > max_coeffs:
        raise ResourceLimitError(
            f"certification needs {n_max + 1} coefficients, over the budget of {max_coeffs}"
        )
    ring = CoefficientRing.integers_mod(modulus)
    witness = None
    # a short probe first: a FAIL usually shows in its first rows, and then
    # the series up to n_max are never built
    for rows in sorted({min(bound, _PROBE_ROWS), bound}):
        top = prog.ell * rows + prog.r
        # the companion first, so that its FFT workspace is freed before
        # sigma's table is built
        comp = companion_series(ensemble, top, ring)
        sigma = weighted_sigma_table(weight, top, ring)
        values = _projected_moment_values(sigma, comp, prog.ell, prog.r, rows + 1)
        for n, value in enumerate(values):
            if value != 0:
                witness = (n, prog.ell * n + prog.r, value)
                break
        if witness is not None:
            break
    max_index = n_max if witness is None else witness[1]
    return CertificationRecord(
        ensemble.name, weight.describe(), m, prog.ell, prog.r, modulus,
        config.mode, config.level_model, 4 * level, bound,
        max_index_checked=max_index,
        status="PASS" if witness is None else "FAIL",
        fail_witness=witness,
    )


def certify_filtered(
    weight: DivisorWeight,
    m: int,
    prog: Progression,
    modulus: int,
    config: SturmConfig,
    *,
    ensemble: Ensemble = ORDINARY,
    max_coeffs: int = DEFAULT_COEFF_BUDGET,
) -> CertificationRecord:
    """certify() for a character-twisted or filtered weight; any other
    weight is refused."""
    if not isinstance(weight.selector, (DirichletCharacterSpec, GlaisherFilter)):
        raise ValueError("filtered certification needs a character or filter weight")
    return certify(ensemble, m, prog, modulus, config, weight=weight, max_coeffs=max_coeffs)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Discovered progressions grouped by (ell, r) -> sorted list of m."""

    ensemble: str
    weight_family: str
    ms: tuple[int, ...]
    ells: tuple[int, ...]
    n_scan: int
    include_r0: bool
    hits: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def hit_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self.hits)

    def zero_class(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {key: ms for key, ms in self.hits if key[1] == 0}

    def nonzero_class(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {key: ms for key, ms in self.hits if key[1] != 0}

    def triples(self) -> frozenset[tuple[int, int, int]]:
        """All (m, ell, r) hit triples, for diffing against predictions."""
        return frozenset(
            (m, ell, r) for (ell, r), ms in self.hits for m in ms
        )


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a pool: never more than the tasks to run or the
    CPUs this process may run on (its affinity set, or every CPU where the
    platform cannot tell).  1 means run in this process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, tasks, cpus))


# A scan block holds at most max(1, _SCAN_BLOCK_COEFFS // S) Fermat classes
# at FFT size S, which bounds the FFT tier's workspace for the block.
_SCAN_BLOCK_COEFFS = 1 << 16


def _scan_task(args) -> list[tuple[int, int, tuple[int, ...]]]:
    """Scan every requested m at one prime ell as one batch: one companion,
    then the moments of all Fermat classes of m as (classes, n_scan + 1)
    int64 blocks.

    d^m = d^mbar (mod ell) for every d >= 1 when m = mbar (mod ell - 1) and
    m, mbar >= 1, for canonical, twisted and filtered weights alike, so all
    m of a class share their moments mod ell.  mbar = (m - 1) % (ell - 1) + 1
    is fermat_reduce for ell >= 5 and stays >= 1 at ell = 2 and 3.

    The weight w(d) mod ell does not depend on the class, so it is built
    once per ell.  A block's sigma rows are its classes' terms w(d) * d^mbar
    summed over divisors by the same slices for every row, and its moments
    are one _convolve_mod of the block against the companion: the guards of
    each tier hold per row, the FFT tier checks the 1/4 bound over the whole
    block, and a failed check sends every row through the lower tiers.  A
    block holds at most max(1, _SCAN_BLOCK_COEFFS // S) classes at FFT size
    S.  The residue check reads each block as (classes, rows, ell).
    """
    ensemble, weight_selector, ms, ell, n_scan, include_r0 = args
    ring = CoefficientRing.integers_mod(ell)
    comp = np.array(companion_series(ensemble, n_scan, ring).coeffs, dtype=np.int64)
    classes: dict[int, list[int]] = {}
    for m in ms:
        classes.setdefault((m - 1) % (ell - 1) + 1, []).append(m)
    mbars = list(classes)
    selector = ensemble.exponents if weight_selector is None else weight_selector
    w = _weight_values_mod(DivisorWeight(mbars[0], selector), n_scan, ell)
    rows = -(-(n_scan + 1) // ell)
    size = 1 << (2 * n_scan).bit_length()  # _convolve_mod's FFT size
    per_block = max(1, _SCAN_BLOCK_COEFFS // size)
    out = []
    for start in range(0, len(mbars), per_block):
        exponents = mbars[start : start + per_block]
        sigma = _divisor_sums_mod(_weight_terms_mod(exponents, w, n_scan, ell), ell)
        values = np.zeros((len(exponents), rows * ell), dtype=bool)
        values[:, : n_scan + 1] = _convolve_mod(sigma, comp, ell) != 0
        values[:, 0] = False  # the r = 0 class starts at t = ell
        vanishing = ~values.reshape(len(exponents), rows, ell).any(axis=1)
        if not include_r0:
            vanishing[:, 0] = False
        for mbar, good in zip(exponents, vanishing):
            residues = tuple(np.flatnonzero(good).tolist())
            out.extend((m, ell, residues) for m in classes[mbar])
    return out


def scan(
    ensemble: Ensemble,
    ms,
    ells,
    n_scan: int = 2000,
    *,
    include_r0: bool = True,
    weight_selector: DirichletCharacterSpec | GlaisherFilter | None = None,
    jobs: int = 1,
    max_coeffs: int = DEFAULT_COEFF_BUDGET,
) -> ScanReport:
    """For each odd m and prime ell, record every residue class r whose
    projected moment entries all vanish mod ell up to n_scan.

    weight_selector switches the divisor weights from the ensemble's
    canonical c(d) * d^m to a twisted or filtered rule.  Results are merged
    in sorted order, so any parallelism degree gives identical reports.
    A scan needing more than max_coeffs coefficients per series raises
    ResourceLimitError before anything is built.
    """
    ms = tuple(sorted(set(ms)))
    ells = tuple(sorted(set(ells)))
    if not ms or not ells:
        raise ValueError("need at least one m and one ell")
    if any(m < 1 or m % 2 == 0 for m in ms):
        raise ValueError("scan weights must be odd m >= 1")
    if any(not is_prime(ell) for ell in ells):
        raise ValueError("scan moduli must be prime")
    if n_scan < max(ells):
        raise ValueError("n_scan must be at least the largest prime scanned")
    if n_scan + 1 > max_coeffs:
        raise ResourceLimitError(
            f"scan needs {n_scan + 1} coefficients, over the budget of {max_coeffs}"
        )
    if n_scan * (ells[-1] - 1) >= 2**63:
        raise ResourceLimitError("scan divisor sums of n_scan residues would overflow int64")
    # one task per ell, largest first: it has the most Fermat classes
    tasks = [(ensemble, weight_selector, ms, ell, n_scan, include_r0) for ell in reversed(ells)]
    workers = _pool_size(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_task, tasks))
    else:
        results = [_scan_task(t) for t in tasks]
    grouped: dict[tuple[int, int], list[int]] = {}
    for m, ell, residues in (row for rows in results for row in rows):
        for r in residues:
            grouped.setdefault((ell, r), []).append(m)
    hits = tuple(
        (key, tuple(sorted(grouped[key]))) for key in sorted(grouped)
    )
    if weight_selector is None:
        family = "canonical"
    elif isinstance(weight_selector, DirichletCharacterSpec):
        family = f"chi={weight_selector.describe()}"
    else:
        family = f"filter={weight_selector.describe()}"
    return ScanReport(ensemble.name, family, ms, ells, n_scan, include_r0, hits)


def certify_batch(tasks, *, jobs: int = 1) -> list[CertificationRecord]:
    """Run a list of certification task tuples, optionally in parallel.

    Each task is (ensemble, m, prog, modulus, config) or the same with a
    weight appended.  Results come back in task order regardless of jobs.
    """
    normalized = [task if len(task) == 6 else (*task, None) for task in tasks]
    workers = _pool_size(jobs, len(normalized))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_certify_task, normalized))
    return [_certify_task(t) for t in normalized]


def _certify_task(task) -> CertificationRecord:
    ensemble, m, prog, modulus, config, weight = task
    return certify(ensemble, m, prog, modulus, config, weight=weight)


# ---------------------------------------------------------------------------
# Closed-form predictions
# ---------------------------------------------------------------------------

_RAMANUJAN_CLASSES = {5: 4, 7: 5, 11: 6}
_BASE_CASES = {
    3: ((7, 0), (7, 5), (11, 0), (11, 6)),
    7: ((11, 6),),
}


def predicted_hits(ms, ells, *, ensemble: Ensemble = ORDINARY) -> frozenset[tuple[int, int, int]]:
    """The closed-form prediction of the (m, ell, r) a scan finds.

    Ordinary partitions:

    (a) r = 0 whenever m = 1 (mod ell - 1);
    (b) the Ramanujan classes (5,4), (7,5), (11,6) whenever m = 1 (mod ell-1);
    (c) the base congruences at reduced exponent 3 (ell in {7, 11}, both the
        zero class and the Ramanujan class) and 7 (ell = 11, class 6),
        lifted to every m with the same Fermat reduction.

    Overpartitions: r = 0 exactly when m = 1 (mod ell - 1), and no nonzero
    class.  Any other ensemble has no rule and raises ValueError.
    """
    if ensemble not in (ORDINARY, OVERPARTITION):
        raise ValueError(f"no predicted hits for the {ensemble.name} ensemble")
    out: set[tuple[int, int, int]] = set()
    for ell in ells:
        if not is_prime(ell) or ell < 5:
            raise ValueError("predictions need primes >= 5")
        for m in ms:
            if m % 2 == 0 or m < 1:
                raise ValueError("predictions need odd m >= 1")
            mbar = fermat_reduce(m, ell)
            if mbar == 1:
                out.add((m, ell, 0))
            if ensemble != ORDINARY:
                continue
            if mbar == 1 and ell in _RAMANUJAN_CLASSES:
                out.add((m, ell, _RAMANUJAN_CLASSES[ell]))
            for ell_base, r in _BASE_CASES.get(mbar, ()):
                if ell_base == ell:
                    out.add((m, ell, r))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def records_to_json(records) -> str:
    payload = [rec.to_json_dict() for rec in records]
    return json.dumps(payload, indent=2) + "\n"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def records_to_text(records) -> str:
    lines = []
    for rec in records:
        head = (
            f"(m={rec.m}, ell={rec.ell}, r={rec.r}) mod {rec.modulus} "
            f"[{rec.mode}/{rec.level_model}, level {rec.level}]: "
            f"B={rec.bound_b}, max index {rec.max_index_checked}: {rec.status}"
        )
        if rec.fail_witness is not None:
            n, t, residue = rec.fail_witness
            head += f" (n={n}, t={t}, residue={residue})"
        lines.append(head)
    return "\n".join(lines) + "\n"


def scan_report_to_json(report: ScanReport) -> str:
    payload = {
        "ensemble": report.ensemble,
        "weight_family": report.weight_family,
        "parameters": {
            "m": list(report.ms),
            "ell": list(report.ells),
            "n_scan": report.n_scan,
            "include_r0": report.include_r0,
        },
        "zero_classes": [
            {"ell": ell, "r": r, "m": list(ms)}
            for (ell, r), ms in report.hits
            if r == 0
        ],
        "nonzero_classes": [
            {"ell": ell, "r": r, "m": list(ms)}
            for (ell, r), ms in report.hits
            if r != 0
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def scan_report_to_csv(report: ScanReport) -> str:
    lines = ["ensemble,m,ell,r,class"]
    for (ell, r), ms in report.hits:
        klass = "zero" if r == 0 else "nonzero"
        for m in ms:
            lines.append(f"{report.ensemble},{m},{ell},{r},{klass}")
    return "\n".join(lines) + "\n"


def scan_report_to_text(report: ScanReport) -> str:
    lines = [
        f"scan: ensemble={report.ensemble} weights={report.weight_family} "
        f"m={list(report.ms)} ell={list(report.ells)} n_scan={report.n_scan}",
        "",
        "=== r = 0 classes ===",
    ]
    zero = report.zero_class()
    if not zero:
        lines.append("(none)")
    else:
        for (ell, r), ms in sorted(zero.items()):
            lines.append(f"(ell,r)=({ell},{r}): m = {list(ms)}")
    lines.extend(["", "=== 1 <= r < ell classes ==="])
    nonzero = report.nonzero_class()
    if not nonzero:
        lines.append("(none)")
    else:
        for (ell, r), ms in sorted(nonzero.items()):
            lines.append(f"(ell,r)=({ell},{r}): m = {list(ms)}")
    return "\n".join(lines) + "\n"
