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
from math import lcm
from typing import NamedTuple

import numpy as np

from .arith import SturmConfig, fermat_reduce, is_prime, sturm_bound_for_level
from .divisorweights import (
    DivisorWeight,
    GlaisherFilter,
    _divisor_sums_mod,
    _weight_terms_mod,
    _weight_values_mod,
    weighted_sigma_table,
)
from .qseries import (
    CoefficientRing,
    Ensemble,
    ResourceLimitError,
    Series,
    _convolve_mod,
    companion_block,
    companion_series,
    fits_int64,
    fits_newton,
    # unused here; perfbench/tracing.py wraps congruence.master_transform
    master_transform,  # noqa: F401
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

# certify refuses a companion past fits_newton beyond q^_SCALAR_COMPANION_MAX_N:
# there _divide_by_sparse runs O(N^1.5) interpreted steps, one per term of
# the sparse denominator below q^n for each n.  Mod 1000003, pinned to one
# CPU, the ordinary companion (pentagonal f, about 1.6*sqrt(N) terms) took
# 0.8 s to N = 3*10**4 and 5.2 s to N = 10**5, the overpartition one
# (theta_4, sqrt(N) terms) 0.3 s and 2.8 s; at ell = 281 and
# conservative12/safe (N = 33,400,503) it would run for hours.
_SCALAR_COMPANION_MAX_N = 10**5


class _ProgressionFields(NamedTuple):
    ell: int
    r: int


class Progression(_ProgressionFields):
    """The arithmetic progression ell*n + r for a prime ell."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.ell):
            raise ValueError(f"ell={self.ell} must be prime")
        if not 0 <= self.r < self.ell:
            raise ValueError(f"residue r={self.r} out of range for ell={self.ell}")
        return self


class CertificationRecord(NamedTuple):
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


def _projected_moment_values(sigma: Series, comp: Series, ell: int, r: int, count: int) -> np.ndarray:
    """M(ell*n + r) mod modulus for n = 0..count-1, as an array.

    With t = ell*n + r and d = ell*i + j (0 <= j < ell), the term
    sigma(d) comp(t - d) of M(t) has t - d = ell*(n - i) + (r - j) when
    j <= r and ell*(n - i - 1) + (ell + r - j) when j > r.  So, writing
    x_j for the phase x[j::ell], the projection is the polyphase sum

        M(ell*n + r) = sum_{j <= r} (sigma_j * comp_{r-j})[n]
                     + sum_{j > r} (sigma_j * comp_{ell+r-j})[n - 1]

    of ell truncated products of about count terms each, every one a
    qseries._convolve_mod with its exactness, run on strided views of the
    two series.  Each product needs memory O(count), not O(ell * count) as
    one product over the whole series would.  sigma(0) = 0, so the d = 0
    term adds nothing and this is the transform.
    """
    modulus = sigma.ring.modulus
    assert modulus is not None
    top = ell * (count - 1) + r + 1
    sig, cmp = sigma.coeffs[:top], comp.coeffs[:top]
    # each product is reduced, so the sum of ell of them stays below ell * modulus
    total = np.zeros(count, dtype=np.int64 if ell * modulus < 2**63 else object)
    for j in range(ell):
        shift = 0 if j <= r else 1
        rows = count - shift
        if rows > 0:
            part = _convolve_mod(sig[j::ell][:rows], cmp[(r - j) % ell :: ell][:rows], modulus)
            total[shift:] += part.astype(total.dtype, copy=False)
    return total % modulus


def _first_moments(t: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """M_1(t) = t * b(t) mod modulus, elementwise, for the indices t and
    the companion's b(t) mod modulus.

    The logarithmic derivative of A(q) = prod (1 - q^r)^(-c(r)) gives
    q A'(q) = A(q) * sum_n sigma_c(n) q^n with sigma_c(n) = sum_{d | n}
    c(d) d, so the first moment of the canonical weights is t b(t)
    exactly, for every eta-quotient.  Under fits_int64(1, modulus) the
    product is int64 with t reduced first, so it stays below
    (modulus - 1)**2; otherwise it is formed over Python ints.
    """
    if fits_int64(1, modulus):
        return t % modulus * b.astype(np.int64, copy=False) % modulus
    return t.astype(object) % modulus * b.astype(object) % modulus


class _Plan(NamedTuple):
    """A certification decided before anything is built, by _certify_plan.

    weight is the one certified, the ensemble's canonical c(d) * d^m when
    none was given.  level is the L of Gamma0(4L): config.resolve_level of
    lcm(ell, weight.conductor), that is that lcm (natural), its square
    (safe), or the custom L; the conductor is a twist's or filter's, the
    period of its weights, and 1 for plain and canonical weights.  The
    natural level, and lcm(ell, conductor) for twists and filters, are the
    paper's convention, not a level the code proves the projected moment
    series lives on.  bound is the Sturm bound B at weight m + 1/2 on
    Gamma0(4L), and top = ell*B + r the last moment index checked.

    route is how the values M(ell*n + r), n <= B, are found:
    "zero" when _first_moment_gate holds and modulus divides ell and r, so
    every t = ell*n + r and with it every value t b(t) is 0 and nothing is
    built; "first-moment" for the rest of the gate, t b(t) read off the
    companion by _first_moments, with no sigma table or polyphase product;
    "sigma" for every other weight, the weighted sigma table, built whole
    at each stage, against the companion by _projected_moment_values."""

    weight: DivisorWeight
    level: int
    bound: int
    top: int
    route: str


def _first_moment_gate(ensemble, selector, m, modulus) -> bool:
    """Whether M(t) = M_1(t) = t b(t) (mod modulus) for the weights
    selector(d) * d^m: the ensemble's own canonical weights (selector an
    Ensemble with this eta) and m = 1 (mod modulus - 1), so d^m = d (mod
    modulus) for every d >= 1.  A twist or filter changes the weights and
    the identity with them."""
    return (
        isinstance(selector, Ensemble)
        and selector.eta == ensemble.eta
        and (m - 1) % (modulus - 1) == 0
    )


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
    congruence for all n >= 0 under that bound; a FAIL refutes it with the
    first bad coefficient.

    The weight m + 1/2 is the paper's convention, used by its published
    tables, not a theorem the code proves: mod ell the moment series (the
    companion times sum sigma(d) q^d, quasimodular at m = 1) is a single
    modular form only through E_{ell-1} = 1 and E_2 = E_{ell+1}, which can
    raise the weight and with it B.

    The weight comes from the ensemble's eta-quotient prod_d (q^d;
    q^d)_inf^(-m_d), its own companion, of weight -k/2 with k = sum m_d:
    the moments have weight m + 1 - k/2.  Anything but k = 1 (ordinary
    partitions, overpartitions, coloured(1)) raises ValueError, as does a
    filter whose row in the dictionary names no character.  No bound here
    backs a PASS for them.

    weight defaults to the ensemble's canonical c(d) * d^m; its exponent
    must equal m.  _certify_plan decides the level L (the record stores
    4L, so the rule is auditable), B and the route, as _Plan describes.
    The values come by one of the plan's three routes, "zero",
    "first-moment" or "sigma", with the same record.

    Before anything is built, on every route, a certification needing
    more than max_coeffs coefficients, or a companion past fits_newton
    beyond q^_SCALAR_COMPANION_MAX_N, raises ResourceLimitError.
    """
    plan = _certify_plan(ensemble, m, prog, modulus, config, weight, max_coeffs)
    witness = _first_witness(ensemble, plan, prog, modulus)
    return CertificationRecord(
        ensemble.name, plan.weight.describe(), m, prog.ell, prog.r, modulus,
        config.mode, config.level_model, 4 * plan.level, plan.bound,
        max_index_checked=plan.top if witness is None else witness[1],
        status="PASS" if witness is None else "FAIL",
        fail_witness=witness,
    )


def _first_witness(ensemble, plan, prog, modulus) -> tuple[int, int, int] | None:
    """The first (n, t, value) with value = M(t) != 0 mod modulus, t =
    ell*n + r and n <= plan.bound, or None: none on the zero route, else a
    probe of rows 0..min(bound, _PROBE_ROWS) first, then, unless it found
    one, all bound + 1 rows."""
    if plan.route == "zero":
        return None
    ring = CoefficientRing.integers_mod(modulus)
    # a short probe first: a FAIL usually shows in its first rows, and then
    # the series up to ell*bound + r are never built
    for rows in sorted({min(plan.bound, _PROBE_ROWS), plan.bound}):
        top = prog.ell * rows + prog.r
        # the companion first, so that Newton's FFT workspace is freed
        # before sigma's table is built; the full series continues from the
        # probe's, which companion_block holds
        comp = companion_series(ensemble, top, ring)
        if plan.route == "first-moment":
            t = np.arange(prog.r, top + 1, prog.ell)
            values = _first_moments(t, comp.coeffs[prog.r :: prog.ell], modulus)
        else:
            sigma = weighted_sigma_table(plan.weight, top, ring)
            values = _projected_moment_values(sigma, comp, prog.ell, prog.r, rows + 1)
        nonzero = np.flatnonzero(values)
        if len(nonzero):
            n = int(nonzero[0])
            return n, prog.ell * n + prog.r, int(values[n])
    return None


def _certify_plan(ensemble, m, prog, modulus, config, weight, max_coeffs) -> _Plan:
    """certify's checks and plan, before anything is built: the _Plan, or
    the ValueError or ResourceLimitError certify raises."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and >= 1")
    if not is_prime(modulus):
        raise ValueError("modulus must be prime")
    if ensemble.k != 1:
        raise ValueError(
            f"no Sturm bound applies to {ensemble.name}: its moments have weight m + 1 - k/2 "
            f"with k = {ensemble.k}; the bound assumes weight m + 1/2"
        )
    if weight is None:
        weight = DivisorWeight(m, ensemble)
    elif weight.exponent != m:
        raise ValueError("weight exponent disagrees with m")
    if isinstance(weight.selector, GlaisherFilter) and weight.selector.character == "unspecified":
        raise ValueError(
            f"filter {weight.selector.describe()} has no known character, "
            "so no Sturm bound applies"
        )
    level = config.resolve_level(lcm(prog.ell, weight.conductor))
    bound = sturm_bound_for_level(m, config.mode, level)
    top = prog.ell * bound + prog.r
    if top + 1 > max_coeffs:
        raise ResourceLimitError(
            f"certification needs {top + 1} coefficients, over the budget of {max_coeffs}"
        )
    if top > _SCALAR_COMPANION_MAX_N and not fits_newton(top, modulus):
        raise ResourceLimitError(
            f"the companion to q^{top} mod {modulus} is past the FFT guard of Newton "
            f"inversion, and the scalar recurrence is capped at q^{_SCALAR_COMPANION_MAX_N}"
        )
    route = "sigma"
    if _first_moment_gate(ensemble, weight.selector, m, modulus):
        # for a prime ell and 0 <= r < ell: modulus = ell and r = 0
        route = "zero" if prog.ell % modulus == prog.r % modulus == 0 else "first-moment"
    return _Plan(weight, level, bound, top, route)


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
    if not isinstance(weight.selector, GlaisherFilter):
        raise ValueError("filtered certification needs a character or filter weight")
    return certify(ensemble, m, prog, modulus, config, weight=weight, max_coeffs=max_coeffs)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


class ScanReport(NamedTuple):
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


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], in task order, on _pool_size(jobs,
    len(tasks)) worker processes, or in this process when that is 1.
    Callers pass jobs=1 for work too small to repay a pool (_pool_jobs)."""
    workers = _pool_size(jobs, len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# Work below _POOL_MIN_COEFFS scan coefficients (one Fermat class's moment
# entry up to n_scan) runs in this process whatever jobs asks.  On a 2-vCPU
# VM, starting two workers costs about 0.1 s of CPU and 0.03 s of wall, 20-35
# ms of it importing concurrent.futures.process.  CLI scans pinned to two
# CPUs with a pool at any size, at perfbench's reference speed, medians of
# 11, wall / CPU seconds at --jobs 1 against --jobs 2: the full range (516
# classes) at nscan 2000, 1.0 M coefficients, 0.226 / 0.224 against
# 0.263 / 0.297; at nscan 10000, 5.2 M, 0.325 / 0.324 against
# 0.335 / 0.397; at nscan 20000, 10.3 M, 0.428 / 0.427 against
# 0.407 / 0.529; the overpartition sweep to ell <= 199 at nscan 4000,
# 8.4 M, 0.516 / 0.515 against 0.469 / 0.585.
#
# certify_batch weighs a certified coefficient (companion, sigma table and
# projection, to ell*B + r) as _CERTIFY_COEFF_COST scan coefficients, and a
# zero class, which builds nothing, as none, so it starts workers from
# 3 * 10**5 certified coefficients.  certify_batch wall seconds at jobs=1
# against jobs=2 on two CPUs, while zero classes still built their series,
# for the reduced triples with ell <= 31, 41 and 61: 155 k coefficients,
# 0.13-0.14 against 0.14-0.16; 339 k, 0.24-0.29 against 0.21-0.24; 1.5 M,
# 1.1-1.2 against 0.7-0.8.
_POOL_MIN_COEFFS = 6_000_000
_CERTIFY_COEFF_COST = 20


def _pool_jobs(jobs: int, coeffs: int) -> int:
    """The jobs to pass _map_tasks for work of about `coeffs` scan
    coefficients: jobs when that repays starting workers, else 1."""
    return jobs if coeffs >= _POOL_MIN_COEFFS else 1


# A scan block holds max(1, _SCAN_BLOCK_COEFFS // S) rows at FFT size S,
# which bounds its FFT workspace, but _SCAN_BLOCK_FLOOR from S = 2**16 on:
# one class a block there made nscan 20,000 about 40% slower.  A row is a
# Fermat class in a block of moments, and a prime in a block of companions.
# The rule applies to each stage of a scan at that stage's own length, so a
# probe block at nscan 20,000 holds many more classes than a block of
# survivors.
_SCAN_BLOCK_COEFFS = 1 << 16
_SCAN_BLOCK_FLOOR = 4

# the scan screens every Fermat class on entries 0..min(n_scan,
# _SCAN_PROBE_ROWS * ell) before it extends the classes still holding a
# vanishing residue to n_scan
_SCAN_PROBE_ROWS = 4


def _block_rows(size: int) -> int:
    """The rows of a scan block at FFT size size."""
    return max(1, _SCAN_BLOCK_COEFFS // size, _SCAN_BLOCK_FLOOR if size >= 1 << 16 else 1)


def _residues_of_zeros(nonzero: np.ndarray, ell: int, include_r0: bool) -> list[tuple[int, ...]]:
    """For each row of nonzero, a bool block of moment entries t = 0..top,
    the residues r whose entries 0 < t <= top, t = r (mod ell), are all
    zero; r = 0 only when include_r0."""
    classes, width = nonzero.shape
    rows = -(-width // ell)
    values = np.zeros((classes, rows * ell), dtype=bool)
    values[:, :width] = nonzero
    values[:, 0] = False  # the r = 0 class starts at t = ell
    vanishing = ~values.reshape(classes, rows, ell).any(axis=1)
    if not include_r0:
        vanishing[:, 0] = False
    residues: list[list[int]] = [[] for _ in range(classes)]
    for row, r in zip(*(axis.tolist() for axis in np.nonzero(vanishing))):
        residues[row].append(r)
    return [tuple(found) for found in residues]


def _vanishing_residues(mbars, w, comp, ell: int, top: int, include_r0: bool) -> dict[int, tuple[int, ...]]:
    """For each class mbar, the residues r whose moment entries M(t) mod
    ell, t = r (mod ell) and 0 < t <= top, all vanish.

    A block's sigma rows are its classes' terms w(d) * d^mbar summed over
    divisors by the same slices for every row, and its moments are one
    _convolve_mod of the block against the companion: the guards of each
    tier hold per row, the FFT tier checks the 1/4 bound over the whole
    block, and a failed check sends every row through the lower tiers.
    """
    per_block = _block_rows(1 << (2 * top).bit_length())  # _convolve_mod's FFT size
    w = None if w is None else w[: top + 1]
    found = {}
    for start in range(0, len(mbars), per_block):
        exponents = mbars[start : start + per_block]
        sigma = _divisor_sums_mod(_weight_terms_mod(exponents, w, top, ell), ell)
        moments = _convolve_mod(sigma, comp, ell)
        found.update(zip(exponents, _residues_of_zeros(moments != 0, ell, include_r0)))
    return found


def _scan_task(args) -> list[tuple[int, int, tuple[int, ...]]]:
    """Scan a block of primes: their companions to n_scan as one
    companion_block, then each prime by _scan_prime."""
    ensemble, weight_selector, ms, ells, n_scan, include_r0 = args
    comps = companion_block(ensemble, n_scan, ells)
    return [
        row
        for ell, comp in zip(ells, comps)
        for row in _scan_prime(ensemble, weight_selector, ms, ell, comp.coeffs, n_scan, include_r0)
    ]


def _scan_prime(ensemble, weight_selector, ms, ell, comp, n_scan, include_r0) -> list[tuple[int, int, tuple[int, ...]]]:
    """Scan every requested m at one prime ell as one batch, given the
    companion comp mod ell to n_scan: the moments of all Fermat classes of
    m in two stages.

    d^m = d^mbar (mod ell) for every d >= 1 when m = mbar (mod ell - 1) and
    m, mbar >= 1, for canonical, twisted and filtered weights alike, so all
    m of a class share their moments mod ell.  mbar = (m - 1) % (ell - 1) + 1
    is fermat_reduce for ell >= 5 and stays >= 1 at ell = 2 and 3.

    The class mbar = 1 is read off the companion as M_1(t) = t b(t)
    (_first_moments) when _first_moment_gate, the rule certify's plan
    reads too, holds: for canonical weights, not for a twist or filter,
    whose classes are all built.

    The weight w(d) mod ell does not depend on the class, so it is built
    once, to n_scan.  The probe stage screens every other class on the
    entries up to min(n_scan, _SCAN_PROBE_ROWS * ell), and only the classes
    with a residue still vanishing there go on to n_scan; both stages run
    _vanishing_residues on prefixes of the same two series.  A nonzero
    entry in the prefix is a nonzero entry of the full range, so a class
    that dies in the probe has no vanishing residue up to n_scan either,
    and the report is the one a single stage to n_scan gives.
    """
    classes: dict[int, list[int]] = {}
    for m in ms:
        classes.setdefault((m - 1) % (ell - 1) + 1, []).append(m)
    found: dict[int, tuple[int, ...]] = {}
    live = list(classes)
    selector = ensemble if weight_selector is None else weight_selector
    if 1 in classes and _first_moment_gate(ensemble, selector, 1, ell):
        first_moments = _first_moments(np.arange(n_scan + 1), comp, ell)
        [found[1]] = _residues_of_zeros(first_moments[None] != 0, ell, include_r0)
        live.remove(1)
    if live:
        w = _weight_values_mod(DivisorWeight(live[0], selector), n_scan, ell)
        for top in sorted({min(n_scan, _SCAN_PROBE_ROWS * ell), n_scan}):
            found.update(_vanishing_residues(live, w, comp, ell, top, include_r0))
            live = [mbar for mbar in live if found[mbar]]
    return [(m, ell, found[mbar]) for mbar in classes for m in classes[mbar]]


def scan(
    ensemble: Ensemble,
    ms,
    ells,
    n_scan: int = 2000,
    *,
    include_r0: bool = True,
    weight_selector: GlaisherFilter | None = None,
    jobs: int = 1,
    max_coeffs: int = DEFAULT_COEFF_BUDGET,
) -> ScanReport:
    """For each odd m and prime ell, record every residue class r whose
    projected moment entries all vanish mod ell up to n_scan.

    weight_selector switches the divisor weights from the ensemble's
    canonical c(d) * d^m to a twisted or filtered rule.  The scan runs one
    task per block of primes (_scan_task), which builds their companions
    together and then scans each prime, on up to jobs worker processes when
    its Fermat classes times n_scan reach _POOL_MIN_COEFFS and in this
    process otherwise.
    Results are merged in sorted order, so any parallelism degree gives
    identical reports.
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
    # one task per block of primes, whose companions are one companion_block:
    # at most _block_rows(S) primes at the FFT size S of the top Newton step,
    # and at least one block a worker.  The primes, largest first, are dealt
    # round robin, so every block gets a share of the largest, which have
    # the most Fermat classes.
    classes = sum(len({(m - 1) % (ell - 1) for m in ms}) for ell in ells)
    jobs = _pool_jobs(jobs, classes * n_scan)
    order = ells[::-1]
    count = max(-(-len(order) // _block_rows(1 << n_scan.bit_length())), _pool_size(jobs, len(order)))
    tasks = [(ensemble, weight_selector, ms, order[i::count], n_scan, include_r0) for i in range(count)]
    results = _map_tasks(_scan_task, tasks, jobs)
    grouped: dict[tuple[int, int], list[int]] = {}
    for m, ell, residues in (row for rows in results for row in rows):
        for r in residues:
            grouped.setdefault((ell, r), []).append(m)
    hits = tuple(
        (key, tuple(sorted(grouped[key]))) for key in sorted(grouped)
    )
    family = "canonical" if weight_selector is None else weight_selector.label()
    return ScanReport(ensemble.name, family, ms, ells, n_scan, include_r0, hits)


def certify_batch(tasks, *, jobs: int = 1, max_coeffs: int = DEFAULT_COEFF_BUDGET) -> list[CertificationRecord]:
    """Run a list of certification task tuples, optionally in parallel.

    Each task is (ensemble, m, prog, modulus, config) or the same with a
    weight appended, and runs as certify with max_coeffs.  Every task is
    checked and planned by certify's own _certify_plan before any series
    is built, so a task certify would refuse raises its ValueError or
    ResourceLimitError first.  A task checks plan.top + 1 coefficients,
    or none on the zero route, which builds nothing.  The tasks run on up
    to jobs worker processes when _CERTIFY_COEFF_COST times the sum
    reaches _POOL_MIN_COEFFS, and in this process otherwise.  Results come
    back in task order regardless of jobs.
    """
    normalized = [(*task, None, max_coeffs) if len(task) == 5 else (*task, max_coeffs) for task in tasks]
    plans = [_certify_plan(*task) for task in normalized]
    coeffs = sum(plan.top + 1 for plan in plans if plan.route != "zero")
    return _map_tasks(_certify_task, normalized, _pool_jobs(jobs, _CERTIFY_COEFF_COST * coeffs))


def _certify_task(task) -> CertificationRecord:
    ensemble, m, prog, modulus, config, weight, max_coeffs = task
    return certify(ensemble, m, prog, modulus, config, weight=weight, max_coeffs=max_coeffs)


# ---------------------------------------------------------------------------
# Closed-form predictions
# ---------------------------------------------------------------------------

_RAMANUJAN_CLASSES = {5: 4, 7: 5, 11: 6}
_BASE_CASES = {
    3: ((7, 0), (7, 5), (11, 0), (11, 6)),
    7: ((11, 6),),
    199: ((389, 308),),
}


def predicted_hits(ms, ells, *, ensemble: Ensemble = ORDINARY) -> frozenset[tuple[int, int, int]]:
    """The (m, ell, r) a scan finds: classes (a)-(c) follow closed-form
    rules, and (d) is one sporadic class found by scanning.

    Ordinary partitions:

    (a) r = 0 whenever m = 1 (mod ell - 1);
    (b) the Ramanujan classes (5,4), (7,5), (11,6) whenever m = 1 (mod ell-1);
    (c) the base congruences at reduced exponent 3 (ell in {7, 11}, both the
        zero class and the Ramanujan class) and 7 (ell = 11, class 6),
        lifted to every m with the same Fermat reduction;
    (d) one sporadic class found by scanning, not derived: reduced exponent
        199 at ell = 389, class 308 = 24^-1 (mod 389), lifted the same way
        (m = 199, 587, 975, ...).  389 divides the Bernoulli number B_200,
        with 200 = m + 1, but that alone is not the rule: no other irregular
        pair (ell, m + 1) with ell <= 997 gives a class.

    Overpartitions: r = 0 exactly when m = 1 (mod ell - 1), and no nonzero
    class.  Any other ensemble has no rule and raises ValueError.

    Checked against scans of odd m <= 997 and primes 5 <= ell <= 997 at
    nscan 19,940, for both ensembles; past ell = 997 the rule is a
    conjecture and may miss sporadic classes like (d).
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
