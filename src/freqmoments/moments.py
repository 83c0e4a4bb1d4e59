"""Ensemble moment series, the enumeration oracle, and classical identity
checks tying the moment engine to known facts.

A weighted count over an ensemble's partitions equals a divisor-sum
convolution against the companion series:

    M(n) = sum_{d=1..n} sigma(d) * b(n - d),

where sigma carries the weight (w(d) * d^m summed over divisors) and b is
the companion; the convolution is qseries.master_transform.  The
enumeration oracle recomputes small moments by listing partitions outright,
which is the ground truth everything else is tested against.

No pipeline path loads this module: the CLI imports it only to run the
identity checks.  It re-exports qseries.master_transform and
arith.fermat_reduce.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import factorize, fermat_reduce
from .divisorweights import DivisorWeight, weighted_sigma_table, sigma_table
from .qseries import (
    CoefficientRing,
    Ensemble,
    Series,
    _truncated_product,
    companion_series,
    coloured_ensemble,
    euler_product_coefficients,
    master_transform,
    partition_counts,
    tau_coefficients,
)

__all__ = [
    "C12",
    "FrequencyTable",
    "IdentityCheckResult",
    "ORACLE_GUARD",
    "ensemble_moments",
    "fermat_congruence_check",
    "fermat_reduce",
    "first_moment_identity_check",
    "ford_recursion_check",
    "frequency_oracle",
    "j_identity_check",
    "master_transform",
    "moebius",
    "moebius_identity_check",
    "oracle_moment",
    "tau_convolution_check",
]

ORACLE_GUARD = 40

# E_12 = 1 + C12 * sum sigma_11(n) q^n with C12 = 65520/691, taken verbatim.
C12 = (65520, 691)


class IdentityCheckResult(NamedTuple):
    name: str
    passed: bool
    checked_through: int
    first_failure: tuple | None = None

    def summary(self) -> str:
        if self.passed:
            return f"{self.name}: PASS (checked through n={self.checked_through})"
        return f"{self.name}: FAIL at {self.first_failure}"


def ensemble_moments(
    ensemble: Ensemble,
    m: int,
    n: int,
    ring: CoefficientRing,
    *,
    weight: DivisorWeight | None = None,
) -> Series:
    """Moment series for an ensemble: canonical weights c(d) * d^m unless an
    explicit divisor weight (e.g. a character twist) is supplied."""
    if weight is None:
        weight = DivisorWeight(m, ensemble)
    sigma = weighted_sigma_table(weight, n, ring)
    comp = companion_series(ensemble, n, ring)
    return master_transform(sigma, comp)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------


class FrequencyTable(NamedTuple):
    """F(k, n): total occurrences of part k across all partitions of n,
    for 1 <= k <= n <= n_max, computed by explicit enumeration."""

    n_max: int
    entries: tuple[tuple[int, ...], ...]

    def frequency(self, k: int, n: int) -> int:
        if not 1 <= k or not 0 <= n <= self.n_max:
            raise ValueError("need k >= 1 and 0 <= n <= n_max")
        if k > n:
            return 0
        return self.entries[n][k]

    def partition_count(self, n: int) -> int:
        """p(n), counted during the same enumeration and stored at slot 0."""
        return self.entries[n][0]


def frequency_oracle(n_max: int) -> FrequencyTable:
    """Enumerate every partition of every n <= n_max and count part sizes.

    Deliberately brute force; the guard keeps the enumeration around a
    second.  entries[n][0] stores p(n) as a byproduct.
    """
    if n_max > ORACLE_GUARD:
        raise ValueError(f"enumeration oracle is guarded at n_max <= {ORACLE_GUARD}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    rows[0][0] = 1  # the empty partition

    parts: list[int] = []

    def descend(remaining: int, cap: int, row: list[int]) -> None:
        if remaining == 0:
            row[0] += 1
            for part in parts:
                row[part] += 1
            return
        for first in range(min(remaining, cap), 0, -1):
            parts.append(first)
            descend(remaining - first, first, row)
            parts.pop()

    for n in range(1, n_max + 1):
        descend(n, n, rows[n])
    return FrequencyTable(n_max, tuple(tuple(row) for row in rows))


def oracle_moment(f, n: int, table: FrequencyTable | None = None) -> int:
    """sum_k f(k) * F(k, n) straight from the enumeration table."""
    if table is None:
        table = frequency_oracle(n)
    if n > table.n_max:
        raise ValueError("oracle table too short for this n")
    return sum(f(k) * table.entries[n][k] for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def ford_recursion_check(n_max: int) -> IdentityCheckResult:
    """n * p(n) = sum_{d=1..n} sigma_1(d) p(n-d), exactly, for n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ring = CoefficientRing.exact_integers()
    p = partition_counts(n_max, ring)
    rhs = master_transform(sigma_table(1, n_max, ring), p)
    for n in range(1, n_max + 1):
        if rhs[n] != n * p[n]:
            return IdentityCheckResult("ford", False, n_max, (n, n * p[n], rhs[n]))
    return IdentityCheckResult("ford", True, n_max)


def tau_convolution_check(n_max: int) -> IdentityCheckResult:
    """M_11(n) = sum tau(d) p(n-d) mod 691, for n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ring = CoefficientRing.integers_mod(691)
    p = partition_counts(n_max, ring)
    sig11 = sigma_table(11, n_max, ring)
    tau = tau_coefficients(n_max, ring)
    lhs = master_transform(sig11, p)
    rhs = master_transform(tau, p)
    for n in range(1, n_max + 1):
        if lhs[n] != rhs[n]:
            return IdentityCheckResult("tau691", False, n_max, (n, lhs[n], rhs[n]))
    return IdentityCheckResult("tau691", True, n_max)


def j_identity_check(n_max: int) -> IdentityCheckResult:
    """Coefficient identity behind the coloured decomposition of j:

        E12 / Delta = q^-1 (q;q)_inf^-24 + (C12/24) q^-1 sum M11_24(n) q^n,

    checked through q^n_max after multiplying both sides by 24*691 so the
    whole computation is exact integer arithmetic.  691*E12 has integer
    coefficients 691 + 65520*sigma_11.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ring = CoefficientRing.exact_integers()
    num, den = C12
    p24 = euler_product_coefficients(coloured_ensemble(24), n_max, ring)
    sig11 = sigma_table(11, n_max, ring)
    e12_scaled = Series(ring, (den,) + tuple(num * sig11[i] for i in range(1, n_max + 1)))
    moments24 = ensemble_moments(coloured_ensemble(24), 11, n_max, ring)

    # lhs(n) = 24 * [691*E12 * (q;q)^-24](n);  rhs(n) = 24*691*p24(n) + 65520*M(n)
    lhs = 24 * _truncated_product(e12_scaled.coeffs, p24.coeffs)
    for n in range(n_max + 1):
        rhs = 24 * den * p24[n] + num * moments24[n]
        if lhs[n] != rhs:
            return IdentityCheckResult("j-decomposition", False, n_max, (n, lhs[n], rhs))
    return IdentityCheckResult("j-decomposition", True, n_max)


def fermat_congruence_check(
    n_max: int = 500,
    ms: tuple[int, ...] = (7, 13, 23, 37, 49),
    ells: tuple[int, ...] = (5, 7, 11, 13),
) -> IdentityCheckResult:
    """M_m(n) = M_{fermat_reduce(m, ell)}(n) mod ell at coefficient level."""
    for ell in ells:
        ring = CoefficientRing.integers_mod(ell)
        p = partition_counts(n_max, ring)
        for m in ms:
            mbar = fermat_reduce(m, ell)
            lhs = master_transform(sigma_table(m, n_max, ring), p)
            rhs = master_transform(sigma_table(mbar, n_max, ring), p)
            if lhs != rhs:
                bad = next(n for n in range(n_max + 1) if lhs[n] != rhs[n])
                return IdentityCheckResult(
                    "fermat", False, n_max, (m, ell, bad, lhs[bad], rhs[bad])
                )
    return IdentityCheckResult("fermat", True, n_max)


def first_moment_identity_check(ensemble: Ensemble, n_max: int) -> IdentityCheckResult:
    """M_1(n) = n * b(n) over exact integers: with canonical weights the
    first moment series is q d/dq of the ensemble's product b."""
    ring = CoefficientRing.exact_integers()
    moments = ensemble_moments(ensemble, 1, n_max, ring)
    comp = companion_series(ensemble, n_max, ring)
    for n in range(n_max + 1):
        if moments[n] != n * comp[n]:
            return IdentityCheckResult(
                f"m1({ensemble.name})", False, n_max, (n, moments[n], n * comp[n])
            )
    return IdentityCheckResult(f"m1({ensemble.name})", True, n_max)


def moebius_identity_check(n_max: int) -> IdentityCheckResult:
    """sum_k mu(k) F_k(n) = p(n-1) via the enumeration oracle."""
    if n_max > ORACLE_GUARD:
        raise ValueError(f"oracle range is n <= {ORACLE_GUARD}")
    table = frequency_oracle(n_max)
    for n in range(1, n_max + 1):
        lhs = oracle_moment(moebius, n, table)
        rhs = table.partition_count(n - 1)
        if lhs != rhs:
            return IdentityCheckResult("moebius", False, n_max, (n, lhs, rhs))
    return IdentityCheckResult("moebius", True, n_max)


def moebius(n: int) -> int:
    """Moebius mu(n), from the factorization."""
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result
