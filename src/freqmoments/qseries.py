"""Truncated formal power series over Z and Z/N, the coefficient
generators for every Euler product the moment pipeline uses, and the master
transform that convolves a sigma table with a companion series.

Every ensemble is an eta-quotient: its product is

    A(q) = prod_d (q^d; q^d)_inf^(-m_d) = prod_{r >= 1} (1 - q^r)^(-c(r)),

with canonical weight c(r) = sum_{d | r} m_d, and A(q) is its own companion
series.  Ordinary partitions are m_1 = 1 (c(r) = 1), overpartitions m_1 = 2,
m_2 = -1 (c(r) = 2 for odd r and 1 for even r), and k-coloured partitions
m_1 = k (c(r) = k).

Truncation is a hard contract: a Series of truncation N is exact through
q^N and says nothing beyond.
"""

from __future__ import annotations

import operator
from functools import partial
from math import expm1, isqrt, lcm, log1p, sqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "CoefficientRing",
    "Ensemble",
    "ORDINARY",
    "OVERPARTITION",
    "ResourceLimitError",
    "RingMismatchError",
    "Series",
    "companion_block",
    "companion_series",
    "coloured_ensemble",
    "dump_series",
    "ensemble_by_name",
    "eta_power_coefficients",
    "euler_product_coefficients",
    "make_series",
    "master_transform",
    "partition_counts",
    "tau_coefficients",
]


class ResourceLimitError(RuntimeError):
    """A requested series would exceed a coefficient budget or size cap."""


class RingMismatchError(ValueError):
    """Operands live in different rings or at different truncations."""


class _CoefficientRingFields(NamedTuple):
    modulus: int | None = None


class CoefficientRing(_CoefficientRingFields):
    """Z/N (modulus set) or exact Z (default)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        return self

    @classmethod
    def integers_mod(cls, n: int) -> CoefficientRing:
        return cls(modulus=n)

    @classmethod
    def exact_integers(cls) -> CoefficientRing:
        return cls()

    def reduce(self, x) -> int:
        """Coerce x into a canonical ring element."""
        value = operator.index(x)
        return value % self.modulus if self.modulus is not None else value

    def describe(self) -> str:
        return f"Z/{self.modulus}" if self.modulus is not None else "Z"


class Series:
    """Coefficient table a(0..n_max) in a fixed ring.

    coeffs is a read-only 1-D numpy array in every ring: int64 over Z/N for
    N < 2**63, and object otherwise, holding Python ints over Z and wider
    moduli.  The constructor puts any sequence in that form, keeping an
    array of the right dtype (marked read-only) rather than copying it, and
    reduces nothing.  Indexing gives a Python int.  A Series is immutable
    and unhashable; two are equal when their rings and coefficients are.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs) -> None:
        modulus = ring.modulus
        dtype = np.int64 if modulus is not None and modulus < 2**63 else object
        coeffs = np.asarray(coeffs, dtype=dtype)
        coeffs.flags.writeable = False
        if coeffs.ndim != 1 or not len(coeffs):
            raise ValueError("a series is 1-D and has at least the constant coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Series(ring={self.ring!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return Series, (self.ring, self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.coeffs, other.coeffs)

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return int(self.coeffs[n])

    @property
    def values(self) -> Series:
        """The series itself: the benchmark's witness check reads moment
        series as `.values.coeffs`."""
        return self


def make_series(ring: CoefficientRing, values) -> Series:
    """Build a Series from a sequence, reducing every entry into the ring."""
    return Series(ring, [ring.reduce(v) for v in values])


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


class _EnsembleFields(NamedTuple):
    name: str
    eta: tuple[tuple[int, int], ...]


class Ensemble(_EnsembleFields):
    """A partition ensemble given by the eta-quotient of its product,

        A(q) = prod_d (q^d; q^d)_inf^(-m_d),

    eta holding the pairs (d, m_d), d >= 1 ascending and every m_d nonzero,
    as a tuple of tuples whatever sequences it was given as.
    A(q) is also the companion b of the ensemble's moments.  Its weight is
    -k/2 with k = sum m_d, and its canonical divisor weight is c(r) =
    sum_{d | r} m_d, so A(q) = prod_{r >= 1} (1 - q^r)^(-c(r)).
    """

    __slots__ = ()

    def __new__(cls, name: str, eta):
        self = super().__new__(cls, name, tuple(map(tuple, eta)))
        if not all(isinstance(v, int) for pair in self.eta for v in pair):
            raise TypeError("eta entries must be integers")
        ds = [d for d, _ in self.eta]
        if not ds or ds != sorted(set(ds)) or ds[0] < 1 or not all(m for _, m in self.eta):
            raise ValueError("eta lists (d, m_d) for distinct d >= 1, ascending, with m_d nonzero")
        return self

    @property
    def k(self) -> int:
        """sum m_d: A(q) has weight -k/2."""
        return sum(m for _, m in self.eta)

    @property
    def period(self) -> int:
        """The lcm of the d, a period of the canonical weight."""
        return lcm(*(d for d, _ in self.eta))

    def weight(self, r: int) -> int:
        """The canonical weight c(r) = sum_{d | r} m_d."""
        return sum(m for d, m in self.eta if r % d == 0)


ORDINARY = Ensemble("ordinary", ((1, 1),))
OVERPARTITION = Ensemble("overpartition", ((1, 2), (2, -1)))


def coloured_ensemble(k: int) -> Ensemble:
    """Partitions with k colours, A(q) = (q;q)_inf^(-k)."""
    if k < 1:
        raise ValueError("number of colours must be >= 1")
    return Ensemble(f"coloured({k})", ((1, k),))


def ensemble_by_name(name: str) -> Ensemble:
    """Resolve an ensemble from its CLI name, e.g. "ordinary", "coloured(3)"."""
    key = name.strip().lower()
    fixed = {"ordinary": ORDINARY, "overpartition": OVERPARTITION}
    if key in fixed:
        return fixed[key]
    if key.startswith("coloured(") and key.endswith(")"):
        return coloured_ensemble(int(key[len("coloured(") : -1]))
    if key.startswith("colored(") and key.endswith(")"):
        return coloured_ensemble(int(key[len("colored(") : -1]))
    raise ValueError(f"unknown ensemble {name!r}")


# ---------------------------------------------------------------------------
# Sparse pentagonal machinery
# ---------------------------------------------------------------------------


def _pentagonal_terms(step: int, n_max: int) -> list[tuple[int, int]]:
    """Nonconstant terms of (q^step; q^step)_inf as (exponent, sign), ascending.

    Euler: (q;q)_inf = 1 + sum_{k>=1} (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}).
    """
    terms: list[tuple[int, int]] = []
    k = 1
    while True:
        g1 = step * k * (3 * k - 1) // 2
        g2 = step * k * (3 * k + 1) // 2
        if g1 > n_max:
            break
        sign = -1 if k % 2 else 1
        terms.append((g1, sign))
        if g2 <= n_max:
            terms.append((g2, sign))
        k += 1
    terms.sort()
    return terms


def _divide_by_sparse(coeffs: list, terms: list[tuple[int, int]], modulus: int | None, scale: int = 1) -> None:
    """In place: coeffs /= (1 + scale * sum sign*q^exp).  The constant term
    is 1, so this is a subtraction recurrence and needs no ring division."""
    n_max = len(coeffs) - 1
    exps = [e for e, _ in terms]
    sgns = [s for _, s in terms]
    count = len(terms)
    for n in range(1, n_max + 1):
        acc = 0
        for i in range(count):
            e = exps[i]
            if e > n:
                break
            if sgns[i] > 0:
                acc += coeffs[n - e]
            else:
                acc -= coeffs[n - e]
        v = coeffs[n] - scale * acc
        coeffs[n] = v % modulus if modulus is not None else v


def fits_int64(terms: int, modulus: int) -> bool:
    """True when a sum of `terms` products of two residues mod `modulus`
    stays below 2**63, so int64 arithmetic on it is exact."""
    return terms * (modulus - 1) ** 2 < 2**63


def fits_float64(terms: int, modulus: int) -> bool:
    """True when a sum of `terms` products of two residues mod `modulus`
    stays below 2**53, so every partial sum is an integer float64 holds
    exactly."""
    return terms * (modulus - 1) ** 2 < 2**53


def _multiply_by_sparse_shifted(
    coeffs: np.ndarray, terms: list[tuple[int, int]], modulus
) -> None:
    """In place: coeffs *= S along the last axis, one shifted-slice add per
    term of S, then reduced mod modulus unless it is None.  A 2-D coeffs is
    a block of series, one a row, with modulus a column of moduli."""
    n1 = coeffs.shape[-1]
    original = coeffs.copy()
    for e, sign in terms:
        if e >= n1:
            break
        if sign > 0:
            coeffs[..., e:] += original[..., : n1 - e]
        else:
            coeffs[..., e:] -= original[..., : n1 - e]
    if modulus is not None:
        coeffs %= modulus


def _theta4_terms(n_max: int) -> list[tuple[int, int]]:
    """Nonconstant terms of theta_4(q) = 1 + 2 * sum_{k>=1} (-1)^k q^{k^2}
    through q^n_max as (exponent, sign), ascending; each carries a factor 2."""
    return [(k * k, -1 if k % 2 else 1) for k in range(1, isqrt(n_max) + 1)]


def _pentagonal_product(factors: list, n1: int, moduli: np.ndarray, scale: int = 1) -> np.ndarray:
    """The product of the sparse factors 1 + sum sign*q^exp in `factors`
    to n1 terms mod each entry of the column `moduli`, as an int32 block
    with one row per modulus; the first factor's terms carry the factor
    scale (2 for theta_4, the only factor of its product).

    Only the Newton path calls this, whose guard fits_newton(n1 - 1,
    modulus) admits no modulus above 113,849; a slice sum of
    _multiply_by_sparse_shifted, below (number of terms + 1) * modulus,
    then stays below 5 * 10**6 at every n1, far inside int32.
    """
    coeffs = np.zeros((len(moduli), n1), dtype=np.int32)
    coeffs[:, 0] = 1
    if factors:
        # the first factor times 1 is that factor: place its terms directly
        for row, p in zip(coeffs, moduli.ravel().tolist()):
            for e, sign in factors[0]:
                row[e] = scale * sign % p
        for terms in factors[1:]:
            _multiply_by_sparse_shifted(coeffs, terms, moduli)
    return coeffs


def fits_newton(n: int, modulus: int) -> bool:
    """True when an eta-quotient to q^n over Z/modulus inverts its
    denominator by Newton's iteration and holds the inverse (see
    companion_block): fits_fft(top, top, modulus) with top = max(n + 1,
    FFT_MIN_TERMS).  Past it the denominator is divided out by the scalar
    recurrence of _divide_by_sparse, and nothing is held."""
    top = max(n + 1, FFT_MIN_TERMS)
    return fits_fft(top, top, modulus)


# The last block of denominator inverses companion_block built by Newton:
# (eta, moduli, read-only int64 block, one row per modulus), or None.
_held = None


def _eta_factors(eta, n: int) -> tuple[list, int, list]:
    """The sparse factors of an eta-quotient's product through q^n:
    (denominator, scale, numerator).  Each denominator factor is a function
    of n returning the terms of 1 + scale * sum sign*q^exp through q^n; the
    numerator factors are those terms already, with scale 1."""
    if eta == ((1, 2), (2, -1)):
        # Gauss: f(q)^2 / f(q^2) = theta_4
        return [_theta4_terms], 2, []
    factors = [(d, m) for d, m in eta if d <= n]
    denominator = [partial(_pentagonal_terms, d) for d, m in factors for _ in range(m)]
    return denominator, 1, [_pentagonal_terms(d, n) for d, m in factors for _ in range(-m)]


def euler_product_coefficients(ensemble: Ensemble, n: int, ring: CoefficientRing) -> Series:
    """Coefficients of the ensemble's eta-quotient A = prod_d f(q^d)^(-m_d),
    f = (q;q)_inf, through q^n.

    A is expanded as numerator / denominator: the numerator is the
    pentagonal series of f(q^d)^|m_d| for m_d < 0, the denominator that of
    f(q^d)^m_d for m_d > 0, except that the overpartitions' f(q)^2 / f(q^2)
    is Gauss's theta_4 = 1 + 2 sum_{k>=1} (-1)^k q^{k^2}.

    Over Z/N under fits_newton(n, N) this is the one-row companion_block.
    Over Z, and over Z/N past fits_newton, each denominator factor is
    divided out by the scalar subtraction recurrence of _divide_by_sparse,
    O(n^1.5) interpreted ring operations, and the numerator's factors are
    multiplied in by shifted-slice products on an object array, so no slice
    sum can overflow, whatever the modulus.  Nothing is rounded unchecked
    on any path, so a certification built on them remains a proof.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    modulus = ring.modulus
    if modulus is not None and fits_newton(n, modulus):
        return companion_block(ensemble, n, [modulus])[0]
    denominator, scale, numerator = _eta_factors(ensemble.eta, n)
    scalar = [1] + [0] * n
    for terms in denominator:
        _divide_by_sparse(scalar, terms(n), modulus, scale)
    coeffs = np.array(scalar, dtype=object)
    for terms in numerator:
        _multiply_by_sparse_shifted(coeffs, terms, modulus)
    return Series(ring, coeffs)


# Every ensemble is its own companion: b(n) are the coefficients of A(q).
companion_series = euler_product_coefficients


def companion_block(ensemble: Ensemble, n: int, moduli) -> list[Series]:
    """companion_series(ensemble, n, Z/p) for each p in moduli, in order.

    The p under fits_newton(n, p) form one block, a row each: their dense
    denominators (int32, by shifted-slice products) are inverted together
    by _newton_inverse, O(n log n), so a step of Newton's iteration is one
    float64 FFT product for all of them.  The numerator is multiplied into
    a copy by shifted-slice products, O(n^1.5); a product with no
    denominator (eta powers) is that product alone.  Every other p takes
    the scalar recurrence of euler_product_coefficients.  The caller bounds
    the rows, since the workspace grows with rows times the FFT size of the
    top Newton step.

    The last block inverted is held, keyed by eta and its moduli.  A
    request with both the same reads read-only prefix views of it (so
    ordinary partitions and coloured(1) share one), or continues Newton's
    iteration from it, as a certification's full stage continues its
    probe's; any other request drops it before anything is built, so a
    scan's block replaces a certification's row.  A product with no
    denominator leaves it alone.
    """
    global _held
    if n < 0:
        raise ValueError("truncation must be >= 0")
    eta = ensemble.eta
    denominator, scale, numerator = _eta_factors(eta, n)
    newton = tuple([p for p in moduli if fits_newton(n, p)])
    column = np.array(newton, dtype=np.int64)[:, None]
    rows = ()
    if not denominator:
        rows = _pentagonal_product(numerator, n + 1, column)
    elif newton:
        prefix = _held[2] if _held is not None and _held[:2] == (eta, newton) else None
        if prefix is not None and n < prefix.shape[-1]:
            rows = prefix[:, : n + 1]
        else:
            _held = None
            dense = _pentagonal_product([terms(n) for terms in denominator], n + 1, column, scale)
            # Newton runs in int32, like the denominator: an int64 block alive
            # through the top step would raise the peak by 4 bytes a coefficient
            rows = _newton_inverse(dense, column, prefix).astype(np.int64)
            rows.flags.writeable = False
            _held = (eta, newton, rows)
        if numerator:
            rows = rows.copy()
            for terms in numerator:
                _multiply_by_sparse_shifted(rows, terms, column)
    built = dict(zip(newton, rows))
    return [
        Series(CoefficientRing(p), built[p]) if p in built
        else euler_product_coefficients(ensemble, n, CoefficientRing(p))
        for p in moduli
    ]


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------


def partition_counts(n: int, ring: CoefficientRing) -> Series:
    """p(0..n), the ordinary-partition Euler product."""
    return euler_product_coefficients(ORDINARY, n, ring)


def eta_power_coefficients(k: int, n: int, ring: CoefficientRing) -> Series:
    """Coefficients of (q;q)_inf^k, the eta-quotient with m_1 = -k."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    if k == 0:
        return Series(ring, [1] + [0] * n)
    return euler_product_coefficients(Ensemble(f"eta-power({k})", ((1, -k),)), n, ring)


def tau_coefficients(n: int, ring: CoefficientRing) -> Series:
    """Ramanujan tau(1..n) read off q*(q;q)_inf^24, with a(0) = 0."""
    if n < 1:
        raise ValueError("need n >= 1 for tau")
    eta24 = eta_power_coefficients(24, n - 1, ring).coeffs
    return Series(ring, np.concatenate(([0], eta24)))


# ---------------------------------------------------------------------------
# Series arithmetic
# ---------------------------------------------------------------------------


# The FFT tier of _convolve_mod runs when both operands have at least
# FFT_MIN_TERMS terms, or a block's rows times its terms reach it (below
# that the direct products are faster), and the direct float64 tier only up
# to FLOAT64_DIRECT_MAX_TERMS terms: a float64 np.convolve is a series of
# BLAS dot products, which OpenBLAS splits over threads above about 10**4
# elements; the int64 tier calls no BLAS.
FFT_MIN_TERMS = 512
FLOAT64_DIRECT_MAX_TERMS = 10_000

# Percival's error bound for a float64 FFT product: the unit roundoff of
# float64 arithmetic, and the error assumed for each computed twiddle factor
# (pocketfft's are within about an ulp of exp(2*pi*i*k/n); 2**-50 leaves a
# factor of 8 to spare).
_UNIT_ROUNDOFF = 2.0**-53
_TWIDDLE_ERROR = 2.0**-50


def fits_fft(len_a: int, len_b: int, modulus: int) -> bool:
    """True when the float64 FFT product of residue vectors of these lengths
    errs by less than 1/4 in every coefficient, by Percival's bound.

    For an FFT of size 2**k the computed cyclic product z' of x and y obeys
    ||z' - z||_inf <= ||x||_2 ||y||_2 ((1+e)**3k (1+e*sqrt5)**(3k+1)
    (1+b)**3k - 1) with e the unit roundoff and b the twiddle error
    (C. Percival, Rapid multiplication modulo the sum and difference of
    highly composite numbers, Math. Comp. 72 (2003), Theorem 5.1).  A
    vector of n residues has ||x||_2 <= sqrt(n) * (modulus - 1).
    """
    k = (len_a + len_b - 2).bit_length()  # FFT size 2**k >= len_a + len_b - 1
    growth = expm1(
        3 * k * log1p(_UNIT_ROUNDOFF)
        + (3 * k + 1) * log1p(_UNIT_ROUNDOFF * sqrt(5))
        + 3 * k * log1p(_TWIDDLE_ERROR)
    )
    return (modulus - 1) ** 2 < 0.25 / (sqrt(len_a * len_b) * growth)


def _rounded_mod(values: np.ndarray, modulus) -> np.ndarray | None:
    """values rounded to integers and reduced mod modulus, as int64, or None
    when some value is not within 1/4 of an integer.  Overwrites values.
    modulus is an int, or for a 2-D block of values a column of moduli,
    one per row.

    The rounding goes straight into the int64 result, so no float64 copy of
    values is alive beside it."""
    out = np.empty(values.shape, dtype=np.int64)
    # a NaN fails the check below; its cast to int64 need not warn
    with np.errstate(invalid="ignore"):
        np.rint(values, out=out, casting="unsafe")
    values -= out
    np.abs(values, out=values)
    # written so that a NaN, which compares False, also fails the check
    if not values.max() <= 0.25:
        return None
    out %= modulus
    return out


def _fft_product(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray | None:
    """The first n coefficients of a*b mod modulus by a float64 FFT, n the
    length of a's last axis, or None when some coefficient is not within 1/4
    of an integer.  A 2-D a is a block of rows, each multiplied by b along
    the last axis against one spectrum of b."""
    n = a.shape[-1]
    size = 1 << (n + len(b) - 2).bit_length()
    spectrum = np.fft.rfft(a, size)
    spectrum *= np.fft.rfft(b, size)
    return _rounded_mod(np.fft.irfft(spectrum, size)[..., :n], modulus)


def _newton_step_fft(a: np.ndarray, g: np.ndarray, modulus) -> np.ndarray | None:
    """Coefficients k..k2-1 of 1/a mod modulus, given a to k2 <= 2k terms
    and g = 1/a to k terms; None when a rounding check fails.  a and g are
    2-D blocks, one series a row, with modulus a column of moduli.

    One Newton step g - g*(a*g - 1), as two float64 FFT products of size
    S = 2**ceil(log2 k2) that share the transform of g.  a*g - 1 vanishes
    below q^k, and its cyclic product of size S wraps the linear terms
    S..k2+k-2 onto indices below k2+k-1-S <= k - 1, so its terms k..k2-1,
    the error e, are exact (a middle product).  g*e has degree below
    k2 - 1 < S and does not wrap.  Every cyclic coefficient sums at most k
    products of residues, and S is at most the size fits_fft(k2, k, modulus)
    assumes, so under that guard at the largest modulus Percival's bound
    puts every output of every row within 1/4 of the exact integer; each is
    also checked as in _fft_product, over the whole block.
    """
    k, k2 = g.shape[-1], a.shape[-1]
    size = 1 << (k2 - 1).bit_length()
    g_hat = np.fft.rfft(g, size)
    # each transform is released once used, so that no more than a, g,
    # g_hat, one spectrum and one product are live at once
    spectrum = np.fft.rfft(a, size)
    spectrum *= g_hat
    product = np.fft.irfft(spectrum, size)
    del spectrum
    error = _rounded_mod(product[..., k:k2], modulus)
    del product
    if error is None:
        return None
    spectrum = np.fft.rfft(error, size)
    del error
    spectrum *= g_hat
    del g_hat
    product = np.fft.irfft(spectrum, size)
    del spectrum
    correction = _rounded_mod(product[..., : k2 - k], modulus)
    if correction is None:
        return None
    np.negative(correction, out=correction)
    correction %= modulus
    return correction


def _newton_inverse(a: np.ndarray, modulus, prefix: np.ndarray | None = None) -> np.ndarray:
    """1/a to a.shape[-1] terms for each row of the 2-D block a, mod its own
    entry of the column of moduli modulus; each a[i, 0] must be a unit.
    prefix, when given, is a block with the same rows holding leading terms
    of the inverses already known.

    Newton's step g <- g - g*(a*g - 1) takes k correct terms to k2 <= 2k.
    The steps run top-down: the precisions are a.shape[-1], then each
    halved and rounded up, down to the first at or below the known terms
    (prefix's, or the one term a[i, 0]**-1), so no step computes terms past
    a.shape[-1].  A step from k terms with rows * k >= FFT_MIN_TERMS under
    fits_fft(k2, k, largest modulus) runs as _newton_step_fft on the whole
    block; any other step, and one whose rounding check fails, runs row by
    row as two _convolve_mod products, which are exact in every tier.  The
    result has a's dtype and shape.
    """
    rows, n1 = a.shape
    moduli = np.ravel(modulus).tolist()
    known = 1 if prefix is None else max(1, prefix.shape[-1])
    schedule = []
    k = n1
    while k > known:
        schedule.append(k)
        k = (k + 1) // 2
    g = np.zeros_like(a)
    if prefix is None:
        for row, inverse, p in zip(a, g, moduli):
            inverse[0] = pow(int(row[0]), -1, p)
    else:
        g[:, :k] = prefix[:, :k]
    for k2 in reversed(schedule):
        tail = None
        if rows * k >= FFT_MIN_TERMS and fits_fft(k2, k, max(moduli)):
            tail = _newton_step_fft(a[:, :k2], g[:, :k], modulus)
        if tail is not None:
            g[:, k:k2] = tail
        else:
            for row, inverse, p in zip(a, g, moduli):
                error = _convolve_mod(row[:k2], inverse[:k], p)[k:]
                inverse[k:k2] = -_convolve_mod(error, inverse[:k], p) % p
        k = k2
    return g


def _convolve_mod(a, b, modulus: int) -> np.ndarray:
    """The first n coefficients of the product a*b, reduced mod modulus,
    where n is the length of a, or of its rows when a is a 2-D block.

    a and b hold residues in [0, modulus) (int64 or object arrays, or
    integer sequences); only the first n terms of b take part.  An output
    coefficient sums at most terms = min(n, len(b)) non-negative products,
    each at most (modulus - 1)**2, so every product and every partial sum
    lies in [0, terms * (modulus - 1)**2].  Four tiers, the first that
    applies:

    - FFT (rows * terms at least FFT_MIN_TERMS, one row for a 1-D a, and
      fits_fft): a float64 rfft/irfft product of power-of-two size.
      fits_fft holds only when Percival's a-priori bound (Math. Comp. 72, 2003; see
      fits_fft; unit roundoff 2**-53, twiddle error 2**-50) puts every
      coefficient within 1/4 of the exact integer, which is then below
      2**53, so rounding recovers it.  Each coefficient is also checked to
      lie within 1/4 of an integer; if one does not, the result is dropped
      and the next tier runs;
    - float64 direct (fits_float64, at most FLOAT64_DIRECT_MAX_TERMS terms):
      the bound is below 2**53, so each of those values is an integer
      float64 represents exactly and no operation rounds, under any
      summation order and with or without FMA;
    - int64 direct (fits_int64): the bound is below 2**63, so nothing
      overflows;
    - Python integers: one object-array dot product per coefficient,
      returned as an object array.

    A 2-D ndarray a is a batch: every row is multiplied by the same b under
    the same guards, which depend only on n, len(b) and modulus.  The FFT tier
    transforms the whole block along its last axis with one spectrum of b,
    so it runs once the block's rows * terms reach FFT_MIN_TERMS, where
    one direct product a row would cost more; it checks the 1/4 bound over
    the whole block, and if any coefficient fails it, every row falls back
    and runs the lower tiers one row at a time.  The caller bounds the rows
    of a block, since the FFT tier's workspace grows with rows times FFT
    size.

    Every tier is exact and returns values in [0, modulus); the first three
    return int64.
    """
    block = isinstance(a, np.ndarray) and a.ndim == 2
    n = a.shape[1] if block else len(a)
    b = b[:n]
    terms = len(b)
    if (len(a) if block else 1) * terms >= FFT_MIN_TERMS and fits_fft(n, terms, modulus):
        product = _fft_product(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), modulus)
        if product is not None:
            return product
    if block:
        return np.stack([_convolve_direct(row, b, modulus) for row in a])
    return _convolve_direct(a, b, modulus)


def _convolve_direct(a, b, modulus: int) -> np.ndarray:
    """_convolve_mod of one row below the FFT tier: float64, int64 or
    Python-integer direct products, with b already cut to len(a) terms."""
    n, terms = len(a), len(b)
    if fits_float64(terms, modulus) and terms <= FLOAT64_DIRECT_MAX_TERMS:
        product = np.convolve(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
        return product[:n].astype(np.int64) % modulus
    if fits_int64(terms, modulus):
        product = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return product[:n] % modulus
    return _truncated_product(np.asarray(a, dtype=object), np.asarray(b, dtype=object)) % modulus


def _truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first len(a) coefficients of a*b for object arrays, b at most as
    long as a, one dot product each.  np.convolve would also form the upper
    half of the product, which is then thrown away."""
    terms = len(b)
    out = np.empty(len(a), dtype=object)
    for t in range(len(a)):
        lo = max(0, t - terms + 1)
        out[t] = a[lo : t + 1].dot(b[t - lo :: -1])
    return out


def master_transform(sigma: Series, companion: Series) -> Series:
    """M(n) = sum_{d=1}^{n} sigma(d) * companion(n-d), with M(0) = 0: the
    exact mod-N product _convolve_mod over Z/N, and the truncated product
    of the object arrays over Z."""
    if sigma.ring != companion.ring:
        raise RingMismatchError(
            f"rings differ: {sigma.ring.describe()} vs {companion.ring.describe()}"
        )
    if sigma.n_max != companion.n_max:
        raise RingMismatchError(f"truncations differ: {sigma.n_max} vs {companion.n_max}")
    ring = sigma.ring
    if sigma.coeffs[0] != 0:
        raise ValueError("sigma series must have a(0) = 0")
    if companion.coeffs[0] != 1:
        raise ValueError("companion series must have b(0) = 1")
    modulus = ring.modulus
    if modulus is not None:
        return Series(ring, _convolve_mod(sigma.coeffs, companion.coeffs, modulus))
    return Series(ring, _truncated_product(sigma.coeffs, companion.coeffs))


def dump_series(series: Series, ensemble_name: str) -> str:
    """Dump format: header line, then one decimal coefficient per line."""
    lines = [f"# ring={series.ring.describe()} N={series.n_max} ensemble={ensemble_name}"]
    lines.extend(str(c) for c in series.coeffs)
    return "\n".join(lines) + "\n"
