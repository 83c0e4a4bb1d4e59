"""Truncated formal power series over pluggable coefficient rings, plus the
coefficient generators for every Euler product the moment pipeline uses.

Convention: an exponent sequence c defines the product

    A(q) = prod_{r >= 1} (1 - q^r)^(-c(r)),

so positive c(r) means 1/(1 - q^r) factors (things are being counted).
Ordinary partitions are c(r) = 1, overpartitions c(r) = 2 for odd r and 1
for even r, k-coloured partitions c(r) = k, plane partitions c(r) = r.

Truncation is a hard contract: a Series of truncation N is exact through
q^N and says nothing beyond.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import expm1, gcd, isqrt, log1p, log2, sqrt

import numpy as np

__all__ = [
    "CoefficientRing",
    "Ensemble",
    "ExponentSequence",
    "ORDINARY",
    "OVERPARTITION",
    "PLANE_PARTITION",
    "PLANE_PARTITION_DEFAULT_CAP",
    "RingMismatchError",
    "Series",
    "THETA",
    "companion_series",
    "coloured",
    "coloured_ensemble",
    "dump_series",
    "ensemble_by_name",
    "eta_power_coefficients",
    "euler_product_coefficients",
    "make_series",
    "ordinary",
    "overpartition",
    "partition_counts",
    "plane_partition",
    "r2_coefficients",
    "series_inverse",
    "series_multiply",
    "tau_coefficients",
    "theta",
]

PLANE_PARTITION_DEFAULT_CAP = 5000


class RingMismatchError(ValueError):
    """Operands live in different rings or at different truncations."""


@dataclass(frozen=True)
class CoefficientRing:
    """Z/N (modulus set), exact Z (default), or exact Q (rational=True)."""

    modulus: int | None = None
    rational: bool = False

    def __post_init__(self) -> None:
        if self.modulus is not None:
            if self.rational:
                raise ValueError("a ring is either modular or rational, not both")
            if self.modulus < 2:
                raise ValueError("modulus must be >= 2")

    @classmethod
    def integers_mod(cls, n: int) -> CoefficientRing:
        return cls(modulus=n)

    @classmethod
    def exact_integers(cls) -> CoefficientRing:
        return cls()

    @classmethod
    def exact_rationals(cls) -> CoefficientRing:
        return cls(rational=True)

    @property
    def zero(self):
        return Fraction(0) if self.rational else 0

    @property
    def one(self):
        return Fraction(1) if self.rational else 1

    def reduce(self, x):
        """Coerce x into a canonical ring element."""
        if self.rational:
            return Fraction(x)
        value = operator.index(x)
        return value % self.modulus if self.modulus is not None else value

    def is_unit(self, x) -> bool:
        if self.rational:
            return x != 0
        if self.modulus is not None:
            return gcd(operator.index(x), self.modulus) == 1
        return x in (1, -1)

    def invert(self, x):
        if not self.is_unit(x):
            raise ValueError(f"{x!r} is not a unit in {self.describe()}")
        if self.rational:
            return Fraction(1) / Fraction(x)
        if self.modulus is not None:
            return pow(operator.index(x), -1, self.modulus)
        return x

    def describe(self) -> str:
        if self.rational:
            return "Q"
        if self.modulus is not None:
            return f"Z/{self.modulus}"
        return "Z"


@dataclass(frozen=True)
class Series:
    """Coefficient table a(0..n_max) in a fixed ring."""

    ring: CoefficientRing
    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series has at least the constant coefficient")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def make_series(ring: CoefficientRing, values) -> Series:
    """Build a Series, reducing every entry into the ring."""
    return Series(ring, tuple(ring.reduce(v) for v in values))


def _check_compatible(a: Series, b: Series) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"rings differ: {a.ring.describe()} vs {b.ring.describe()}")
    if a.n_max != b.n_max:
        raise RingMismatchError(f"truncations differ: {a.n_max} vs {b.n_max}")


# ---------------------------------------------------------------------------
# Exponent sequences and ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSequence:
    """Periodic rule c(r) = values[r mod period] * r**power_factor.

    Only integer exponents are supported; rational c(r) is deliberately
    unimplemented.
    """

    name: str
    period: int
    values: tuple[int, ...]
    power_factor: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.values) != self.period:
            raise ValueError("need exactly one value per residue class")
        if not all(isinstance(v, int) for v in self.values):
            raise TypeError("exponent values must be integers (rational exponents unsupported)")
        if not any(self.values):
            raise ValueError("at least one value must be nonzero")
        if self.power_factor not in (0, 1):
            raise ValueError("power_factor must be 0 or 1")

    def value_at(self, r: int) -> int:
        c = self.values[r % self.period]
        return c * r if self.power_factor else c


def ordinary() -> ExponentSequence:
    """c(r) = 1: ordinary partitions, A(q) = 1/(q;q)_inf."""
    return ExponentSequence("ordinary", 1, (1,))


def coloured(k: int) -> ExponentSequence:
    """c(r) = k: partitions with k colours, A(q) = (q;q)_inf^(-k)."""
    if k < 1:
        raise ValueError("number of colours must be >= 1")
    return ExponentSequence(f"coloured({k})", 1, (k,))


def plane_partition() -> ExponentSequence:
    """c(r) = r: MacMahon's plane partitions."""
    return ExponentSequence("plane-partition", 1, (1,), power_factor=1)


def overpartition() -> ExponentSequence:
    """c(r) = 2 for odd r, 1 for even r: A(q) = (-q;q)_inf / (q;q)_inf."""
    return ExponentSequence("overpartition", 2, (1, 2))


def theta() -> ExponentSequence:
    """c(r) = 2 for odd r, -1 for even r (the theta exponent sequence)."""
    return ExponentSequence("theta", 2, (-1, 2))


@dataclass(frozen=True)
class Ensemble:
    """An Euler product together with its companion series.

    companion "self" means the companion coefficients b(n) are those of the
    product itself; "r2" supplies the explicit theta companion b(n) = r2(n).
    """

    name: str
    exponents: ExponentSequence
    companion: str = "self"

    def __post_init__(self) -> None:
        if self.companion not in ("self", "r2"):
            raise ValueError(f"unknown companion kind {self.companion!r}")


ORDINARY = Ensemble("ordinary", ordinary())
OVERPARTITION = Ensemble("overpartition", overpartition())
PLANE_PARTITION = Ensemble("plane-partition", plane_partition())
THETA = Ensemble("theta", theta(), companion="r2")


def coloured_ensemble(k: int) -> Ensemble:
    return Ensemble(f"coloured({k})", coloured(k))


def ensemble_by_name(name: str) -> Ensemble:
    """Resolve an ensemble from its CLI name, e.g. "ordinary", "coloured(3)"."""
    key = name.strip().lower()
    fixed = {
        "ordinary": ORDINARY,
        "overpartition": OVERPARTITION,
        "plane-partition": PLANE_PARTITION,
        "planepartition": PLANE_PARTITION,
        "theta": THETA,
    }
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


def _divide_by_sparse(coeffs: list, terms: list[tuple[int, int]], modulus: int | None) -> None:
    """In place: coeffs /= (1 + sum sign*q^exp).  The constant term is 1, so
    this is a subtraction recurrence and needs no ring division."""
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
        v = coeffs[n] - acc
        coeffs[n] = v % modulus if modulus is not None else v


def _multiply_by_sparse(coeffs: list, terms: list[tuple[int, int]], modulus: int | None) -> None:
    """In place: coeffs *= (1 + sum sign*q^exp).  Descending order keeps the
    referenced lower entries at their old values."""
    n_max = len(coeffs) - 1
    for n in range(n_max, 0, -1):
        acc = 0
        for e, s in terms:
            if e > n:
                break
            if s > 0:
                acc += coeffs[n - e]
            else:
                acc -= coeffs[n - e]
        v = coeffs[n] + acc
        coeffs[n] = v % modulus if modulus is not None else v


def _indicator_decomposition(c: ExponentSequence) -> dict[int, int] | None:
    """Write c(r) = sum_{d | r, d | P} m_d when c(r) depends only on gcd(r, P).

    Grouping the product over each indicator gives
    prod_r (1-q^r)^(-c(r)) = prod_d ((q^d; q^d)_inf)^(-m_d),
    which expands by sparse pentagonal passes.  Returns None when the rule
    does not have this shape.
    """
    if c.power_factor != 0:
        return None
    P = c.period
    divisors = [d for d in range(1, P + 1) if P % d == 0]
    by_gcd: dict[int, int] = {}
    for s in range(P):
        g = gcd(s, P)  # gcd(0, P) = P
        v = c.values[s]
        if by_gcd.setdefault(g, v) != v:
            return None
    multiplicity: dict[int, int] = {}
    for d in divisors:
        lower = sum(multiplicity[e] for e in divisors if e < d and d % e == 0)
        multiplicity[d] = by_gcd[d] - lower
    return {d: m for d, m in multiplicity.items() if m != 0}


def _block_size(n: int) -> int:
    """Block length of the Z/N kernel for truncation n: the power of two
    nearest 4*sqrt(n+1), clamped to [128, 1024]."""
    return min(1024, max(128, 1 << round(log2(4 * sqrt(n + 1)))))


def fits_int64(terms: int, modulus: int) -> bool:
    """True when a sum of `terms` products of two residues mod `modulus`
    stays below 2**63, so int64 arithmetic on it is exact."""
    return terms * (modulus - 1) ** 2 < 2**63


def fits_float64(terms: int, modulus: int) -> bool:
    """True when a sum of `terms` products of two residues mod `modulus`
    stays below 2**53, so every partial sum is an integer float64 holds
    exactly."""
    return terms * (modulus - 1) ** 2 < 2**53


def _divide_by_sparse_blocked(
    coeffs: np.ndarray, terms: list[tuple[int, int]], modulus: int, block: int
) -> None:
    """In place: coeffs /= S with S = 1 + sum sign*q^exp, `block` entries at a time.

    On a block [start, end) the quotient f satisfies f[i] + sum sign*f[i-exp]
    = coeffs[i].  Moving the terms whose f[i-exp] lies in a solved block to
    the right (one slice per term of S) leaves a block that is the product
    of what remains with the first `block` coefficients of 1/S, truncated.
    Entries are residues in [0, modulus) between blocks, so a slice sum stays
    below (len(terms) + 1) * modulus and a convolution sum below
    block * (modulus - 1)**2; the caller checks the latter against 2**63.
    """
    n1 = len(coeffs)
    width = min(block, n1)
    inverse = [1] + [0] * (width - 1)
    _divide_by_sparse(inverse, terms, modulus)
    inverse = np.array(inverse, dtype=np.int64)
    for start in range(0, n1, width):
        end = min(start + width, n1)
        rest = coeffs[start:end].copy()
        for e, sign in terms:
            if e >= end:
                break
            lo, hi = max(start, e), min(end, start + e)
            if lo >= hi:
                continue
            if sign > 0:
                rest[lo - start : hi - start] -= coeffs[lo - e : hi - e]
            else:
                rest[lo - start : hi - start] += coeffs[lo - e : hi - e]
        rest %= modulus
        coeffs[start:end] = _convolve_mod(rest, inverse[: end - start], modulus)


def _multiply_by_sparse_shifted(
    coeffs: np.ndarray, terms: list[tuple[int, int]], modulus: int
) -> None:
    """In place: coeffs *= S, one shifted-slice add per term of S."""
    n1 = len(coeffs)
    original = coeffs.copy()
    for e, sign in terms:
        if e >= n1:
            break
        if sign > 0:
            coeffs[e:] += original[: n1 - e]
        else:
            coeffs[e:] -= original[: n1 - e]
    coeffs %= modulus


def _pentagonal_product(factors: list, n1: int, modulus: int) -> np.ndarray:
    """The product of the pentagonal factors 1 + sum sign*q^exp in `factors`
    to n1 terms, as an int32 array mod modulus.

    Only the Newton path calls this, whose guard fits_fft(n1, n1, modulus)
    with n1 >= FFT_MIN_TERMS admits no modulus above 113,849; a slice sum of
    _multiply_by_sparse_shifted, below (number of terms + 1) * modulus, then
    stays below 5 * 10**6 at every n1, far inside int32.
    """
    coeffs = np.zeros(n1, dtype=np.int32)
    coeffs[0] = 1
    if factors:
        # the first factor times 1 is that factor: place its terms directly
        for e, sign in factors[0]:
            coeffs[e] = sign % modulus
        for terms in factors[1:]:
            _multiply_by_sparse_shifted(coeffs, terms, modulus)
    return coeffs


def _euler_product_grouped(decomp: dict[int, int], n: int, ring: CoefficientRing) -> list:
    modulus = ring.modulus
    factors = [(_pentagonal_terms(d, n), decomp[d]) for d in sorted(decomp) if d <= n]
    if modulus is not None and n + 1 >= FFT_MIN_TERMS and fits_fft(n + 1, n + 1, modulus):
        # A = prod_{m_d < 0} f(q^d)^|m_d| / prod_{m_d > 0} f(q^d)^m_d
        denominator = [terms for terms, mult in factors for _ in range(mult)]
        numerator = [terms for terms, mult in factors for _ in range(-mult)]
        if not denominator:
            return _pentagonal_product(numerator, n + 1, modulus).tolist()
        coeffs = _newton_inverse(_pentagonal_product(denominator, n + 1, modulus), modulus)
        for terms in numerator:
            _multiply_by_sparse_shifted(coeffs, terms, modulus)
        return coeffs.tolist()
    block = _block_size(n)
    blocked = modulus is not None and fits_int64(block, modulus)
    if blocked:
        coeffs = np.zeros(n + 1, dtype=np.int64)

        def divide(c, terms, mod):
            _divide_by_sparse_blocked(c, terms, mod, block)

        multiply = _multiply_by_sparse_shifted
    else:
        coeffs = [ring.zero] * (n + 1)
        divide, multiply = _divide_by_sparse, _multiply_by_sparse
    coeffs[0] = ring.one
    for terms, mult in factors:
        step = divide if mult > 0 else multiply
        for _ in range(abs(mult)):
            step(coeffs, terms, modulus)
    return coeffs.tolist() if blocked else coeffs


def _euler_product_factor_passes(c: ExponentSequence, n: int, ring: CoefficientRing) -> list:
    """Reference algorithm: one prefix pass per unit of |c(r)| per factor.

    Multiplying by 1/(1-q^r) is the ascending recurrence a[i] += a[i-r];
    multiplying by (1-q^r) the descending a[i] -= a[i-r].  Cost is
    O(n * sum |c(r)|), which is fine for every periodic rule at scan sizes
    but is why the grouped path above exists.
    """
    modulus = ring.modulus
    coeffs = [ring.zero] * (n + 1)
    coeffs[0] = ring.one
    for r in range(1, n + 1):
        cr = c.value_at(r)
        for _ in range(abs(cr)):
            if cr > 0:
                for i in range(r, n + 1):
                    v = coeffs[i] + coeffs[i - r]
                    coeffs[i] = v % modulus if modulus is not None else v
            else:
                for i in range(n, r - 1, -1):
                    v = coeffs[i] - coeffs[i - r]
                    coeffs[i] = v % modulus if modulus is not None else v
    return coeffs


def _euler_product_linear_rule(c: ExponentSequence, n: int, ring: CoefficientRing) -> list:
    """Rules with the extra factor r (plane partitions) via the logarithmic
    derivative recurrence n*b(n) = sum_d sigma_c1(d) b(n-d), run over exact
    integers so the division by n is exact, then reduced into the ring."""
    sigma1 = [0] * (n + 1)
    for r in range(1, n + 1):
        w = c.value_at(r) * r
        if w == 0:
            continue
        for i in range(r, n + 1, r):
            sigma1[i] += w
    b = [0] * (n + 1)
    b[0] = 1
    for i in range(1, n + 1):
        total = 0
        for d in range(1, i + 1):
            s = sigma1[d]
            if s:
                total += s * b[i - d]
        q, rem = divmod(total, i)
        if rem:
            raise ArithmeticError("non-integral coefficient; exponent rule is inconsistent")
        b[i] = q
    return [ring.reduce(v) for v in b]


def euler_product_coefficients(
    c: ExponentSequence,
    n: int,
    ring: CoefficientRing,
    *,
    allow_large: bool = False,
) -> Series:
    """Coefficients of prod_{r=1..n} (1 - q^r)^(-c(r)) through q^n.

    Rules whose value depends only on gcd(r, period) are grouped into
    eta-type factors (q^d; q^d)_inf^(-m_d), each expanded by sparse
    pentagonal passes; other periodic rules run the factor-at-a-time
    reference passes.  Rules carrying the linear factor r grow
    quadratically expensive and are capped at n = 5000 unless allow_large.

    Over Z/N, when the product of two series of n+1 terms would take the
    FFT tier of _convolve_mod (n + 1 >= FFT_MIN_TERMS and
    fits_fft(n+1, n+1, N)), the grouped product runs by Newton inversion:
    A = prod_{m_d<0} f(q^d)^|m_d| / prod_{m_d>0} f(q^d)^m_d with
    f = (q;q)_inf.  The denominator is built densely by shifted-slice
    multiplications, inverted once by Newton's iteration
    g <- g - g*(f*g - 1) at doubling precision, and the numerator's
    pentagonal factors are multiplied in the same way (eta powers have no
    denominator and need no inverse).  A Newton step from k to k2 <= 2k
    terms runs as two float64 FFT products of size S = 2**ceil(log2 k2)
    sharing one transform of g: the error f*g - 1 is a cyclic middle
    product whose wrapped terms land below k, where it is already known to
    vanish, and the correction has degree below S.  Exactness: the step
    runs only under fits_fft(k2, k, N), which is conservative here (S is at
    most the size it assumes, and a cyclic coefficient sums at most k
    products), so Percival's bound puts every output within 1/4 of the
    exact integer; each output is also checked to lie within 1/4 of an
    integer, and if one does not, the step is recomputed by two exact
    _convolve_mod products.  The whole costs O(n log n) plus
    O(n^1.5 * (sum |m_d| - 1)) for the shifted-slice multiplications.

    Otherwise over Z/N the grouped passes run as a blocked int64 numpy
    kernel.  A multiplication by a pentagonal factor is one shifted-slice
    add per term.  A division solves blocks of K coefficients in turn (K is
    the power of two nearest 4*sqrt(n+1), clamped to [128, 1024]): one slice
    per term removes what the solved blocks contribute, and one convolution
    with the first K coefficients of the factor's inverse solves the block.
    Each convolution sum is below K * (N-1)**2 and each slice sum below
    (number of terms + 1) * N, about 1.6 * sqrt(n) * N, so all arithmetic
    is exact int64 whenever K * (N-1)**2 < 2**63, which is checked before
    the kernel is used.  Nothing is rounded unchecked on either path, so a
    certification built on them remains a proof.  Larger moduli, and the Z
    and Q rings, take the scalar Python recurrence, O(n^1.5 * sum |m_d|)
    ring operations.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    if c.power_factor == 1:
        if n > PLANE_PARTITION_DEFAULT_CAP and not allow_large:
            raise ValueError(
                f"linear exponent rules are capped at N={PLANE_PARTITION_DEFAULT_CAP}; "
                "pass allow_large=True to override"
            )
        coeffs = _euler_product_linear_rule(c, n, ring)
    else:
        decomp = _indicator_decomposition(c)
        if decomp is not None:
            coeffs = _euler_product_grouped(decomp, n, ring)
        else:
            coeffs = _euler_product_factor_passes(c, n, ring)
    return Series(ring, tuple(coeffs))


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------


def partition_counts(n: int, ring: CoefficientRing) -> Series:
    """p(0..n), the ordinary-partition Euler product."""
    return euler_product_coefficients(ordinary(), n, ring)


def eta_power_coefficients(k: int, n: int, ring: CoefficientRing) -> Series:
    """Coefficients of (q;q)_inf^k, i.e. the Euler product with c(r) = -k."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    if k == 0:
        return Series(ring, tuple([ring.one] + [ring.zero] * n))
    rule = ExponentSequence(f"eta-power({k})", 1, (-k,))
    return euler_product_coefficients(rule, n, ring)


def tau_coefficients(n: int, ring: CoefficientRing) -> Series:
    """Ramanujan tau(1..n) read off q*(q;q)_inf^24, with a(0) = 0."""
    if n < 1:
        raise ValueError("need n >= 1 for tau")
    eta24 = eta_power_coefficients(24, n - 1, ring)
    return Series(ring, (ring.zero,) + eta24.coeffs)


def r2_coefficients(n: int) -> Series:
    """r2(0..n): lattice points on x^2 + y^2 = m, by direct counting."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    counts = [0] * (n + 1)
    for x in range(-isqrt(n), isqrt(n) + 1):
        rem = n - x * x
        for y in range(-isqrt(rem), isqrt(rem) + 1):
            counts[x * x + y * y] += 1
    return Series(CoefficientRing.exact_integers(), tuple(counts))


def companion_series(ensemble: Ensemble, n: int, ring: CoefficientRing, *, allow_large: bool = False) -> Series:
    """The companion coefficients b(0..n) for an ensemble, in the given ring."""
    if ensemble.companion == "self":
        return euler_product_coefficients(ensemble.exponents, n, ring, allow_large=allow_large)
    r2 = r2_coefficients(n)
    return make_series(ring, r2.coeffs)


# ---------------------------------------------------------------------------
# Series arithmetic
# ---------------------------------------------------------------------------


# The FFT tier of _convolve_mod runs when both operands have at least
# FFT_MIN_TERMS terms (below that the direct product is faster), and the
# direct float64 tier only up to FLOAT64_DIRECT_MAX_TERMS terms: a float64
# np.convolve is a series of BLAS dot products, which OpenBLAS splits over
# threads above about 10**4 elements; the int64 tier calls no BLAS.
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


def _rounded_mod(values: np.ndarray, modulus: int) -> np.ndarray | None:
    """values rounded to integers and reduced mod modulus, as int64, or None
    when some value is not within 1/4 of an integer.  Overwrites values."""
    rounded = np.rint(values)
    values -= rounded
    np.abs(values, out=values)
    if values.max() > 0.25:
        return None
    out = rounded.astype(np.int64)
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


def _newton_step_fft(a: np.ndarray, g: np.ndarray, modulus: int) -> np.ndarray | None:
    """Coefficients k..k2-1 of 1/a mod modulus, given a to k2 <= 2k terms
    and g = 1/a to k terms; None when a rounding check fails.

    One Newton step g - g*(a*g - 1), as two float64 FFT products of size
    S = 2**ceil(log2 k2) that share the transform of g.  a*g - 1 vanishes
    below q^k, and its cyclic product of size S wraps the linear terms
    S..k2+k-2 onto indices below k2+k-1-S <= k - 1, so its terms k..k2-1,
    the error e, are exact (a middle product).  g*e has degree below
    k2 - 1 < S and does not wrap.  Every cyclic coefficient sums at most k
    products of residues, and S is at most the size fits_fft(k2, k, modulus)
    assumes, so under that guard Percival's bound puts every output within
    1/4 of the exact integer; each is also checked as in _fft_product.
    """
    k, k2 = len(g), len(a)
    size = 1 << (k2 - 1).bit_length()
    g_hat = np.fft.rfft(g, size)
    # each transform is released once used, so that no more than a, g,
    # g_hat, one spectrum and one product are live at once
    spectrum = np.fft.rfft(a, size)
    spectrum *= g_hat
    product = np.fft.irfft(spectrum, size)
    del spectrum
    error = _rounded_mod(product[k:k2], modulus)
    del product
    if error is None:
        return None
    spectrum = np.fft.rfft(error, size)
    del error
    spectrum *= g_hat
    del g_hat
    product = np.fft.irfft(spectrum, size)
    del spectrum
    correction = _rounded_mod(product[: k2 - k], modulus)
    if correction is None:
        return None
    np.negative(correction, out=correction)
    correction %= modulus
    return correction


def _newton_inverse(a: np.ndarray, modulus: int) -> np.ndarray:
    """1/a mod modulus to len(a) terms; a[0] must be a unit mod modulus.

    From g = a[0]**-1, Newton's step g <- g - g*(a*g - 1) doubles the number
    of correct terms.  A step from k >= FFT_MIN_TERMS terms under
    fits_fft(k2, k, modulus) runs as _newton_step_fft; any other step, and
    one whose rounding check fails, as two _convolve_mod products, which are
    exact in every tier.  The result has a's dtype.
    """
    n1 = len(a)
    g = np.zeros(n1, dtype=a.dtype)
    g[0] = pow(int(a[0]), -1, modulus)
    k = 1
    while k < n1:
        k2 = min(2 * k, n1)
        tail = None
        if k >= FFT_MIN_TERMS and fits_fft(k2, k, modulus):
            tail = _newton_step_fft(a[:k2], g[:k], modulus)
        if tail is None:
            error = _convolve_mod(a[:k2], g[:k], modulus)[k:]
            tail = -_convolve_mod(error, g[:k], modulus) % modulus
        g[k:k2] = tail
        k = k2
    return g


def _convolve_mod(a, b, modulus: int) -> np.ndarray:
    """The first n coefficients of the product a*b, reduced mod modulus,
    where n is the length of a, or of its rows when a is a 2-D block.

    a and b hold residues in [0, modulus) (int64 arrays or integer
    sequences); only the first n terms of b take part.  An output
    coefficient sums at most terms = min(n, len(b)) non-negative products,
    each at most (modulus - 1)**2, so every product and every partial sum
    lies in [0, terms * (modulus - 1)**2].  Four tiers, the first that
    applies:

    - FFT (both operands at least FFT_MIN_TERMS terms and fits_fft): a
      float64 rfft/irfft product of power-of-two size.  fits_fft holds
      only when Percival's a-priori bound (Math. Comp. 72, 2003; see
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
    - Python integers, returned as an object array.

    A 2-D ndarray a is a batch: every row is multiplied by the same b under
    the same guards, which depend only on n, len(b) and modulus.  The FFT tier
    transforms the whole block along its last axis with one spectrum of b
    and checks the 1/4 bound over the whole block; if any coefficient
    fails it, every row falls back and runs the lower tiers one row at a
    time.  The caller bounds the rows of a block, since the FFT tier's
    workspace grows with rows times FFT size.

    Every tier is exact and returns values in [0, modulus); the first three
    return int64.  Either result converts with .tolist().
    """
    block = isinstance(a, np.ndarray) and a.ndim == 2
    n = a.shape[1] if block else len(a)
    b = b[:n]
    terms = len(b)
    if terms >= FFT_MIN_TERMS and fits_fft(n, terms, modulus):
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
    a, b = [int(v) for v in a], [int(v) for v in b]
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(min(n - i, terms)):
            out[i + j] += ai * b[j]
    return np.array([v % modulus for v in out], dtype=object)


def series_multiply(a: Series, b: Series) -> Series:
    """Truncated Cauchy product; both factors must share ring and truncation."""
    _check_compatible(a, b)
    n = a.n_max
    if a.ring.modulus is not None:
        return Series(a.ring, tuple(_convolve_mod(a.coeffs, b.coeffs, a.ring.modulus).tolist()))
    out = [a.ring.zero] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        bc = b.coeffs
        for j in range(n + 1 - i):
            out[i + j] += ai * bc[j]
    return Series(a.ring, tuple(out))


def series_inverse(a: Series) -> Series:
    """Multiplicative inverse with a * a^-1 = 1 + O(q^(N+1)).

    The constant term must be a unit in the coefficient ring; otherwise the
    series is not invertible there and we refuse.  Over Z/N this is
    _newton_inverse, whose every product is exact; over Z and Q, the
    O(N^2) recurrence.
    """
    ring = a.ring
    if not ring.is_unit(a.coeffs[0]):
        raise ValueError(
            f"constant term {a.coeffs[0]!r} is not a unit in {ring.describe()}; series not invertible"
        )
    modulus = ring.modulus
    if modulus is not None:
        coeffs = np.array(a.coeffs, dtype=np.int64 if modulus < 2**63 else object)
        return Series(ring, tuple(_newton_inverse(coeffs, modulus).tolist()))
    n = a.n_max
    inv0 = ring.invert(a.coeffs[0])
    out = [ring.zero] * (n + 1)
    out[0] = inv0
    for i in range(1, n + 1):
        acc = ring.zero
        for j in range(1, i + 1):
            aj = a.coeffs[j]
            if aj != 0:
                acc += aj * out[i - j]
        out[i] = -inv0 * acc
    return Series(ring, tuple(out))


def dump_series(series: Series, ensemble_name: str) -> str:
    """Dump format: header line, then one decimal coefficient per line."""
    lines = [f"# ring={series.ring.describe()} N={series.n_max} ensemble={ensemble_name}"]
    lines.extend(str(c) for c in series.coeffs)
    return "\n".join(lines) + "\n"
