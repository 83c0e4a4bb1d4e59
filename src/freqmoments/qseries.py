"""Truncated formal power series over Z and Z/N, plus the coefficient
generators for every Euler product the moment pipeline uses.

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
from functools import partial
from math import expm1, gcd, isqrt, log1p, sqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "CoefficientRing",
    "Ensemble",
    "ExponentSequence",
    "ORDINARY",
    "OVERPARTITION",
    "PLANE_PARTITION",
    "PLANE_PARTITION_DEFAULT_CAP",
    "ResourceLimitError",
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
    "tau_coefficients",
    "theta",
]

PLANE_PARTITION_DEFAULT_CAP = 5000


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

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def values(self) -> Series:
        """The series itself: the benchmark's witness check reads moment
        series as `.values.coeffs`."""
        return self


def make_series(ring: CoefficientRing, values) -> Series:
    """Build a Series from a sequence, reducing every entry into the ring."""
    return Series(ring, [ring.reduce(v) for v in values])


# ---------------------------------------------------------------------------
# Exponent sequences and ensembles
# ---------------------------------------------------------------------------


class _ExponentSequenceFields(NamedTuple):
    name: str
    period: int
    values: tuple[int, ...]
    power_factor: int = 0


class ExponentSequence(_ExponentSequenceFields):
    """Periodic rule c(r) = values[r mod period] * r**power_factor.

    Only integer exponents are supported; rational c(r) is deliberately
    unimplemented.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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


class _EnsembleFields(NamedTuple):
    name: str
    exponents: ExponentSequence
    companion: str = "self"


class Ensemble(_EnsembleFields):
    """An Euler product together with its companion series.

    companion "self" means the companion coefficients b(n) are those of the
    product itself; "r2" supplies the explicit theta companion b(n) = r2(n).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.companion not in ("self", "r2"):
            raise ValueError(f"unknown companion kind {self.companion!r}")
        return self


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
    coeffs: np.ndarray, terms: list[tuple[int, int]], modulus: int | None
) -> None:
    """In place: coeffs *= S, one shifted-slice add per term of S, then
    reduced mod modulus unless it is None."""
    n1 = len(coeffs)
    original = coeffs.copy()
    for e, sign in terms:
        if e >= n1:
            break
        if sign > 0:
            coeffs[e:] += original[: n1 - e]
        else:
            coeffs[e:] -= original[: n1 - e]
    if modulus is not None:
        coeffs %= modulus


def _theta4_terms(n_max: int) -> list[tuple[int, int]]:
    """Nonconstant terms of theta_4(q) = 1 + 2 * sum_{k>=1} (-1)^k q^{k^2}
    through q^n_max as (exponent, sign), ascending; each carries a factor 2."""
    return [(k * k, -1 if k % 2 else 1) for k in range(1, isqrt(n_max) + 1)]


def _pentagonal_product(factors: list, n1: int, modulus: int, scale: int = 1) -> np.ndarray:
    """The product of the sparse factors 1 + sum sign*q^exp in `factors`
    to n1 terms, as an int32 array mod modulus; the first factor's terms
    carry the factor scale (2 for theta_4, the only factor of its product).

    Only the Newton path calls this, whose guard fits_newton(n1 - 1,
    modulus) admits no modulus above 113,849; a slice sum of
    _multiply_by_sparse_shifted, below (number of terms + 1) * modulus,
    then stays below 5 * 10**6 at every n1, far inside int32.
    """
    coeffs = np.zeros(n1, dtype=np.int32)
    coeffs[0] = 1
    if factors:
        # the first factor times 1 is that factor: place its terms directly
        for e, sign in factors[0]:
            coeffs[e] = scale * sign % modulus
        for terms in factors[1:]:
            _multiply_by_sparse_shifted(coeffs, terms, modulus)
    return coeffs


def fits_newton(n: int, modulus: int) -> bool:
    """True when an eta-quotient to q^n over Z/modulus inverts its
    denominator by Newton's iteration and holds the inverse (see
    euler_product_coefficients): fits_fft(top, top, modulus) with top =
    max(n + 1, FFT_MIN_TERMS).  Past it the denominator is divided out by
    the scalar recurrence of _divide_by_sparse, and nothing is held."""
    top = max(n + 1, FFT_MIN_TERMS)
    return fits_fft(top, top, modulus)


# The last denominator inverse _euler_product_grouped built by Newton:
# (sorted decomposition, modulus, read-only int64 coefficients), or None.
_held = None


def _euler_product_grouped(decomp: dict[int, int], n: int, ring: CoefficientRing) -> np.ndarray:
    global _held
    modulus = ring.modulus
    # A = prod(numerator) / prod(denominator); each denominator factor is a
    # sparse series 1 + scale * sum sign*q^exp, given by a function of n
    # returning its terms through q^n
    if decomp == {1: 2, 2: -1}:
        # Gauss: f(q)^2 / f(q^2) = theta_4
        denominator, scale, numerator = [_theta4_terms], 2, []
    else:
        steps = [d for d in sorted(decomp) if d <= n]
        denominator = [partial(_pentagonal_terms, d) for d in steps for _ in range(decomp[d])]
        scale = 1
        numerator = [_pentagonal_terms(d, n) for d in steps for _ in range(-decomp[d])]
    if modulus is None or not fits_newton(n, modulus):
        scalar = [1] + [0] * n
        for terms in denominator:
            _divide_by_sparse(scalar, terms(n), modulus, scale)
        # object dtype: no slice sum below can overflow, whatever the modulus
        coeffs = np.array(scalar, dtype=object)
    elif not denominator:
        return _pentagonal_product(numerator, n + 1, modulus)
    else:
        key = tuple(sorted(decomp.items()))
        prefix = _held[2] if _held is not None and _held[:2] == (key, modulus) else None
        if prefix is not None and n < len(prefix):
            coeffs = prefix[: n + 1]
        else:
            _held = None
            dense = _pentagonal_product([terms(n) for terms in denominator], n + 1, modulus, scale)
            # Newton runs in int32, like the denominator: an int64 series alive
            # through the top step would raise the peak by 4 bytes a coefficient
            coeffs = _newton_inverse(dense, modulus, prefix).astype(np.int64)
            coeffs.flags.writeable = False
            _held = (key, modulus, coeffs)
        if numerator:
            coeffs = coeffs.copy()
    for terms in numerator:
        _multiply_by_sparse_shifted(coeffs, terms, modulus)
    return coeffs


def _euler_product_log_derivative(c: ExponentSequence, n: int, ring: CoefficientRing) -> list:
    """Any integer rule by the logarithmic derivative recurrence
    n*b(n) = sum_d sigma_c1(d) b(n-d), sigma_c1(d) = sum_{r | d} c(r)*r, run
    over exact integers (object arrays, one dot product per n) so the
    division by n is exact, then reduced into the ring.  O(n^2) integer
    operations."""
    sigma1 = np.zeros(n + 1, dtype=object)
    for r in range(1, n + 1):
        w = c.value_at(r) * r
        if w:
            sigma1[r::r] += w
    b = np.zeros(n + 1, dtype=object)
    b[0] = 1
    for i in range(1, n + 1):
        q, rem = divmod(sigma1[1 : i + 1].dot(b[i - 1 :: -1]), i)
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

    Two paths.  A rule whose value depends only on gcd(r, period) is an
    eta-quotient A = prod_d f(q^d)^(-m_d), f = (q;q)_inf, expanded by
    _euler_product_grouped as numerator / denominator: the numerator is
    the pentagonal series of f(q^d)^|m_d| for m_d < 0, the denominator
    that of f(q^d)^m_d for m_d > 0, except that the overpartitions'
    f(q)^2 / f(q^2) is Gauss's theta_4 = 1 + 2 sum_{k>=1} (-1)^k q^{k^2}.
    Every other integer rule, periodic or carrying the linear factor r,
    runs the logarithmic derivative recurrence of
    _euler_product_log_derivative, O(n^2) exact integer operations; rules
    with the factor r (plane partitions) are capped at n = 5000 unless
    allow_large, and past it raise ResourceLimitError.

    Over Z/N under fits_newton(n, N), the denominator is written densely
    by shifted-slice products and inverted by _newton_inverse, O(n log n).
    The last inverse is held: a request for the same decomposition and
    modulus up to its length is a read-only prefix view of it (so ordinary
    partitions and coloured(1) share one), a longer one continues Newton's
    iteration from it into a new array, and another decomposition drops it
    before anything is built, so at most one series is held.  The
    numerator is multiplied into a copy by shifted-slice products,
    O(n^1.5) each; a product without a denominator (eta powers) is that
    product alone and leaves the hold as it is.

    Over Z, and over Z/N past fits_newton, each denominator factor is
    divided out by the scalar subtraction recurrence of _divide_by_sparse,
    O(n^1.5) interpreted ring operations, and the numerator's factors are
    multiplied in by the same shifted-slice products on an object array.
    Nothing is rounded unchecked on any path, so a certification built on
    them remains a proof.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    decomp = _indicator_decomposition(c)
    if decomp is not None:
        return Series(ring, _euler_product_grouped(decomp, n, ring))
    if c.power_factor and n > PLANE_PARTITION_DEFAULT_CAP and not allow_large:
        raise ResourceLimitError(
            f"linear exponent rules are capped at N={PLANE_PARTITION_DEFAULT_CAP}; "
            "allow_large=True (dump-series --allow-large) lifts the cap"
        )
    return Series(ring, _euler_product_log_derivative(c, n, ring))


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
        return Series(ring, [1] + [0] * n)
    rule = ExponentSequence(f"eta-power({k})", 1, (-k,))
    return euler_product_coefficients(rule, n, ring)


def tau_coefficients(n: int, ring: CoefficientRing) -> Series:
    """Ramanujan tau(1..n) read off q*(q;q)_inf^24, with a(0) = 0."""
    if n < 1:
        raise ValueError("need n >= 1 for tau")
    eta24 = eta_power_coefficients(24, n - 1, ring).coeffs
    return Series(ring, np.concatenate(([0], eta24)))


def r2_coefficients(n: int) -> Series:
    """r2(0..n): lattice points on x^2 + y^2 = m, by direct counting."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    counts = [0] * (n + 1)
    for x in range(-isqrt(n), isqrt(n) + 1):
        rem = n - x * x
        for y in range(-isqrt(rem), isqrt(rem) + 1):
            counts[x * x + y * y] += 1
    return Series(CoefficientRing.exact_integers(), counts)


def companion_series(ensemble: Ensemble, n: int, ring: CoefficientRing, *, allow_large: bool = False) -> Series:
    """The companion coefficients b(0..n) for an ensemble, in the given ring.

    Theta's companion is r2.  Every other ensemble is its own companion,
    euler_product_coefficients of its exponents: over Z/N under
    fits_newton(n, N) an eta-quotient's request is served from, or extends,
    the inverse held there.
    """
    if ensemble.companion != "self":
        return make_series(ring, r2_coefficients(n).coeffs)
    return euler_product_coefficients(ensemble.exponents, n, ring, allow_large=allow_large)


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


def _newton_inverse(a: np.ndarray, modulus: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """1/a mod modulus to len(a) terms; a[0] must be a unit mod modulus.
    prefix, when given, holds leading terms of 1/a already known.

    Newton's step g <- g - g*(a*g - 1) takes k correct terms to k2 <= 2k.
    The steps run top-down: the precisions are len(a), then each halved and
    rounded up, down to the first at or below the known terms (prefix's, or
    the one term a[0]**-1), so no step computes terms past len(a).  A step
    from k >= FFT_MIN_TERMS terms under fits_fft(k2, k, modulus) runs as
    _newton_step_fft; any other step, and one whose rounding check fails,
    as two _convolve_mod products, which are exact in every tier.  The
    result has a's dtype.
    """
    n1 = len(a)
    known = 1 if prefix is None else max(1, len(prefix))
    schedule = []
    k = n1
    while k > known:
        schedule.append(k)
        k = (k + 1) // 2
    g = np.zeros(n1, dtype=a.dtype)
    if prefix is None:
        g[0] = pow(int(a[0]), -1, modulus)
    else:
        g[:k] = prefix[:k]
    for k2 in reversed(schedule):
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

    a and b hold residues in [0, modulus) (int64 or object arrays, or
    integer sequences); only the first n terms of b take part.  An output
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
    - Python integers: one object-array dot product per coefficient,
      returned as an object array.

    A 2-D ndarray a is a batch: every row is multiplied by the same b under
    the same guards, which depend only on n, len(b) and modulus.  The FFT tier
    transforms the whole block along its last axis with one spectrum of b
    and checks the 1/4 bound over the whole block; if any coefficient
    fails it, every row falls back and runs the lower tiers one row at a
    time.  The caller bounds the rows of a block, since the FFT tier's
    workspace grows with rows times FFT size.

    Every tier is exact and returns values in [0, modulus); the first three
    return int64.
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


def dump_series(series: Series, ensemble_name: str) -> str:
    """Dump format: header line, then one decimal coefficient per line."""
    lines = [f"# ring={series.ring.describe()} N={series.n_max} ensemble={ensemble_name}"]
    lines.extend(str(c) for c in series.coeffs)
    return "\n".join(lines) + "\n"
