"""Divisor-sum tables: plain powers, character twists, Glaisher-style
divisor filters, and the modular data of each filtered moment.

Filters are divisor predicates.  Only real ({-1, 0, 1}-valued) characters
are evaluated, because modular arithmetic has no canonical home for complex
character values.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import is_prime, kronecker_symbol
from .qseries import CoefficientRing, Ensemble, Series, fits_int64

__all__ = [
    "DivisorWeight",
    "FilterModularData",
    "GlaisherFilter",
    "filter_modular_data",
    "sigma_from_weight_function",
    "sigma_table",
    "weighted_sigma_table",
]


def _discriminant(D: int | None) -> int:
    """D if (D|.) is a real character mod |D|, that is D = 0, 1 (mod 4) and
    nonzero (Cohen, A Course in Computational Algebraic Number Theory, 1.4);
    else ValueError: (2|.) has period 8, and (3|.) none below 200."""
    if not D or D % 4 > 1:
        raise ValueError(f"the Kronecker symbol (D|.) needs a nonzero discriminant D = 0, 1 (mod 4), not {D}")
    return D


# One row per selector kind: its parameters -> (w, conductor, character), the
# weight w(d), the period of w (the weighted moment series lives on
# Gamma0(4 * conductor)), and the dictionary's character.  A twist by a real
# character chi is the filter with weights chi(d), so the twist kinds chi0(m)
# and kronecker(D) reuse the rows of their filter twins coprime(m) and
# kronecker-weight(D); only their labels differ.
_FILTER_ROWS: dict[str, Callable[..., tuple[Callable[[int], int], int, str]]] = {
    "all": lambda: ((lambda d: 1), 1, "trivial"),
    "coprime": lambda m: ((lambda d: int(gcd(d, m) == 1)), m, f"chi0({m})"),
    "odd": lambda: ((lambda d: d % 2), 2, "chi0(2)"),
    # level 8 is recorded with no named character for this row
    "even": lambda: ((lambda d: 1 - d % 2), 2, "unspecified"),
    "residue": lambda a, m: ((lambda d: int(d % m == a)), m, f"character mixture mod {m}"),
    "quadratic-residues": lambda p: (
        (lambda d: int(pow(d, (p - 1) // 2, p) == 1)), p, f"(chi0({p}) + chi_{p})/2"),
    "kronecker-weight": lambda D: (partial(kronecker_symbol, D), abs(D), f"chi_D, D={D}"),
    "exclude-multiples": lambda p: ((lambda d: int(d % p != 0)), p, f"chi0({p})"),
}
_TWIST_KINDS = ("chi0", "kronecker")
_FILTER_ROWS.update(chi0=_FILTER_ROWS["coprime"], kronecker=_FILTER_ROWS["kronecker-weight"])


class _GlaisherFilterFields(NamedTuple):
    kind: str
    params: tuple[int, ...] = ()


class GlaisherFilter(_GlaisherFilterFields):
    """A divisor-selection rule with weights in {-1, 0, 1}: a row of
    _FILTER_ROWS and its parameters, a character twist or a filter."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in _FILTER_ROWS:
            raise ValueError(f"unknown selector kind {self.kind!r}")
        if self.kind in ("coprime", "chi0"):
            if len(self.params) != 1 or self.params[0] < 1:
                raise ValueError(f"{self.kind} needs a modulus >= 1")
        elif self.kind == "residue":
            if len(self.params) != 2:
                raise ValueError("residue filter needs (a, m)")
            a, m = self.params
            if m < 1 or not 0 <= a < m:
                raise ValueError("residue filter needs 0 <= a < m, m >= 1")
        elif self.kind in ("quadratic-residues", "exclude-multiples"):
            if len(self.params) != 1 or not is_prime(self.params[0]):
                raise ValueError(f"{self.kind} filter needs a prime")
            if self.kind == "quadratic-residues" and self.params[0] == 2:
                raise ValueError("quadratic residue filter needs an odd prime")
        elif self.kind in ("kronecker-weight", "kronecker"):
            _discriminant(self.params[0] if len(self.params) == 1 else None)
        elif self.params:
            raise ValueError(f"{self.kind} filter takes no parameters")
        return self

    @classmethod
    def principal(cls, m: int) -> GlaisherFilter:
        return cls("chi0", (m,))

    @classmethod
    def kronecker(cls, D: int) -> GlaisherFilter:
        return cls("kronecker", (D,))

    @classmethod
    def all_divisors(cls) -> GlaisherFilter:
        return cls("all")

    @classmethod
    def coprime_to(cls, m: int) -> GlaisherFilter:
        return cls("coprime", (m,))

    @classmethod
    def odd_divisors(cls) -> GlaisherFilter:
        return cls("odd")

    @classmethod
    def even_divisors(cls) -> GlaisherFilter:
        return cls("even")

    @classmethod
    def residue_class(cls, a: int, m: int) -> GlaisherFilter:
        return cls("residue", (a, m))

    @classmethod
    def quadratic_residues(cls, p: int) -> GlaisherFilter:
        return cls("quadratic-residues", (p,))

    @classmethod
    def kronecker_weight(cls, D: int) -> GlaisherFilter:
        return cls("kronecker-weight", (D,))

    @classmethod
    def exclude_multiples_of(cls, p: int) -> GlaisherFilter:
        return cls("exclude-multiples", (p,))

    def _row(self) -> tuple[Callable[[int], int], int, str]:
        return _FILTER_ROWS[self.kind](*self.params)

    def weight(self, d: int) -> int:
        return self._row()[0](d)

    @property
    def conductor(self) -> int:
        """The period of the weights, and the level over 4."""
        return self._row()[1]

    def describe(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind

    def label(self) -> str:
        """chi=<kind>(<args>) for a twist, filter=<kind>(<args>) otherwise."""
        return f"{'chi' if self.kind in _TWIST_KINDS else 'filter'}={self.describe()}"


# The twist class's former name, kept for the frozen acceptance suite.
DirichletCharacterSpec = GlaisherFilter


class _DivisorWeightFields(NamedTuple):
    exponent: int
    selector: GlaisherFilter | Ensemble | None = None


class DivisorWeight(_DivisorWeightFields):
    """The rule d -> w(d) * d^exponent feeding the master transform.

    The selector is None for plain power sums, a Glaisher filter for
    twisted or filtered sums, or an ensemble for its canonical weights
    w(d) = c(d) = sum_{e | d} m_e.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.exponent < 0:
            raise ValueError("exponent must be >= 0")
        return self

    def weight_of(self, d: int) -> int:
        return 1 if self.selector is None else self.selector.weight(d)

    @property
    def conductor(self) -> int:
        """The selector's conductor for a twist or filter, 1 for plain and
        canonical weights: the one place a certification's level reads it."""
        sel = self.selector
        return 1 if sel is None or isinstance(sel, Ensemble) else sel.conductor

    def describe(self) -> str:
        sel = self.selector
        if sel is None:
            return f"m={self.exponent}"
        if isinstance(sel, Ensemble):
            return f"m={self.exponent}, rule={sel.name}"
        return f"m={self.exponent}, {sel.label()}"


def _tiled(values: np.ndarray, length: int) -> np.ndarray:
    """values[..., d % period] for d = 0..length-1, period the last axis."""
    period = values.shape[-1]
    return np.tile(values, -(-length // period))[..., :length]


def _powers_mod(exponents, span: int, modulus: int) -> np.ndarray:
    """r**e mod modulus for r = 0..span-1 and each e >= 0 in exponents, as
    int64 of shape np.shape(exponents) + (span,), with 0**0 = 1.

    Square-and-multiply over the bits of the exponents, on the whole table
    at once.  Every caller sits under fits_int64(1, modulus), so
    (modulus - 1)**2 < 2**63 and each product of two residues is exact in
    int64.  The exponents stay Python integers, so any size is exact.
    """
    shape = np.shape(exponents)
    flat = [int(x) for x in np.ravel(exponents)]
    table = np.full((len(flat), span), 1 % modulus, dtype=np.int64)
    base = np.arange(span, dtype=np.int64) % modulus
    for bit in range(max(flat, default=0).bit_length()):
        if bit:
            base *= base
            base %= modulus
        rows = [i for i, x in enumerate(flat) if x >> bit & 1]
        if len(rows) == len(flat):  # one exponent never needs the gather below
            table *= base
            table %= modulus
        elif rows:
            table[rows] = table[rows] * base % modulus
    return table.reshape(shape + (span,))


def _weight_period(weight: DivisorWeight, n: int) -> list[int]:
    """One period of w, cut at n: values = [w(d) for d < min(period, n + 1)],
    so that w(d) = values[d % len(values)] for every d <= n.

    w does not depend on the exponent, and it is periodic: an ensemble's
    canonical weight with the ensemble's period, a twist's or filter's with
    its conductor, a plain weight with period 1.  So min(period, n + 1)
    calls of weight_of cover any n, whatever the period.
    """
    sel = weight.selector
    period = sel.period if isinstance(sel, Ensemble) else weight.conductor
    return [weight.weight_of(d) for d in range(min(period, n + 1))]


def _weight_values_mod(weight: DivisorWeight, n: int, modulus: int) -> np.ndarray | None:
    """w(d) mod modulus for d = 0..n as int64, one period tiled, or None
    when w = 1 mod modulus."""
    if weight.selector is None:
        return None
    values = [v % modulus for v in _weight_period(weight, n)]
    if all(v == 1 for v in values):
        return None
    return _tiled(np.array(values, dtype=np.int64), n + 1)


def _weight_terms_mod(exponents, w: np.ndarray | None, n: int, modulus: int) -> np.ndarray:
    """term(d) = w(d) * d^e mod modulus for d = 0..n as int64, term(0) = 0,
    for one exponent e (shape (n + 1,)) or a stack of them (one row each).

    d^e is periodic mod modulus, so it is a table over r = 0..min(modulus,
    n+1)-1 tiled to length n + 1 (a table of r^e tiles to its value at
    d mod modulus).  w, from _weight_values_mod, is shared by every row.
    Products are formed in place, so besides w one block of terms is alive.
    """
    terms = _tiled(_powers_mod(exponents, min(modulus, n + 1), modulus), n + 1)
    if w is not None:
        terms *= w
        terms %= modulus
    terms[..., 0] = 0
    return terms


def _divisor_sums_mod(terms: np.ndarray, modulus: int | None) -> np.ndarray:
    """a(k) = sum_{d | k} terms[..., d] along the last axis, reduced mod
    modulus unless it is None, in terms' dtype, in about 2*sqrt(n) slices of
    the whole block: one stride per divisor d <= sqrt(n), one per cofactor j
    for d > sqrt(n)."""
    n = terms.shape[-1] - 1
    # a(k) starts at term(k), the divisor d = k (so a(0) is term(0), a zero
    # of the ring), and the slices below add the divisors d < k
    table = terms.copy()
    # .T puts d first and leaves one row as it is, so a 1-D table adds
    # scalars and a block adds one term per row
    by_d, table_by_d = terms.T, table.T
    root = isqrt(n)
    for d in range(1, root + 1):
        table_by_d[2 * d :: d] += by_d[d]
    for j in range(2, n // (root + 1) + 1):
        top = n // j
        table_by_d[j * (root + 1) : j * top + 1 : j] += by_d[root + 1 : top + 1]
    if modulus is not None:
        table %= modulus
    return table


def sigma_table(m: int, n: int, ring: CoefficientRing) -> Series:
    """sigma_m(0..n): a(k) = sum_{d | k} d^m, with a(0) = 0."""
    return weighted_sigma_table(DivisorWeight(m), n, ring)


def weighted_sigma_table(weight: DivisorWeight, n: int, ring: CoefficientRing) -> Series:
    """a(k) = sum_{d | k} w(d) * d^m for the given divisor weight.

    Over Z/N the terms are int64 tables when every product of two residues
    and every sum of n residues fits in int64; otherwise, and over Z,
    they are Python ints, one per d, in an object array.  Either way
    _divisor_sums_mod sums them.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    m = weight.exponent
    modulus = ring.modulus
    if modulus is not None and fits_int64(1, modulus) and n * (modulus - 1) < 2**63:
        terms = _weight_terms_mod(m, _weight_values_mod(weight, n, modulus), n, modulus)
        return Series(ring, _divisor_sums_mod(terms, modulus))

    values = _weight_period(weight, n)

    def term(d: int) -> int:
        w = values[d % len(values)]
        return w * pow(d, m, modulus) if w else 0  # pow(d, m, None) = d**m

    return sigma_from_weight_function(term, n, ring)


def sigma_from_weight_function(f, n: int, ring: CoefficientRing) -> Series:
    """a(k) = sum_{d | k} f(d) for an arbitrary integer-valued weight f.

    Escape hatch for weights outside the DivisorWeight taxonomy, e.g. the
    Moebius function.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    terms = np.array([0] + [ring.reduce(f(d)) for d in range(1, n + 1)], dtype=object)
    return Series(ring, _divisor_sums_mod(terms, ring.modulus))


# ---------------------------------------------------------------------------
# Modular metadata
# ---------------------------------------------------------------------------


class _FilterModularDataFields(NamedTuple):
    k: int
    level: int
    character: str


class FilterModularData(_FilterModularDataFields):
    """Half-integral modular data for a filtered odd moment: weight k/2 with
    k = 2s + 1, level of the Gamma0 group, and the character."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k % 2 == 0:
            raise ValueError("k must be odd")
        if self.level % 4 != 0:
            raise ValueError("level must be a multiple of 4")
        return self


def filter_modular_data(filt: GlaisherFilter, s: int) -> FilterModularData:
    """Dictionary row for a filter at odd exponent s: the filtered moment
    series lives in weight s + 1/2 at level 4 * conductor, with the
    character of the filter's row in _FILTER_ROWS."""
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be odd and >= 1")
    _, conductor, character = filt._row()
    return FilterModularData(2 * s + 1, 4 * conductor, character)
