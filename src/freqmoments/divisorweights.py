"""Divisor-sum tables: plain powers, character twists, Glaisher-style
divisor filters, and the filter-to-character dictionary metadata.

Filters are implemented as divisor predicates first; their expansions into
Dirichlet character twists are a tested property, not the implementation
path.  Only real ({-1, 0, 1}-valued) characters are evaluated numerically,
because modular arithmetic has no canonical home for complex character
values; expansions needing complex characters are metadata only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .arith import factorize, is_prime, kronecker_symbol
from .qseries import CoefficientRing, ExponentSequence, Series, fits_int64

__all__ = [
    "CharacterTerm",
    "DirichletCharacterSpec",
    "DivisorWeight",
    "FilterModularData",
    "GlaisherFilter",
    "ResidueFilterExpansion",
    "expand_residue_filter",
    "filter_modular_data",
    "legendre_character",
    "quadratic_residue_weight",
    "sigma_from_weight_function",
    "sigma_table",
    "weighted_sigma_table",
]


@dataclass(frozen=True)
class DirichletCharacterSpec:
    """A real Dirichlet character: trivial, principal mod m, or Kronecker.

    kind "kronecker" evaluates kronecker_symbol(parameter, d), optionally
    forced to zero off units of a larger modulus (the imprimitive version).
    """

    kind: str
    parameter: int | None = None
    modulus: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("trivial", "principal", "kronecker"):
            raise ValueError(f"unknown character kind {self.kind!r}")
        if self.kind == "trivial" and self.modulus != 1:
            raise ValueError("the trivial character has modulus 1")
        if self.kind == "principal" and self.modulus < 1:
            raise ValueError("principal character needs modulus >= 1")
        if self.kind == "kronecker":
            if self.parameter in (None, 0):
                raise ValueError("kronecker character needs a nonzero discriminant")
            if self.modulus % abs(self.parameter) != 0:
                raise ValueError("modulus must be a multiple of |D|")

    @classmethod
    def trivial(cls) -> DirichletCharacterSpec:
        return cls("trivial")

    @classmethod
    def principal(cls, m: int) -> DirichletCharacterSpec:
        return cls("principal", modulus=m)

    @classmethod
    def kronecker(cls, D: int, modulus: int | None = None) -> DirichletCharacterSpec:
        return cls("kronecker", parameter=D, modulus=abs(D) if modulus is None else modulus)

    def value(self, d: int) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "principal":
            return 1 if gcd(d, self.modulus) == 1 else 0
        if gcd(d, self.modulus) != 1:
            return 0
        assert self.parameter is not None
        return kronecker_symbol(self.parameter, d)

    @property
    def level_factor(self) -> int:
        """The modulus the character contributes to a twisted form's level."""
        return self.modulus

    def describe(self) -> str:
        if self.kind == "trivial":
            return "1"
        if self.kind == "principal":
            return f"chi0({self.modulus})"
        if self.modulus != abs(self.parameter or 0):
            return f"kronecker({self.parameter})@{self.modulus}"
        return f"kronecker({self.parameter})"


def legendre_character(p: int) -> DirichletCharacterSpec:
    """The quadratic character mod an odd prime p, (d | p), as a Kronecker
    spec with the fundamental discriminant +-p."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    D = p if p % 4 == 1 else -p
    return DirichletCharacterSpec.kronecker(D, modulus=p)


@dataclass(frozen=True)
class GlaisherFilter:
    """A divisor-selection rule with weights in {-1, 0, 1}."""

    kind: str
    params: tuple[int, ...] = ()

    _KINDS = (
        "all",
        "coprime",
        "odd",
        "even",
        "residue",
        "quadratic-residues",
        "kronecker-weight",
        "exclude-multiples",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "coprime":
            if len(self.params) != 1 or self.params[0] < 1:
                raise ValueError("coprime filter needs a modulus >= 1")
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
        elif self.kind == "kronecker-weight":
            if len(self.params) != 1 or self.params[0] == 0:
                raise ValueError("kronecker weight needs a nonzero discriminant")
        elif self.params:
            raise ValueError(f"{self.kind} filter takes no parameters")

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

    def weight(self, d: int) -> int:
        kind = self.kind
        if kind == "all":
            return 1
        if kind == "coprime":
            return 1 if gcd(d, self.params[0]) == 1 else 0
        if kind == "odd":
            return d % 2
        if kind == "even":
            return 1 - d % 2
        if kind == "residue":
            a, m = self.params
            return 1 if d % m == a else 0
        if kind == "quadratic-residues":
            p = self.params[0]
            return 1 if d % p != 0 and pow(d, (p - 1) // 2, p) == 1 else 0
        if kind == "kronecker-weight":
            return kronecker_symbol(self.params[0], d)
        return 1 if d % self.params[0] != 0 else 0

    def describe(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind


@dataclass(frozen=True)
class DivisorWeight:
    """The rule d -> w(d) * d^exponent feeding the master transform.

    The selector is None for plain power sums, a character spec for twisted
    sums, a Glaisher filter for filtered sums, or an exponent sequence for an
    ensemble's canonical weights w(d) = c(d).
    """

    exponent: int
    selector: DirichletCharacterSpec | GlaisherFilter | ExponentSequence | None = None

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("exponent must be >= 0")

    def weight_of(self, d: int) -> int:
        sel = self.selector
        if sel is None:
            return 1
        if isinstance(sel, DirichletCharacterSpec):
            return sel.value(d)
        if isinstance(sel, GlaisherFilter):
            return sel.weight(d)
        return sel.value_at(d)

    def describe(self) -> str:
        sel = self.selector
        if sel is None:
            return f"m={self.exponent}"
        if isinstance(sel, DirichletCharacterSpec):
            return f"m={self.exponent}, chi={sel.describe()}"
        if isinstance(sel, GlaisherFilter):
            return f"m={self.exponent}, filter={sel.describe()}"
        return f"m={self.exponent}, rule={sel.name}"


def _build_sigma(term_of_d, n: int, ring: CoefficientRing) -> Series:
    """a(k) = sum_{d | k} term(d) by striding over multiples; a(0) = 0."""
    modulus = ring.modulus
    table = [ring.zero] * (n + 1)
    for d in range(1, n + 1):
        t = term_of_d(d)
        if t == 0:
            continue
        t = ring.reduce(t)
        for k in range(d, n + 1, d):
            v = table[k] + t
            table[k] = v % modulus if modulus is not None else v
    return Series(ring, tuple(table))


def _tiled(values: np.ndarray, length: int) -> np.ndarray:
    """values[..., d % period] for d = 0..length-1, period the last axis."""
    period = values.shape[-1]
    return np.tile(values, -(-length // period))[..., :length]


def _powers_mod(exponents, span: int, modulus: int) -> np.ndarray:
    """r**e mod modulus for r = 0..span-1 and each e in exponents, as int64
    of shape np.shape(exponents) + (span,)."""
    e = np.asarray(exponents)
    table = [pow(r, int(x), modulus) for x in e.flat for r in range(span)]
    return np.array(table, dtype=np.int64).reshape(e.shape + (span,))


def _weight_values_mod(weight: DivisorWeight, n: int, modulus: int) -> np.ndarray | None:
    """w(d) mod modulus for d = 0..n as int64, or None when w = 1 mod modulus.

    w does not depend on the exponent.  Ensemble weights are periodic, so a
    short table is tiled (times d mod modulus when the rule has a power
    factor); characters and filters are evaluated once per d.
    """
    sel = weight.selector
    if sel is None:
        return None
    if isinstance(sel, ExponentSequence):
        if not sel.power_factor and all(v % modulus == 1 for v in sel.values):
            return None
        w = _tiled(np.array([v % modulus for v in sel.values], dtype=np.int64), n + 1)
        if sel.power_factor:
            w *= _tiled(np.arange(min(modulus, n + 1), dtype=np.int64), n + 1)
            w %= modulus
        return w
    return np.array([0] + [weight.weight_of(k) % modulus for k in range(1, n + 1)], dtype=np.int64)


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


def _divisor_sums_mod(terms: np.ndarray, modulus: int) -> np.ndarray:
    """a(k) = sum_{d | k} terms[..., d] mod modulus along the last axis, in
    about 2*sqrt(n) slices of the whole block: one stride per divisor
    d <= sqrt(n), one per cofactor j for d > sqrt(n)."""
    n = terms.shape[-1] - 1
    table = np.zeros(terms.shape, dtype=np.int64)
    # .T puts d first and leaves one row as it is, so a 1-D table adds
    # scalars and a block adds one term per row
    by_d, table_by_d = terms.T, table.T
    root = isqrt(n)
    for d in range(1, root + 1):
        table_by_d[d::d] += by_d[d]
    for j in range(1, n // (root + 1) + 1):
        top = n // j
        table_by_d[j * (root + 1) : j * top + 1 : j] += by_d[root + 1 : top + 1]
    table %= modulus
    return table


def sigma_table(m: int, n: int, ring: CoefficientRing) -> Series:
    """sigma_m(0..n): a(k) = sum_{d | k} d^m, with a(0) = 0."""
    return weighted_sigma_table(DivisorWeight(m), n, ring)


def weighted_sigma_table(weight: DivisorWeight, n: int, ring: CoefficientRing) -> Series:
    """a(k) = sum_{d | k} w(d) * d^m for the given divisor weight.

    Over Z/N the table is built with int64 numpy slices when every product
    of two residues and every sum of n residues fits in int64; otherwise,
    and over Z and Q, one Python stride per divisor.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    m = weight.exponent
    modulus = ring.modulus
    if modulus is not None and fits_int64(1, modulus) and n * (modulus - 1) < 2**63:
        terms = _weight_terms_mod(m, _weight_values_mod(weight, n, modulus), n, modulus)
        table = _divisor_sums_mod(terms, modulus)
        return Series(ring, tuple(table.tolist()))

    if modulus is not None:
        def term(d: int) -> int:
            w = weight.weight_of(d)
            return w * pow(d, m, modulus) if w else 0
    else:
        def term(d: int) -> int:
            w = weight.weight_of(d)
            return w * d**m if w else 0

    return _build_sigma(term, n, ring)


def sigma_from_weight_function(f, n: int, ring: CoefficientRing) -> Series:
    """a(k) = sum_{d | k} f(d) for an arbitrary integer-valued weight f.

    Escape hatch for weights outside the DivisorWeight taxonomy, e.g. the
    Moebius function.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    return _build_sigma(f, n, ring)


def quadratic_residue_weight(p: int, exponent: int) -> DivisorWeight:
    """The 0/1 indicator weight of quadratic residues coprime to p.

    Numerically equal to the half-sum of the principal and quadratic
    character twists mod p, which is the tested dictionary property.
    """
    if p == 2:
        raise ValueError("quadratic residue weight needs an odd prime")
    return DivisorWeight(exponent, GlaisherFilter.quadratic_residues(p))


# ---------------------------------------------------------------------------
# Character expansions and modular metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterTerm:
    coefficient: Fraction
    label: str
    spec: DirichletCharacterSpec | None = None


@dataclass(frozen=True)
class ResidueFilterExpansion:
    """The formal combination (1/phi(m)) sum_chi conj(chi)(a) chi.

    verifiable means every character involved is real and carried by an
    evaluable spec, so the expansion can be checked numerically; otherwise
    the terms are symbolic metadata.
    """

    residue: int
    modulus: int
    terms: tuple[CharacterTerm, ...]
    verifiable: bool

    def indicator(self, d: int) -> Fraction:
        if not self.verifiable:
            raise ValueError("expansion is metadata only; characters are not all real")
        total = Fraction(0)
        for term in self.terms:
            assert term.spec is not None
            total += term.coefficient * term.spec.value(d)
        return total


def _euler_phi(m: int) -> int:
    phi = 1
    for p, e in factorize(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _real_character_group(m: int) -> list[tuple[str, DirichletCharacterSpec]] | None:
    """The full character group mod m when every character is real and we can
    name it with principal/Kronecker data; None otherwise."""
    if m == 1:
        return [("1", DirichletCharacterSpec.trivial())]
    if m == 2:
        return [("chi0(2)", DirichletCharacterSpec.principal(2))]
    if m == 3:
        return [
            ("chi0(3)", DirichletCharacterSpec.principal(3)),
            ("kronecker(-3)", DirichletCharacterSpec.kronecker(-3)),
        ]
    if m == 4:
        return [
            ("chi0(4)", DirichletCharacterSpec.principal(4)),
            ("kronecker(-4)", DirichletCharacterSpec.kronecker(-4)),
        ]
    if m == 6:
        return [
            ("chi0(6)", DirichletCharacterSpec.principal(6)),
            ("kronecker(-3)@6", DirichletCharacterSpec.kronecker(-3, modulus=6)),
        ]
    return None


def expand_residue_filter(a: int, m: int) -> ResidueFilterExpansion:
    """Expand the indicator of d = a (mod m) over Dirichlet characters.

    For m in {1, 2, 3, 4, 6} the characters are real, the coefficients fold
    in conj(chi)(a) = chi(a), and the result is numerically verifiable.  For
    other moduli the group contains complex characters, so the terms keep a
    symbolic conj(chi)(a) factor in the label and carry no evaluator.  A
    non-unit residue class has no character expansion at all.
    """
    if m < 1 or not 0 <= a < m:
        raise ValueError("need a modulus m >= 1 and 0 <= a < m")
    phi = _euler_phi(m)
    if gcd(a, m) != 1:
        return ResidueFilterExpansion(a, m, (), verifiable=False)
    group = _real_character_group(m)
    if group is not None:
        terms = tuple(
            CharacterTerm(Fraction(spec.value(a), phi), label, spec) for label, spec in group
        )
        return ResidueFilterExpansion(a, m, terms, verifiable=True)
    terms = tuple(
        CharacterTerm(Fraction(1, phi), f"conj(chi_{j}|{m})({a}) * chi_{j}|{m}", None)
        for j in range(phi)
    )
    return ResidueFilterExpansion(a, m, terms, verifiable=False)


@dataclass(frozen=True)
class FilterModularData:
    """Half-integral modular data for a filtered odd moment: weight k/2 with
    k = 2s + 1, level of the Gamma0 group, and the character."""

    k: int
    level: int
    character: str

    def __post_init__(self) -> None:
        if self.k % 2 == 0:
            raise ValueError("k must be odd")
        if self.level % 4 != 0:
            raise ValueError("level must be a multiple of 4")


def filter_modular_data(filt: GlaisherFilter, s: int) -> FilterModularData:
    """Dictionary row for a filter at odd exponent s: the filtered moment
    series lives in weight s + 1/2 at the listed level."""
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be odd and >= 1")
    k = 2 * s + 1
    kind = filt.kind
    if kind == "all":
        return FilterModularData(k, 4, "trivial")
    if kind == "coprime":
        m = filt.params[0]
        return FilterModularData(k, 4 * m, f"chi0({m})")
    if kind == "odd":
        return FilterModularData(k, 8, "chi0(2)")
    if kind == "even":
        # Level 8 is recorded with no named character for this row.
        return FilterModularData(k, 8, "unspecified")
    if kind == "residue":
        m = filt.params[1]
        return FilterModularData(k, 4 * m, f"character mixture mod {m}")
    if kind == "quadratic-residues":
        p = filt.params[0]
        return FilterModularData(k, 4 * p, f"(chi0({p}) + chi_{p})/2")
    if kind == "kronecker-weight":
        D = filt.params[0]
        return FilterModularData(k, 4 * abs(D), f"chi_D, D={D}")
    p = filt.params[0]
    return FilterModularData(k, 4 * p, f"chi0({p})")
