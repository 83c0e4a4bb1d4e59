"""Elementary number theory for the congruence pipeline.

Primes, factorization, the index of Gamma0(N) in SL2(Z), half-integral
Sturm bounds, and Kronecker symbols.  Everything is exact integer
arithmetic; nothing here ever touches floating point.  It also holds the
coefficient budget and its error, which the CLI needs before it loads the
series engine, so this module imports nothing beyond the standard library.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

__all__ = [
    "DEFAULT_COEFF_BUDGET",
    "PrimeTable",
    "ResourceLimitError",
    "SturmConfig",
    "SHARP24",
    "CONSERVATIVE12",
    "factorize",
    "fermat_reduce",
    "index_gamma0",
    "is_prime",
    "kronecker_symbol",
    "primes_up_to",
    "sturm_bound",
    "sturm_bound_for_level",
]

SHARP24 = "sharp24"
CONSERVATIVE12 = "conservative12"

_BOUND_MODES = (SHARP24, CONSERVATIVE12)
_LEVEL_MODELS = ("natural", "safe", "custom")

DEFAULT_COEFF_BUDGET = 1 << 25


class ResourceLimitError(RuntimeError):
    """A requested series would exceed a coefficient budget or size cap."""


class PrimeTable:
    """All primes up to an inclusive limit, ascending.  Immutable; equal
    tables compare and hash equal, and iterating yields the primes."""

    __slots__ = ("limit", "primes")

    def __init__(self, limit: int, primes: tuple[int, ...]) -> None:
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "primes", primes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not PrimeTable:
            return NotImplemented
        return (self.limit, self.primes) == (other.limit, other.primes)

    def __hash__(self) -> int:
        return hash((self.limit, self.primes))

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit!r}, primes={self.primes!r})"

    def __reduce__(self):
        return PrimeTable, (self.limit, self.primes)

    def __iter__(self):
        return iter(self.primes)


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 2:
        return PrimeTable(limit, ())
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = bytearray(len(range(start, limit + 1, p)))
    return PrimeTable(limit, tuple(i for i, flag in enumerate(sieve) if flag))


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.

    A witness proves n composite at any size, but passing every base proves
    n prime only below _MR_LIMIT; at and above it such an n raises
    ValueError rather than be answered without proof.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality not proven above {_MR_LIMIT}: {n}")
    return True


def fermat_reduce(m: int, ell: int) -> int:
    """The unique odd residue of m in {1, 3, ..., ell-2} modulo ell - 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and >= 1")
    if ell < 5 or not is_prime(ell):
        raise ValueError("ell must be a prime >= 5")
    reduced = m % (ell - 1)
    # ell - 1 is even, so reduction preserves the parity of m.
    assert reduced % 2 == 1
    return reduced


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with ascending primes."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: list[tuple[int, int]] = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def index_gamma0(N: int) -> int:
    """Index [SL2(Z) : Gamma0(N)] = N * prod_{p | N} (1 + 1/p).

    Computed as an exact integer: multiply the numerators first, divide once.
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    num, den = N, 1
    for p, _ in factorize(N):
        num *= p + 1
        den *= p
    return num // den


class _SturmConfigFields(NamedTuple):
    mode: str = CONSERVATIVE12
    level_model: str = "safe"
    custom_level: int | None = None


class SturmConfig(_SturmConfigFields):
    """Bound mode and Gamma0(4L) level model for half-integral Sturm checks.

    mode selects the divisor in B = floor(k * [SL2(Z):Gamma0(4L)] / divisor)
    with k = 2m + 1: "sharp24" divides by 24, "conservative12" by 12.  The
    conservative mode is the default because it is the one justified by
    multiplying into integral weight with a theta power; sharp24 is what the
    published ordinary-partition and filtered tables use.

    level_model resolves L from the progression prime: "natural" is L = ell,
    "safe" is L = ell**2, "custom" takes an explicit L >= 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in _BOUND_MODES:
            raise ValueError(f"unknown bound mode {self.mode!r}")
        if self.level_model not in _LEVEL_MODELS:
            raise ValueError(f"unknown level model {self.level_model!r}")
        if self.level_model == "custom":
            if self.custom_level is None or self.custom_level < 1:
                raise ValueError("custom level model requires custom_level >= 1")
        elif self.custom_level is not None:
            raise ValueError("custom_level only makes sense with the custom model")
        return self

    def resolve_level(self, ell: int) -> int:
        if self.level_model == "natural":
            return ell
        if self.level_model == "safe":
            return ell * ell
        assert self.custom_level is not None
        return self.custom_level


def sturm_bound_for_level(m: int, mode: str, level: int) -> int:
    """B = floor(k * index_gamma0(4L) / divisor), k = 2m + 1, clamped to >= 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError("weight parameter m must be odd and >= 1")
    if mode not in _BOUND_MODES:
        raise ValueError(f"unknown bound mode {mode!r}")
    if level < 1:
        raise ValueError("level must be >= 1")
    k = 2 * m + 1
    divisor = 24 if mode == SHARP24 else 12
    bound = (k * index_gamma0(4 * level)) // divisor
    return max(bound, 1)


def sturm_bound(m: int, config: SturmConfig, ell: int) -> int:
    """Half-integral Sturm bound for weight m + 1/2 at the level L(ell) the
    config resolves.  ell must be prime for the natural and safe models."""
    if config.level_model in ("natural", "safe") and not is_prime(ell):
        raise ValueError(f"ell={ell} must be prime for the {config.level_model} level model")
    return sturm_bound_for_level(m, config.mode, config.resolve_level(ell))


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D | n), the completely multiplicative extension of
    the Legendre symbol to all integer arguments."""
    a = D
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        # (a | 2) = +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
