from __future__ import annotations

import re
from collections import Counter
from math import gcd

import numpy as np
import pytest

from freqmoments.divisorweights import (
    DivisorWeight,
    GlaisherFilter,
    sigma_from_weight_function,
    sigma_table,
    weighted_sigma_table,
)
from freqmoments.arith import kronecker_symbol
from freqmoments.divisorweights import (
    _divisor_sums_mod,
    _powers_mod,
    _weight_terms_mod,
    _weight_values_mod,
)
from freqmoments.divisorweights import _FILTER_ROWS, _filter_row
from freqmoments.qseries import CoefficientRing, Ensemble, ORDINARY, OVERPARTITION, fits_int64

from test_qseries import make_series

Z = CoefficientRing.exact_integers()

# canonical weights c(d) = 2 for odd d and -1 for even d, some of them negative
THETA_WEIGHTS = Ensemble("theta-weights", ((1, 2), (2, -3)))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def slow_sigma(n: int, m: int, weight=lambda d: 1) -> int:
    return sum(weight(d) * d**m for d in divisors(n))


# --- plain sigma tables -----------------------------------------------------


def test_sigma_examples():
    assert sigma_table(0, 1, Z)[1] == 1
    assert sigma_table(3, 4, Z)[4] == 73
    assert sigma_table(1, 6, Z)[6] == 12


def test_sigma_zero_index_is_zero():
    assert sigma_table(5, 10, Z)[0] == 0


def test_sigma_tables_over_z_and_q_hold_python_values():
    # the object-array path: Python ints over Z and over a modulus past
    # int64, a(0) included
    for ring in (Z, CoefficientRing.integers_mod(2**64 + 13)):
        table = sigma_table(3, 30, ring)
        assert table.coeffs.dtype == object
        assert all(type(v) is int for v in table.coeffs)
        assert table.coeffs.tolist() == [0] + [slow_sigma(n, 3) for n in range(1, 31)]


def test_sigma_against_slow_oracle():
    for m in (0, 1, 2, 3, 11):
        table = sigma_table(m, 80, Z)
        for n in range(1, 81):
            assert table[n] == slow_sigma(n, m)


def test_sigma_multiplicative_on_coprime_pairs():
    table = sigma_table(3, 10000, Z)
    for a in range(1, 101):
        for b in range(1, 101):
            if gcd(a, b) == 1 and a * b <= 10000:
                assert table[a * b] == table[a] * table[b]


def test_sigma_mod_ring_matches_reduction():
    mod = CoefficientRing.integers_mod(13)
    exact = sigma_table(7, 200, Z)
    modular = sigma_table(7, 200, mod)
    assert modular == make_series(mod, exact.coeffs)


@pytest.mark.parametrize("n", [0, 1, 2, 99, 100, 101, 360])
@pytest.mark.parametrize("modulus", [5, 12, 691])  # 12 is composite
@pytest.mark.parametrize(
    "selector",
    [
        None,
        ORDINARY,
        OVERPARTITION,
        pytest.param(THETA_WEIGHTS, id="theta"),
        # c(d) has period 12, longer than the tables at n = 0, 1 and 2
        Ensemble("period-12", ((1, 1), (4, 2), (6, -1), (12, 3))),
        GlaisherFilter.kronecker(5),
        GlaisherFilter("residue", (1, 4)),
    ],
    ids=lambda s: "plain" if s is None else s.name if isinstance(s, Ensemble) else s.describe(),
)
def test_weighted_sigma_mod_matches_exact_reduction(selector, modulus, n):
    for m in (0, 3, 11):
        weight = DivisorWeight(m, selector)
        exact = weighted_sigma_table(weight, n, Z)
        ring = CoefficientRing.integers_mod(modulus)
        modular = weighted_sigma_table(weight, n, ring)
        assert modular == make_series(ring, exact.coeffs)


@pytest.mark.parametrize("n", [0, 1, 100, 361])
@pytest.mark.parametrize("modulus", [5, 12, 97, 2**31 - 1])
@pytest.mark.parametrize(
    "selector",
    [None, OVERPARTITION, GlaisherFilter.kronecker(5)],
    ids=["plain", "overpartition", "chi5"],
)
def test_sigma_block_rows_equal_the_one_exponent_tables(selector, modulus, n):
    exponents = [0, 1, 3, 11, 97]
    w = _weight_values_mod(DivisorWeight(1, selector), n, modulus)
    block = _divisor_sums_mod(_weight_terms_mod(exponents, w, n, modulus), modulus)
    assert block.shape == (len(exponents), n + 1)
    ring = CoefficientRing.integers_mod(modulus)
    for e, row in zip(exponents, block):
        assert row.tolist() == weighted_sigma_table(DivisorWeight(e, selector), n, ring).coeffs.tolist()
    powers = _powers_mod(exponents, min(modulus, n + 1), modulus)
    assert powers.tolist() == [[pow(r, e, modulus) for r in range(min(modulus, n + 1))] for e in exponents]


# the largest modulus with fits_int64(1, p): (p - 1)**2 < 2**63 <= p**2
LARGEST_INT64_MODULUS = 3037000500


def test_largest_int64_modulus_is_the_guard_edge():
    assert fits_int64(1, LARGEST_INT64_MODULUS)
    assert not fits_int64(1, LARGEST_INT64_MODULUS + 1)


@pytest.mark.parametrize("modulus", [2, 3, 97, 2**31 - 1, LARGEST_INT64_MODULUS])
def test_powers_mod_equals_pow(modulus):
    exponents = list(range(100))
    span = min(modulus, 200)
    table = _powers_mod(exponents, span, modulus)
    assert table.dtype == np.int64 and table.shape == (100, span)
    assert table.tolist() == [[pow(r, e, modulus) for r in range(span)] for e in exponents]
    assert table[0, 0] == 1  # 0**0
    # one exponent gives one row, without the exponent axis
    assert _powers_mod(99, span, modulus).tolist() == table[99].tolist()
    # an exponent past int64 stays exact
    big = 2**70 + 1
    assert _powers_mod([big], span, modulus).tolist() == [[pow(r, big, modulus) for r in range(span)]]


def test_weighted_sigma_beyond_int64_guard_is_exact():
    modulus = 2**62 + 5
    weight = DivisorWeight(5, THETA_WEIGHTS)
    exact = weighted_sigma_table(weight, 50, Z)
    ring = CoefficientRing.integers_mod(modulus)
    modular = weighted_sigma_table(weight, 50, ring)
    assert modular == make_series(ring, exact.coeffs)


# --- characters -------------------------------------------------------------


def test_character_values():
    principal5 = GlaisherFilter("principal", (5,))
    assert [principal5.weight(d) for d in (1, 2, 5, 10)] == [1, 1, 0, 0]
    chi5 = GlaisherFilter.kronecker(5)
    assert [chi5.weight(d) for d in (1, 2, 3, 4, 5, 6)] == [1, -1, -1, 1, 0, 1]
    assert GlaisherFilter("principal", (1,)).weight(12) == 1  # principal(1) is the trivial character


def test_character_imprimitive_modulus():
    # an imprimitive Kronecker character is the one of a discriminant D*f^2:
    # (-12|.) is (-3|.) made zero off the units of 6
    chi = GlaisherFilter.kronecker(-12)
    assert chi.weight(2) == 0  # killed by the factor 2^2 even though (-3|2) != 0
    assert chi.weight(5) == -1
    assert chi.conductor == 12
    with pytest.raises(ValueError):
        GlaisherFilter.kronecker(-6)  # not a discriminant


def legendre_character(p: int) -> GlaisherFilter:
    """(d | p) for an odd prime p: the Kronecker symbol of the fundamental
    discriminant +-p, as a character mod p."""
    return GlaisherFilter.kronecker(p if p % 4 == 1 else -p)


def test_legendre_character_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        chi = legendre_character(p)
        assert chi.conductor == p
        for d in range(1, 3 * p):
            if d % p == 0:
                assert chi.weight(d) == 0
            else:
                euler = pow(d, (p - 1) // 2, p)
                assert chi.weight(d) == (1 if euler == 1 else -1)


# --- weighted tables --------------------------------------------------------


def test_weighted_unweighted_equals_sigma():
    for m in (0, 2, 5):
        plain = sigma_table(m, 120, Z)
        weighted = weighted_sigma_table(DivisorWeight(m), 120, Z)
        assert plain.coeffs.tolist() == weighted.coeffs.tolist()


def test_overpartition_rule_example():
    weight = DivisorWeight(1, OVERPARTITION)
    table = weighted_sigma_table(weight, 6, Z)
    assert table[6] == 16  # 2*1 + 1*2 + 2*3 + 1*6


def test_kronecker_twist_example():
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    table = weighted_sigma_table(weight, 6, Z)
    assert table[6] == 182  # 1 - 8 - 27 + 216


def test_odd_divisor_filter_example():
    weight = DivisorWeight(0, GlaisherFilter("odd"))
    table = weighted_sigma_table(weight, 12, Z)
    assert table[12] == 2  # divisors 1 and 3


def test_overpartition_rule_is_sigma_plus_odd_part():
    for m in (1, 3, 5):
        rule = weighted_sigma_table(DivisorWeight(m, OVERPARTITION), 1000, Z)
        plain = sigma_table(m, 1000, Z)
        odd = weighted_sigma_table(DivisorWeight(m, GlaisherFilter("odd")), 1000, Z)
        for n in range(1, 1001):
            assert rule[n] == plain[n] + odd[n]


def test_weighted_mod_ring_matches_reduction():
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    exact = weighted_sigma_table(weight, 150, Z)
    ring = CoefficientRing.integers_mod(7)
    mod7 = weighted_sigma_table(weight, 150, ring)
    assert mod7 == make_series(ring, exact.coeffs)


def test_sigma_from_weight_function_moebius_collapses():
    from freqmoments.moments import moebius

    table = sigma_from_weight_function(moebius, 60, Z)
    # sum_{d|n} mu(d) is the indicator of n = 1
    assert table[1] == 1
    assert all(table[n] == 0 for n in range(2, 61))


# --- filters ----------------------------------------------------------------


def test_filter_weights():
    assert GlaisherFilter("all").weight(7) == 1
    assert GlaisherFilter("coprime", (6,)).weight(4) == 0
    assert GlaisherFilter("odd").weight(4) == 0
    assert GlaisherFilter("even").weight(4) == 1
    assert GlaisherFilter("residue", (1, 4)).weight(9) == 1
    assert GlaisherFilter("exclude", (3,)).weight(9) == 0
    assert GlaisherFilter("kronweight", (-4,)).weight(3) == -1
    qr5 = GlaisherFilter("qr", (5,))
    assert [d for d in (1, 2, 3, 6) if qr5.weight(d) == 1] == [1, 6]  # 1 and 6 are 1 mod 5
    assert GlaisherFilter("qr", (3,)).weight(3) == 0


# each kind: parameters in its domain, then refused parameters, a wrong
# count first and then values out of the domain (a kind with no parameters
# has no such value)
FILTER_DOMAINS = [
    ("all", (), [(1,)]),
    ("odd", (), [(2,)]),
    ("even", (), [(0, 2)]),
    ("coprime", (6,), [(), (0,)]),
    ("principal", (6,), [(6, 1), (0,)]),
    ("residue", (1, 4), [(1,), (4, 4), (-1, 4)]),
    ("qr", (5,), [(5, 7), (2,), (9,)]),
    ("kronweight", (5,), [(), (3,)]),
    ("kronecker", (-4,), [(5, 5), (0,)]),
    ("exclude", (3,), [(), (4,)]),
]


def test_filter_validation():
    assert sorted(kind for kind, _, _ in FILTER_DOMAINS) == sorted(_FILTER_ROWS)
    for kind, params, refused in FILTER_DOMAINS:
        assert GlaisherFilter(kind, params).params == params
        for bad in refused:
            # the refusal names the kind and what it needs
            with pytest.raises(ValueError, match=rf"^{re.escape(kind)} needs "):
                GlaisherFilter(kind, bad)
    with pytest.raises(ValueError, match="unknown selector kind"):
        GlaisherFilter("quadratic-residues", (5,))


def test_params_are_a_tuple_whatever_sequence_they_are_given_as():
    listed, tupled = GlaisherFilter("coprime", [3]), GlaisherFilter("coprime", (3,))
    assert listed.params == (3,)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert hash(DivisorWeight(3, listed)) == hash(DivisorWeight(3, tupled))
    assert listed.describe() == "coprime(3)"
    assert GlaisherFilter("residue", iter([1, 4])) == GlaisherFilter("residue", (1, 4))


def test_quadratic_residue_half_sum_instance():
    # (sigma_3(6; chi0) + sigma_3(6; chi5)) / 2 = 217 = 1^3 + 6^3
    principal = weighted_sigma_table(
        DivisorWeight(3, GlaisherFilter("principal", (5,))), 6, Z
    )
    twisted = weighted_sigma_table(DivisorWeight(3, GlaisherFilter.kronecker(5)), 6, Z)
    assert principal[6] + twisted[6] == 2 * 217
    indicator = weighted_sigma_table(DivisorWeight(3, GlaisherFilter("qr", (5,))), 6, Z)
    assert indicator[6] == 217


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_twist_linearity_dictionary(p):
    # chi0 + legendre = 2 * (quadratic-residue indicator), as divisor weights
    n_max = 1000
    for s in (1, 3):
        principal = weighted_sigma_table(
            DivisorWeight(s, GlaisherFilter("principal", (p,))), n_max, Z
        )
        twisted = weighted_sigma_table(DivisorWeight(s, legendre_character(p)), n_max, Z)
        indicator = weighted_sigma_table(DivisorWeight(s, GlaisherFilter("qr", (p,))), n_max, Z)
        for n in range(1, n_max + 1):
            assert principal[n] + twisted[n] == 2 * indicator[n]


# --- modular metadata -------------------------------------------------------


def test_filter_conductors():
    # the level a certification takes is lcm(ell, conductor), times 4
    assert GlaisherFilter("all").conductor == 1
    assert GlaisherFilter("odd").conductor == 2
    assert GlaisherFilter("even").conductor == 2
    assert GlaisherFilter("coprime", (6,)).conductor == 6
    assert GlaisherFilter("residue", (1, 4)).conductor == 4
    assert GlaisherFilter("qr", (5,)).conductor == 5
    assert GlaisherFilter("kronweight", (5,)).conductor == 5
    assert GlaisherFilter("kronweight", (-4,)).conductor == 4
    assert GlaisherFilter("exclude", (7,)).conductor == 7


def test_the_even_filter_names_no_character():
    assert GlaisherFilter("even").character == "unspecified"
    assert GlaisherFilter("principal", (5,)).character == GlaisherFilter("exclude", (5,)).character == "chi0(5)"


# --- one row per twist and filter ------------------------------------------

# each selector with an independent definition of its weight w(d), d >= 1
ROW_SELECTORS = [
    # principal(1) is the trivial character
    (GlaisherFilter("principal", (1,)), lambda d: 1),
    (GlaisherFilter("principal", (6,)), lambda d: int(gcd(d, 6) == 1)),
    (GlaisherFilter.kronecker(5), lambda d: kronecker_symbol(5, d)),
    # (-3|.) off the units of 6 is the Kronecker character of D = -3 * 2^2
    (GlaisherFilter.kronecker(-12), lambda d: kronecker_symbol(-3, d) if gcd(d, 6) == 1 else 0),
    (GlaisherFilter.kronecker(8), lambda d: kronecker_symbol(8, d)),
    (GlaisherFilter.kronecker(-4), lambda d: kronecker_symbol(-4, d)),
    (GlaisherFilter("all"), lambda d: 1),
    (GlaisherFilter("odd"), lambda d: int(d % 2 == 1)),
    (GlaisherFilter("even"), lambda d: int(d % 2 == 0)),
    (GlaisherFilter("coprime", (6,)), lambda d: int(gcd(d, 6) == 1)),
    (GlaisherFilter("residue", (1, 4)), lambda d: int(d % 4 == 1)),
    (GlaisherFilter("residue", (0, 3)), lambda d: int(d % 3 == 0)),
    (GlaisherFilter("qr", (7,)), lambda d: int(pow(d, 3, 7) == 1)),
    (GlaisherFilter("kronweight", (12,)), lambda d: kronecker_symbol(12, d)),
    (GlaisherFilter("exclude", (3,)), lambda d: int(d % 3 != 0)),
]
ROW_IDS = [
    "trivial", "principal6", "kronecker5", "kronecker-3@6", "kronecker8", "kronecker-4",
    "all", "odd", "even", "coprime6", "residue1,4", "residue0,3", "qr7", "kronweight12", "exclude3",
]


@pytest.mark.parametrize("p", [5, 12, 691])
@pytest.mark.parametrize("n", [0, 1, 29, 360])
@pytest.mark.parametrize("selector, w", ROW_SELECTORS, ids=ROW_IDS)
def test_weight_values_tile_the_row(selector, w, n, p):
    values = _weight_values_mod(DivisorWeight(3, selector), n, p)
    want = [w(d) % p for d in range(1, n + 1)]
    if values is None:  # w = 1 mod p
        assert want == [1] * n
    else:
        assert values.shape == (n + 1,)
        # d = 0 divides nothing; _weight_terms_mod zeroes its term
        assert values[1:].tolist() == want


@pytest.mark.parametrize("selector", [s for s, _ in ROW_SELECTORS], ids=ROW_IDS)
def test_the_conductor_is_the_period_and_the_level_factor(selector):
    conductor = DivisorWeight(3, selector).conductor
    assert conductor == selector.conductor
    assert all(selector.weight(d) == selector.weight(d + conductor) for d in range(1, 3 * conductor + 1))


def test_plain_and_canonical_weights_have_conductor_one():
    assert DivisorWeight(3).conductor == 1
    assert DivisorWeight(3, OVERPARTITION).conductor == 1


def test_a_huge_conductor_evaluates_at_most_n_plus_one_weights(monkeypatch):
    calls = []
    weight_of = DivisorWeight.weight_of
    monkeypatch.setattr(DivisorWeight, "weight_of", lambda self, d: calls.append(d) or weight_of(self, d))
    values = _weight_values_mod(DivisorWeight(3, GlaisherFilter("coprime", (10**9,))), 100, 7)
    assert calls == list(range(101))
    assert values.tolist() == [0] + [int(gcd(d, 10) == 1) for d in range(1, 101)]
    # over Z too, one period is evaluated, cut at n
    calls.clear()
    weighted_sigma_table(DivisorWeight(3, GlaisherFilter("coprime", (10**9,))), 100, Z)
    assert calls == list(range(101))
    calls.clear()
    weighted_sigma_table(DivisorWeight(3, GlaisherFilter.kronecker(5)), 100, Z)
    assert calls == list(range(5))


@pytest.mark.parametrize("D", [3, -1, 2, 6])
def test_kronecker_needs_a_discriminant(D):
    # (D|.) is a character mod |D| only for D = 0, 1 (mod 4)
    with pytest.raises(ValueError, match="discriminant"):
        GlaisherFilter.kronecker(D)
    with pytest.raises(ValueError, match="discriminant"):
        GlaisherFilter("kronweight", (D,))


def test_divisor_weight_descriptors():
    assert DivisorWeight(3).describe() == "m=3"
    assert (
        DivisorWeight(3, GlaisherFilter.kronecker(5)).describe()
        == "m=3, chi=kronecker(5)"
    )
    assert DivisorWeight(3, GlaisherFilter("principal", (4,))).describe() == "m=3, chi=principal(4)"
    assert DivisorWeight(1, GlaisherFilter("odd")).describe() == "m=1, filter=odd"
    assert DivisorWeight(2, OVERPARTITION).describe() == "m=2, rule=overpartition"


def test_each_selector_row_is_built_once(monkeypatch):
    built = Counter()
    for kind in ("coprime", "principal", "kronweight", "kronecker", "odd"):
        row = _FILTER_ROWS[kind]
        monkeypatch.setitem(
            _FILTER_ROWS, kind,
            row._replace(build=lambda *params, kind=kind, build=row.build: built.update([(kind, params)]) or build(*params)),
        )
    _filter_row.cache_clear()
    selectors = [
        GlaisherFilter("coprime", (7,)), GlaisherFilter("principal", (7,)), GlaisherFilter("kronweight", (-4,)),
        GlaisherFilter.kronecker(-4), GlaisherFilter("odd"),
    ]
    for _ in range(3):
        # equal selectors built anew share the row of their value
        for selector in selectors + [GlaisherFilter(*selector) for selector in selectors]:
            weight = DivisorWeight(3, selector)
            assert [weight.weight_of(d) for d in range(200)] == [selector.weight(d) for d in range(200)]
            assert weight.conductor == selector.conductor
            assert selector.character
    assert built == Counter({
        ("coprime", (7,)): 1, ("principal", (7,)): 1, ("kronweight", (-4,)): 1, ("kronecker", (-4,)): 1,
        ("odd", ()): 1,
    })
    assert [GlaisherFilter.kronecker(-4).weight(d) for d in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]
