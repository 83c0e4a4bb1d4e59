from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from freqmoments.divisorweights import (
    DirichletCharacterSpec,
    DivisorWeight,
    GlaisherFilter,
    expand_residue_filter,
    filter_modular_data,
    legendre_character,
    quadratic_residue_weight,
    sigma_from_weight_function,
    sigma_table,
    weighted_sigma_table,
)
from freqmoments.divisorweights import _divisor_sums_mod, _powers_mod, _weight_terms_mod, _weight_values_mod
from freqmoments.qseries import CoefficientRing, ORDINARY, overpartition, plane_partition, theta

Z = CoefficientRing.exact_integers()


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
    assert modular.coeffs == tuple(v % 13 for v in exact.coeffs)


@pytest.mark.parametrize("n", [0, 1, 2, 99, 100, 101, 360])
@pytest.mark.parametrize("modulus", [5, 12, 691])  # 12 is composite
@pytest.mark.parametrize(
    "selector",
    [
        None,
        ORDINARY.exponents,
        overpartition(),
        theta(),
        plane_partition(),
        DirichletCharacterSpec.kronecker(5),
        GlaisherFilter.residue_class(1, 4),
    ],
    ids=lambda s: "plain" if s is None else s.describe() if hasattr(s, "describe") else s.name,
)
def test_weighted_sigma_mod_matches_exact_reduction(selector, modulus, n):
    for m in (0, 3, 11):
        weight = DivisorWeight(m, selector)
        exact = weighted_sigma_table(weight, n, Z)
        modular = weighted_sigma_table(weight, n, CoefficientRing.integers_mod(modulus))
        assert modular.coeffs == tuple(v % modulus for v in exact.coeffs)


@pytest.mark.parametrize("n", [0, 1, 100, 361])
@pytest.mark.parametrize("modulus", [5, 12, 97, 2**31 - 1])
@pytest.mark.parametrize(
    "selector",
    [None, overpartition(), plane_partition(), DirichletCharacterSpec.kronecker(5)],
    ids=["plain", "overpartition", "plane-partition", "chi5"],
)
def test_sigma_block_rows_equal_the_one_exponent_tables(selector, modulus, n):
    exponents = [0, 1, 3, 11, 97]
    w = _weight_values_mod(DivisorWeight(1, selector), n, modulus)
    block = _divisor_sums_mod(_weight_terms_mod(exponents, w, n, modulus), modulus)
    assert block.shape == (len(exponents), n + 1)
    ring = CoefficientRing.integers_mod(modulus)
    for e, row in zip(exponents, block):
        assert tuple(row.tolist()) == weighted_sigma_table(DivisorWeight(e, selector), n, ring).coeffs
    powers = _powers_mod(exponents, min(modulus, n + 1), modulus)
    assert powers.tolist() == [[pow(r, e, modulus) for r in range(min(modulus, n + 1))] for e in exponents]


def test_weighted_sigma_beyond_int64_guard_is_exact():
    modulus = 2**62 + 5
    weight = DivisorWeight(5, theta())
    exact = weighted_sigma_table(weight, 50, Z)
    modular = weighted_sigma_table(weight, 50, CoefficientRing.integers_mod(modulus))
    assert modular.coeffs == tuple(v % modulus for v in exact.coeffs)


# --- characters -------------------------------------------------------------


def test_character_values():
    chi0_5 = DirichletCharacterSpec.principal(5)
    assert [chi0_5.value(d) for d in (1, 2, 5, 10)] == [1, 1, 0, 0]
    chi5 = DirichletCharacterSpec.kronecker(5)
    assert [chi5.value(d) for d in (1, 2, 3, 4, 5, 6)] == [1, -1, -1, 1, 0, 1]
    assert DirichletCharacterSpec.trivial().value(12) == 1


def test_character_imprimitive_modulus():
    chi = DirichletCharacterSpec.kronecker(-3, modulus=6)
    assert chi.value(2) == 0  # killed by the modulus even though (-3|2) != 0
    assert chi.value(5) == -1
    with pytest.raises(ValueError):
        DirichletCharacterSpec.kronecker(-3, modulus=4)  # not a multiple of |D|


def test_legendre_character_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        chi = legendre_character(p)
        assert chi.level_factor == p
        for d in range(1, 3 * p):
            if d % p == 0:
                assert chi.value(d) == 0
            else:
                euler = pow(d, (p - 1) // 2, p)
                assert chi.value(d) == (1 if euler == 1 else -1)


# --- weighted tables --------------------------------------------------------


def test_weighted_unweighted_equals_sigma():
    for m in (0, 2, 5):
        plain = sigma_table(m, 120, Z)
        weighted = weighted_sigma_table(DivisorWeight(m), 120, Z)
        assert plain.coeffs == weighted.coeffs


def test_overpartition_rule_example():
    weight = DivisorWeight(1, overpartition())
    table = weighted_sigma_table(weight, 6, Z)
    assert table[6] == 16  # 2*1 + 1*2 + 2*3 + 1*6


def test_kronecker_twist_example():
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    table = weighted_sigma_table(weight, 6, Z)
    assert table[6] == 182  # 1 - 8 - 27 + 216


def test_odd_divisor_filter_example():
    weight = DivisorWeight(0, GlaisherFilter.odd_divisors())
    table = weighted_sigma_table(weight, 12, Z)
    assert table[12] == 2  # divisors 1 and 3


def test_overpartition_rule_is_sigma_plus_odd_part():
    for m in (1, 3, 5):
        rule = weighted_sigma_table(DivisorWeight(m, overpartition()), 1000, Z)
        plain = sigma_table(m, 1000, Z)
        odd = weighted_sigma_table(DivisorWeight(m, GlaisherFilter.odd_divisors()), 1000, Z)
        for n in range(1, 1001):
            assert rule[n] == plain[n] + odd[n]


def test_weighted_mod_ring_matches_reduction():
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    exact = weighted_sigma_table(weight, 150, Z)
    mod7 = weighted_sigma_table(weight, 150, CoefficientRing.integers_mod(7))
    assert mod7.coeffs == tuple(v % 7 for v in exact.coeffs)


def test_sigma_from_weight_function_moebius_collapses():
    from freqmoments.moments import moebius

    table = sigma_from_weight_function(moebius, 60, Z)
    # sum_{d|n} mu(d) is the indicator of n = 1
    assert table[1] == 1
    assert all(table[n] == 0 for n in range(2, 61))


# --- filters ----------------------------------------------------------------


def test_filter_weights():
    assert GlaisherFilter.all_divisors().weight(7) == 1
    assert GlaisherFilter.coprime_to(6).weight(4) == 0
    assert GlaisherFilter.odd_divisors().weight(4) == 0
    assert GlaisherFilter.even_divisors().weight(4) == 1
    assert GlaisherFilter.residue_class(1, 4).weight(9) == 1
    assert GlaisherFilter.exclude_multiples_of(3).weight(9) == 0
    assert GlaisherFilter.kronecker_weight(-4).weight(3) == -1


def test_filter_validation():
    with pytest.raises(ValueError):
        GlaisherFilter.residue_class(4, 4)
    with pytest.raises(ValueError):
        GlaisherFilter.quadratic_residues(2)
    with pytest.raises(ValueError):
        GlaisherFilter.quadratic_residues(9)
    with pytest.raises(ValueError):
        GlaisherFilter("all", (1,))


def test_quadratic_residue_weight_examples():
    qr5 = quadratic_residue_weight(5, 0)
    selected = [d for d in divisors(6) if qr5.weight_of(d) == 1]
    assert selected == [1, 6]  # 1 and 6 are 1 mod 5
    qr3 = quadratic_residue_weight(3, 0)
    assert qr3.weight_of(3) == 0
    with pytest.raises(ValueError):
        quadratic_residue_weight(2, 0)


def test_quadratic_residue_half_sum_instance():
    # (sigma_3(6; chi0) + sigma_3(6; chi5)) / 2 = 217 = 1^3 + 6^3
    principal = weighted_sigma_table(
        DivisorWeight(3, DirichletCharacterSpec.principal(5)), 6, Z
    )
    twisted = weighted_sigma_table(DivisorWeight(3, DirichletCharacterSpec.kronecker(5)), 6, Z)
    assert principal[6] + twisted[6] == 2 * 217
    indicator = weighted_sigma_table(quadratic_residue_weight(5, 3), 6, Z)
    assert indicator[6] == 217


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_twist_linearity_dictionary(p):
    # chi0 + legendre = 2 * (quadratic-residue indicator), as divisor weights
    n_max = 1000
    for s in (1, 3):
        principal = weighted_sigma_table(
            DivisorWeight(s, DirichletCharacterSpec.principal(p)), n_max, Z
        )
        twisted = weighted_sigma_table(DivisorWeight(s, legendre_character(p)), n_max, Z)
        indicator = weighted_sigma_table(quadratic_residue_weight(p, s), n_max, Z)
        for n in range(1, n_max + 1):
            assert principal[n] + twisted[n] == 2 * indicator[n]


# --- residue class expansions ----------------------------------------------


def test_expand_residue_mod_two():
    exp = expand_residue_filter(1, 2)
    assert exp.verifiable
    assert len(exp.terms) == 1
    assert exp.terms[0].coefficient == Fraction(1)
    assert exp.terms[0].label == "chi0(2)"


def test_expand_residue_mod_four():
    one = expand_residue_filter(1, 4)
    three = expand_residue_filter(3, 4)
    assert [t.coefficient for t in one.terms] == [Fraction(1, 2), Fraction(1, 2)]
    assert [t.coefficient for t in three.terms] == [Fraction(1, 2), Fraction(-1, 2)]
    for d in range(1, 40):
        assert one.indicator(d) == (1 if d % 4 == 1 else 0)
        assert three.indicator(d) == (1 if d % 4 == 3 else 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_expand_residue_verifiable_moduli(m):
    for a in range(m if m > 1 else 1):
        exp = expand_residue_filter(a, max(m, 1))
        if gcd(a if m > 1 else 1, m) == 1:
            assert exp.verifiable
            for d in range(1, 60):
                assert exp.indicator(d) == (1 if d % m == a % m else 0)


def test_expand_residue_metadata_only_for_complex_groups():
    exp = expand_residue_filter(2, 5)
    assert not exp.verifiable
    assert len(exp.terms) == 4  # phi(5)
    assert all(t.coefficient == Fraction(1, 4) for t in exp.terms)
    with pytest.raises(ValueError):
        exp.indicator(3)


def test_expand_residue_non_unit_class_is_empty():
    exp = expand_residue_filter(2, 4)
    assert not exp.verifiable
    assert exp.terms == ()


# --- modular metadata -------------------------------------------------------


def test_filter_modular_data_levels():
    assert filter_modular_data(GlaisherFilter.all_divisors(), 3).level == 4
    assert filter_modular_data(GlaisherFilter.all_divisors(), 3).k == 7
    assert filter_modular_data(GlaisherFilter.odd_divisors(), 3).level == 8
    assert filter_modular_data(GlaisherFilter.even_divisors(), 3).level == 8
    assert filter_modular_data(GlaisherFilter.coprime_to(6), 3).level == 24
    assert filter_modular_data(GlaisherFilter.residue_class(1, 4), 5).level == 16
    assert filter_modular_data(GlaisherFilter.quadratic_residues(5), 3).level == 20
    assert filter_modular_data(GlaisherFilter.kronecker_weight(5), 3).level == 20
    assert filter_modular_data(GlaisherFilter.kronecker_weight(-4), 3).level == 16
    assert filter_modular_data(GlaisherFilter.exclude_multiples_of(7), 3).level == 28


def test_filter_modular_data_unnamed_even_character():
    data = filter_modular_data(GlaisherFilter.even_divisors(), 3)
    assert data.character == "unspecified"


def test_filter_modular_data_rejects_even_exponent():
    with pytest.raises(ValueError):
        filter_modular_data(GlaisherFilter.all_divisors(), 2)


def test_divisor_weight_descriptors():
    assert DivisorWeight(3).describe() == "m=3"
    assert (
        DivisorWeight(3, DirichletCharacterSpec.kronecker(5)).describe()
        == "m=3, chi=kronecker(5)"
    )
    assert DivisorWeight(1, GlaisherFilter.odd_divisors()).describe() == "m=1, filter=odd"
    assert DivisorWeight(2, overpartition()).describe() == "m=2, rule=overpartition"
