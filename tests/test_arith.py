from __future__ import annotations

import time

import pytest
from hypothesis import assume, given, strategies as st

from freqmoments.arith import (
    CONSERVATIVE12,
    SHARP24,
    SturmConfig,
    factorize,
    index_gamma0,
    is_prime,
    kronecker_symbol,
    primes_up_to,
    sturm_bound,
    sturm_bound_for_level,
)


def test_primes_up_to_one_is_empty():
    assert primes_up_to(1).primes == ()


def test_primes_up_to_eleven():
    assert primes_up_to(11).primes == (2, 3, 5, 7, 11)


def test_primes_up_to_97():
    table = primes_up_to(97)
    assert table.primes[-1] == 97
    assert len(table.primes) == 25


def test_primes_match_trial_division():
    table = primes_up_to(500)
    by_trial = tuple(n for n in range(2, 501) if all(n % d for d in range(2, n)))
    assert table.primes == by_trial


def test_primes_rejects_negative_limit():
    with pytest.raises(ValueError):
        primes_up_to(-1)


def test_is_prime_agrees_with_sieve():
    primes = set(primes_up_to(10**5).primes)
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == sorted(primes)


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
def test_is_prime_rejects_pseudoprimes(n):
    # Carmichael numbers and strong pseudoprimes to the smallest bases
    assert not is_prime(n)


def test_is_prime_accepts_mersenne_61_quickly():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**13 - 1))
    assert time.perf_counter() - start < 1.0


def test_is_prime_refuses_unproven_primes_above_the_miller_rabin_limit():
    with pytest.raises(ValueError, match="primality not proven"):
        is_prime(2**89 - 1)


def test_is_prime_still_proves_composites_above_the_miller_rabin_limit():
    start = time.perf_counter()
    assert not is_prime(2**90)
    assert not is_prime((2**61 - 1) * (2**31 - 1) * (2**13 - 1))  # no factor below 43
    assert time.perf_counter() - start < 1.0


def test_prime_table_membership():
    table = primes_up_to(30)
    assert 29 in table and 27 not in table


@pytest.mark.parametrize(
    "n,expected",
    [(1, ()), (28, ((2, 2), (7, 1))), (484, ((2, 2), (11, 2))), (97, ((97, 1),))],
)
def test_factorize_examples(n, expected):
    assert factorize(n) == expected


def test_factorize_reconstructs_and_rejects_zero():
    for n in range(1, 2000):
        product = 1
        for p, e in factorize(n):
            assert is_prime(p)
            product *= p**e
        assert product == n
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("n,expected", [(1, 1), (28, 48), (100, 180), (4, 6), (196, 336)])
def test_index_gamma0_examples(n, expected):
    assert index_gamma0(n) == expected


def test_index_gamma0_multiplicative_on_coprime_arguments():
    from math import gcd

    for a in range(1, 60):
        for b in range(1, 60):
            if gcd(a, b) == 1:
                assert index_gamma0(a * b) == index_gamma0(a) * index_gamma0(b)


def test_index_gamma0_rejects_zero():
    with pytest.raises(ValueError):
        index_gamma0(0)


# --- Sturm bounds -----------------------------------------------------------


def test_sturm_bound_paper_values():
    assert sturm_bound(3, SturmConfig(SHARP24, "natural"), 7) == 14
    assert sturm_bound(3, SturmConfig(SHARP24, "safe"), 7) == 98
    assert sturm_bound(5, SturmConfig(CONSERVATIVE12, "safe"), 5) == 165
    assert sturm_bound(3, SturmConfig(SHARP24, "safe"), 5) == 52


def test_sturm_bound_more_table_values():
    assert sturm_bound(3, SturmConfig(SHARP24, "natural"), 11) == 21
    assert sturm_bound(3, SturmConfig(SHARP24, "safe"), 11) == 231
    assert sturm_bound(7, SturmConfig(SHARP24, "natural"), 11) == 45
    assert sturm_bound(7, SturmConfig(SHARP24, "safe"), 11) == 495
    assert sturm_bound(13, SturmConfig(CONSERVATIVE12, "safe"), 13) == 2457


def test_sturm_bound_rejects_even_m():
    with pytest.raises(ValueError):
        sturm_bound(4, SturmConfig(), 7)


def test_sturm_bound_rejects_composite_ell_for_prime_models():
    with pytest.raises(ValueError):
        sturm_bound(3, SturmConfig(SHARP24, "natural"), 6)
    with pytest.raises(ValueError):
        sturm_bound(3, SturmConfig(SHARP24, "safe"), 15)
    # custom levels take whatever L they are given
    assert sturm_bound_for_level(3, SHARP24, 6) >= 1


def test_sturm_bound_clamped_below_at_one():
    # k * index / 24 would be 0 for tiny levels, matching max(B, 1)
    assert sturm_bound_for_level(1, SHARP24, 1) == max((3 * index_gamma0(4)) // 24, 1)
    assert sturm_bound_for_level(1, SHARP24, 1) == 1


def test_conservative_mode_doubles_sharp_mode():
    for m in (1, 3, 5, 7, 11):
        for level in (5, 7, 11, 25, 49, 121):
            sharp = sturm_bound_for_level(m, SHARP24, level)
            cons = sturm_bound_for_level(m, CONSERVATIVE12, level)
            assert cons in (2 * sharp, 2 * sharp + 1)


def test_custom_level_model():
    config = SturmConfig(SHARP24, "custom", custom_level=25)
    assert sturm_bound(3, config, 5) == 52
    with pytest.raises(ValueError):
        SturmConfig(SHARP24, "custom")
    with pytest.raises(ValueError):
        SturmConfig(SHARP24, "natural", custom_level=5)


def test_sturm_config_validation():
    with pytest.raises(ValueError):
        SturmConfig(mode="sharp12")
    with pytest.raises(ValueError):
        SturmConfig(level_model="exotic")


# --- Kronecker symbols ------------------------------------------------------


@pytest.mark.parametrize("D,n,expected", [(5, 1, 1), (5, 2, -1), (5, 10, 0)])
def test_kronecker_examples(D, n, expected):
    assert kronecker_symbol(D, n) == expected


def test_kronecker_agrees_with_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        D = p if p % 4 == 1 else -p  # fundamental discriminant of conductor p
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker_symbol(D, a) == expected


def test_kronecker_chi_minus_four():
    values = [kronecker_symbol(-4, n) for n in range(1, 9)]
    assert values == [1, 0, -1, 0, 1, 0, -1, 0]


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
def test_kronecker_completely_multiplicative(D, m, n):
    # a theorem for nonzero m and n only: D = -1, m = 0, n = -1 gives
    # (-1|0) = 1 against (-1|0)(-1|-1) = -1 (Cohen, Def. 1.4.8)
    assume(m != 0 and n != 0)
    if D == 0:
        D = 5
    assert kronecker_symbol(D, m * n) == kronecker_symbol(D, m) * kronecker_symbol(D, n)


def test_kronecker_at_zero():
    # (D|0) = 1 for D = +-1 and 0 for |D| > 1 (Cohen, Def. 1.4.8)
    assert kronecker_symbol(1, 0) == kronecker_symbol(-1, 0) == 1
    for D in (-8, -4, -3, 2, 3, 5, 12):
        assert kronecker_symbol(D, 0) == 0


def test_kronecker_periodicity_mod_positive_one_mod_four():
    # for D = 1 mod 4 positive, (D|.) has period D on positive integers
    D = 5
    for n in range(1, 60):
        assert kronecker_symbol(D, n) == kronecker_symbol(D, n + D)
