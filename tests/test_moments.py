from __future__ import annotations

import pytest

from freqmoments.divisorweights import sigma_from_weight_function, sigma_table
from freqmoments.moments import (
    ensemble_moments,
    fermat_congruence_check,
    fermat_reduce,
    first_moment_identity_check,
    ford_recursion_check,
    frequency_oracle,
    j_identity_check,
    master_transform,
    moebius,
    moebius_identity_check,
    oracle_moment,
    tau_convolution_check,
)
from freqmoments.qseries import (
    CoefficientRing,
    ORDINARY,
    coloured_ensemble,
    OVERPARTITION,
    RingMismatchError,
    make_series,
    partition_counts,
)

Z = CoefficientRing.exact_integers()


# --- master transform -------------------------------------------------------


def test_master_transform_zero_index():
    p = partition_counts(5, Z)
    sig = sigma_table(3, 5, Z)
    assert master_transform(sig, p)[0] == 0


def test_master_transform_ordinary_m3_example():
    M = ensemble_moments(ORDINARY, 3, 5, Z)
    assert M[5] == 287  # 1*5 + 9*3 + 28*2 + 73*1 + 126*1


def test_master_transform_first_moment_example():
    M = ensemble_moments(ORDINARY, 1, 4, Z)
    assert M[4] == 20  # 4 * p(4)


def test_master_transform_validates_inputs():
    p = partition_counts(5, Z)
    sig = sigma_table(3, 5, Z)
    with pytest.raises(RingMismatchError):
        master_transform(sigma_table(3, 5, CoefficientRing.integers_mod(5)), p)
    with pytest.raises(RingMismatchError):
        master_transform(sigma_table(3, 4, Z), p)
    with pytest.raises(ValueError, match="a\\(0\\) = 0"):
        master_transform(p, p)
    with pytest.raises(ValueError, match="b\\(0\\) = 1"):
        master_transform(sig, sig)


def test_moment_series_values_is_the_series():
    # the benchmark's witness check reads moments as .values.coeffs
    M = ensemble_moments(ORDINARY, 3, 5, Z)
    assert M.values is M
    assert M.values.coeffs.tolist() == [0, 1, 10, 39, 122, 287]


def test_master_transform_mod_path_matches_exact_path():
    n = 300
    mod = CoefficientRing.integers_mod(11)
    exact = ensemble_moments(ORDINARY, 7, n, Z)
    modular = ensemble_moments(ORDINARY, 7, n, mod)
    assert modular == make_series(mod, exact.coeffs)


# --- enumeration oracle -----------------------------------------------------


def test_frequency_examples():
    table = frequency_oracle(10)
    assert table.frequency(5, 5) == 1
    assert table.frequency(2, 5) == 4
    assert table.frequency(1, 3) == 4
    assert table.frequency(7, 3) == 0


def test_frequency_diagonal_is_one():
    table = frequency_oracle(12)
    for n in range(1, 13):
        assert table.frequency(n, n) == 1


def test_frequency_recursion():
    # F_k(n) = p(n-k) + F_k(n-k)
    table = frequency_oracle(25)
    p = partition_counts(25, Z)
    for n in range(1, 26):
        for k in range(1, n + 1):
            expected = p[n - k] + (table.frequency(k, n - k) if n - k >= k else 0)
            assert table.frequency(k, n) == expected


def test_frequency_unrolled_sum():
    table = frequency_oracle(20)
    p = partition_counts(20, Z)
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert table.frequency(k, n) == sum(
                p[n - j * k] for j in range(1, n // k + 1)
            )


def test_oracle_guard():
    with pytest.raises(ValueError, match="guarded"):
        frequency_oracle(41)


def test_oracle_moment_examples():
    table = frequency_oracle(5)
    assert oracle_moment(lambda k: k, 4, table) == 20
    assert oracle_moment(lambda k: k**3, 5, table) == 287
    assert oracle_moment(moebius, 5, table) == 5  # p(4)


@pytest.mark.parametrize(
    "weight_name,f",
    [
        ("k", lambda k: k),
        ("k^2", lambda k: k**2),
        ("k^3", lambda k: k**3),
        ("k^7", lambda k: k**7),
        ("mu", moebius),
        ("odd k^3", lambda k: k**3 if k % 2 else 0),
    ],
)
def test_oracle_equivalence_against_transform(weight_name, f):
    n_max = 25
    table = frequency_oracle(n_max)
    sigma = sigma_from_weight_function(f, n_max, Z)
    p = partition_counts(n_max, Z)
    transform = master_transform(sigma, p)
    for n in range(n_max + 1):
        assert oracle_moment(f, n, table) == transform[n], (weight_name, n)


# --- fermat reduction -------------------------------------------------------


@pytest.mark.parametrize("m,ell,expected", [(3, 5, 3), (11, 5, 3), (7, 7, 1), (49, 13, 1)])
def test_fermat_reduce_examples(m, ell, expected):
    assert fermat_reduce(m, ell) == expected


def test_fermat_reduce_lands_in_odd_window():
    for ell in (5, 7, 11, 13, 17):
        for m in range(1, 100, 2):
            mbar = fermat_reduce(m, ell)
            assert mbar % 2 == 1
            assert 1 <= mbar <= ell - 2
            assert (m - mbar) % (ell - 1) == 0


def test_fermat_reduce_validation():
    with pytest.raises(ValueError):
        fermat_reduce(4, 5)
    with pytest.raises(ValueError):
        fermat_reduce(3, 4)
    with pytest.raises(ValueError):
        fermat_reduce(3, 3)


def test_fermat_value_congruence_spot():
    # M_11 = M_3 mod 5 at coefficient level
    mod5 = CoefficientRing.integers_mod(5)
    lhs = ensemble_moments(ORDINARY, 11, 200, mod5)
    rhs = ensemble_moments(ORDINARY, 3, 200, mod5)
    assert lhs == rhs


def test_fermat_congruence_check_passes():
    assert fermat_congruence_check(300).passed


# --- coloured moments -------------------------------------------------------


def test_coloured_one_is_ordinary():
    one = ensemble_moments(coloured_ensemble(1), 3, 30, Z)
    plain = ensemble_moments(ORDINARY, 3, 30, Z)
    assert one.coeffs.tolist() == plain.coeffs.tolist()


def test_coloured_two_hand_convolution():
    M = ensemble_moments(coloured_ensemble(2), 1, 2, Z)
    # companion (1, 2, 5); canonical sigma doubles sigma_1: (0, 2, 6)
    # so M(2) = sigma(1)b(1) + sigma(2)b(0) = 2*2 + 6*1 = 10
    assert M.coeffs.tolist() == [0, 2, 10]
    assert M[2] == 10


def test_coloured_24_first_coefficient():
    M = ensemble_moments(coloured_ensemble(24), 11, 1, Z)
    assert M[1] == 24  # 24 * sigma_11(1)


def test_coloured_rejects_zero_colours():
    with pytest.raises(ValueError):
        coloured_ensemble(0)


# --- identity checks --------------------------------------------------------


def test_ford_recursion_small_instance():
    # 4*p(4) = 1*3 + 3*2 + 4*1 + 7*1 = 20
    assert ford_recursion_check(1).passed
    assert ford_recursion_check(4).passed


def test_ford_recursion_full_run():
    result = ford_recursion_check(500)
    assert result.passed
    assert result.checked_through == 500


def test_tau_convolution_instances():
    result = tau_convolution_check(300)
    assert result.passed
    # the n=2 instance by hand: 2050 = -23 mod 691
    assert (1 + 2049) % 691 == (1 - 24) % 691


def test_j_identity_small_and_forty():
    assert j_identity_check(10).passed
    result = j_identity_check(40)
    assert result.passed
    assert result.checked_through == 40


def test_first_moment_identity_both_ensembles():
    assert first_moment_identity_check(ORDINARY, 500).passed
    assert first_moment_identity_check(OVERPARTITION, 500).passed
    assert first_moment_identity_check(coloured_ensemble(3), 500).passed


def test_moebius_identity():
    assert moebius_identity_check(25).passed


def test_overpartition_moment_against_hand_value():
    # Mbar_1(3) = 3 * pbar(3) = 24
    M = ensemble_moments(OVERPARTITION, 1, 3, Z)
    assert M[3] == 24
