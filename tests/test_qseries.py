from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freqmoments.qseries import (
    CoefficientRing,
    ExponentSequence,
    RingMismatchError,
    Series,
    companion_series,
    coloured,
    dump_series,
    ensemble_by_name,
    eta_power_coefficients,
    euler_product_coefficients,
    make_series,
    ordinary,
    overpartition,
    partition_counts,
    plane_partition,
    r2_coefficients,
    series_inverse,
    series_multiply,
    tau_coefficients,
    theta,
    ORDINARY,
    OVERPARTITION,
    THETA,
)
from freqmoments import qseries
from freqmoments.qseries import _block_size, _euler_product_factor_passes  # reference algorithm
from freqmoments.qseries import _convolve_mod, fits_fft, fits_float64, fits_int64
from freqmoments.qseries import FFT_MIN_TERMS, FLOAT64_DIRECT_MAX_TERMS

Z = CoefficientRing.exact_integers()
Q = CoefficientRing.exact_rationals()


# --- brute-force oracles ----------------------------------------------------


def slow_poly_mult(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def slow_euler_product(c, n: int) -> list[int]:
    """Expand prod (1-q^r)^(-c(r)) by multiplying out geometric factors."""
    result = [1] + [0] * n
    for r in range(1, n + 1):
        cr = c(r)
        factor = [0] * (n + 1)
        for j in range(0, n + 1, r):
            factor[j] = 1  # 1/(1-q^r)
        for _ in range(max(cr, 0)):
            result = slow_poly_mult(result, factor, n)
        neg = [1] + [0] * n
        if cr < 0:
            neg[r] = -1  # (1-q^r)
            for _ in range(-cr):
                result = slow_poly_mult(result, neg, n)
    return result


def brute_partition_count(n: int) -> int:
    def count(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - first, first) for first in range(min(remaining, cap), 0, -1))

    return count(n, n)


# --- rings and series basics ------------------------------------------------


def test_ring_reduce_and_units():
    mod5 = CoefficientRing.integers_mod(5)
    assert mod5.reduce(-3) == 2
    assert mod5.invert(2) == 3
    assert not mod5.is_unit(10)
    assert Z.invert(-1) == -1
    assert not Z.is_unit(2)
    assert Q.invert(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        mod5.invert(5)


def test_ring_validation():
    with pytest.raises(ValueError):
        CoefficientRing(modulus=1)
    with pytest.raises(ValueError):
        CoefficientRing(modulus=5, rational=True)


def test_ring_descriptions():
    assert CoefficientRing.integers_mod(691).describe() == "Z/691"
    assert Z.describe() == "Z"
    assert Q.describe() == "Q"


def test_series_shape():
    s = make_series(Z, [1, 2, 3])
    assert s.n_max == 2
    assert len(s.coeffs) == s.n_max + 1
    assert s[1] == 2
    with pytest.raises(ValueError):
        Series(Z, ())


# --- exponent sequences -----------------------------------------------------


def test_preset_values():
    assert [ordinary().value_at(r) for r in (1, 2, 3)] == [1, 1, 1]
    assert [coloured(4).value_at(r) for r in (1, 2)] == [4, 4]
    assert [plane_partition().value_at(r) for r in (1, 2, 3)] == [1, 2, 3]
    assert [overpartition().value_at(r) for r in (1, 2, 3, 4)] == [2, 1, 2, 1]
    assert [theta().value_at(r) for r in (1, 2, 3, 4)] == [2, -1, 2, -1]


def test_exponent_sequence_validation():
    with pytest.raises(ValueError):
        ExponentSequence("bad", 0, ())
    with pytest.raises(ValueError):
        ExponentSequence("bad", 2, (0, 0))
    with pytest.raises(TypeError):
        ExponentSequence("bad", 1, (Fraction(1, 2),))  # rational exponents unsupported
    with pytest.raises(ValueError):
        ExponentSequence("bad", 1, (1,), power_factor=2)


def test_ensemble_registry():
    assert ensemble_by_name("ordinary") is ORDINARY
    assert ensemble_by_name("Overpartition") is OVERPARTITION
    assert ensemble_by_name("theta").companion == "r2"
    assert ensemble_by_name("coloured(3)").exponents.value_at(5) == 3
    with pytest.raises(ValueError):
        ensemble_by_name("mystery")


# --- partition counts -------------------------------------------------------


def test_partition_counts_n_zero():
    assert partition_counts(0, Z).coeffs == (1,)


def test_partition_counts_small():
    assert partition_counts(5, Z).coeffs == (1, 1, 2, 3, 5, 7)


def test_partition_counts_against_enumeration():
    series = partition_counts(30, Z)
    for n in range(31):
        assert series[n] == brute_partition_count(n)


def test_partition_count_mod_five_ramanujan_instance():
    series = partition_counts(9, CoefficientRing.integers_mod(5))
    assert series[9] == 0  # p(9) = 30


def test_partition_counts_known_value():
    assert partition_counts(100, Z)[100] == 190569292


# --- euler products ---------------------------------------------------------


def test_euler_product_ordinary_matches_partition_counts():
    for ring in (Z, CoefficientRing.integers_mod(7), Q):
        direct = partition_counts(60, ring)
        product = euler_product_coefficients(ordinary(), 60, ring)
        assert product.coeffs == direct.coeffs


def test_euler_product_ordinary_matches_partition_counts_to_2000():
    for ring in (Z, CoefficientRing.integers_mod(13)):
        direct = partition_counts(2000, ring)
        product = euler_product_coefficients(ordinary(), 2000, ring)
        assert product.coeffs == direct.coeffs


def test_euler_product_overpartition_example():
    assert euler_product_coefficients(overpartition(), 4, Z).coeffs == (1, 2, 4, 8, 14)


def test_euler_product_coloured_example():
    assert euler_product_coefficients(coloured(2), 3, Z).coeffs == (1, 2, 5, 10)


@pytest.mark.parametrize("rule", [ordinary(), overpartition(), theta(), coloured(3)])
def test_euler_product_against_slow_expansion(rule):
    got = euler_product_coefficients(rule, 25, Z)
    want = slow_euler_product(rule.value_at, 25)
    assert list(got.coeffs) == want


def test_plane_partition_series():
    got = euler_product_coefficients(plane_partition(), 8, Z)
    # MacMahon: 1, 1, 3, 6, 13, 24, 48, 86, 160
    assert got.coeffs == (1, 1, 3, 6, 13, 24, 48, 86, 160)
    want = slow_euler_product(plane_partition().value_at, 12)
    assert list(euler_product_coefficients(plane_partition(), 12, Z).coeffs) == want


def test_plane_partition_cap():
    with pytest.raises(ValueError, match="allow_large"):
        euler_product_coefficients(plane_partition(), 5001, Z)


def test_grouped_path_agrees_with_factor_passes():
    for rule in (ordinary(), overpartition(), theta(), coloured(2)):
        for ring in (Z, CoefficientRing.integers_mod(11)):
            fast = euler_product_coefficients(rule, 80, ring)
            slow = _euler_product_factor_passes(rule, 80, ring)
            assert list(fast.coeffs) == slow


def test_non_gcd_periodic_rule_uses_factor_passes():
    # c = 1 on r = 1 mod 3 only: not a function of gcd(r, 3)
    rule = ExponentSequence("one-mod-three", 3, (0, 1, 0))
    got = euler_product_coefficients(rule, 20, Z)
    want = slow_euler_product(rule.value_at, 20)
    assert list(got.coeffs) == want


def test_nonnegative_exponents_give_nonnegative_counts():
    for rule in (ordinary(), overpartition(), coloured(5)):
        series = euler_product_coefficients(rule, 120, Z)
        assert all(v >= 0 for v in series.coeffs)
    plane = euler_product_coefficients(plane_partition(), 60, Z)
    assert all(v >= 0 for v in plane.coeffs)


def test_first_moment_recurrence_ordinary_and_overpartition():
    # n*b(n) = sum_d sigma_c1(d) b(n-d) with sigma_c1(d) = sum_{r|d} c(r) r
    for rule in (ordinary(), overpartition()):
        n_max = 500
        b = euler_product_coefficients(rule, n_max, Z)
        sigma1 = [0] * (n_max + 1)
        for r in range(1, n_max + 1):
            w = rule.value_at(r) * r
            for i in range(r, n_max + 1, r):
                sigma1[i] += w
        for n in range(1, n_max + 1):
            assert n * b[n] == sum(sigma1[d] * b[n - d] for d in range(1, n + 1))


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from([ordinary(), overpartition(), theta(), coloured(2)]),
    st.sampled_from([5, 7, 11, 691]),
    st.integers(min_value=0, max_value=60),
)
def test_mod_ring_is_homomorphic_image_of_exact(rule, modulus, n):
    exact = euler_product_coefficients(rule, n, Z)
    modular = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus))
    assert tuple(v % modulus for v in exact.coeffs) == modular.coeffs


# --- named generators -------------------------------------------------------


def test_eta_power_zero_and_pentagonal():
    assert eta_power_coefficients(0, 4, Z).coeffs == (1, 0, 0, 0, 0)
    assert eta_power_coefficients(1, 7, Z).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_eta_power_minus_one_is_partitions():
    assert eta_power_coefficients(-1, 40, Z).coeffs == partition_counts(40, Z).coeffs


def test_eta_power_inverse_pair():
    eta = eta_power_coefficients(1, 50, Z)
    p = partition_counts(50, Z)
    product = series_multiply(eta, p)
    assert product.coeffs == (1,) + (0,) * 50


def test_tau_values():
    tau = tau_coefficients(10, Z)
    # first Ramanujan tau values; a(0) is defined as 0
    assert tau.coeffs[:7] == (0, 1, -24, 252, -1472, 4830, -6048)


def test_tau_sigma11_congruence_mod_691():
    n_max = 200
    tau = tau_coefficients(n_max, Z)
    from freqmoments.divisorweights import sigma_table

    sig11 = sigma_table(11, n_max, Z)
    for n in range(1, n_max + 1):
        assert (tau[n] - sig11[n]) % 691 == 0


def test_r2_values():
    r2 = r2_coefficients(12)
    assert r2[0] == 1
    assert r2[1] == 4
    assert r2[5] == 8
    assert r2.coeffs == (1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8, 0, 0)


def test_companion_series_dispatch():
    self_comp = companion_series(ORDINARY, 6, Z)
    assert self_comp.coeffs == partition_counts(6, Z).coeffs
    theta_comp = companion_series(THETA, 5, CoefficientRing.integers_mod(3))
    assert theta_comp.coeffs == tuple(v % 3 for v in r2_coefficients(5).coeffs)


# --- series arithmetic ------------------------------------------------------


def test_multiply_by_one_is_identity():
    a = make_series(Z, [3, 1, 4, 1, 5])
    one = make_series(Z, [1, 0, 0, 0, 0])
    assert series_multiply(a, one).coeffs == a.coeffs


def test_multiply_matches_slow_oracle():
    a = make_series(Z, [2, -1, 3, 0, 7])
    b = make_series(Z, [1, 5, -2, 4, -6])
    got = series_multiply(a, b)
    assert list(got.coeffs) == slow_poly_mult(list(a.coeffs), list(b.coeffs), 4)


def test_multiply_mod_ring():
    mod7 = CoefficientRing.integers_mod(7)
    a = make_series(mod7, [2, 6, 3])
    b = make_series(mod7, [5, 1, 4])
    want = [v % 7 for v in slow_poly_mult([2, 6, 3], [5, 1, 4], 2)]
    assert list(series_multiply(a, b).coeffs) == want


def test_multiply_rejects_mismatches():
    with pytest.raises(RingMismatchError):
        series_multiply(make_series(Z, [1, 2]), make_series(Q, [1, 2]))
    with pytest.raises(RingMismatchError):
        series_multiply(make_series(Z, [1, 2]), make_series(Z, [1, 2, 3]))


def test_inverse_geometric_series():
    a = make_series(Z, [1, -1, 0, 0])
    assert series_inverse(a).coeffs == (1, 1, 1, 1)


def test_inverse_round_trip_rational():
    a = make_series(Q, [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(1)])
    inv = series_inverse(a)
    assert series_multiply(a, inv).coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_inverse_rejects_non_unit_constant():
    with pytest.raises(ValueError, match="not a unit"):
        series_inverse(make_series(Z, [0, 1]))
    with pytest.raises(ValueError, match="not a unit"):
        series_inverse(make_series(Z, [2, 1]))
    mod6 = CoefficientRing.integers_mod(6)
    with pytest.raises(ValueError, match="not a unit"):
        series_inverse(make_series(mod6, [3, 1]))


def test_dump_series_format():
    mod5 = CoefficientRing.integers_mod(5)
    text = dump_series(partition_counts(4, mod5), "ordinary")
    lines = text.splitlines()
    assert lines[0] == "# ring=Z/5 N=4 ensemble=ordinary"
    assert lines[1:] == ["1", "1", "2", "3", "0"]
    assert text.endswith("\n")


def test_coloured_ensemble_large_truncation_consistency():
    # binary-power structure exercises repeated divide passes
    mod11 = CoefficientRing.integers_mod(11)
    got = euler_product_coefficients(coloured(24), 40, mod11)
    want = slow_euler_product(coloured(24).value_at, 40)
    assert list(got.coeffs) == [v % 11 for v in want]


# --- blocked Z/N kernel -----------------------------------------------------

K = _block_size(0)  # 128, the block length for every n below ~2000
ABOVE_INT64_GUARD = 2**28 + 3  # K * (N - 1)**2 >= 2**63


def exact_reduced(series: Series, modulus: int) -> tuple:
    return tuple(v % modulus for v in series.coeffs)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 2 * K + 3])
@pytest.mark.parametrize("rule", [ordinary(), overpartition(), coloured(3)], ids=lambda r: r.name)
# 12 is composite; 2**28 - 1 is odd and just inside the int64 guard at K = 128
@pytest.mark.parametrize("modulus", [11, 691, 12, 2**28 - 1])
def test_blocked_kernel_matches_exact_path(rule, n, modulus):
    assert _block_size(n) == K
    got = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus))
    assert got.coeffs == exact_reduced(euler_product_coefficients(rule, n, Z), modulus)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 2 * K + 3])
def test_blocked_kernel_eta24_mod_691(n):
    # (q;q)^24 only multiplies, so this exercises the shifted-slice path alone
    mod691 = CoefficientRing.integers_mod(691)
    got = eta_power_coefficients(24, n, mod691)
    assert got.coeffs == exact_reduced(eta_power_coefficients(24, n, Z), 691)


def test_blocked_kernel_is_taken_below_int64_guard(monkeypatch):
    calls = []
    original = qseries._divide_by_sparse_blocked
    monkeypatch.setattr(
        qseries, "_divide_by_sparse_blocked", lambda *a: calls.append(a[3]) or original(*a)
    )
    euler_product_coefficients(overpartition(), 3 * K, CoefficientRing.integers_mod(97))
    assert calls == [K, K]  # two divisions by (q;q)_inf


def test_modulus_above_int64_guard_takes_python_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("blocked kernel used beyond its int64 guard")

    monkeypatch.setattr(qseries, "_divide_by_sparse_blocked", refuse)
    monkeypatch.setattr(qseries, "_multiply_by_sparse_shifted", refuse)
    ring = CoefficientRing.integers_mod(ABOVE_INT64_GUARD)
    for rule in (ordinary(), overpartition()):
        got = euler_product_coefficients(rule, K + 1, ring)
        assert got.coeffs == exact_reduced(euler_product_coefficients(rule, K + 1, Z), ABOVE_INT64_GUARD)


def test_multiply_beyond_int64_guard_is_exact():
    modulus = 2**61 - 1
    ring = CoefficientRing.integers_mod(modulus)
    a = make_series(ring, [modulus - 1, modulus - 2, 3])
    b = make_series(ring, [modulus - 5, 7, modulus - 1])
    want = [v % modulus for v in slow_poly_mult(list(a.coeffs), list(b.coeffs), 2)]
    assert list(series_multiply(a, b).coeffs) == want


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from([ordinary(), overpartition(), theta(), coloured(3)]),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=0, max_value=700),
)
def test_blocked_kernel_property(rule, modulus, n):
    got = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus))
    assert got.coeffs == exact_reduced(euler_product_coefficients(rule, n, Z), modulus)


# --- convolution tiers --------------------------------------------------------


def largest_modulus_under(bound: int, terms: int) -> int:
    """The largest modulus p with terms * (p - 1)**2 < bound."""
    return isqrt((bound - 1) // terms) + 1


def exact_convolution(a: list[int], b: list[int], modulus: int) -> list[int]:
    return [v % modulus for v in slow_poly_mult(a, b, len(a) - 1)]


def convolve_with_tier(monkeypatch, a, b, modulus):
    """_convolve_mod(a, b, modulus) and the tier that computed it: the dtype
    np.convolve ran in, or "python" when it was not called."""
    dtypes = []
    original = np.convolve
    with monkeypatch.context() as patch:
        patch.setattr(np, "convolve", lambda x, y: dtypes.append(str(x.dtype)) or original(x, y))
        out = _convolve_mod(a, b, modulus)
    return out, dtypes[0] if dtypes else "python"


GUARD_CASES = []
for _length in (128, 600):
    _top53 = largest_modulus_under(2**53, _length)
    _top63 = largest_modulus_under(2**63, _length)
    GUARD_CASES += [
        (_length, _top53, "float64"),
        (_length, _top53 + 1, "int64"),
        (_length, _top63, "int64"),
        (_length, _top63 + 1, "python"),
    ]


@pytest.mark.parametrize("length,modulus,tier", GUARD_CASES)
def test_convolve_tiers_at_their_guards(monkeypatch, length, modulus, tier):
    assert fits_float64(length, modulus) == (tier == "float64")
    assert fits_int64(length, modulus) == (tier != "python")
    # all entries modulus - 1: the last output sums length products of
    # (modulus - 1)**2, the largest value the guard admits
    worst = [modulus - 1] * length
    mixed = [(7 * i + 3) ** 5 % modulus for i in range(length)]
    for a, b in ((worst, worst), (mixed, worst[::-1]), (worst, mixed)):
        out, ran = convolve_with_tier(monkeypatch, a, b, modulus)
        assert ran == tier
        assert out.tolist() == exact_convolution(a, b, modulus)
        assert out.dtype == (object if tier == "python" else np.int64)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_convolve_mod_property(data):
    # a tier first, then a modulus up to 2**31 inside its guard, so that every
    # tier is drawn about as often
    len_a = data.draw(st.integers(min_value=1, max_value=600))
    len_b = data.draw(st.integers(min_value=1, max_value=600))
    terms = min(len_a, len_b)
    top53 = largest_modulus_under(2**53, terms)
    top63 = largest_modulus_under(2**63, terms)
    tiers = {"float64": (2, top53), "int64": (top53 + 1, top63), "python": (top63 + 1, 2**31)}
    lo, hi = tiers[data.draw(st.sampled_from(sorted(tiers)))]
    assume(lo <= min(hi, 2**31))
    modulus = data.draw(st.integers(min_value=lo, max_value=min(hi, 2**31)))
    rng = data.draw(st.randoms(use_true_random=False))
    a = [rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(len_a)]
    b = [rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(len_b)]
    assert _convolve_mod(a, b, modulus).tolist() == exact_convolution(a, b, modulus)


# --- FFT tier -----------------------------------------------------------------


def kronecker_convolution(a: list[int], b: list[int], modulus: int) -> list[int]:
    """The first len(a) coefficients of a*b mod modulus, from one exact
    product of big integers (Kronecker substitution): fast enough to check
    products of 2**15 terms that slow_poly_mult cannot."""
    n = len(a)
    b = b[:n]
    width = (min(n, len(b)) * (modulus - 1) ** 2).bit_length() // 8 + 1

    def pack(values):
        return int.from_bytes(b"".join(int(v).to_bytes(width, "little") for v in values), "little")

    raw = (pack(a) * pack(b)).to_bytes((n + len(b)) * width, "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") % modulus for i in range(n)]


def largest_fft_modulus(len_a: int, len_b: int) -> int:
    """The largest modulus fits_fft admits for operands of these lengths."""
    lo, hi = 2, 2**32
    assert fits_fft(len_a, len_b, lo) and not fits_fft(len_a, len_b, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits_fft(len_a, len_b, mid) else (lo, mid)
    return lo


def convolve_recording_tiers(monkeypatch, a, b, modulus, *, perturb=0.0):
    """_convolve_mod(a, b, modulus) and the tiers that ran, in order: "fft"
    for each irfft, the dtype for each np.convolve.  perturb is added to
    every irfft output."""
    ran = []
    convolve, irfft = np.convolve, np.fft.irfft

    def recording_convolve(x, y):
        ran.append(str(x.dtype))
        return convolve(x, y)

    def recording_irfft(*args, **kwargs):
        ran.append("fft")
        return irfft(*args, **kwargs) + perturb

    with monkeypatch.context() as patch:
        patch.setattr(np, "convolve", recording_convolve)
        patch.setattr(np.fft, "irfft", recording_irfft)
        out = _convolve_mod(a, b, modulus)
    return out, ran


def test_kronecker_reference_matches_slow_poly_mult():
    for modulus in (2, 97, 2**61 - 1):
        a = [(5 * i + 1) ** 3 % modulus for i in range(40)]
        b = [modulus - 1] * 25
        assert kronecker_convolution(a, b, modulus) == exact_convolution(a, b, modulus)
        assert kronecker_convolution(b, a, modulus) == exact_convolution(b, a, modulus)


def percival_bound(len_a: int, len_b: int, modulus: int) -> Decimal:
    """Percival's bound for residue vectors, evaluated in 60-digit decimal
    arithmetic with the unit roundoff 2**-53 and twiddle error 2**-50."""
    with localcontext() as ctx:
        ctx.prec = 60
        k = (len_a + len_b - 2).bit_length()
        eps, beta = Decimal(2) ** -53, Decimal(2) ** -50
        growth = (1 + eps) ** (3 * k) * (1 + eps * Decimal(5).sqrt()) ** (3 * k + 1) * (1 + beta) ** (3 * k) - 1
        return (modulus - 1) ** 2 * Decimal(len_a * len_b).sqrt() * growth


@pytest.mark.parametrize("len_a,len_b", [(512, 512), (2001, 2001), (9438, 9437), (2**15 + 1, 2**15 + 1), (100001, 300)])
def test_fits_fft_is_percivals_bound_below_a_quarter(len_a, len_b):
    top = largest_fft_modulus(len_a, len_b)
    assert percival_bound(len_a, len_b, top) < Decimal("0.25") <= percival_bound(len_a, len_b, top + 1)
    # the bound caps every coefficient below 2**53, so fits_fft implies fits_float64
    assert fits_float64(min(len_a, len_b), top)


FFT_CASES = []
for _length in (511, 512, 513, 4096, 2**15 + 1):
    _top = largest_fft_modulus(_length, _length)
    for _modulus in (2, 11, 97, 691, _top, _top + 1):
        if _length < FFT_MIN_TERMS:
            _tier = "float64"
        elif _modulus <= _top:
            _tier = "fft"
        else:
            _tier = "float64" if _length <= FLOAT64_DIRECT_MAX_TERMS else "int64"
        FFT_CASES.append((_length, _modulus, _tier))


@pytest.mark.parametrize("length,modulus,tier", FFT_CASES)
def test_fft_tier_is_exact_at_its_guard(monkeypatch, length, modulus, tier):
    # all entries modulus - 1 give the largest coefficients; the mixed
    # operand spreads residues over the whole range
    worst = [modulus - 1] * length
    mixed = [(7 * i + 3) ** 5 % modulus for i in range(length)]
    for a, b in ((worst, worst), (mixed, worst[::-1])):
        out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus)
        assert ran == [tier]
        assert out.dtype == np.int64
        assert out.tolist() == kronecker_convolution(a, b, modulus)


@pytest.mark.parametrize("length,modulus,fallback", [(4096, 97, "float64"), (2**15 + 1, 691, "int64")])
def test_fft_tier_falls_back_when_an_output_is_off_an_integer(monkeypatch, length, modulus, fallback):
    a = [(7 * i + 3) ** 5 % modulus for i in range(length)]
    b = [modulus - 1] * length
    out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus, perturb=0.3)
    assert ran == ["fft", fallback]
    assert out.tolist() == kronecker_convolution(a, b, modulus)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_fft_tier_property(data):
    # lengths on both sides of FFT_MIN_TERMS, moduli on both sides of the
    # FFT guard for the lengths drawn
    len_a = data.draw(st.integers(min_value=1, max_value=5000))
    len_b = data.draw(st.integers(min_value=1, max_value=5000))
    top = largest_fft_modulus(len_a, min(len_a, len_b))
    below = data.draw(st.booleans())
    modulus = data.draw(
        st.integers(min_value=2, max_value=top) if below
        else st.integers(min_value=top + 1, max_value=4 * top)
    )
    rng = data.draw(st.randoms(use_true_random=False))
    a = [rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(len_a)]
    b = [rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(len_b)]
    fft_ran = []
    irfft = np.fft.irfft
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.fft, "irfft", lambda *args, **kw: fft_ran.append(1) or irfft(*args, **kw))
        out = _convolve_mod(a, b, modulus)
    assert bool(fft_ran) == (below and min(len_a, len_b) >= FFT_MIN_TERMS)
    assert out.tolist() == kronecker_convolution(a, b, modulus)


# --- batched rows -------------------------------------------------------------


def expected_tier(length: int, modulus: int) -> str:
    if length >= FFT_MIN_TERMS and fits_fft(length, length, modulus):
        return "fft"
    if fits_float64(length, modulus) and length <= FLOAT64_DIRECT_MAX_TERMS:
        return "float64"
    return "int64" if fits_int64(length, modulus) else "python"


def block_rows(length: int, modulus: int, count: int) -> np.ndarray:
    """count rows of residues: all modulus - 1, then mixed powers."""
    rows = [[modulus - 1] * length]
    rows += [[(7 * i + 3 + k) ** 5 % modulus for i in range(length)] for k in range(1, count)]
    return np.array(rows, dtype=np.int64)


BATCH_CASES = []
for _length in (100, 511, 512, 2001, 2**15 + 1):
    _top = largest_fft_modulus(_length, _length)
    for _modulus in (2, 97, _top, _top + 1, 2**31 - 1, 2**61 - 1):
        _tier = expected_tier(_length, _modulus)
        # the Python-integer tier is quadratic in interpreted code, and the
        # int64 tier at 2**15 + 1 terms takes about a second a row
        if _tier == "python" and _length > FFT_MIN_TERMS:
            continue
        BATCH_CASES.append((_length, _modulus, _tier, 2 if _length > 10**4 else 3))


@pytest.mark.parametrize("length,modulus,tier,rows", BATCH_CASES)
def test_block_convolution_equals_row_by_row_calls(monkeypatch, length, modulus, tier, rows):
    a = block_rows(length, modulus, rows)
    b = [(11 * i + 5) ** 3 % modulus for i in range(length)][::-1]
    out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus)
    # one transform for the whole block, or one direct product per row
    assert ran == (["fft"] if tier == "fft" else [] if tier == "python" else [tier] * rows)
    assert out.shape == (rows, length)
    for row, got in zip(a, out):
        want = _convolve_mod(row, b, modulus)
        assert got.dtype == want.dtype == (object if tier == "python" else np.int64)
        assert got.tolist() == want.tolist()


def test_block_convolution_falls_back_row_by_row_and_stays_exact(monkeypatch):
    length, modulus = 4096, 97
    a = block_rows(length, modulus, 3)
    b = [modulus - 1] * length
    out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus, perturb=0.3)
    assert ran == ["fft", "float64", "float64", "float64"]
    for row, got in zip(a, out):
        assert got.tolist() == kronecker_convolution(row.tolist(), b, modulus)


# --- Newton-inverted companion ------------------------------------------------

ETA24 = ExponentSequence("eta-power(24)", 1, (-24,))
NEWTON_RULES = [ordinary(), overpartition(), coloured(3), ETA24]
NEWTON_MAX_N = 5000
_EXACT_PREFIXES: dict[str, tuple] = {}


def exact_mod(rule: ExponentSequence, n: int, modulus: int) -> tuple:
    """The first n+1 coefficients mod modulus of the product over Z, which
    runs the scalar Python recurrence; computed once per rule to
    NEWTON_MAX_N (truncation is a prefix)."""
    if rule.name not in _EXACT_PREFIXES:
        _EXACT_PREFIXES[rule.name] = euler_product_coefficients(rule, NEWTON_MAX_N, Z).coeffs
    return tuple(v % modulus for v in _EXACT_PREFIXES[rule.name][: n + 1])


def grouped_with_path(patch, rule, n, modulus, *, newton_allowed=True):
    """The product mod modulus and the paths that built it: "newton" when
    the Newton path ran, "blocked" when the sparse passes did.  With
    newton_allowed False, FFT_MIN_TERMS is raised out of reach, so the
    blocked kernel runs at this very length and modulus."""
    ran = []
    pentagonal_product, block_size = qseries._pentagonal_product, qseries._block_size
    if not newton_allowed:
        patch.setattr(qseries, "FFT_MIN_TERMS", 2**62)
    patch.setattr(qseries, "_pentagonal_product", lambda *a: ran.append("newton") or pentagonal_product(*a))
    patch.setattr(qseries, "_block_size", lambda n: ran.append("blocked") or block_size(n))
    out = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus)).coeffs
    return out, ran


# lengths n + 1 at and around FFT_MIN_TERMS and powers of two; 1500 has a
# top Newton step from 1024 to 1500 terms, not a power of two
NEWTON_LENGTHS = [511, 512, 513, 1023, 1024, 1025, 1500, 2047, 2049]


@pytest.mark.parametrize("length", NEWTON_LENGTHS)
@pytest.mark.parametrize("rule", NEWTON_RULES, ids=lambda r: r.name)
def test_newton_path_matches_blocked_kernel_and_python_recurrence(monkeypatch, rule, length):
    n = length - 1
    for modulus in (2, 3, 11, 97, 691):
        want = exact_mod(rule, n, modulus)
        with monkeypatch.context() as patch:
            got, ran = grouped_with_path(patch, rule, n, modulus)
        assert ran == (["newton"] if length >= FFT_MIN_TERMS else ["blocked"])
        assert got == want
        with monkeypatch.context() as patch:
            blocked, ran = grouped_with_path(patch, rule, n, modulus, newton_allowed=False)
        assert ran == ["blocked"]
        assert blocked == want


@pytest.mark.parametrize("rule", NEWTON_RULES, ids=lambda r: r.name)
def test_modulus_past_fits_fft_takes_the_blocked_kernel(monkeypatch, rule):
    n = 1500
    top = largest_fft_modulus(n + 1, n + 1)
    for modulus, path in ((top, "newton"), (top + 1, "blocked")):
        with monkeypatch.context() as patch:
            got, ran = grouped_with_path(patch, rule, n, modulus)
        assert ran == [path]
        assert got == exact_mod(rule, n, modulus)


def test_newton_steps_take_the_fft_and_fall_back_when_a_check_fails(monkeypatch):
    n, modulus = 4096, 97
    want = exact_mod(ordinary(), n, modulus)
    for perturb in (0.0, 0.3):
        steps = []
        step, irfft = qseries._newton_step_fft, np.fft.irfft
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + perturb)
            patch.setattr(qseries, "_newton_step_fft", lambda *a: steps.append(step(*a)) or steps[-1])
            got = euler_product_coefficients(ordinary(), n, CoefficientRing.integers_mod(modulus))
        # steps from 512, 1024 and 2048 terms; 4096 -> 4097 is the fourth
        assert len(steps) == 4
        assert all((s is None) == (perturb > 0) for s in steps)
        assert got.coeffs == want


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_newton_path_property(data):
    # lengths on both sides of FFT_MIN_TERMS, moduli on both sides of the
    # guard at the top length
    rule = data.draw(st.sampled_from(NEWTON_RULES))
    n = data.draw(st.integers(min_value=0, max_value=NEWTON_MAX_N))
    top = largest_fft_modulus(n + 1, n + 1)
    below = data.draw(st.booleans())
    modulus = data.draw(
        st.integers(min_value=2, max_value=top) if below
        else st.integers(min_value=top + 1, max_value=4 * top)
    )
    with pytest.MonkeyPatch.context() as patch:
        got, ran = grouped_with_path(patch, rule, n, modulus)
    assert ran == (["newton"] if below and n + 1 >= FFT_MIN_TERMS else ["blocked"])
    assert got == exact_mod(rule, n, modulus)


@pytest.mark.parametrize("modulus,length", [(691, 3000), (12, 700), (2**61 - 1, 40)])
def test_series_inverse_mod_n_with_a_unit_constant_term_other_than_one(modulus, length):
    ring = CoefficientRing.integers_mod(modulus)
    a = make_series(ring, [5] + [(7 * i + 3) ** 5 % modulus for i in range(1, length)])
    inv = series_inverse(a)
    assert inv.coeffs[0] == pow(5, -1, modulus)
    product = kronecker_convolution(list(a.coeffs), list(inv.coeffs), modulus)
    assert product == [1] + [0] * (length - 1)
