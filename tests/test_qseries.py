from __future__ import annotations

import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freqmoments.qseries import (
    CoefficientRing,
    Ensemble,
    Series,
    companion_block,
    companion_series,
    coloured_ensemble,
    dump_series,
    ensemble_by_name,
    eta_power_coefficients,
    euler_product_coefficients,
    partition_counts,
    tau_coefficients,
    ORDINARY,
    OVERPARTITION,
)
from freqmoments import qseries
from freqmoments.qseries import _convolve_direct, _convolve_mod, _newton_inverse, fits_fft, fits_float64, fits_int64
from freqmoments.qseries import FFT_MIN_TERMS, FLOAT64_DIRECT_MAX_TERMS

Z = CoefficientRing.exact_integers()

# c(r) = 2 for odd r and -1 for even r: f(q)^-2 f(q^2)^3, f = (q;q)_inf
THETA_WEIGHTS = Ensemble("theta-weights", ((1, 2), (2, -3)))


def make_series(ring: CoefficientRing, values) -> Series:
    """A Series of values, each reduced into the ring."""
    return Series(ring, [ring.reduce(v) for v in values])


# --- brute-force oracles ----------------------------------------------------


def slow_poly_mult(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def slow_euler_product(c, n: int) -> list[int]:
    """Expand prod (1-q^r)^(-c(r)) by multiplying in its factors 1/(1-q^r)
    or (1-q^r) one at a time, each in place in one pass over the list."""
    result = [1] + [0] * n
    for r in range(1, n + 1):
        cr = c(r)
        for _ in range(abs(cr)):
            if cr > 0:  # times 1/(1-q^r): a running sum with stride r
                for j in range(r, n + 1):
                    result[j] += result[j - r]
            else:  # times (1-q^r)
                for j in range(n, r - 1, -1):
                    result[j] -= result[j - r]
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


def test_ring_validation():
    with pytest.raises(ValueError):
        CoefficientRing(modulus=1)
    with pytest.raises(TypeError):
        CoefficientRing(modulus=5, rational=True)  # Z and Z/N are the only rings


def test_ring_descriptions():
    assert CoefficientRing.integers_mod(691).describe() == "Z/691"
    assert Z.describe() == "Z"
    assert CoefficientRing(modulus=2).describe() == "Z/2"


def test_series_shape():
    s = make_series(Z, [1, 2, 3])
    assert s.n_max == 2
    assert len(s.coeffs) == s.n_max + 1
    assert s[1] == 2
    with pytest.raises(ValueError):
        Series(Z, ())


# --- the Z/N representation ---------------------------------------------------

ABOVE_INT64 = 2**64 + 13


def test_mod_n_coeffs_are_a_read_only_int64_array():
    ring = CoefficientRing.integers_mod(7)
    for series in (
        partition_counts(600, ring),  # Newton
        euler_product_coefficients(coloured_ensemble(3), 40, ring),
        tau_coefficients(30, ring),
        Series(ring, _newton_inverse(partition_counts(30, ring).coeffs[None], [[7]])[0]),
        make_series(ring, [1, -1, 9]),
    ):
        coeffs = series.coeffs
        assert isinstance(coeffs, np.ndarray)
        assert coeffs.dtype == np.int64 and coeffs.ndim == 1
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 3
        assert type(series[1]) is int


def test_series_takes_over_a_handed_array_without_copying():
    values = np.arange(5, dtype=np.int64)
    series = Series(CoefficientRing.integers_mod(7), values)
    assert series.coeffs is values
    assert not values.flags.writeable


def test_modulus_above_int64_gives_an_array_of_python_ints():
    ring = CoefficientRing.integers_mod(ABOVE_INT64)
    series = companion_series(OVERPARTITION, 60, ring)
    assert series.coeffs.dtype == object
    assert not series.coeffs.flags.writeable
    assert all(type(v) is int for v in series.coeffs)
    assert series == make_series(ring, companion_series(OVERPARTITION, 60, Z).coeffs)
    inverse = _newton_inverse(series.coeffs[None], [[ABOVE_INT64]])[0]
    assert inverse.dtype == object
    assert all(type(v) is int for v in inverse)


def test_exact_rings_keep_tuples():
    # over Z the series are read-only object arrays of Python ints
    for series in (partition_counts(10, Z), companion_series(OVERPARTITION, 10, Z), tau_coefficients(10, Z)):
        assert series.coeffs.dtype == object
        assert not series.coeffs.flags.writeable
        assert all(type(v) is int for v in series.coeffs)
        assert type(series[3]) is int
    assert Series(Z, [1, 2]).coeffs.tolist() == [1, 2]


def test_series_equality_across_producers():
    ring = CoefficientRing.integers_mod(11)
    newton = partition_counts(700, ring)
    slow = make_series(ring, slow_euler_product(ORDINARY.weight, 700))
    reduced = make_series(ring, partition_counts(700, Z).coeffs)
    inverse = Series(ring, _newton_inverse(eta_power_coefficients(1, 700, ring).coeffs[None], [[11]])[0])
    assert newton == slow == reduced == inverse
    assert newton != partition_counts(699, ring)
    assert newton != partition_counts(700, CoefficientRing.integers_mod(13))
    assert partition_counts(5, Z) != partition_counts(5, CoefficientRing.integers_mod(691))
    assert partition_counts(5, Z) == make_series(Z, [1, 1, 2, 3, 5, 7])


# --- ensembles ---------------------------------------------------------------


def test_preset_values():
    assert [ORDINARY.weight(r) for r in (1, 2, 3)] == [1, 1, 1]
    assert [coloured_ensemble(4).weight(r) for r in (1, 2)] == [4, 4]
    assert [OVERPARTITION.weight(r) for r in (1, 2, 3, 4)] == [2, 1, 2, 1]
    assert [THETA_WEIGHTS.weight(r) for r in (1, 2, 3, 4)] == [2, -1, 2, -1]


@pytest.mark.parametrize(
    "ensemble, k, c",
    [
        pytest.param(ensemble, k, c, id=ensemble.name)
        for ensemble, k, c in [
            (ORDINARY, 1, lambda r: 1),
            (OVERPARTITION, 1, lambda r: 2 if r % 2 else 1),
            *((coloured_ensemble(j), j, lambda r, j=j: j) for j in range(1, 6)),
        ]
    ],
)
def test_ensemble_reads_its_data_from_the_eta_quotient(monkeypatch, ensemble, k, c):
    assert ensemble.k == k
    assert [ensemble.weight(r) for r in range(1, 61)] == [c(r) for r in range(1, 61)]
    # the canonical weight is the product's exponent: A = prod (1-q^r)^(-c(r))
    assert euler_product_coefficients(ensemble, 40, Z).coeffs.tolist() == slow_euler_product(c, 40)
    # only the overpartitions' f(q)^2 / f(q^2) is Gauss's theta_4
    theta4 = []
    terms = qseries._theta4_terms
    monkeypatch.setattr(qseries, "_theta4_terms", lambda n: theta4.append(n) or terms(n))
    euler_product_coefficients(ensemble, 40, CoefficientRing.integers_mod(7))
    assert bool(theta4) == (ensemble is OVERPARTITION)


@pytest.mark.parametrize(
    "eta, error",
    [
        ((), ValueError),
        (((0, 1),), ValueError),  # d < 1
        (((1, 1), (2, 0)), ValueError),  # m_d = 0
        (((1, 1), (1, 2)), ValueError),  # a repeated d
        (((2, 1), (1, 1)), ValueError),  # not ascending
        (((1, Fraction(1, 2)),), TypeError),  # rational exponents unsupported
        (((1.0, 1),), TypeError),
    ],
    ids=["empty", "d-zero", "m-zero", "repeated-d", "unsorted", "rational-m", "float-d"],
)
def test_ensemble_rejects_a_malformed_eta(eta, error):
    with pytest.raises(error):
        Ensemble("bad", eta)


def test_ensemble_from_lists_equals_the_preset():
    # eta is stored as a tuple of pairs, so the theta_4 branch and the hold
    # key compare equal whatever sequences the pairs came in
    listed = Ensemble("overpartition", [[1, 2], [2, -1]])
    assert listed == OVERPARTITION and hash(listed) == hash(OVERPARTITION)


def test_ensemble_registry():
    assert ensemble_by_name("ordinary") is ORDINARY
    assert ensemble_by_name("Overpartition") is OVERPARTITION
    assert ensemble_by_name("coloured(3)").weight(5) == 3
    assert ensemble_by_name("colored(2)") == coloured_ensemble(2)
    for name in ("mystery", "theta", "plane-partition"):
        with pytest.raises(ValueError, match="unknown ensemble"):
            ensemble_by_name(name)


# --- partition counts -------------------------------------------------------


def test_partition_counts_n_zero():
    assert partition_counts(0, Z).coeffs.tolist() == [1]


def test_partition_counts_small():
    assert partition_counts(5, Z).coeffs.tolist() == [1, 1, 2, 3, 5, 7]


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
    for ring in (Z, CoefficientRing.integers_mod(7), CoefficientRing.integers_mod(ABOVE_INT64)):
        direct = partition_counts(60, ring)
        product = euler_product_coefficients(ORDINARY, 60, ring)
        assert product == direct


def test_euler_product_ordinary_matches_partition_counts_to_2000():
    for ring in (Z, CoefficientRing.integers_mod(13)):
        direct = partition_counts(2000, ring)
        product = euler_product_coefficients(ORDINARY, 2000, ring)
        assert product == direct


def test_euler_product_overpartition_example():
    assert euler_product_coefficients(OVERPARTITION, 4, Z).coeffs.tolist() == [1, 2, 4, 8, 14]


def test_euler_product_coloured_example():
    assert euler_product_coefficients(coloured_ensemble(2), 3, Z).coeffs.tolist() == [1, 2, 5, 10]


@pytest.mark.parametrize("rule", [ORDINARY, OVERPARTITION, THETA_WEIGHTS, coloured_ensemble(3)])
def test_euler_product_against_slow_expansion(rule):
    got = euler_product_coefficients(rule, 25, Z)
    want = slow_euler_product(rule.weight, 25)
    assert list(got.coeffs) == want


def test_grouped_path_agrees_with_factor_passes():
    # slow_euler_product multiplies the factors out one at a time
    for rule in (ORDINARY, OVERPARTITION, THETA_WEIGHTS, coloured_ensemble(2)):
        slow = slow_euler_product(rule.weight, 80)
        for ring in (Z, CoefficientRing.integers_mod(11)):
            assert euler_product_coefficients(rule, 80, ring) == make_series(ring, slow)


def test_nonnegative_exponents_give_nonnegative_counts():
    for rule in (ORDINARY, OVERPARTITION, coloured_ensemble(5)):
        series = euler_product_coefficients(rule, 120, Z)
        assert all(v >= 0 for v in series.coeffs)


def test_first_moment_recurrence_ordinary_and_overpartition():
    # n*b(n) = sum_d sigma_c1(d) b(n-d) with sigma_c1(d) = sum_{r|d} c(r) r
    for rule in (ORDINARY, OVERPARTITION):
        n_max = 500
        b = euler_product_coefficients(rule, n_max, Z)
        sigma1 = [0] * (n_max + 1)
        for r in range(1, n_max + 1):
            w = rule.weight(r) * r
            for i in range(r, n_max + 1, r):
                sigma1[i] += w
        for n in range(1, n_max + 1):
            assert n * b[n] == sum(sigma1[d] * b[n - d] for d in range(1, n + 1))


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from([ORDINARY, OVERPARTITION, THETA_WEIGHTS, coloured_ensemble(2)]),
    st.sampled_from([5, 7, 11, 691]),
    st.integers(min_value=0, max_value=60),
)
def test_mod_ring_is_homomorphic_image_of_exact(rule, modulus, n):
    exact = euler_product_coefficients(rule, n, Z)
    ring = CoefficientRing.integers_mod(modulus)
    modular = euler_product_coefficients(rule, n, ring)
    assert make_series(ring, exact.coeffs) == modular


# --- named generators -------------------------------------------------------


def test_eta_power_zero_and_pentagonal():
    assert eta_power_coefficients(0, 4, Z).coeffs.tolist() == [1, 0, 0, 0, 0]
    assert eta_power_coefficients(1, 7, Z).coeffs.tolist() == [1, -1, -1, 0, 0, 1, 0, 1]


def test_eta_power_minus_one_is_partitions():
    assert eta_power_coefficients(-1, 40, Z).coeffs.tolist() == partition_counts(40, Z).coeffs.tolist()


def test_eta_power_inverse_pair():
    eta = eta_power_coefficients(1, 50, Z)
    p = partition_counts(50, Z)
    assert slow_poly_mult(list(eta.coeffs), list(p.coeffs), 50) == [1] + [0] * 50
    mod691 = CoefficientRing.integers_mod(691)
    inverse = _newton_inverse(eta_power_coefficients(1, 50, mod691).coeffs[None], [[691]])[0]
    assert inverse.tolist() == [v % 691 for v in p.coeffs]


def test_tau_values():
    tau = tau_coefficients(10, Z)
    # first Ramanujan tau values; a(0) is defined as 0
    assert tau.coeffs[:7].tolist() == [0, 1, -24, 252, -1472, 4830, -6048]


def test_tau_sigma11_congruence_mod_691():
    n_max = 200
    tau = tau_coefficients(n_max, Z)
    from freqmoments.divisorweights import sigma_table

    sig11 = sigma_table(11, n_max, Z)
    for n in range(1, n_max + 1):
        assert (tau[n] - sig11[n]) % 691 == 0


def test_companion_series_dispatch():
    # every ensemble is its own companion
    self_comp = companion_series(ORDINARY, 6, Z)
    assert self_comp.coeffs.tolist() == partition_counts(6, Z).coeffs.tolist()
    mod3 = CoefficientRing.integers_mod(3)
    assert companion_series(OVERPARTITION, 5, mod3) == make_series(mod3, [1, 2, 4, 8, 14, 24])


# --- dump format ------------------------------------------------------------


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
    got = euler_product_coefficients(coloured_ensemble(24), 40, mod11)
    want = slow_euler_product(coloured_ensemble(24).weight, 40)
    assert got.coeffs.tolist() == [v % 11 for v in want]


# --- Z/N products at small n -------------------------------------------------
# These sizes and moduli once ran a blocked int64 kernel, and the tests keep
# its name.  Now 11, 691 and 12 take Newton inversion on the direct tiers,
# and 2**28 - 1 and 2**28 + 3 lie past the FFT guard and take the scalar
# recurrence.

K = 128
PAST_FFT_GUARD = 2**28 + 3


def exact_reduced(series: Series, modulus: int) -> Series:
    return make_series(CoefficientRing.integers_mod(modulus), series.coeffs)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 2 * K + 3])
@pytest.mark.parametrize("rule", [ORDINARY, OVERPARTITION, coloured_ensemble(3)], ids=lambda r: r.name)
# 12 is composite; 2**28 - 1 is odd and past the FFT guard
@pytest.mark.parametrize("modulus", [11, 691, 12, 2**28 - 1])
def test_blocked_kernel_matches_exact_path(rule, n, modulus):
    got = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus))
    assert got == exact_reduced(euler_product_coefficients(rule, n, Z), modulus)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 2 * K + 3])
def test_blocked_kernel_eta24_mod_691(n):
    # (q;q)^24 only multiplies, so this exercises the shifted-slice path alone
    mod691 = CoefficientRing.integers_mod(691)
    got = eta_power_coefficients(24, n, mod691)
    assert got == exact_reduced(eta_power_coefficients(24, n, Z), 691)


def test_modulus_above_int64_guard_takes_python_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("Newton path used beyond the FFT guard")

    divided = []
    divide_by_sparse = qseries._divide_by_sparse
    monkeypatch.setattr(qseries, "_pentagonal_product", refuse)
    monkeypatch.setattr(qseries, "_newton_inverse", refuse)
    monkeypatch.setattr(qseries, "_divide_by_sparse", lambda *a: divided.append(1) or divide_by_sparse(*a))
    ring = CoefficientRing.integers_mod(PAST_FFT_GUARD)
    for rule in (ORDINARY, OVERPARTITION):
        divided.clear()
        got = euler_product_coefficients(rule, K + 1, ring)
        assert divided, "the scalar recurrence did not run"
        assert got == exact_reduced(euler_product_coefficients(rule, K + 1, Z), PAST_FFT_GUARD)


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from([ORDINARY, OVERPARTITION, THETA_WEIGHTS, coloured_ensemble(3)]),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=0, max_value=700),
)
def test_blocked_kernel_property(rule, modulus, n):
    got = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus))
    assert got == exact_reduced(euler_product_coefficients(rule, n, Z), modulus)


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
    # one seed, not st.randoms: that draws twice per element, and thousands
    # of elements overrun hypothesis's data buffer (HealthCheck.data_too_large)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
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


def test_rounded_mod_rejects_nan():
    # NaN compares False with everything, so a check written as max > 1/4
    # let it through and rint turned it into a residue
    # and a NaN input is rejected without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qseries._rounded_mod(np.array([1.0, np.nan]), 7) is None
        assert qseries._rounded_mod(np.array([np.nan, 3.0, 1.0]), 7) is None
    assert qseries._rounded_mod(np.array([1.2, 6.0, 8.1]), 7).tolist() == [1, 6, 1]


def test_fft_tier_falls_back_when_an_output_is_nan(monkeypatch):
    length, modulus = 4096, 97
    a = [(7 * i + 3) ** 5 % modulus for i in range(length)]
    b = [modulus - 1] * length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus, perturb=np.nan)
    assert ran == ["fft", "float64"]
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
    # one seed, as in test_convolve_mod_property
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
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


def expected_tier(length: int, modulus: int, rows: int = 1) -> str:
    """The tier a block of rows of this length takes: the FFT tier once
    rows * length reach FFT_MIN_TERMS, else one direct product a row."""
    if rows * length >= FFT_MIN_TERMS and fits_fft(length, length, modulus):
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
        # the Python-integer tier is a quadratic product of Python ints, and the
        # int64 tier at 2**15 + 1 terms takes about a second a row
        if _tier == "python" and _length > FFT_MIN_TERMS:
            continue
        BATCH_CASES.append((_length, _modulus, _tier, 2 if _length > 10**4 else 3))


@pytest.mark.parametrize("length,modulus,tier,rows", BATCH_CASES)
def test_block_convolution_equals_row_by_row_calls(monkeypatch, length, modulus, tier, rows):
    a = block_rows(length, modulus, rows)
    b = [(11 * i + 5) ** 3 % modulus for i in range(length)][::-1]
    out, ran = convolve_recording_tiers(monkeypatch, a, b, modulus)
    # tier is a single row's; the block takes one transform once its rows
    # times its terms reach FFT_MIN_TERMS, else one direct product per row
    tier = expected_tier(length, modulus, rows)
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


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_block_fft_rule_property(data):
    # blocks on both sides of rows * terms = FFT_MIN_TERMS, moduli on both
    # sides of the FFT guard; the reference is each row's direct product
    rows = data.draw(st.integers(min_value=1, max_value=8))
    length = data.draw(st.integers(min_value=1, max_value=700))
    top = largest_fft_modulus(length, length)
    modulus = data.draw(st.sampled_from([2, 97, top, top + 1]))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = np.array([[rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(length)] for _ in range(rows)])
    b = [rng.choice((modulus - 1, rng.randrange(modulus))) for _ in range(length)]
    want = [_convolve_direct(row, np.array(b), modulus).tolist() for row in a]
    fft = rows * length >= FFT_MIN_TERMS and fits_fft(length, length, modulus)
    with pytest.MonkeyPatch.context() as patch:
        out, ran = convolve_recording_tiers(patch, a, b, modulus)
    assert out.tolist() == want
    assert ran.count("fft") == fft
    if fft:
        # a failed 1/4 check sends every row to its direct product
        with pytest.MonkeyPatch.context() as patch:
            out, ran = convolve_recording_tiers(patch, a, b, modulus, perturb=0.3)
        assert out.tolist() == want
        assert ran[0] == "fft" and len(ran) == 1 + rows and "fft" not in ran[1:]


# --- Newton-inverted companion ------------------------------------------------

ETA24 = Ensemble("eta-power(24)", ((1, -24),))
NEWTON_RULES = [ORDINARY, OVERPARTITION, coloured_ensemble(3), ETA24]
NEWTON_MAX_N = 5000
_EXACT_PREFIXES: dict[str, tuple] = {}


def exact_mod(rule: Ensemble, n: int, modulus: int) -> list:
    """The first n+1 coefficients mod modulus of the product over Z, which
    runs the scalar Python recurrence; computed once per rule to
    NEWTON_MAX_N (truncation is a prefix)."""
    if rule.name not in _EXACT_PREFIXES:
        _EXACT_PREFIXES[rule.name] = euler_product_coefficients(rule, NEWTON_MAX_N, Z).coeffs
    return [v % modulus for v in _EXACT_PREFIXES[rule.name][: n + 1]]


def grouped_with_path(patch, rule, n, modulus):
    """The product mod modulus and the branch that built it: "newton" when
    the pentagonal product was inverted or expanded densely, "scalar" when
    the scalar recurrence ran."""
    ran = []
    pentagonal_product = qseries._pentagonal_product
    patch.setattr(qseries, "_held", None)
    patch.setattr(qseries, "_pentagonal_product", lambda *a: ran.append(1) or pentagonal_product(*a))
    out = euler_product_coefficients(rule, n, CoefficientRing.integers_mod(modulus)).coeffs
    return out.tolist(), "newton" if ran else "scalar"


def newton_top_modulus(length: int) -> int:
    """The largest modulus that takes the Newton branch at this length."""
    top = max(length, FFT_MIN_TERMS)
    return largest_fft_modulus(top, top)


# lengths n + 1 at and around FFT_MIN_TERMS and powers of two; 1500 has a
# top Newton step from 1024 to 1500 terms, not a power of two
NEWTON_LENGTHS = [511, 512, 513, 1023, 1024, 1025, 1500, 2047, 2049]


@pytest.mark.parametrize("length", NEWTON_LENGTHS)
@pytest.mark.parametrize("rule", NEWTON_RULES, ids=lambda r: r.name)
def test_newton_path_matches_blocked_kernel_and_python_recurrence(monkeypatch, rule, length):
    # the Z recurrence reduced is the reference for every branch
    n = length - 1
    for modulus in (2, 3, 11, 97, 691):
        with monkeypatch.context() as patch:
            got, path = grouped_with_path(patch, rule, n, modulus)
        assert path == "newton"
        assert got == exact_mod(rule, n, modulus)


@pytest.mark.parametrize("length", [1, 511, 512, 1500])
@pytest.mark.parametrize("rule", NEWTON_RULES, ids=lambda r: r.name)
def test_modulus_past_fits_fft_takes_the_scalar_recurrence(monkeypatch, rule, length):
    top = newton_top_modulus(length)
    if length <= FFT_MIN_TERMS:
        # the guard at FFT_MIN_TERMS, which _pentagonal_product's int32 relies on
        assert top == 113_849
    for modulus, want_path in ((top, "newton"), (top + 1, "scalar")):
        with monkeypatch.context() as patch:
            got, path = grouped_with_path(patch, rule, length - 1, modulus)
        assert path == want_path
        assert got == exact_mod(rule, length - 1, modulus)


def test_newton_steps_take_the_fft_and_fall_back_when_a_check_fails(monkeypatch):
    n, modulus = 4096, 97
    want = exact_mod(ORDINARY, n, modulus)
    for perturb in (0.0, 0.3):
        steps = []
        step, irfft = qseries._newton_step_fft, np.fft.irfft
        with monkeypatch.context() as patch:
            patch.setattr(qseries, "_held", None)
            patch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + perturb)
            patch.setattr(qseries, "_newton_step_fft", lambda *a: steps.append(step(*a)) or steps[-1])
            got = euler_product_coefficients(ORDINARY, n, CoefficientRing.integers_mod(modulus))
        # the top-down schedule 4097, 2049, 1025, 513, ...: FFT steps from
        # 513, 1025 and 2049 terms, none past 4097 terms
        assert len(steps) == 3
        assert all((s is None) == (perturb > 0) for s in steps)
        assert got.coeffs.tolist() == want


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_newton_path_property(data):
    # lengths on both sides of FFT_MIN_TERMS, moduli on both sides of the
    # guard at the top length; the scalar recurrence past the guard is
    # interpreted Python, so its lengths stop at 701
    rule = data.draw(st.sampled_from(NEWTON_RULES))
    below = data.draw(st.booleans())
    n = data.draw(st.integers(min_value=0, max_value=NEWTON_MAX_N if below else 700))
    top = newton_top_modulus(n + 1)
    modulus = data.draw(
        st.integers(min_value=2, max_value=top) if below
        else st.integers(min_value=top + 1, max_value=4 * top)
    )
    with pytest.MonkeyPatch.context() as patch:
        got, path = grouped_with_path(patch, rule, n, modulus)
    assert path == ("newton" if below else "scalar")
    assert got == exact_mod(rule, n, modulus)


@pytest.mark.parametrize("modulus,length", [(691, 3000), (12, 700), (2**61 - 1, 40)])
def test_series_inverse_mod_n_with_a_unit_constant_term_other_than_one(modulus, length):
    ring = CoefficientRing.integers_mod(modulus)
    a = make_series(ring, [5] + [(7 * i + 3) ** 5 % modulus for i in range(1, length)])
    inv = _newton_inverse(a.coeffs[None], [[modulus]])[0]
    assert inv[0] == pow(5, -1, modulus)
    product = kronecker_convolution(list(a.coeffs), list(inv), modulus)
    assert product == [1] + [0] * (length - 1)


# --- the held sparse-Newton companion -----------------------------------------


def newton_builds(monkeypatch) -> list[int]:
    """Start with no held companion; return the length of every Newton
    inversion run from here on."""
    monkeypatch.setattr(qseries, "_held", None)
    lengths = []
    inverse = qseries._newton_inverse
    monkeypatch.setattr(qseries, "_newton_inverse", lambda *a: lengths.append(a[0].shape[-1]) or inverse(*a))
    return lengths


@pytest.mark.parametrize("ensemble", [ORDINARY, OVERPARTITION], ids=lambda e: e.name)
def test_held_companion_serves_interleaved_requests(monkeypatch, ensemble):
    builds = newton_builds(monkeypatch)
    # short, long, shorter, a second prime, shorter there, then back
    requests = [(11, 700), (11, 3000), (11, 1200), (13, 2000), (13, 500), (11, 2500), (11, 3000)]
    served = []
    for modulus, n in requests:
        series = companion_series(ensemble, n, CoefficientRing.integers_mod(modulus))
        assert series.coeffs.tolist() == exact_mod(ensemble, n, modulus)
        assert not series.coeffs.flags.writeable
        with pytest.raises(ValueError):
            series.coeffs[0] = 0
        served.append((series, series.coeffs.copy()))
    # 11 to 700 then extended to 3000; 13 to 2000; 11 again, since 13 dropped it
    assert builds == [701, 3001, 2001, 2501, 3001]
    # the shorter requests are prefix views of the held series
    assert np.shares_memory(served[2][0].coeffs, served[1][0].coeffs)
    assert np.shares_memory(served[4][0].coeffs, served[3][0].coeffs)
    # no extension changes an array handed out before it
    for series, snapshot in served:
        assert np.array_equal(series.coeffs, snapshot)


def test_held_companion_is_shared_by_ensembles_with_the_same_product(monkeypatch):
    builds = newton_builds(monkeypatch)
    ring = CoefficientRing.integers_mod(11)
    ordinary_comp = companion_series(ORDINARY, 900, ring)
    assert companion_series(ensemble_by_name("coloured(1)"), 600, ring) == Series(ring, ordinary_comp.coeffs[:601])
    assert builds == [901]


def test_a_quotient_and_a_companion_with_one_product_share_the_held_series(monkeypatch):
    builds = newton_builds(monkeypatch)
    ring = CoefficientRing.integers_mod(11)
    counts = partition_counts(900, ring)
    assert companion_series(ORDINARY, 600, ring) == Series(ring, counts.coeffs[:601])
    assert builds == [901]


def test_overpartition_product_inverts_theta4(monkeypatch):
    lengths, nonzero = [], []
    inverse = qseries._newton_inverse
    monkeypatch.setattr(qseries, "_held", None)
    monkeypatch.setattr(
        qseries, "_newton_inverse",
        lambda a, *rest: lengths.append(a.shape[-1]) or nonzero.append(np.count_nonzero(a)) or inverse(a, *rest),
    )
    euler_product_coefficients(OVERPARTITION, 3000, CoefficientRing.integers_mod(11))
    # theta_4 = 1 + 2 sum (-1)^k q^(k^2): 1 + isqrt(3000) terms, not the dense f(q)^2
    assert (lengths, nonzero) == ([3001], [1 + isqrt(3000)])


def test_a_shorter_coloured_request_is_a_view_of_the_held_series(monkeypatch):
    builds = newton_builds(monkeypatch)
    ring = CoefficientRing.integers_mod(13)
    long = euler_product_coefficients(coloured_ensemble(3), 2000, ring)
    short = euler_product_coefficients(coloured_ensemble(3), 700, ring)
    assert builds == [2001]
    assert not short.coeffs.flags.writeable
    assert np.shares_memory(short.coeffs, long.coeffs)
    assert short.coeffs.tolist() == exact_mod(coloured_ensemble(3), 700, 13)


@pytest.mark.parametrize("modulus", [None, 7, 1_000_003, ABOVE_INT64], ids=str)
def test_overpartition_companion_is_one_over_theta4(monkeypatch, modulus):
    # the companion inverts theta_4 = 1 + 2 sum (-1)^k q^(k^2) (Gauss); the
    # product of its factors over Z, multiplied in one at a time, is the
    # reference.  7 takes Newton,
    # 1000003 is past fits_newton and 2**64 + 13 past int64: both run the
    # scalar recurrence
    builds = newton_builds(monkeypatch)
    n = 1500
    ring = Z if modulus is None else CoefficientRing.integers_mod(modulus)
    got = companion_series(OVERPARTITION, n, ring)
    assert builds == ([n + 1] if modulus == 7 else [])
    assert got == make_series(ring, slow_euler_product(OVERPARTITION.weight, n))
    if modulus is None:
        theta4 = [1] + [0] * n
        for k in range(1, isqrt(n) + 1):
            theta4[k * k] = 2 * (-1) ** k
        assert slow_poly_mult(got.coeffs.tolist(), theta4, n) == [1] + [0] * n


# --- block companions ---------------------------------------------------------

BLOCK_RULES = [ORDINARY, OVERPARTITION, coloured_ensemble(2), THETA_WEIGHTS]


def block_moduli(n: int) -> list[int]:
    """2..97, with the first modulus past fits_newton among them."""
    return [*range(2, 50), newton_top_modulus(n + 1) + 1, *range(50, 98)]


def newton_blocks(patch) -> list[tuple[int, ...]]:
    """The shape of every Newton inversion run from here on."""
    shapes = []
    inverse = qseries._newton_inverse
    patch.setattr(qseries, "_newton_inverse", lambda a, *rest: shapes.append(a.shape) or inverse(a, *rest))
    return shapes


@pytest.mark.parametrize("n", [0, 1, 511, 512, 2000])
@pytest.mark.parametrize("rule", BLOCK_RULES, ids=lambda r: r.name)
def test_companion_block_rows_equal_companion_series(monkeypatch, rule, n):
    moduli = block_moduli(n)
    shapes = newton_blocks(monkeypatch)
    rows = companion_block(rule, n, moduli)
    # one inversion for the 96 moduli under fits_newton; a product with no
    # denominator below q^n (n = 0 but for theta_4) has nothing to invert
    assert shapes == ([(96, n + 1)] if n or rule is OVERPARTITION else [])
    assert len(rows) == len(moduli)
    for p, row in zip(moduli, rows):
        assert row == companion_series(rule, n, CoefficientRing.integers_mod(p))
        assert row.coeffs.dtype == np.int64 and not row.coeffs.flags.writeable


@pytest.mark.parametrize("rule", BLOCK_RULES, ids=lambda r: r.name)
def test_companion_block_falls_back_when_a_rounding_check_fails(monkeypatch, rule):
    n = 2000
    moduli = block_moduli(n)
    want = companion_block(rule, n, moduli)
    failed = []
    rounded_mod = qseries._rounded_mod

    def fail_once(values, modulus):
        if not failed:
            failed.append(np.shape(modulus))
            return None
        return rounded_mod(values, modulus)

    monkeypatch.setattr(qseries, "_rounded_mod", fail_once)
    # the first block is held; without it the second is inverted again
    monkeypatch.setattr(qseries, "_held", None)
    assert companion_block(rule, n, moduli) == want
    # the check that failed was the block's, over a column of 96 moduli
    assert failed == [(96, 1)]


def test_a_block_of_other_moduli_replaces_the_held_row(monkeypatch):
    builds = newton_builds(monkeypatch)
    ring = CoefficientRing.integers_mod(11)
    row = companion_series(ORDINARY, 900, ring)
    assert np.shares_memory(companion_series(ORDINARY, 600, ring).coeffs, row.coeffs)
    # other moduli: the block is inverted, and held in place of the row
    block = companion_block(ORDINARY, 900, [11, 13])
    assert qseries._held[:2] == (ORDINARY.eta, (11, 13))
    assert block[0] == row
    assert np.shares_memory(companion_block(ORDINARY, 700, [11, 13])[1].coeffs, block[1].coeffs)
    # a one-row request after it inverts its row again, and is held instead
    assert companion_series(ORDINARY, 600, ring) == Series(ring, row.coeffs[:601])
    assert qseries._held[:2] == (ORDINARY.eta, (11,))
    assert builds == [901, 901, 601]


def test_a_product_with_no_denominator_leaves_the_held_block(monkeypatch):
    builds = newton_builds(monkeypatch)
    block = companion_block(ORDINARY, 900, [11, 13])
    eta_power_coefficients(24, 900, CoefficientRing.integers_mod(11))
    assert np.shares_memory(companion_block(ORDINARY, 800, [11, 13])[0].coeffs, block[0].coeffs)
    assert builds == [901]
