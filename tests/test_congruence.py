from __future__ import annotations

import json
import os
from collections import Counter
from math import gcd, isqrt

import numpy as np
import pytest

from freqmoments import congruence
from freqmoments.arith import (
    CONSERVATIVE12,
    SHARP24,
    SturmConfig,
    index_gamma0,
    kronecker_symbol,
    primes_up_to,
)
from freqmoments.congruence import (
    Progression,
    ResourceLimitError,
    _level,
    _map_tasks,
    _pool_size,
    _projected_moment_values,
    certify,
    certify_batch,
    certify_filtered,
    predicted_hits,
    project,
    records_to_csv,
    records_to_json,
    scan,
    scan_report_to_csv,
    scan_report_to_json,
    scan_report_to_text,
)
from freqmoments.divisorweights import (
    DivisorWeight,
    GlaisherFilter,
    sigma_from_weight_function,
    weighted_sigma_table,
)
from freqmoments.moments import ORACLE_GUARD, ensemble_moments, frequency_oracle, oracle_moment
from freqmoments.qseries import (
    CoefficientRing,
    Ensemble,
    ORDINARY,
    OVERPARTITION,
    coloured_ensemble,
    companion_series,
    fits_float64,
    fits_int64,
    make_series,
)

Z = CoefficientRing.exact_integers()
# the Euler product of c(r) = 2 for odd r and -1 for even r, f(q)^-2 f(q^2)^3
# with f = (q;q)_inf: an eta-quotient with k = -1
THETA_PRODUCT = Ensemble("theta", ((1, 2), (2, -3)))
SHARP_NATURAL = SturmConfig(SHARP24, "natural")
SHARP_SAFE = SturmConfig(SHARP24, "safe")


# --- progressions and projection --------------------------------------------


def test_progression_validation():
    Progression(7, 0)
    Progression(7, 6)
    with pytest.raises(ValueError):
        Progression(6, 1)
    with pytest.raises(ValueError):
        Progression(7, 7)
    with pytest.raises(ValueError):
        Progression(7, -1)


def test_project_stride_extraction():
    M = ensemble_moments(ORDINARY, 1, 20, Z)
    projected = project(M, Progression(5, 0))
    assert projected.coeffs.tolist() == [M[5 * n] for n in range(5)]
    assert projected[0] == 0


def test_project_m1_ramanujan_instance():
    mod5 = CoefficientRing.integers_mod(5)
    M = ensemble_moments(ORDINARY, 1, 20, mod5)
    projected = project(M, Progression(5, 4))
    # n=1 entry is M_1(9) = 9 * p(9) = 270 = 0 mod 5
    assert projected[1] == 0
    assert all(v == 0 for v in projected.coeffs)


def test_project_m3_seven_example():
    mod7 = CoefficientRing.integers_mod(7)
    M = ensemble_moments(ORDINARY, 3, 40, mod7)
    projected = project(M, Progression(7, 5))
    assert projected[0] == 0  # M_3(5) = 287 = 7 * 41


def test_project_commutes_with_reduction():
    exact = ensemble_moments(ORDINARY, 3, 100, Z)
    ring = CoefficientRing.integers_mod(7)
    mod7 = ensemble_moments(ORDINARY, 3, 100, ring)
    prog = Progression(7, 5)
    reduced_then_projected = project(mod7, prog)
    projected_then_reduced = make_series(ring, project(exact, prog).coeffs)
    assert reduced_then_projected == projected_then_reduced


# --- certification ----------------------------------------------------------


def test_certify_table_row_m3_ell7_r5():
    rec = certify(ORDINARY, 3, Progression(7, 5), 7, SHARP_NATURAL)
    assert rec.status == "PASS"
    assert rec.bound_b == 14
    assert rec.max_index_checked == 103
    assert rec.level == 28
    assert rec.fail_witness is None


def test_certify_table_row_m7_ell11_r6_safe():
    rec = certify(ORDINARY, 7, Progression(11, 6), 11, SHARP_SAFE)
    assert rec.status == "PASS"
    assert rec.bound_b == 495
    assert rec.max_index_checked == 5451


def test_certify_overpartition_row():
    config = SturmConfig(CONSERVATIVE12, "safe")
    rec = certify(OVERPARTITION, 5, Progression(5, 0), 5, config)
    assert rec.status == "PASS"
    assert rec.bound_b == 165
    assert rec.max_index_checked == 825


def test_certify_failure_witness():
    rec = certify(ORDINARY, 3, Progression(5, 1), 5, SHARP_NATURAL)
    assert rec.status == "FAIL"
    assert rec.fail_witness == (0, 1, 1)  # M_3(1) = 1
    assert rec.max_index_checked == 1


def test_certify_failure_with_nonzero_first_n():
    # M_3(5n) mod 5 is not identically zero; find where it first fails
    rec = certify(ORDINARY, 3, Progression(5, 0), 5, SHARP_NATURAL)
    assert rec.status == "FAIL"
    n, t, residue = rec.fail_witness
    assert t == 5 * n
    M = ensemble_moments(ORDINARY, 3, t, CoefficientRing.integers_mod(5))
    assert M[t] == residue != 0
    assert all(M[5 * i] == 0 for i in range(n))


def test_certify_fail_stops_at_witness(monkeypatch):
    from freqmoments import congruence

    evaluated = []
    original = congruence._projected_moment_values

    def counting(*args):
        for value in original(*args):
            evaluated.append(value)
            yield value

    monkeypatch.setattr(congruence, "_projected_moment_values", counting)
    rec = certify(ORDINARY, 3, Progression(5, 0), 5, SHARP_NATURAL)
    assert rec.status == "FAIL"
    assert len(evaluated) == rec.fail_witness[0] + 1 < rec.bound_b + 1


def test_certify_monotone_in_evidence():
    # PASS at conservative12/safe implies PASS at sharp24/natural
    for (m, ell, r, prime) in [(3, 7, 5, 7), (3, 11, 6, 11), (5, 5, 4, 5)]:
        big = certify(ORDINARY, m, Progression(ell, r), prime, SturmConfig(CONSERVATIVE12, "safe"))
        small = certify(ORDINARY, m, Progression(ell, r), prime, SHARP_NATURAL)
        if big.status == "PASS":
            assert small.status == "PASS"
            assert small.bound_b <= big.bound_b


# 97: float64 dots; 10**8 + 7: int64 only; 2**61 - 1: Python integers
@pytest.mark.parametrize("modulus", [97, 10**8 + 7, 2**61 - 1])
def test_projected_values_exact_in_every_dot_tier(modulus):
    n, ell, r = 120, 7, 5
    assert fits_float64(n + 1, modulus) == (modulus == 97)
    assert fits_int64(n + 1, modulus) == (modulus != 2**61 - 1)
    ring = CoefficientRing.integers_mod(modulus)
    sigma = weighted_sigma_table(DivisorWeight(3, ORDINARY), n, ring)
    comp = companion_series(ORDINARY, n, ring)
    count = (n - r) // ell + 1
    got = list(_projected_moment_values(sigma, comp, ell, r, count))
    exact = ensemble_moments(ORDINARY, 3, n, Z)
    assert got == [exact[ell * k + r] % modulus for k in range(count)]


# --- polyphase projection and the certify probe ------------------------------


@pytest.fixture(scope="module")
def exact_third_moments():
    return ensemble_moments(ORDINARY, 3, 1100, Z)


# (7, 3): a modulus other than ell; 2**61 - 1: Python-integer products.
# At ell = 2 the phases have about 550 terms, so their products take the FFT
# tier; the other cases take direct products.
@pytest.mark.parametrize(
    "ell,modulus", [(2, 2), (3, 3), (5, 5), (7, 7), (11, 11), (7, 3), (5, 2**61 - 1)]
)
def test_polyphase_projection_matches_exact_moments_for_every_r(
    monkeypatch, exact_third_moments, ell, modulus
):
    n = 1100
    ring = CoefficientRing.integers_mod(modulus)
    sigma = weighted_sigma_table(DivisorWeight(3, ORDINARY), n, ring)
    comp = companion_series(ORDINARY, n, ring)
    fft_ran = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: fft_ran.append(1) or irfft(*a, **kw))
    for r in range(ell):
        count = (n - r) // ell + 1
        got = list(_projected_moment_values(sigma, comp, ell, r, count))
        assert got == [exact_third_moments[ell * k + r] % modulus for k in range(count)]
    assert bool(fft_ran) == (ell == 2)


def record_companion_sizes(monkeypatch) -> list[int]:
    """The truncation n of every companion series certify builds."""
    from freqmoments import congruence

    sizes = []
    original = congruence.companion_series

    def recording(ensemble, n, ring, **kwargs):
        sizes.append(n)
        return original(ensemble, n, ring, **kwargs)

    monkeypatch.setattr(congruence, "companion_series", recording)
    return sizes


def test_certify_fail_inside_the_probe_builds_only_the_probe(monkeypatch):
    from freqmoments import congruence

    sizes = record_companion_sizes(monkeypatch)
    rec = certify(ORDINARY, 69, Progression(11, 0), 11, SturmConfig(CONSERVATIVE12, "safe"))
    assert rec.status == "FAIL"
    assert rec.fail_witness[0] <= congruence._PROBE_ROWS < rec.bound_b
    assert sizes == [11 * congruence._PROBE_ROWS]


def test_certify_pass_builds_the_probe_then_the_full_series(monkeypatch):
    from freqmoments import congruence

    sizes = record_companion_sizes(monkeypatch)
    counts = []
    original = congruence._projected_moment_values

    def counting(sigma, comp, ell, r, count):
        counts.append(count)
        return original(sigma, comp, ell, r, count)

    monkeypatch.setattr(congruence, "_projected_moment_values", counting)
    rec = certify(ORDINARY, 3, Progression(7, 5), 7, SturmConfig(CONSERVATIVE12, "safe"))
    assert rec.status == "PASS" and rec.bound_b > congruence._PROBE_ROWS
    assert sizes == [7 * congruence._PROBE_ROWS + 5, rec.max_index_checked]
    assert counts == [congruence._PROBE_ROWS + 1, rec.bound_b + 1]


def test_certify_fail_beyond_the_probe_matches_one_stage(monkeypatch):
    from freqmoments import congruence

    # M_1(5n + 4) mod 2 first fails at n = 5
    args = (ORDINARY, 1, Progression(5, 4), 2, SturmConfig(CONSERVATIVE12, "safe"))
    monkeypatch.setattr(congruence, "_PROBE_ROWS", 10**9)
    one_stage = certify(*args)
    monkeypatch.setattr(congruence, "_PROBE_ROWS", 1)
    sizes = record_companion_sizes(monkeypatch)
    two_stage = certify(*args)
    assert one_stage.status == "FAIL" and one_stage.fail_witness[0] > 1
    assert two_stage == one_stage
    assert sizes == [5 * 1 + 4, 5 * one_stage.bound_b + 4]


@pytest.fixture(scope="module")
def oracle_table():
    return frequency_oracle(ORACLE_GUARD)


# the kronecker(5) PASSes at ell = 11 run at L = 55**2 and take seconds
@pytest.mark.parametrize(
    "selector,ells",
    [
        (None, (5, 7, 11, 13)),
        (GlaisherFilter.kronecker(5), (5, 7, 13)),
        (GlaisherFilter.odd_divisors(), (5, 7, 11, 13)),
    ],
    ids=["canonical", "kronecker(5)", "odd"],
)
def test_fail_witnesses_match_the_enumeration_oracle(oracle_table, selector, ells):
    # every ordinary FAIL of the grid, at the CLI's default
    # conservative12/safe, whose witness index the oracle reaches; the grid
    # holds the golden FAIL certify --m 3 --ell 5 --r 1 --prime 5
    config = SturmConfig(CONSERVATIVE12, "safe")
    later_rows = 0
    for m in range(1, 26, 2):
        weight = DivisorWeight(m, ORDINARY if selector is None else selector)

        def moment(t: int) -> int:
            return oracle_moment(lambda k: weight.weight_of(k) * k**m, t, oracle_table)

        for ell in ells:
            for r in range(ell):
                rec = certify(ORDINARY, m, Progression(ell, r), ell, config, weight=weight)
                if rec.status == "PASS" or rec.fail_witness[1] > ORACLE_GUARD:
                    continue
                n, t, residue = rec.fail_witness
                assert all(moment(ell * j + r) % ell == 0 for j in range(n)), rec
                assert moment(t) % ell == residue, rec
                later_rows += n > 0
    # some witnesses lie past the first projected row
    assert later_rows > 0


def test_scan_makes_no_long_direct_convolution(monkeypatch):
    # a float64 np.convolve is a series of BLAS dots, which OpenBLAS splits
    # over threads above about 10**4 elements
    lengths = []
    convolve = np.convolve
    monkeypatch.setattr(
        np, "convolve", lambda x, y: lengths.append(max(len(x), len(y))) or convolve(x, y)
    )
    scan(ORDINARY, [3], [97], 20000)
    assert all(n <= 10**4 for n in lengths)


def test_certify_validation():
    with pytest.raises(ValueError):
        certify(ORDINARY, 4, Progression(7, 5), 7, SHARP_NATURAL)
    with pytest.raises(ValueError):
        certify(ORDINARY, 3, Progression(7, 5), 6, SHARP_NATURAL)


def test_scan_resource_budget():
    with pytest.raises(ResourceLimitError):
        scan(ORDINARY, [3], [7], 2000, max_coeffs=2000)


def test_scan_refuses_divisor_sums_past_int64():
    # 2**34 residues below 2**33 + 17 may sum past 2**63; refused before
    # anything is built
    with pytest.raises(ResourceLimitError):
        scan(ORDINARY, [3], [8589934609], 2**34, max_coeffs=2**40)


def test_certify_pass_extends_the_probe_companion(monkeypatch):
    # B = 231: the probe builds the companion to q^(11 * 64 + 6), and the
    # full series to q^2547 continues Newton's iteration from it
    from freqmoments import qseries

    monkeypatch.setattr(qseries, "_held", None)
    steps = []
    step = qseries._newton_step_fft
    monkeypatch.setattr(qseries, "_newton_step_fft", lambda a, g, p: steps.append((len(g), len(a))) or step(a, g, p))
    rec = certify(ORDINARY, 3, Progression(11, 6), 11, SHARP_SAFE)
    assert (rec.status, rec.bound_b, rec.max_index_checked) == ("PASS", 231, 2547)
    # the probe's 711 terms are reached from 356 by a direct step; the
    # extension starts from 637 of them, so no FFT step runs twice
    assert steps == [(637, 1274), (1274, 2548)]


def test_certify_resource_budget():
    with pytest.raises(ResourceLimitError):
        certify(ORDINARY, 3, Progression(7, 5), 7, SHARP_SAFE, max_coeffs=100)


def test_certify_refuses_a_scalar_companion_past_the_cap(monkeypatch):
    # at ell = 281, conservative12/safe, N = 33,400,503 is inside the budget
    # but past fits_newton: the scalar recurrence would run for hours
    monkeypatch.setattr(congruence, "companion_series", lambda *a, **k: pytest.fail("built a companion"))
    with pytest.raises(ResourceLimitError, match="scalar recurrence"):
        certify(ORDINARY, 1, Progression(281, 0), 281, SturmConfig(CONSERVATIVE12, "safe"))


def test_scalar_companion_cap_is_on_the_top_index(monkeypatch):
    # 2**64 + 13 is past fits_newton at every N; B = 105 at level 4 * 25
    args = (ORDINARY, 3, Progression(5, 0), 2**64 + 13, SturmConfig(CONSERVATIVE12, "safe"))
    monkeypatch.setattr(congruence, "_SCALAR_COMPANION_MAX_N", 5 * 105)
    assert certify(*args).bound_b == 105
    monkeypatch.setattr(congruence, "_SCALAR_COMPANION_MAX_N", 5 * 105 - 1)
    with pytest.raises(ResourceLimitError):
        certify(*args)


@pytest.mark.parametrize("colours", [2, 3, 24])
def test_certify_refuses_coloured_partitions(colours):
    # (q;q)^-k moments have weight m + 1 - k/2, so the m + 1/2 bound backs
    # no PASS; coloured(3) at m = 1, ell = 5 would otherwise print one
    ensemble = coloured_ensemble(colours)
    with pytest.raises(ValueError, match="m \\+ 1 - k/2"):
        certify(ensemble, 1, Progression(5, 0), 5, SHARP_SAFE)
    with pytest.raises(ValueError, match="m \\+ 1 - k/2"):
        certify_batch([(ensemble, 1, Progression(5, 0), 5, SHARP_SAFE)])


@pytest.mark.parametrize(
    "eta, message",
    [
        # partitions into odd parts, (q^2;q^2)/(q;q): an eta-quotient of weight 0
        (((1, 1), (2, -1)), "k = 0"),
    ],
    ids=["odd-parts"],
)
def test_certify_refuses_rules_without_weight_one_half(eta, message):
    ensemble = Ensemble("rule", eta)
    with pytest.raises(ValueError, match=message):
        certify(ensemble, 1, Progression(5, 0), 5, SturmConfig())
    with pytest.raises(ValueError, match=message):
        certify_batch([(ensemble, 1, Progression(5, 0), 5, SturmConfig())])


def test_certify_one_colour_is_ordinary():
    one = certify(coloured_ensemble(1), 1, Progression(5, 0), 5, SHARP_SAFE)
    ordinary = certify(ORDINARY, 1, Progression(5, 0), 5, SHARP_SAFE)
    assert one.status == ordinary.status == "PASS"
    assert one.max_index_checked == ordinary.max_index_checked


def test_certify_refuses_the_even_filter():
    # filter_modular_data records no character for the even-divisor filter
    weight = DivisorWeight(3, GlaisherFilter.even_divisors())
    with pytest.raises(ValueError, match="no known character"):
        certify(ORDINARY, 3, Progression(7, 0), 7, SHARP_SAFE, weight=weight)
    with pytest.raises(ValueError, match="no known character"):
        certify_filtered(weight, 3, Progression(7, 0), 7, SHARP_SAFE)
    with pytest.raises(ValueError, match="no known character"):
        certify_batch([(ORDINARY, 3, Progression(7, 0), 7, SHARP_SAFE, weight)])


@pytest.mark.parametrize(
    "refused, error",
    [
        # k = -1
        ((THETA_PRODUCT, 1, Progression(5, 0), 5, SturmConfig()), ValueError),
        # 34,117,915 coefficients, over the default budget of 2**25
        ((ORDINARY, 1, Progression(283, 0), 283, SturmConfig(CONSERVATIVE12, "safe")), ResourceLimitError),
        # inside the budget, but past the scalar companion cap
        ((ORDINARY, 1, Progression(281, 0), 281, SturmConfig(CONSERVATIVE12, "safe")), ResourceLimitError),
    ],
    ids=["theta", "over-budget", "past-scalar-cap"],
)
def test_certify_batch_refuses_before_it_builds_anything(monkeypatch, refused, error):
    # the first task alone would build companions to q^453 and q^691
    built = []
    monkeypatch.setattr(congruence, "companion_series", lambda *a, **k: built.append(a[1]))
    with pytest.raises(error):
        certify_batch([(ORDINARY, 3, Progression(7, 5), 7, SHARP_SAFE), refused])
    assert built == []


def test_zero_class_first_moment_all_self_ensembles():
    from freqmoments.arith import primes_up_to

    for ensemble in (ORDINARY, OVERPARTITION, coloured_ensemble(2), THETA_PRODUCT):
        for ell in primes_up_to(31).primes:
            if ell < 5:
                continue
            ring = CoefficientRing.integers_mod(ell)
            M = ensemble_moments(ensemble, 1, 2000, ring)
            assert all(M[ell * n] == 0 for n in range(2000 // ell + 1)), (ensemble.name, ell)


# The PASSes of the full range (odd m <= 99, 5 <= ell <= 97) that are not
# Fermat's (1, ell, 0), reduced to (m, ell, r).
NONTRIVIAL_PASSES = [
    (1, 5, 4), (1, 7, 5), (1, 11, 6), (3, 7, 0), (3, 7, 5), (3, 11, 0), (3, 11, 6), (7, 11, 6),
]


@pytest.mark.parametrize("m,ell,r", NONTRIVIAL_PASSES)
def test_nontrivial_pass_vanishes_to_the_bound_of_weight_m_plus_ell(m, ell, r):
    # Mod ell, E_2 = E_{ell+1} can raise the weight m + 1/2 that certify
    # assumes to m + ell + 1/2; check the conservative12/safe bound there.
    # m + ell is even, which sturm_bound_for_level refuses, so B is computed
    # from the index directly.
    bound = (2 * (m + ell) + 1) * index_gamma0(4 * ell * ell) // 12
    moments = ensemble_moments(ORDINARY, m, ell * bound + r, CoefficientRing.integers_mod(ell))
    assert not moments.coeffs[r::ell].any()


# --- filtered certification -------------------------------------------------


def test_filtered_level_rule():
    # L = config.resolve_level(lcm(ell, conductor))
    safe, natural = SturmConfig(level_model="safe"), SturmConfig(level_model="natural")
    chi5 = DivisorWeight(3, GlaisherFilter.kronecker(5))
    assert _level(chi5, 5, safe) == 25
    assert _level(chi5, 5, natural) == 5
    assert _level(chi5, 7, safe) == 1225  # lcm(7,5)^2
    assert _level(DivisorWeight(3, GlaisherFilter.principal(12)), 3, natural) == 12
    # filters contribute their level over 4; plain and canonical weights 1
    assert _level(DivisorWeight(3, GlaisherFilter.odd_divisors()), 7, safe) == 14**2
    for weight in (DivisorWeight(3), DivisorWeight(3, ORDINARY)):
        assert _level(weight, 7, safe) == 49
        assert _level(weight, 7, natural) == 7
    # a custom level is taken as given, twisted or not
    custom = SturmConfig(level_model="custom", custom_level=30)
    assert _level(chi5, 7, custom) == _level(DivisorWeight(3), 7, custom) == 30


def test_certify_filtered_chi5_m3():
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    rec = certify_filtered(weight, 3, Progression(5, 4), 5, SHARP_SAFE)
    assert rec.status == "PASS"
    assert rec.level == 100
    assert rec.bound_b == 52
    assert rec.max_index_checked == 5 * 52 + 4


def test_certify_filtered_chi5_m11():
    weight = DivisorWeight(11, GlaisherFilter.kronecker(5))
    rec = certify_filtered(weight, 11, Progression(5, 4), 5, SHARP_SAFE)
    assert rec.status == "PASS"
    assert rec.bound_b == 172  # floor(23 * 180 / 24)


def test_certify_filtered_custom_level_matches_safe_rule():
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    config = SturmConfig(SHARP24, "custom", custom_level=25)
    rec = certify_filtered(weight, 3, Progression(5, 4), 5, config)
    assert rec.bound_b == 52
    assert rec.level == 100


def test_certify_filtered_validation():
    with pytest.raises(ValueError, match="character or filter"):
        certify_filtered(DivisorWeight(3), 3, Progression(5, 4), 5, SHARP_SAFE)
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    with pytest.raises(ValueError, match="disagrees"):
        certify_filtered(weight, 5, Progression(5, 4), 5, SHARP_SAFE)


def test_certify_twisted_weight_takes_the_twisted_level():
    # L = lcm(7, 5)^2 = 1225, not the ell^2 = 49 of canonical weights
    weight = DivisorWeight(3, GlaisherFilter.kronecker(5))
    rec = certify(ORDINARY, 3, Progression(7, 0), 7, SHARP_SAFE, weight=weight)
    assert (rec.level, rec.bound_b) == (4900, 2940)
    assert rec == certify_filtered(weight, 3, Progression(7, 0), 7, SHARP_SAFE)


def test_certify_rejects_weight_exponent_mismatch():
    for selector in (GlaisherFilter.kronecker(5), ORDINARY, None):
        weight = DivisorWeight(5, selector)
        with pytest.raises(ValueError, match="disagrees"):
            certify(ORDINARY, 3, Progression(7, 0), 7, SHARP_SAFE, weight=weight)


# --- scanning ---------------------------------------------------------------


def test_scan_small_rerun_matches_known_hits():
    report = scan(ORDINARY, [3], [7], 100)
    assert report.hit_map() == {(7, 0): (3,), (7, 5): (3,)}


def test_scan_m3_ell5_has_no_nonzero_hit():
    report = scan(ORDINARY, [3], [5], 2000)
    assert report.nonzero_class() == {}


def test_scan_overpartition_m5_ell5_zero_class_only():
    report = scan(OVERPARTITION, [5], [5], 2000)
    assert report.hit_map() == {(5, 0): (5,)}


def test_scan_nonzero_only_flag():
    report = scan(ORDINARY, [3], [7], 100, include_r0=False)
    assert report.hit_map() == {(7, 5): (3,)}


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(ORDINARY, [2], [7], 100)
    with pytest.raises(ValueError):
        scan(ORDINARY, [3], [8], 100)
    with pytest.raises(ValueError):
        scan(ORDINARY, [3], [7], 5)
    with pytest.raises(ValueError):
        scan(ORDINARY, [], [7], 100)


def test_scan_with_twist_selector():
    chi5 = GlaisherFilter.kronecker(5)
    report = scan(ORDINARY, [3], [5, 7], 500, weight_selector=chi5)
    assert (5, 4) in report.hit_map()
    assert all(ell != 7 for (ell, _r) in report.hit_map())
    assert report.weight_family == "chi=kronecker(5)"


def _squarefree(k: int) -> bool:
    return all(k % (p * p) for p in range(2, isqrt(abs(k)) + 1))


# the fundamental discriminants with |D| <= 60: D = 1 (mod 4) squarefree, or
# D = 4k with k = 2, 3 (mod 4) squarefree
FUNDAMENTAL_DISCRIMINANTS = [
    D for D in range(-60, 61)
    if (D % 4 == 1 and _squarefree(D)) or (D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(D // 4))
]
# (twist, filter twin, the twist's character defined on its own)
TWIN_CASES = [
    (GlaisherFilter.kronecker(D), GlaisherFilter.kronecker_weight(D),
     lambda d, D=D: kronecker_symbol(D, d) if gcd(d, D) == 1 else 0)
    for D in FUNDAMENTAL_DISCRIMINANTS
] + [
    (GlaisherFilter.principal(m), GlaisherFilter.coprime_to(m), lambda d, m=m: int(gcd(d, m) == 1))
    for m in range(1, 13)
]


@pytest.mark.parametrize("twist, twin, chi", TWIN_CASES, ids=[t.describe() for t, _, _ in TWIN_CASES])
def test_every_twist_equals_its_filter_twin(twist, twin, chi):
    # a twist is the filter whose weights are the character's values, so it
    # shares its twin's row and differs from it only in its label
    assert twist.label().startswith("chi=") and twin.label().startswith("filter=")
    assert twist.conductor == twin.conductor
    for m in range(1, 13):
        reference = sigma_from_weight_function(lambda d: chi(d) * d**m, 200, Z)
        for ring in (Z, CoefficientRing.integers_mod(7), CoefficientRing.integers_mod(691)):
            table = weighted_sigma_table(DivisorWeight(m, twist), 200, ring)
            assert table == weighted_sigma_table(DivisorWeight(m, twin), 200, ring)
            assert table == make_series(ring, reference.coeffs)
    ms, ells = range(1, 13, 2), (5, 7, 11, 13)
    twisted = scan(ORDINARY, ms, ells, 300, weight_selector=twist)
    assert twisted.hits == scan(ORDINARY, ms, ells, 300, weight_selector=twin).hits
    records = [
        certify(ORDINARY, 3, Progression(5, 4), 5, SHARP_NATURAL, weight=DivisorWeight(3, selector))
        for selector in (twist, twin)
    ]
    assert [r.weight for r in records] == [f"m=3, {twist.label()}", f"m=3, {twin.label()}"]
    assert records[0]._replace(weight="") == records[1]._replace(weight="")


@pytest.fixture
def pool_always(monkeypatch):
    """Start a pool for work of any size, so that jobs > 1 runs workers."""
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", 0)


def test_scan_parallel_matches_serial(pool_always):
    serial = scan(ORDINARY, [1, 3, 5], [5, 7], 400, jobs=1)
    parallel = scan(ORDINARY, [1, 3, 5], [5, 7], 400, jobs=4)
    assert serial == parallel
    assert scan_report_to_json(serial) == scan_report_to_json(parallel)


# Every ell below has m >= ell in the grid, and ell = 3 exercises the class
# representative (m - 1) % (ell - 1) + 1 where fermat_reduce does not apply.
GRID_MS = (1, 3, 5, 7, 9, 11, 13, 15, 17, 25)
GRID_ELLS = (3, 5, 7, 11, 13)
GRID_CASES = [
    (ORDINARY, None),
    (OVERPARTITION, None),
    (ORDINARY, GlaisherFilter.kronecker(5)),
    (ORDINARY, GlaisherFilter.odd_divisors()),
]


def scan_reference(ensemble, selector, n_scan, include_r0, ms=GRID_MS, ells=GRID_ELLS):
    """Hits found one (m, ell) at a time from each m's own moment series."""
    hits: dict[tuple[int, int], list[int]] = {}
    for ell in ells:
        ring = CoefficientRing.integers_mod(ell)
        for m in ms:
            weight = DivisorWeight(m, ensemble if selector is None else selector)
            values = ensemble_moments(ensemble, m, n_scan, ring, weight=weight)
            for r in range(0 if include_r0 else 1, ell):
                if all(values[t] == 0 for t in range(r or ell, n_scan + 1, ell)):
                    hits.setdefault((ell, r), []).append(m)
    return {key: tuple(ms) for key, ms in hits.items()}


@pytest.mark.parametrize("include_r0", [True, False])
@pytest.mark.parametrize(
    "ensemble,selector", GRID_CASES, ids=["ordinary", "overpartition", "chi5", "odd-filter"]
)
def test_scan_per_ell_matches_per_m_reference(ensemble, selector, include_r0):
    report = scan(
        ensemble, GRID_MS, GRID_ELLS, 300, include_r0=include_r0, weight_selector=selector
    )
    want = scan_reference(ensemble, selector, 300, include_r0)
    assert report.hit_map() == want


def test_scan_per_ell_reference_sees_the_ramanujan_classes():
    want = scan_reference(ORDINARY, None, 300, True)
    assert want[(5, 4)] == (1, 5, 9, 13, 17, 25)
    assert want[(7, 5)] == (1, 3, 7, 9, 13, 15, 25)


@pytest.mark.parametrize(
    "ensemble,selector", GRID_CASES, ids=["ordinary", "overpartition", "chi5", "odd-filter"]
)
def test_scan_per_ell_reports_identical_across_jobs(pool_always, ensemble, selector):
    runs = [
        scan(ensemble, GRID_MS, GRID_ELLS, 300, weight_selector=selector, jobs=jobs)
        for jobs in (1, 2)
    ]
    assert runs[0] == runs[1]
    for render in (scan_report_to_json, scan_report_to_csv, scan_report_to_text):
        assert render(runs[0]) == render(runs[1])


DESK_ELLS = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@pytest.mark.parametrize(
    "ensemble,selector", GRID_CASES, ids=["ordinary", "overpartition", "chi5", "odd-filter"]
)
def test_scan_below_the_fft_tier_matches_per_m_reference(monkeypatch, ensemble, selector):
    # nscan 100 < FFT_MIN_TERMS: every block runs the direct tiers row by row
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: pytest.fail("FFT tier ran") or irfft(*a, **k))
    ms = tuple(range(1, 26, 2))
    report = scan(ensemble, ms, DESK_ELLS, 100, weight_selector=selector)
    assert report.hit_map() == scan_reference(ensemble, selector, 100, True, ms, DESK_ELLS)


@pytest.mark.parametrize("limit_rows", [1, 3])
def test_scan_blocks_split_mid_class_list_give_the_same_report(monkeypatch, limit_rows):
    ms, ells = tuple(range(1, 52, 2)), (5, 13, 31, 53)
    whole = scan(ORDINARY, ms, ells, 2000)
    blocks = []
    convolve = congruence._convolve_mod
    monkeypatch.setattr(
        congruence, "_convolve_mod", lambda a, b, p: blocks.append((p, len(a))) or convolve(a, b, p)
    )
    # FFT size 4096 at nscan 2000; a probe to nscan makes the scan one stage,
    # so every class runs at that size
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_COEFFS", limit_rows * 4096)
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", 2000)
    split = scan(ORDINARY, ms, ells, 2000)
    assert split == whole
    assert scan_report_to_json(split) == scan_report_to_json(whole)
    # 26 classes at ell = 53 and 15 at ell = 31 fill blocks of limit_rows
    # and leave a shorter last one
    for ell, classes in ((53, 26), (31, 15), (13, 6), (5, 2)):
        sizes = [rows for p, rows in blocks if p == ell]
        assert sum(sizes) == classes
        assert max(sizes) == min(limit_rows, classes)


def test_scan_default_block_limit_is_2_16_coefficients(monkeypatch):
    blocks = []
    convolve = congruence._convolve_mod
    monkeypatch.setattr(
        congruence, "_convolve_mod", lambda a, b, p: blocks.append(len(a)) or convolve(a, b, p)
    )
    # FFT size 2048: 2**16 // 2048 = 32 classes a block, with the probe
    # covering all of nscan 1000
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", 1000)
    scan(ORDINARY, range(1, 100, 2), [97], 1000)
    assert blocks == [32, 16]


def test_scan_blocks_keep_four_classes_from_fft_size_2_16(monkeypatch):
    blocks = []
    convolve = congruence._convolve_mod
    monkeypatch.setattr(
        congruence, "_convolve_mod", lambda a, b, p: blocks.append(len(a)) or convolve(a, b, p)
    )
    # nscan 16384 is the first with FFT size 2**16, where 2**16 // S = 1; the
    # probe covers all of it
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", 16384)
    whole = scan(ORDINARY, range(1, 20, 2), [23], 16384)
    assert blocks == [4, 4, 2]
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_FLOOR", 1)
    assert scan(ORDINARY, range(1, 20, 2), [23], 16384) == whole
    assert blocks[3:] == [1] * 10


def test_twisted_scan_evaluates_the_weight_once_per_d_per_ell(monkeypatch):
    calls = Counter()
    weight_of = DivisorWeight.weight_of
    monkeypatch.setattr(
        DivisorWeight, "weight_of", lambda self, d: calls.update([d]) or weight_of(self, d)
    )
    # one class a block, so that a per-block evaluation would show
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_COEFFS", 1)
    ells = (5, 7, 11, 13)
    chi5 = GlaisherFilter.kronecker(5)
    scan(ORDINARY, range(1, 40, 2), ells, 600, weight_selector=chi5)
    # the weights have period 5, the conductor: one period is evaluated and tiled
    assert calls == Counter({d: len(ells) for d in range(5)})


# --- probe-then-extend scan ---------------------------------------------------


@pytest.mark.parametrize("probe_rows", [1, congruence._SCAN_PROBE_ROWS])
@pytest.mark.parametrize("n_scan", [40, 300, 2000])
@pytest.mark.parametrize("include_r0", [True, False])
@pytest.mark.parametrize(
    "ensemble,selector", GRID_CASES, ids=["ordinary", "overpartition", "chi5", "odd-filter"]
)
def test_scan_probe_gives_the_one_stage_report(monkeypatch, ensemble, selector, include_r0, n_scan, probe_rows):
    # n_scan 40 is below 4 * ell at ell = 11 and 13, where the default probe
    # is the whole scan, and above it at ell = 3, 5 and 7.  On this grid no
    # class outlives the default probe without a hit; a one-row probe passes
    # many, so the extension has classes to drop.
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", probe_rows)
    two_stage = scan(ensemble, GRID_MS, GRID_ELLS, n_scan, include_r0=include_r0, weight_selector=selector)
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", n_scan)
    one_stage = scan(ensemble, GRID_MS, GRID_ELLS, n_scan, include_r0=include_r0, weight_selector=selector)
    assert two_stage == one_stage
    assert scan_report_to_json(two_stage) == scan_report_to_json(one_stage)
    assert two_stage.hit_map() == scan_reference(ensemble, selector, n_scan, include_r0)


FULL_MS = range(1, 100, 2)


def test_scan_full_grid_reports_identical_across_jobs(pool_always):
    runs = [scan(ORDINARY, FULL_MS, DESK_ELLS, 2000, jobs=jobs) for jobs in (1, 2)]
    assert runs[0].triples() == predicted_hits(FULL_MS, DESK_ELLS)
    for render in (scan_report_to_json, scan_report_to_csv, scan_report_to_text):
        assert render(runs[0]) == render(runs[1])


def test_scan_extends_only_the_classes_holding_a_hit(monkeypatch):
    stages = []
    vanishing = congruence._vanishing_residues
    monkeypatch.setattr(
        congruence,
        "_vanishing_residues",
        lambda mbars, w, comp, ell, top, include_r0: stages.append((ell, top, list(mbars)))
        or vanishing(mbars, w, comp, ell, top, include_r0),
    )
    scan(ORDINARY, FULL_MS, DESK_ELLS, 2000)
    # every prime probes all its classes on entries up to 4 * ell ...
    probed = {(ell, mbar) for ell, top, mbars in stages if top == 4 * ell for mbar in mbars}
    assert probed == {(ell, (m - 1) % (ell - 1) + 1) for ell in DESK_ELLS for m in FULL_MS}
    assert len(probed) == 516
    # ... and only the classes of a predicted hit reach nscan
    extended = [(ell, mbar) for ell, top, mbars in stages if top == 2000 for mbar in mbars]
    hit_classes = {(ell, (m - 1) % (ell - 1) + 1) for m, ell, _r in predicted_hits(FULL_MS, DESK_ELLS)}
    assert sorted(extended) == sorted(hit_classes)
    assert len(extended) == 26
    assert {top for _ell, top, _mbars in stages} <= {2000} | {4 * ell for ell in DESK_ELLS}


# --- predictions ------------------------------------------------------------


def test_predicted_hits_examples():
    hits = predicted_hits([11], [11])
    assert (11, 11, 0) in hits
    assert (11, 11, 6) in hits
    hits = predicted_hits([15], [5, 7])
    assert (15, 7, 0) in hits
    assert (15, 7, 5) in hits
    assert not any(ell == 5 for (_m, ell, _r) in hits)
    assert predicted_hits([3], [5]) == frozenset()


def test_predicted_hits_base_cases():
    hits = predicted_hits([3, 7], [7, 11])
    assert (3, 7, 0) in hits and (3, 7, 5) in hits
    assert (3, 11, 0) in hits and (3, 11, 6) in hits
    assert (7, 11, 6) in hits
    assert (7, 11, 0) not in hits  # m=7 base case has no zero class
    assert (7, 7, 0) in hits  # but 7 = 1 mod 6 gives the Fermat zero class


def test_predicted_hits_sporadic_class_at_389():
    ms = range(1, 1000, 2)
    nonzero = {hit for hit in predicted_hits(ms, [389]) if hit[2] != 0}
    # reduced exponent 199 and its Fermat lifts, class 308 = 24^-1 mod 389
    assert nonzero == {(199, 389, 308), (587, 389, 308), (975, 389, 308)}
    assert all(r == 0 for _m, _ell, r in predicted_hits(ms, [389], ensemble=OVERPARTITION))


def test_scan_finds_the_sporadic_class_at_389():
    assert scan(ORDINARY, [199], [389], 2000).triples() == {(199, 389, 308)}


def test_predicted_hits_validation():
    with pytest.raises(ValueError):
        predicted_hits([2], [7])
    with pytest.raises(ValueError):
        predicted_hits([3], [4])


def test_predicted_hits_overpartition_rule():
    hits = predicted_hits([1, 3, 5, 7, 13], [5, 7, 13], ensemble=OVERPARTITION)
    # r = 0 exactly when m = 1 (mod ell - 1), and no nonzero class
    assert hits == {(1, 5, 0), (5, 5, 0), (13, 5, 0), (1, 7, 0), (7, 7, 0), (13, 7, 0), (1, 13, 0), (13, 13, 0)}
    ms, ells = range(1, 60, 2), [5, 7, 11, 13]
    assert predicted_hits(ms, ells, ensemble=ORDINARY) == predicted_hits(ms, ells)
    assert predicted_hits(ms, ells, ensemble=OVERPARTITION) < predicted_hits(ms, ells)


@pytest.mark.parametrize("ensemble", [THETA_PRODUCT, coloured_ensemble(3)], ids=lambda e: e.name)
def test_predicted_hits_refuses_ensembles_without_a_rule(ensemble):
    with pytest.raises(ValueError):
        predicted_hits([1], [5], ensemble=ensemble)


def test_scan_overpartition_equals_prediction():
    ms = range(1, 100, 2)
    report = scan(OVERPARTITION, ms, DESK_ELLS, 2000)
    assert not report.nonzero_class()
    assert report.triples() == predicted_hits(ms, DESK_ELLS, ensemble=OVERPARTITION)


def test_scan_equals_predictions_medium_window():
    ms = list(range(1, 14, 2))
    ells = [5, 7, 11, 13]
    report = scan(ORDINARY, ms, ells, 600)
    assert report.triples() == predicted_hits(ms, ells)


def test_scan_equals_predictions_full_desk_window_with_zero_classes():
    # prediction and observation coincide in both directions, r = 0 included
    ms = list(range(1, 26, 2))
    ells = [5, 7, 11, 13, 17, 19, 23, 29, 31]
    report = scan(ORDINARY, ms, ells, 2000)
    assert report.triples() == predicted_hits(ms, ells)


# --- batch + serialization --------------------------------------------------


BATCH_TASKS = [
    (ORDINARY, 3, Progression(7, 5), 7, SHARP_NATURAL),
    (ORDINARY, 3, Progression(7, 0), 7, SHARP_NATURAL),
    (ORDINARY, 3, Progression(11, 6), 11, SHARP_NATURAL),
    (OVERPARTITION, 5, Progression(5, 0), 5, SturmConfig(CONSERVATIVE12, "natural")),
]


def test_certify_batch_order_and_parallel_determinism(pool_always):
    tasks = BATCH_TASKS
    serial = certify_batch(tasks, jobs=1)
    parallel = certify_batch(tasks, jobs=4)
    assert serial == parallel
    assert [r.m for r in serial] == [3, 3, 3, 5]
    assert records_to_json(serial) == records_to_json(parallel)
    assert records_to_csv(serial) == records_to_csv(parallel)


def test_pool_size_clamps_to_tasks_and_cpus():
    cpus = os.cpu_count() or 1
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 10**6) == 1
    assert _pool_size(10**6, 10**6) == cpus
    assert _pool_size(2, 1150) == min(2, cpus)


def test_pool_size_clamps_to_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pool_size(2, 1150) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _pool_size(2, 1150) == 2
    assert _pool_size(10**6, 10**6) == 3
    # where the platform has no affinity call, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _pool_size(10**6, 10**6) == 8


def test_map_tasks_returns_results_in_task_order(monkeypatch):
    tasks = list(range(7, 0, -1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # abs is picklable, so jobs=2 runs a real two-worker pool
    assert _map_tasks(abs, [-t for t in tasks], 1) == tasks
    assert _map_tasks(abs, [-t for t in tasks], 2) == tasks
    assert _map_tasks(abs, [], 2) == []


class PoolStarted(Exception):
    pass


@pytest.fixture
def pool_spy(monkeypatch):
    """Two CPUs to run on, and a ProcessPoolExecutor that raises PoolStarted
    with its worker count instead of starting any worker."""
    import concurrent.futures

    def spy(max_workers):
        raise PoolStarted(max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)


def test_scan_full_grid_at_two_jobs_runs_in_this_process(pool_spy):
    # 516 classes x nscan 2000 is about 1.0 M coefficients, below the constant
    report = scan(ORDINARY, FULL_MS, DESK_ELLS, 2000, jobs=2)
    assert report.triples() == predicted_hits(FULL_MS, DESK_ELLS)


@pytest.mark.parametrize(
    "ensemble,m_max,ell_max,n_scan",
    [(ORDINARY, 99, 97, 20000), (OVERPARTITION, 199, 199, 4000)],
    ids=["full-range-nscan-20000", "overpartition-ell-199"],
)
def test_large_scans_start_a_pool(pool_spy, ensemble, m_max, ell_max, n_scan):
    ells = [p for p in primes_up_to(ell_max).primes if p >= 5]
    with pytest.raises(PoolStarted, match="2"):
        scan(ensemble, range(1, m_max + 1, 2), ells, n_scan, jobs=2)


def test_scan_starts_a_pool_from_the_constant_on(pool_spy, monkeypatch):
    # classes: {1, 3} at ell = 5 and {1, 3, 5} at ell = 7, so 5 x 400
    # coefficients
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", 5 * 400 + 1)
    serial = scan(ORDINARY, [1, 3, 5], [5, 7], 400, jobs=2)
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", 5 * 400)
    with pytest.raises(PoolStarted):
        scan(ORDINARY, [1, 3, 5], [5, 7], 400, jobs=2)
    assert serial == scan(ORDINARY, [1, 3, 5], [5, 7], 400, jobs=1)


def test_certify_batch_starts_a_pool_from_the_constant_on(pool_spy, monkeypatch):
    records = certify_batch(BATCH_TASKS, jobs=2)
    assert {rec.status for rec in records} == {"PASS"}
    # a PASS checks ell*B + r + 1 coefficients, each weighed as
    # _CERTIFY_COEFF_COST scan coefficients
    work = congruence._CERTIFY_COEFF_COST * sum(rec.max_index_checked + 1 for rec in records)
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", work + 1)
    assert certify_batch(BATCH_TASKS, jobs=2) == records
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", work)
    with pytest.raises(PoolStarted):
        certify_batch(BATCH_TASKS, jobs=2)


def test_reduced_full_range_certifications_start_a_pool(pool_spy):
    # the 31 (mbar, ell, r) the full-range survivors reduce to, about
    # 7.2 * 10**6 coefficients at conservative12/safe
    triples = {((m - 1) % (ell - 1) + 1, ell, r) for m, ell, r in predicted_hits(FULL_MS, DESK_ELLS)}
    assert len(triples) == 31
    config = SturmConfig(CONSERVATIVE12, "safe")
    tasks = [(ORDINARY, m, Progression(ell, r), ell, config) for m, ell, r in sorted(triples)]
    with pytest.raises(PoolStarted, match="2"):
        certify_batch(tasks, jobs=2)


def test_record_json_fields():
    rec = certify(ORDINARY, 3, Progression(7, 5), 7, SHARP_NATURAL)
    payload = json.loads(records_to_json([rec]))[0]
    assert list(payload) == [
        "ensemble",
        "weight",
        "m",
        "ell",
        "r",
        "modulus",
        "mode",
        "level",
        "bound_B",
        "max_index_checked",
        "status",
        "fail_witness",
    ]
    assert payload["bound_B"] == 14
    assert payload["fail_witness"] is None
    assert payload["weight"] == "m=3, rule=ordinary"


def test_record_json_fail_witness():
    rec = certify(ORDINARY, 3, Progression(5, 1), 5, SHARP_NATURAL)
    payload = json.loads(records_to_json([rec]))[0]
    assert payload["fail_witness"] == {"n": 0, "t": 1, "residue": 1}


def test_record_csv_layout():
    rec = certify(ORDINARY, 3, Progression(7, 5), 7, SHARP_SAFE)
    text = records_to_csv([rec])
    lines = text.splitlines()
    assert lines[0] == "m,ell,r,prime,L,model,sturm_B,max_index,status"
    assert lines[1] == "3,7,5,7,49,safe,98,691,PASS"


def test_scan_report_serializations():
    report = scan(ORDINARY, [3], [7], 100)
    payload = json.loads(scan_report_to_json(report))
    assert payload["zero_classes"] == [{"ell": 7, "r": 0, "m": [3]}]
    assert payload["nonzero_classes"] == [{"ell": 7, "r": 5, "m": [3]}]
    csv_text = scan_report_to_csv(report)
    assert "ordinary,3,7,5,nonzero" in csv_text.splitlines()
    text = scan_report_to_text(report)
    assert "=== r = 0 classes ===" in text
    assert "(ell,r)=(7,5): m = [3]" in text
