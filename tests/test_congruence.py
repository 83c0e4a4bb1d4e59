from __future__ import annotations

import json
import os
from collections import Counter
from math import gcd, isqrt

import numpy as np
import pytest

from freqmoments import congruence, qseries
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
    _map_tasks,
    _pool_size,
    _projected_moment_values,
    certify,
    certify_batch,
    certify_filtered,
    predicted_hits,
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
    euler_product_coefficients,
    fits_float64,
    fits_int64,
    partition_counts,
)

from test_divisorweights import ROW_IDS, ROW_SELECTORS, slow_sigma
from test_qseries import make_series

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


# A progression's moments M(ell*n + r) are the slice coeffs[r::ell].


def test_project_stride_extraction():
    M = ensemble_moments(ORDINARY, 1, 20, Z)
    p = partition_counts(20, Z)
    # M_1(t) = t * p(t)
    assert M.coeffs[0::5].tolist() == [5 * n * p[5 * n] for n in range(5)]


def test_project_m1_ramanujan_instance():
    mod5 = CoefficientRing.integers_mod(5)
    projected = ensemble_moments(ORDINARY, 1, 20, mod5).coeffs[4::5]
    # n=1 entry is M_1(9) = 9 * p(9) = 270 = 0 mod 5
    assert projected[1] == 0
    assert not projected.any()


def test_project_m3_seven_example():
    mod7 = CoefficientRing.integers_mod(7)
    projected = ensemble_moments(ORDINARY, 3, 40, mod7).coeffs[5::7]
    assert projected[0] == 0  # M_3(5) = 287 = 7 * 41


def test_project_commutes_with_reduction():
    exact = ensemble_moments(ORDINARY, 3, 100, Z)
    ring = CoefficientRing.integers_mod(7)
    mod7 = ensemble_moments(ORDINARY, 3, 100, ring)
    assert mod7.coeffs[5::7].tolist() == make_series(ring, exact.coeffs[5::7]).coeffs.tolist()


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


def test_certify_fail_stops_at_witness():
    # the witness is the first nonzero entry of the exact projection, and
    # the record checks nothing past it
    rec = certify(ORDINARY, 3, Progression(5, 0), 5, SHARP_NATURAL)
    assert rec.status == "FAIL"
    exact = ensemble_moments(ORDINARY, 3, 5 * rec.bound_b, Z)
    projected = [exact[5 * n] % 5 for n in range(rec.bound_b + 1)]
    first = next(n for n, value in enumerate(projected) if value)
    assert first < rec.bound_b
    assert rec.fail_witness == (first, 5 * first, projected[first])
    assert rec.max_index_checked == 5 * first


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


# --- the first-moment route of certify ---------------------------------------

# an eta-quotient with k = 1 besides the presets: A = (q;q)_inf / (q^4;q^4)_inf^2
K1_QUOTIENT = Ensemble("eta(1:-1,4:2)", ((1, -1), (4, 2)))


def sigma_route_record(ensemble, m, prog, modulus, config, weight=None):
    """certify's record by the sigma route in one stage: the weighted sigma
    table and _projected_moment_values on the companion to ell*B + r."""
    plan = congruence._certify_plan(ensemble, m, prog, modulus, config, weight, congruence.DEFAULT_COEFF_BUDGET)
    ring = CoefficientRing.integers_mod(modulus)
    sigma = weighted_sigma_table(plan.weight, plan.top, ring)
    comp = companion_series(ensemble, plan.top, ring)
    values = _projected_moment_values(sigma, comp, prog.ell, prog.r, plan.bound + 1)
    witness = next(((n, prog.ell * n + prog.r, v) for n, v in enumerate(values) if v), None)
    return congruence.CertificationRecord(
        ensemble.name, plan.weight.describe(), m, prog.ell, prog.r, modulus,
        config.mode, config.level_model, 4 * plan.level, plan.bound,
        max_index_checked=plan.top if witness is None else witness[1],
        status="PASS" if witness is None else "FAIL",
        fail_witness=witness,
    )


# (ensemble, m, prog, modulus, weight) -> the plan's (4L, B, ell*B + r,
# route) at sharp24/natural and sharp24/safe
PLAN_CASES = [
    # zero: r = 0 and modulus = ell, canonical weights, m = 1 (mod ell - 1)
    ((ORDINARY, 1, Progression(13, 0), 13, None), (52, 10, 130, "zero"), (676, 136, 1768, "zero")),
    ((OVERPARTITION, 7, Progression(7, 0), 7, None), (28, 30, 210, "zero"), (196, 210, 1470, "zero")),
    ((K1_QUOTIENT, 5, Progression(5, 0), 5, None), (20, 16, 80, "zero"), (100, 82, 410, "zero")),
    # first-moment: r != 0, or modulus != ell
    ((ORDINARY, 1, Progression(5, 4), 5, None), (20, 4, 24, "first-moment"), (100, 22, 114, "first-moment")),
    ((OVERPARTITION, 1, Progression(5, 0), 2, None), (20, 4, 20, "first-moment"), (100, 22, 110, "first-moment")),
    ((K1_QUOTIENT, 5, Progression(5, 1), 5, None), (20, 16, 81, "first-moment"), (100, 82, 411, "first-moment")),
    # sigma: a twist, a filter, a plain weight, and canonical m != 1 (mod ell - 1)
    ((ORDINARY, 3, Progression(5, 4), 5, DivisorWeight(3, GlaisherFilter.kronecker(5))),
     (20, 10, 54, "sigma"), (100, 52, 264, "sigma")),
    ((OVERPARTITION, 3, Progression(7, 0), 7, DivisorWeight(3, GlaisherFilter("odd"))),
     (56, 28, 196, "sigma"), (784, 392, 2744, "sigma")),
    ((K1_QUOTIENT, 1, Progression(5, 0), 5, DivisorWeight(1)), (20, 4, 20, "sigma"), (100, 22, 110, "sigma")),
    ((ORDINARY, 3, Progression(7, 0), 7, None), (28, 14, 98, "sigma"), (196, 98, 686, "sigma")),
]
PLAN_IDS = [
    "ordinary-zero", "overpartition-zero", "k1-quotient-zero",
    "ordinary-r-nonzero", "overpartition-p-not-ell", "k1-quotient-r-nonzero",
    "ordinary-twist", "overpartition-filter", "k1-quotient-plain", "ordinary-m3",
]


@pytest.mark.parametrize("level_model", ["natural", "safe"])
@pytest.mark.parametrize("task,natural,safe", PLAN_CASES, ids=PLAN_IDS)
def test_certify_plan_pins_level_bound_top_and_route(task, natural, safe, level_model):
    ensemble, m, prog, modulus, weight = task
    config = SturmConfig(SHARP24, level_model)
    plan = congruence._certify_plan(ensemble, m, prog, modulus, config, weight, congruence.DEFAULT_COEFF_BUDGET)
    assert (4 * plan.level, plan.bound, plan.top, plan.route) == (natural if level_model == "natural" else safe)
    assert plan.weight == (weight or DivisorWeight(m, ensemble))
    rec = certify(ensemble, m, prog, modulus, config, weight=weight)
    assert (rec.level, rec.bound_b) == (4 * plan.level, plan.bound)
    assert rec.status == "FAIL" or rec.max_index_checked == plan.top


# (ell, modulus): the modulus ell, and other primes: 2 and 3, where every
# odd m is m = 1 (mod p - 1) or m = 1 (mod 2); 1000003, past fits_newton
# here; 2**61 - 1, past fits_int64(1, p), so t*b(t) is a Python-int product
ROUTE_CASES = [(5, 5), (7, 7), (11, 11), (13, 13), (7, 5), (5, 3), (5, 2), (13, 1000003), (5, 2**61 - 1)]


@pytest.mark.parametrize("ell,modulus", ROUTE_CASES)
@pytest.mark.parametrize(
    "ensemble", [ORDINARY, OVERPARTITION, K1_QUOTIENT], ids=["ordinary", "overpartition", "k1-quotient"]
)
def test_certify_first_moment_route_equals_the_sigma_route(ensemble, ell, modulus):
    statuses = Counter()
    for m in (1, ell, 2 * ell - 1):
        for r in range(ell):
            args = (ensemble, m, Progression(ell, r), modulus, SHARP_NATURAL)
            rec = certify(*args)
            assert rec == sigma_route_record(*args)
            statuses[rec.status] += 1
            if ensemble == ORDINARY:
                # the plain twin has the same values, since c(d) = 1
                plain = certify(*args, weight=DivisorWeight(m))
                assert plain == rec._replace(weight=DivisorWeight(m).describe())
    if modulus == ell:
        # M_1(ell*n) = ell*n*b(ell*n) = 0, and most other classes fail
        assert statuses["PASS"] and statuses["FAIL"]


def test_first_moments_are_exact_past_int64_products():
    # t * b(t) for t near 2**62: int64 holds it only with t reduced first,
    # and past fits_int64(1, p) only Python ints hold it
    t = np.array([2**62 + 5, 2**40 + 1, 3, 0], dtype=np.int64)
    for modulus in (2**31 - 1, 3037000493, 2**61 - 1):
        b = np.array([modulus - 1, modulus - 2, 1, 7], dtype=np.int64)
        expect = [int(x) * int(y) % modulus for x, y in zip(t, b)]
        assert congruence._first_moments(t, b, modulus).tolist() == expect


def count_sigma_tables(monkeypatch) -> list:
    """The weights of every sigma table certify builds from scratch."""
    built = []
    original = congruence.weighted_sigma_table
    monkeypatch.setattr(
        congruence, "weighted_sigma_table", lambda w, n, ring: built.append(w) or original(w, n, ring)
    )
    return built


@pytest.mark.parametrize(
    "ensemble,m,prog,modulus,weight",
    [
        (ORDINARY, 1, Progression(23, 5), 23, None),
        (ORDINARY, 11, Progression(11, 6), 11, None),
        (ORDINARY, 5, Progression(7, 3), 5, None),
        (ORDINARY, 3, Progression(5, 4), 3, DivisorWeight(3, coloured_ensemble(1))),
        (OVERPARTITION, 13, Progression(13, 4), 13, None),
        (OVERPARTITION, 7, Progression(5, 0), 2, None),
        (K1_QUOTIENT, 1, Progression(5, 3), 5, None),
    ],
    ids=["ordinary", "ordinary-r6", "ell-not-p", "coloured1-rule", "overpartition", "p2", "k1-quotient"],
)
def test_certify_builds_no_sigma_for_canonical_first_moments(monkeypatch, ensemble, m, prog, modulus, weight):
    # none of these is a zero class, so each reads t*b(t) off a companion
    built = count_sigma_tables(monkeypatch)
    sizes = record_companion_sizes(monkeypatch)
    monkeypatch.setattr(congruence, "_projected_moment_values", lambda *a: pytest.fail("projected"))
    certify(ensemble, m, prog, modulus, SturmConfig(CONSERVATIVE12, "safe"), weight=weight)
    assert built == []
    assert sizes


@pytest.mark.parametrize(
    "ensemble,m,prog,modulus,weight",
    [
        (ORDINARY, 1, Progression(5, 4), 5, DivisorWeight(1, GlaisherFilter.kronecker(5))),
        (ORDINARY, 1, Progression(5, 4), 5, DivisorWeight(1, GlaisherFilter("odd"))),
        (ORDINARY, 1, Progression(5, 4), 5, DivisorWeight(1)),
        (ORDINARY, 1, Progression(5, 0), 5, DivisorWeight(1, OVERPARTITION)),
        (OVERPARTITION, 1, Progression(5, 0), 5, DivisorWeight(1, ORDINARY)),
        # m = 1 (mod ell - 1), but not (mod p - 1): the gate is on the modulus
        (ORDINARY, 5, Progression(5, 4), 7, None),
        (OVERPARTITION, 13, Progression(13, 0), 11, None),
    ],
    ids=["twist", "filter", "plain", "overpartition-rule", "ordinary-rule", "ell-not-p", "ell-not-p-over"],
)
def test_certify_builds_sigma_off_the_canonical_first_moments(monkeypatch, ensemble, m, prog, modulus, weight):
    built = count_sigma_tables(monkeypatch)
    certify(ensemble, m, prog, modulus, SHARP_NATURAL, weight=weight)
    assert len(built) == 1


def test_certify_pass_builds_one_sigma_table_a_stage(monkeypatch):
    sizes = []
    original = congruence.weighted_sigma_table
    monkeypatch.setattr(
        congruence, "weighted_sigma_table", lambda w, n, ring: sizes.append(n) or original(w, n, ring)
    )
    rec = certify(ORDINARY, 3, Progression(7, 5), 7, SturmConfig(CONSERVATIVE12, "safe"))
    assert rec.status == "PASS" and rec.bound_b > congruence._PROBE_ROWS
    assert sizes == [7 * congruence._PROBE_ROWS + 5, rec.max_index_checked]


# --- the zero class: p | ell and p | r, a PASS with nothing built ------------


def build_nothing(monkeypatch):
    """Make every series certify could build, and t*b(t), fail the test."""
    for name in ("companion_series", "weighted_sigma_table", "_first_moments"):
        monkeypatch.setattr(congruence, name, lambda *a, _name=name, **k: pytest.fail(f"called {_name}"))


ZERO_CLASS_CONFIGS = [SHARP_NATURAL, SturmConfig(CONSERVATIVE12, "safe")]


@pytest.mark.parametrize("config", ZERO_CLASS_CONFIGS, ids=["sharp24-natural", "conservative12-safe"])
@pytest.mark.parametrize("ell", [5, 7, 11, 13])
@pytest.mark.parametrize(
    "ensemble", [ORDINARY, OVERPARTITION, K1_QUOTIENT], ids=["ordinary", "overpartition", "k1-quotient"]
)
def test_zero_class_record_equals_the_sigma_route(monkeypatch, ensemble, ell, config):
    expect = {m: sigma_route_record(ensemble, m, Progression(ell, 0), ell, config) for m in (1, ell, 2 * ell - 1)}
    build_nothing(monkeypatch)
    for m, want in expect.items():
        assert want.status == "PASS"
        assert certify(ensemble, m, Progression(ell, 0), ell, config) == want


def test_zero_class_cli_both_levels_builds_nothing(monkeypatch, capsys):
    from freqmoments.cli import main

    build_nothing(monkeypatch)
    argv = ["certify", "--m", "1", "--ell", "97", "--r", "0", "--prime", "97", "--both-levels", "--format", "json"]
    assert main(argv) == 0
    records = json.loads(capsys.readouterr().out)
    assert [(r["level"], r["status"], r["max_index_checked"]) for r in records] == [
        (4 * 97, "PASS", 97 * records[0]["bound_B"]),
        (4 * 97**2, "PASS", 97 * records[1]["bound_B"]),
    ]


@pytest.mark.parametrize(
    "ensemble,m,prog,modulus,weight",
    [
        (ORDINARY, 1, Progression(5, 4), 5, None),
        (OVERPARTITION, 5, Progression(5, 1), 5, None),
        # p = 2 does not divide ell = 5, so t = 5n is odd for odd n
        (ORDINARY, 1, Progression(5, 0), 2, None),
        (ORDINARY, 1, Progression(5, 0), 5, DivisorWeight(1, GlaisherFilter.kronecker(5))),
        (ORDINARY, 1, Progression(5, 0), 5, DivisorWeight(1, GlaisherFilter("odd"))),
        (ORDINARY, 1, Progression(5, 0), 5, DivisorWeight(1)),
        (ORDINARY, 1, Progression(5, 0), 5, DivisorWeight(1, OVERPARTITION)),
        (OVERPARTITION, 1, Progression(5, 0), 5, DivisorWeight(1, ORDINARY)),
    ],
    ids=["r-nonzero", "r-nonzero-over", "p-not-ell", "twist", "filter", "plain", "overpartition-rule", "ordinary-rule"],
)
def test_certify_builds_the_companion_off_the_zero_class(monkeypatch, ensemble, m, prog, modulus, weight):
    args = (ensemble, m, prog, modulus, SHARP_NATURAL)
    expect = sigma_route_record(*args, weight)
    sizes = record_companion_sizes(monkeypatch)
    assert certify(*args, weight=weight) == expect
    assert sizes and sizes[0] == prog.ell * min(expect.bound_b, congruence._PROBE_ROWS) + prog.r


@pytest.mark.parametrize("ell", [281, 283])
@pytest.mark.parametrize("ensemble", [ORDINARY, OVERPARTITION], ids=["ordinary", "overpartition"])
def test_zero_class_past_the_range_still_refuses(monkeypatch, ensemble, ell):
    # 281: past the scalar companion cap; 283: over the default budget.  The
    # values would be 0 with nothing built, but certify refuses what it
    # could not check on its other routes, so the refusal does not hang on
    # the route
    build_nothing(monkeypatch)
    task = (ensemble, 1, Progression(ell, 0), ell, SturmConfig(CONSERVATIVE12, "safe"))
    with pytest.raises(ResourceLimitError):
        certify(*task)
    with pytest.raises(ResourceLimitError):
        certify_batch([task])


@pytest.fixture(scope="module")
def oracle_table():
    return frequency_oracle(ORACLE_GUARD)


# the kronecker(5) PASSes at ell = 11 run at L = 55**2 and take seconds; the
# other rows of the twist and filter table run at ell = 5 and 7, all but
# even, whose character is unknown, so certify refuses it
@pytest.mark.parametrize(
    "selector,ells",
    [
        pytest.param(None, (5, 7, 11, 13), id="canonical"),
        pytest.param(GlaisherFilter.kronecker(5), (5, 7, 13), id="kronecker(5)"),
        pytest.param(GlaisherFilter("odd"), (5, 7, 11, 13), id="odd"),
    ] + [
        pytest.param(selector, (5, 7), id=row_id)
        for (selector, _), row_id in zip(ROW_SELECTORS, ROW_IDS)
        if row_id not in ("kronecker5", "odd", "even")
    ],
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


# --- certified verdicts against exact integers --------------------------------


def exact_moments(ensemble, weight, prog, count) -> list[int]:
    """M(ell*n + r) over Z for n < count, with no Z/p kernel: sigma by a
    direct divisor sum, b by the scalar recurrence over Z."""
    top = prog.ell * (count - 1) + prog.r
    sigma = [0] + [slow_sigma(d, weight.exponent, weight.weight_of) for d in range(1, top + 1)]
    b = euler_product_coefficients(ensemble, top, Z).coeffs
    return [sum(sigma[d] * b[t - d] for d in range(1, t + 1)) for t in range(prog.r, top + 1, prog.ell)]


@pytest.mark.parametrize(
    "ensemble, weight, prog, config",
    [
        pytest.param(ORDINARY, DivisorWeight(3, ORDINARY), Progression(7, 0), SHARP_NATURAL, id="m3-ell7-r0"),
        pytest.param(ORDINARY, DivisorWeight(3, ORDINARY), Progression(7, 5), SHARP_NATURAL, id="m3-ell7-r5"),
        pytest.param(ORDINARY, DivisorWeight(3, ORDINARY), Progression(11, 0), SHARP_NATURAL, id="m3-ell11-r0"),
        pytest.param(ORDINARY, DivisorWeight(3, ORDINARY), Progression(11, 6), SHARP_NATURAL, id="m3-ell11-r6"),
        pytest.param(ORDINARY, DivisorWeight(7, ORDINARY), Progression(11, 6), SHARP_NATURAL, id="m7-ell11-r6"),
        pytest.param(
            ORDINARY, DivisorWeight(3, GlaisherFilter.kronecker(5)), Progression(5, 4), SHARP_SAFE, id="chi5-m3-ell5-r4"
        ),
        pytest.param(
            OVERPARTITION, DivisorWeight(5, OVERPARTITION), Progression(5, 0),
            SturmConfig(CONSERVATIVE12, "natural"), id="overpartition-m5-ell5-r0",
        ),
        pytest.param(
            ORDINARY, DivisorWeight(5, GlaisherFilter("exclude", (5,))), Progression(5, 0),
            SturmConfig(CONSERVATIVE12, "safe"), id="exclude5-m5-ell5-r0",
        ),
    ],
)
def test_pass_holds_over_z_to_four_times_the_bound(ensemble, weight, prog, config):
    record = certify(ensemble, weight.exponent, prog, prog.ell, config, weight=weight)
    assert record.status == "PASS"
    values = exact_moments(ensemble, weight, prog, 4 * record.bound_b + 1)
    assert [n for n, v in enumerate(values) if v % prog.ell] == []


@pytest.mark.parametrize(
    "weight, prog, config",
    [
        pytest.param(DivisorWeight(3, ORDINARY), Progression(5, 1), SturmConfig(CONSERVATIVE12, "safe"), id="m3-ell5"),
        pytest.param(DivisorWeight(3, GlaisherFilter("odd")), Progression(7, 0), SHARP_SAFE, id="odd"),
        pytest.param(DivisorWeight(3, GlaisherFilter("residue", (1, 4))), Progression(7, 0), SHARP_SAFE, id="residue1,4"),
        pytest.param(DivisorWeight(3, GlaisherFilter("principal", (3,))), Progression(7, 0), SHARP_NATURAL, id="principal3"),
        pytest.param(
            DivisorWeight(3, GlaisherFilter("coprime", (6,))), Progression(5, 4),
            SturmConfig(CONSERVATIVE12, "safe"), id="coprime6",
        ),
    ],
)
def test_fail_witness_is_the_first_nonzero_exact_value(weight, prog, config):
    # the golden CLI FAILs: certify-fail-m3-ell5 and the filter and twist cases
    record = certify(ORDINARY, weight.exponent, prog, prog.ell, config, weight=weight)
    assert record.status == "FAIL"
    n, t, residue = record.fail_witness
    assert t == prog.ell * n + prog.r and residue != 0
    values = exact_moments(ORDINARY, weight, prog, n + 1)
    assert [v % prog.ell for v in values] == [0] * n + [residue]


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
    monkeypatch.setattr(qseries, "_newton_step_fft", lambda a, g, p: steps.append((g.shape[-1], a.shape[-1])) or step(a, g, p))
    rec = certify(ORDINARY, 3, Progression(11, 6), 11, SHARP_SAFE)
    assert (rec.status, rec.bound_b, rec.max_index_checked) == ("PASS", 231, 2547)
    # the probe's 711 terms are reached from 356 by a direct step; the
    # extension starts from 637 of them, so no FFT step runs twice
    assert steps == [(637, 1274), (1274, 2548)]


def table_rows_outside_the_zero_class() -> list[tuple]:
    """The certify arguments (ensemble, m, prog, prime, config, weight) of
    the published table rows that build their series."""
    from freqmoments.cli import _published_tables

    rows = []
    for _heading, table in _published_tables().values():
        for ensemble, m, prog, prime, config, weight, _b, _top in table:
            plan = congruence._certify_plan(
                ensemble, m, prog, prime, config, weight, congruence.DEFAULT_COEFF_BUDGET
            )
            if plan.route != "zero":
                rows.append((ensemble, m, prog, prime, config, weight))
    return rows


def test_table_certifications_do_not_depend_on_the_hold(monkeypatch):
    rows = table_rows_outside_the_zero_class()
    assert len(rows) == 12
    inverse = qseries._newton_inverse
    newton = []
    monkeypatch.setattr(qseries, "_newton_inverse", lambda *a: newton.append(1) or inverse(*a))

    def run(order, between=None):
        """The records in table order, certified in the given order with
        between() run before each but the first, and the Newton inversions
        each certification ran."""
        monkeypatch.setattr(qseries, "_held", None)
        records, builds = {}, {}
        for position, i in enumerate(order):
            if position and between is not None:
                between()
            ensemble, m, prog, prime, config, weight = rows[i]
            newton.clear()
            records[i] = certify(ensemble, m, prog, prime, config, weight=weight)
            builds[i] = len(newton)
        return [records[i] for i in range(len(rows))], [builds[i] for i in range(len(rows))]

    forward, forward_builds = run(range(len(rows)))
    backward, _ = run(reversed(range(len(rows))))
    # a block of other moduli (the tables' primes are 5, 7 and 11) replaces
    # the held row, so the next certification rebuilds its companion
    interleaved, interleaved_builds = run(
        range(len(rows)), lambda: qseries.companion_block(ORDINARY, 600, [13, 17])
    )
    assert forward == backward == interleaved
    assert all(record.status == "PASS" for record in forward)
    # in table order some certifications read their companion off the hold
    assert 0 in forward_builds
    assert all(builds >= 1 for builds in interleaved_builds)


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
    # the dictionary names no character for the even-divisor filter
    weight = DivisorWeight(3, GlaisherFilter("even"))
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


def _plan_level(weight, ell, config):
    """The L of Gamma0(4L) certify plans for weight at ell, r = 0, mod ell."""
    plan = congruence._certify_plan(
        ORDINARY, weight.exponent, Progression(ell, 0), ell, config, weight, congruence.DEFAULT_COEFF_BUDGET
    )
    return plan.level


def test_filtered_level_rule():
    # L = config.resolve_level(lcm(ell, conductor))
    safe, natural = SturmConfig(level_model="safe"), SturmConfig(level_model="natural")
    chi5 = DivisorWeight(3, GlaisherFilter.kronecker(5))
    assert _plan_level(chi5, 5, safe) == 25
    assert _plan_level(chi5, 5, natural) == 5
    assert _plan_level(chi5, 7, safe) == 1225  # lcm(7,5)^2
    assert _plan_level(DivisorWeight(3, GlaisherFilter("principal", (12,))), 3, natural) == 12
    # filters contribute their level over 4; plain and canonical weights 1
    assert _plan_level(DivisorWeight(3, GlaisherFilter("odd")), 7, safe) == 14**2
    for weight in (DivisorWeight(3), DivisorWeight(3, ORDINARY)):
        assert _plan_level(weight, 7, safe) == 49
        assert _plan_level(weight, 7, natural) == 7
    # a custom level is taken as given, twisted or not
    custom = SturmConfig(level_model="custom", custom_level=30)
    assert _plan_level(chi5, 7, custom) == _plan_level(DivisorWeight(3), 7, custom) == 30


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
    (GlaisherFilter.kronecker(D), GlaisherFilter("kronweight", (D,)),
     lambda d, D=D: kronecker_symbol(D, d) if gcd(d, D) == 1 else 0)
    for D in FUNDAMENTAL_DISCRIMINANTS
] + [
    (GlaisherFilter("principal", (m,)), GlaisherFilter("coprime", (m,)), lambda d, m=m: int(gcd(d, m) == 1))
    for m in range(1, 13)
]
# each case is named by its character: the Kronecker symbol (D|.), or chi0(m),
# the principal character mod m
TWIN_IDS = [f"kronecker({D})" for D in FUNDAMENTAL_DISCRIMINANTS] + [f"chi0({m})" for m in range(1, 13)]


@pytest.mark.parametrize("twist, twin, chi", TWIN_CASES, ids=TWIN_IDS)
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
    (ORDINARY, GlaisherFilter("odd")),
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
    # no block's rows times terms reach FFT_MIN_TERMS: every product, of the
    # companions' Newton steps and of the moment blocks, runs the direct
    # tiers row by row
    monkeypatch.setattr(qseries, "FFT_MIN_TERMS", 10**9)
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
    # 25 classes at ell = 53 and 14 at ell = 31 fill blocks of limit_rows
    # and leave a shorter last one; the class mbar = 1 is read off the
    # companion and is in no block
    for ell, classes in ((53, 25), (31, 14), (13, 5), (5, 1)):
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
    # covering all of nscan 1000; 47 of the 48 classes, as mbar = 1 is read
    # off the companion
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", 1000)
    scan(ORDINARY, range(1, 100, 2), [97], 1000)
    assert blocks == [32, 15]


def test_scan_blocks_keep_four_classes_from_fft_size_2_16(monkeypatch):
    blocks = []
    convolve = congruence._convolve_mod
    monkeypatch.setattr(
        congruence, "_convolve_mod", lambda a, b, p: blocks.append(len(a)) or convolve(a, b, p)
    )
    # nscan 16384 is the first with FFT size 2**16, where 2**16 // S = 1; the
    # probe covers all of it.  9 classes: mbar = 1 is read off the companion
    monkeypatch.setattr(congruence, "_SCAN_PROBE_ROWS", 16384)
    whole = scan(ORDINARY, range(1, 20, 2), [23], 16384)
    assert blocks == [4, 4, 1]
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_FLOOR", 1)
    assert scan(ORDINARY, range(1, 20, 2), [23], 16384) == whole
    assert blocks[3:] == [1] * 9


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
    # every prime probes all its classes but mbar = 1, which is read off the
    # companion, on entries up to 4 * ell ...
    probed = {(ell, mbar) for ell, top, mbars in stages if top == 4 * ell for mbar in mbars}
    assert probed == {(ell, (m - 1) % (ell - 1) + 1) for ell in DESK_ELLS for m in FULL_MS} - {
        (ell, 1) for ell in DESK_ELLS
    }
    assert len(probed) == 493
    # ... and only the classes of a predicted hit reach nscan
    extended = [(ell, mbar) for ell, top, mbars in stages if top == 2000 for mbar in mbars]
    hit_classes = {(ell, (m - 1) % (ell - 1) + 1) for m, ell, _r in predicted_hits(FULL_MS, DESK_ELLS)}
    assert sorted(extended) == sorted(hit_classes - {(ell, 1) for ell in DESK_ELLS})
    assert len(extended) == 3
    assert {top for _ell, top, _mbars in stages} <= {2000} | {4 * ell for ell in DESK_ELLS}


@pytest.mark.parametrize("include_r0", [True, False])
@pytest.mark.parametrize(
    "ensemble,selector", GRID_CASES, ids=["ordinary", "overpartition", "chi5", "odd-filter"]
)
def test_scan_reads_the_first_moment_class_off_the_companion(monkeypatch, ensemble, selector, include_r0):
    sent = set()
    vanishing = congruence._vanishing_residues
    monkeypatch.setattr(
        congruence,
        "_vanishing_residues",
        lambda mbars, w, comp, ell, top, r0: sent.update((ell, mbar) for mbar in mbars)
        or vanishing(mbars, w, comp, ell, top, r0),
    )
    report = scan(ensemble, GRID_MS, GRID_ELLS, 2000, include_r0=include_r0, weight_selector=selector)
    assert report.hit_map() == scan_reference(ensemble, selector, 2000, include_r0)
    first = {(ell, 1) for ell in GRID_ELLS}
    if selector is None:
        # M_1(t) = t b(t) for canonical weights: no class mbar = 1 is built
        assert not sent & first
    else:
        # a twist or filter changes the weights, and the identity fails
        assert first <= sent


@pytest.mark.parametrize("n_scan,count", [(2000, 1), (20000, 12)])
def test_scan_builds_its_companions_in_bounded_blocks(monkeypatch, n_scan, count):
    requests = []
    block = congruence.companion_block
    monkeypatch.setattr(
        congruence, "companion_block", lambda e, n, moduli: requests.append((n, list(moduli))) or block(e, n, moduli)
    )
    monkeypatch.setattr(congruence, "companion_series", lambda *a, **k: pytest.fail("built one companion"))
    report = scan(ORDINARY, FULL_MS, DESK_ELLS, n_scan)
    assert report.triples() == predicted_hits(FULL_MS, DESK_ELLS)
    # 2**16 coefficients a block: 32 rows at the top Newton step's FFT size
    # 2048, 2 rows at 32768; the primes, largest first, dealt round robin
    order = sorted(DESK_ELLS, reverse=True)
    assert requests == [(n_scan, order[i::count]) for i in range(count)]
    assert max(len(moduli) for _n, moduli in requests) == (23 if count == 1 else 2)


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
    # _CERTIFY_COEFF_COST scan coefficients; the overpartition (5, 5, 0)
    # is a zero class, which builds nothing and counts none
    work = congruence._CERTIFY_COEFF_COST * sum(rec.max_index_checked + 1 for rec in records[:3])
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", work + 1)
    assert certify_batch(BATCH_TASKS, jobs=2) == records
    monkeypatch.setattr(congruence, "_POOL_MIN_COEFFS", work)
    with pytest.raises(PoolStarted):
        certify_batch(BATCH_TASKS, jobs=2)


def test_reduced_full_range_certifications_run_in_this_process(pool_spy):
    # the 31 (mbar, ell, r) the full-range survivors reduce to, about
    # 7.2 * 10**6 coefficients at conservative12/safe; the 23 (1, ell, 0)
    # are zero classes, so the other 8 check 26,829 of them
    triples = {((m - 1) % (ell - 1) + 1, ell, r) for m, ell, r in predicted_hits(FULL_MS, DESK_ELLS)}
    assert len(triples) == 31
    config = SturmConfig(CONSERVATIVE12, "safe")
    tasks = [(ORDINARY, m, Progression(ell, r), ell, config) for m, ell, r in sorted(triples)]
    records = certify_batch(tasks, jobs=2)
    assert {rec.status for rec in records} == {"PASS"}
    assert sum(rec.max_index_checked + 1 for rec in records) == 7_170_149
    checked = [rec.max_index_checked + 1 for rec in records if (rec.m, rec.r) != (1, 0)]
    assert (len(checked), sum(checked)) == (8, 26_829)


def test_zero_class_batch_at_the_top_of_the_range_starts_no_pool(pool_spy, monkeypatch):
    # about 1.3 * 10**6 coefficients a task: a pool if the tasks counted them
    build_nothing(monkeypatch)
    config = SturmConfig(CONSERVATIVE12, "safe")
    tasks = [(ensemble, 1, Progression(ell, 0), ell, config) for ensemble in (ORDINARY, OVERPARTITION) for ell in (89, 97)]
    records = certify_batch(tasks, jobs=2)
    assert {rec.status for rec in records} == {"PASS"}
    assert [rec.max_index_checked for rec in records] == [1_069_335, 1_383_123] * 2


def test_certify_batch_passes_its_budget_to_certify(monkeypatch):
    task = (ORDINARY, 3, Progression(7, 5), 7, SHARP_SAFE)
    need = certify(*task).max_index_checked + 1
    budgets = []
    original = congruence.certify
    monkeypatch.setattr(
        congruence, "certify", lambda *a, max_coeffs, **k: budgets.append(max_coeffs) or original(*a, max_coeffs=max_coeffs, **k)
    )
    assert certify_batch([task], max_coeffs=need)[0].status == "PASS"
    assert budgets == [need]
    sizes = record_companion_sizes(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"budget of {need - 1}"):
        certify_batch([task, task], max_coeffs=need - 1)
    assert sizes == [] and budgets == [need]


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
