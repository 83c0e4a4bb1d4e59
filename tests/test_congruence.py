from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pytest

from freqmoments import congruence
from freqmoments.arith import CONSERVATIVE12, SHARP24, SturmConfig
from freqmoments.congruence import (
    Progression,
    ResourceLimitError,
    _pool_size,
    _projected_moment_values,
    certify,
    certify_batch,
    certify_filtered,
    filtered_safe_level,
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
    DirichletCharacterSpec,
    DivisorWeight,
    GlaisherFilter,
    weighted_sigma_table,
)
from freqmoments.moments import ensemble_moments
from freqmoments.qseries import (
    CoefficientRing,
    ORDINARY,
    OVERPARTITION,
    PLANE_PARTITION,
    THETA,
    coloured_ensemble,
    companion_series,
    fits_float64,
    fits_int64,
)

Z = CoefficientRing.exact_integers()
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
    assert projected.coeffs == tuple(M[5 * n] for n in range(5))
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
    mod7 = ensemble_moments(ORDINARY, 3, 100, CoefficientRing.integers_mod(7))
    prog = Progression(7, 5)
    reduced_then_projected = project(mod7, prog).coeffs
    projected_then_reduced = tuple(v % 7 for v in project(exact, prog).coeffs)
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
    sigma = weighted_sigma_table(DivisorWeight(3, ORDINARY.exponents), n, ring)
    comp = companion_series(ORDINARY, n, ring)
    count = (n - r) // ell + 1
    got = list(_projected_moment_values(sigma, comp, ell, r, count))
    exact = ensemble_moments(ORDINARY, 3, n, Z).values
    assert got == [exact[ell * k + r] % modulus for k in range(count)]


# --- polyphase projection and the certify probe ------------------------------


@pytest.fixture(scope="module")
def exact_third_moments():
    return ensemble_moments(ORDINARY, 3, 1100, Z).values


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
    sigma = weighted_sigma_table(DivisorWeight(3, ORDINARY.exponents), n, ring)
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


def test_certify_resource_budget():
    with pytest.raises(ResourceLimitError):
        certify(ORDINARY, 3, Progression(7, 5), 7, SHARP_SAFE, max_coeffs=100)


def test_zero_class_first_moment_all_self_ensembles():
    from freqmoments.arith import primes_up_to
    from freqmoments.qseries import PLANE_PARTITION, coloured_ensemble

    for ensemble in (ORDINARY, OVERPARTITION, coloured_ensemble(2), PLANE_PARTITION):
        for ell in primes_up_to(31).primes:
            if ell < 5:
                continue
            ring = CoefficientRing.integers_mod(ell)
            M = ensemble_moments(ensemble, 1, 2000, ring)
            assert all(M[ell * n] == 0 for n in range(2000 // ell + 1)), (ensemble.name, ell)


# --- filtered certification -------------------------------------------------


def test_filtered_level_rule():
    assert filtered_safe_level(5, 5, "safe") == 25
    assert filtered_safe_level(5, 5, "natural") == 5
    assert filtered_safe_level(7, 5, "safe") == 1225  # lcm(7,5)^2
    assert filtered_safe_level(3, 12, "natural") == 12


def test_certify_filtered_chi5_m3():
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    rec = certify_filtered(weight, 3, Progression(5, 4), 5, SHARP_SAFE)
    assert rec.status == "PASS"
    assert rec.level == 100
    assert rec.bound_b == 52
    assert rec.max_index_checked == 5 * 52 + 4


def test_certify_filtered_chi5_m11():
    weight = DivisorWeight(11, DirichletCharacterSpec.kronecker(5))
    rec = certify_filtered(weight, 11, Progression(5, 4), 5, SHARP_SAFE)
    assert rec.status == "PASS"
    assert rec.bound_b == 172  # floor(23 * 180 / 24)


def test_certify_filtered_custom_level_matches_safe_rule():
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    config = SturmConfig(SHARP24, "custom", custom_level=25)
    rec = certify_filtered(weight, 3, Progression(5, 4), 5, config)
    assert rec.bound_b == 52
    assert rec.level == 100


def test_certify_filtered_validation():
    with pytest.raises(ValueError, match="character or filter"):
        certify_filtered(DivisorWeight(3), 3, Progression(5, 4), 5, SHARP_SAFE)
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    with pytest.raises(ValueError, match="disagrees"):
        certify_filtered(weight, 5, Progression(5, 4), 5, SHARP_SAFE)


def test_certify_twisted_weight_takes_the_twisted_level():
    # L = lcm(7, 5)^2 = 1225, not the ell^2 = 49 of canonical weights
    weight = DivisorWeight(3, DirichletCharacterSpec.kronecker(5))
    rec = certify(ORDINARY, 3, Progression(7, 0), 7, SHARP_SAFE, weight=weight)
    assert (rec.level, rec.bound_b) == (4900, 2940)
    assert rec == certify_filtered(weight, 3, Progression(7, 0), 7, SHARP_SAFE)


def test_certify_rejects_weight_exponent_mismatch():
    for selector in (DirichletCharacterSpec.kronecker(5), ORDINARY.exponents, None):
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
    chi5 = DirichletCharacterSpec.kronecker(5)
    report = scan(ORDINARY, [3], [5, 7], 500, weight_selector=chi5)
    assert (5, 4) in report.hit_map()
    assert all(ell != 7 for (ell, _r) in report.hit_map())
    assert report.weight_family == "chi=kronecker(5)"


def test_scan_parallel_matches_serial():
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
    (ORDINARY, DirichletCharacterSpec.kronecker(5)),
    (ORDINARY, GlaisherFilter.odd_divisors()),
]


def scan_reference(ensemble, selector, n_scan, include_r0, ms=GRID_MS, ells=GRID_ELLS):
    """Hits found one (m, ell) at a time from each m's own moment series."""
    hits: dict[tuple[int, int], list[int]] = {}
    for ell in ells:
        ring = CoefficientRing.integers_mod(ell)
        for m in ms:
            weight = DivisorWeight(m, ensemble.exponents if selector is None else selector)
            values = ensemble_moments(ensemble, m, n_scan, ring, weight=weight).values
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
def test_scan_per_ell_reports_identical_across_jobs(ensemble, selector):
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
    # FFT size 4096 at nscan 2000
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_COEFFS", limit_rows * 4096)
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
    # FFT size 2048: 2**16 // 2048 = 32 classes a block
    scan(ORDINARY, range(1, 100, 2), [97], 1000)
    assert blocks == [32, 16]


def test_twisted_scan_evaluates_the_weight_once_per_d_per_ell(monkeypatch):
    calls = Counter()
    weight_of = DivisorWeight.weight_of
    monkeypatch.setattr(
        DivisorWeight, "weight_of", lambda self, d: calls.update([d]) or weight_of(self, d)
    )
    # one class a block, so that a per-block evaluation would show
    monkeypatch.setattr(congruence, "_SCAN_BLOCK_COEFFS", 1)
    ells = (5, 7, 11, 13)
    chi5 = DirichletCharacterSpec.kronecker(5)
    scan(ORDINARY, range(1, 40, 2), ells, 600, weight_selector=chi5)
    assert calls == Counter({d: len(ells) for d in range(1, 601)})


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


@pytest.mark.parametrize("ensemble", [PLANE_PARTITION, THETA, coloured_ensemble(3)], ids=lambda e: e.name)
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


def test_certify_batch_order_and_parallel_determinism():
    tasks = [
        (ORDINARY, 3, Progression(7, 5), 7, SHARP_NATURAL),
        (ORDINARY, 3, Progression(7, 0), 7, SHARP_NATURAL),
        (ORDINARY, 3, Progression(11, 6), 11, SHARP_NATURAL),
        (OVERPARTITION, 5, Progression(5, 0), 5, SturmConfig(CONSERVATIVE12, "natural")),
    ]
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
