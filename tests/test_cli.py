from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from freqmoments.cli import (
    BLAS_THREAD_VARS,
    MEMORY_CAP_ENV,
    _parse_weight_parts,
    main,
    parse_weight_spec,
    run,
)
from freqmoments.divisorweights import DivisorWeight, GlaisherFilter
from test_divisorweights import FILTER_DOMAINS


def run_cli(args, capsys) -> tuple[int, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


# --- weight grammar ---------------------------------------------------------


def test_parse_plain_weight():
    w = parse_weight_spec("m=3")
    assert w.exponent == 3
    assert w.selector is None


def test_parse_twist_weights():
    w = parse_weight_spec("m=3,twist=kronecker(5)")
    assert w.selector == GlaisherFilter.kronecker(5)
    w = parse_weight_spec("m=7, twist=principal(4)")
    assert w.selector == GlaisherFilter("principal", (4,))
    # chi= is the key a report prints, the same key as twist=
    assert parse_weight_spec("m=7, chi=principal(4)") == w


def test_parse_filter_weights():
    assert parse_weight_spec("m=3,filter=odd").selector == GlaisherFilter("odd")
    assert parse_weight_spec("m=3,filter=residue(1,4)").selector == GlaisherFilter("residue", (1, 4))
    assert parse_weight_spec("m=5,filter=qr(7)").selector == GlaisherFilter("qr", (7,))
    assert parse_weight_spec("m=5,filter=kronweight(-4)").selector == GlaisherFilter("kronweight", (-4,))


def test_parse_weight_errors():
    with pytest.raises(ValueError):
        parse_weight_spec("twist=kronecker(5)")  # missing m
    with pytest.raises(ValueError):
        parse_weight_spec("m=3,twist=fancy(2)")
    with pytest.raises(ValueError):
        parse_weight_spec("m=3,filter=odd,twist=kronecker(5)")
    with pytest.raises(ValueError):
        parse_weight_spec("m=3,mystery=1")


# every kind, at parameters in its domain
KINDS = [(kind, params) for kind, params, _ in FILTER_DOMAINS]


@pytest.mark.parametrize("kind, params", KINDS, ids=[kind for kind, _ in KINDS])
def test_a_record_label_parses_back(kind, params):
    weight = DivisorWeight(3, GlaisherFilter(kind, params))
    assert parse_weight_spec(weight.describe()) == weight


@pytest.mark.parametrize("kind, params", KINDS, ids=[kind for kind, _ in KINDS])
def test_a_scan_label_parses_back_and_reruns(kind, params, capsys):
    selector = GlaisherFilter(kind, params)
    scan_args = ["--ell", "5,7", "--nscan", "60", "--format", "json"]
    code, out = run_cli(["scan", "--weight", DivisorWeight(3, selector).describe(), *scan_args], capsys)
    assert code == 0
    family = json.loads(out)["weight_family"]
    assert _parse_weight_parts(family) == (None, selector)
    # the printed label, given the m it lacks, re-runs the same scan
    assert run_cli(["scan", "--weight", family, "--m", "3", *scan_args], capsys) == (0, out)


def test_a_scan_weight_without_m_takes_the_ms_of_the_flags(capsys):
    args = ["--ell", "5,7", "--nscan", "100", "--format", "json"]
    code, out = run_cli(["scan", "--weight", "chi=kronecker(5)", "--m-odd-max", "5", *args], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["m"] == [1, 3, 5] and report["weight_family"] == "chi=kronecker(5)"
    # scan needs an m from somewhere; certify needs it in the spec
    for argv in (["scan", *args], ["certify", "--ell", "5", "--r", "4", "--prime", "5"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--weight", "chi=kronecker(5)"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "spec, message",
    [
        # kind names that are no row: the spellings reports printed before
        # each kind had one name
        ("filter=exclude-multiples(5)", "unknown selector kind"),
        ("filter=quadratic-residues(5)", "unknown selector kind"),
        ("filter=kronecker-weight(5)", "unknown selector kind"),
        ("twist=chi0(3)", "unknown selector kind"),
        # a twist under the filter key, or a filter under a twist key
        ("filter=kronecker(5)", "write chi=kronecker\\(5\\)"),
        ("filter=principal(3)", "write chi=principal\\(3\\)"),
        ("twist=odd", "write filter=odd"),
        ("chi=qr(5)", "write filter=qr\\(5\\)"),
    ],
)
def test_a_spelling_no_row_takes_is_a_usage_error(spec, message, capsys):
    with pytest.raises(ValueError, match=message):
        parse_weight_spec(f"m=3,{spec}")
    with pytest.raises(SystemExit) as info:
        main(["certify", "--weight", f"m=3,{spec}", "--ell", "7", "--r", "0", "--prime", "7"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


# --- subcommands ------------------------------------------------------------


def test_certify_pass_exit_zero(capsys):
    code, out = run_cli(
        ["certify", "--ensemble", "ordinary", "--m", "3", "--ell", "7", "--r", "5",
         "--prime", "7", "--mode", "sharp24", "--both-levels", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)
    assert [r["bound_B"] for r in records] == [14, 98]
    assert all(r["status"] == "PASS" for r in records)


def test_certify_fail_exit_one(capsys):
    code, out = run_cli(
        ["certify", "--ensemble", "ordinary", "--m", "3", "--ell", "5", "--r", "1",
         "--prime", "5", "--format", "json"],
        capsys,
    )
    assert code == 1
    record = json.loads(out)[0]
    assert record["status"] == "FAIL"
    assert record["fail_witness"] == {"n": 0, "t": 1, "residue": 1}


def test_certify_weight_spec_filtered(capsys):
    code, out = run_cli(
        ["certify", "--weight", "m=3,twist=kronecker(5)", "--ell", "5", "--r", "4",
         "--prime", "5", "--mode", "sharp24", "--level", "safe", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["level"] == 100
    assert record["bound_B"] == 52
    assert record["weight"] == "m=3, chi=kronecker(5)"


def test_certify_custom_level(capsys):
    code, out = run_cli(
        ["certify", "--m", "3", "--ell", "7", "--r", "5", "--prime", "7",
         "--mode", "sharp24", "--level", "custom:7", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "3,7,5,7,7,custom,14,103,PASS"


def test_scan_text_report(capsys):
    code, out = run_cli(
        ["scan", "--ensemble", "ordinary", "--m", "3", "--ell", "7", "--nscan", "100"],
        capsys,
    )
    assert code == 0
    assert "(ell,r)=(7,5): m = [3]" in out
    assert "=== r = 0 classes ===" in out


def test_scan_weight_spec(capsys):
    code, out = run_cli(
        ["scan", "--weight", "m=3,twist=kronecker(5)", "--ell", "5,7", "--nscan", "300",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_family"] == "chi=kronecker(5)"
    assert {"ell": 5, "r": 4, "m": [3]} in payload["nonzero_classes"]


def test_scan_usage_error_without_weights():
    with pytest.raises(SystemExit):
        main(["scan", "--ell", "7"])


@pytest.mark.parametrize("weights", [["--m", "5"], ["--m-odd-max", "5"]], ids=["m", "m-odd-max"])
def test_scan_weight_with_m_is_a_usage_error(weights, capsys):
    with pytest.raises(SystemExit) as info:
        main(["scan", "--weight", "m=3,twist=kronecker(5)", *weights, "--ell", "5", "--nscan", "100"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["m=3,m=5", "m=5,m=5", "m=3,filter=odd,m=5"])
def test_repeated_m_in_a_weight_is_a_usage_error(spec, capsys):
    with pytest.raises(ValueError, match="at most one m"):
        parse_weight_spec(spec)
    with pytest.raises(SystemExit) as info:
        main(["certify", "--weight", spec, "--ell", "7", "--r", "0", "--prime", "7"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_weight_with_m_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--weight", "m=3", "--m", "5", "--ell", "7", "--r", "0", "--prime", "7"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_plane_partition_exits_two(capsys):
    # plane partitions are no eta-quotient, so they are no ensemble
    with pytest.raises(SystemExit) as info:
        main(["certify", "--ensemble", "plane-partition", "--m", "1", "--ell", "5",
              "--r", "0", "--prime", "5"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown ensemble" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ensemble", "coloured(3)", "--m", "1", "--ell", "5", "--r", "0", "--prime", "5"],
         "m + 1 - k/2"),
        (["--weight", "m=3,filter=even", "--ell", "7", "--r", "0", "--prime", "7"],
         "no known character"),
        # theta's companion r2 has weight 1: it is no ensemble
        (["--ensemble", "theta", "--m", "1", "--ell", "5", "--r", "0", "--prime", "5"],
         "unknown ensemble"),
    ],
    ids=["coloured3", "even-filter", "theta"],
)
def test_certify_without_modular_data_exits_two(args, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", *args])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("D", [3, -1, 2, 6])
@pytest.mark.parametrize("selector", ["twist=kronecker", "filter=kronweight"])
def test_non_discriminant_kronecker_exits_two(selector, D, capsys):
    # (D|.) is a character mod |D| only for D = 0, 1 (mod 4), so no level
    # the record could store would be the twist's
    with pytest.raises(SystemExit) as info:
        main(["certify", "--weight", f"m=3,{selector}({D})", "--ell", "7", "--r", "0", "--prime", "7"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "discriminant" in captured.err


def test_certify_coloured_one_still_passes(capsys):
    code, out = run_cli(
        ["certify", "--ensemble", "coloured(1)", "--m", "1", "--ell", "5", "--r", "0",
         "--prime", "5"],
        capsys,
    )
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "3", "--ell", "6", "--r", "1", "--prime", "5"])
    assert info.value.code == 2


def test_tables_ordinary(capsys):
    code, out = run_cli(["tables", "--which", "ordinary", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[1] == "3,7,0,7,7,natural,14,98,PASS"
    assert lines[-1] == "7,11,6,11,121,safe,495,5451,PASS"


def test_tables_filtered(capsys):
    code, out = run_cli(["tables", "--which", "filtered", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["bound_B"] for r in records] == [52, 172]


def test_identities_subset(capsys):
    code, out = run_cli(["identities", "--check", "ford,moebius", "--n", "30"], capsys)
    assert code == 0
    assert "ford: PASS" in out
    assert "moebius: PASS" in out


def test_identities_moebius_depth_guard():
    with pytest.raises(SystemExit):
        main(["identities", "--check", "moebius", "--n", "60"])


def test_identities_tau(capsys):
    code, out = run_cli(["identities", "--check", "tau691", "--n", "300"], capsys)
    assert code == 0
    assert "tau691: PASS (checked through n=300)" in out


def test_identities_j(capsys):
    code, out = run_cli(["identities", "--check", "j", "--n", "40"], capsys)
    assert code == 0
    assert "j-decomposition: PASS" in out


def test_identity_failures_report_python_ints(monkeypatch, capsys):
    # a wrong tau(1) and a wrong sigma_7(1) make tau691 and fermat fail; the
    # values they report are read off Z/N series, yet must print as ints
    from freqmoments import moments
    from freqmoments.qseries import make_series

    tau, sigma = moments.tau_coefficients, moments.sigma_table

    def bump_first(series):
        return make_series(series.ring, [series[0], series[1] + 1, *series.coeffs[2:]])

    monkeypatch.setattr(moments, "tau_coefficients", lambda n, ring: bump_first(tau(n, ring)))
    monkeypatch.setattr(
        moments, "sigma_table",
        lambda m, n, ring: bump_first(sigma(m, n, ring)) if m == 7 else sigma(m, n, ring),
    )
    code, out = run_cli(
        ["identities", "--check", "tau691,fermat", "--n", "60", "--format", "json"], capsys
    )
    assert code == 1
    assert out == "tau691: FAIL at (1, 1, 2)\nfermat: FAIL at (7, 5, 1, 2, 1)\n"
    for result in (moments.tau_convolution_check(60), moments.fermat_congruence_check(60)):
        assert all(type(v) is int for v in result.first_failure)


@pytest.mark.parametrize("prime", [5, 2**64 + 13], ids=["int64", "object"])
def test_certify_json_holds_python_ints(prime, capsys):
    code, out = run_cli(
        ["certify", "--m", "3", "--ell", "5", "--r", "0", "--prime", str(prime),
         "--mode", "sharp24", "--level", "natural", "--format", "json"],
        capsys,
    )
    assert code == 1
    [record] = json.loads(out)
    witness = record["fail_witness"]
    assert record["modulus"] == prime
    assert all(type(witness[key]) is int for key in ("n", "t", "residue"))


def test_identities_m1_overpartition(capsys):
    code, out = run_cli(
        ["identities", "--check", "m1", "--ensemble", "overpartition", "--n", "400"],
        capsys,
    )
    assert code == 0
    assert "m1(overpartition): PASS" in out


def test_dump_series_format(capsys):
    code, out = run_cli(
        ["dump-series", "--ensemble", "overpartition", "--n", "4", "--ring", "mod:7"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ring=Z/7 N=4 ensemble=overpartition"
    assert lines[1:] == ["1", "2", "4", "1", "0"]


def test_dump_series_rational_ring_is_unknown(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dump-series", "--n", "4", "--ring", "rational"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "use exact or mod:<N>" in captured.err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["certify", "--m", "3", "--ell", "7", "--r", "5", "--prime", "7",
         "--mode", "sharp24", "--level", "natural", "--format", "json",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["bound_B"] == 14


def test_memory_cap_env_exit_three(monkeypatch, capsys):
    monkeypatch.setenv(MEMORY_CAP_ENV, "100")
    code = main(["certify", "--m", "3", "--ell", "7", "--r", "5", "--prime", "7",
                 "--mode", "sharp24", "--level", "safe"])
    capsys.readouterr()
    assert code == 3


def test_scan_memory_cap_exit_three(monkeypatch, capsys):
    monkeypatch.setenv(MEMORY_CAP_ENV, "100")
    code, out = run_cli(["scan", "--m", "3", "--ell", "7", "--nscan", "2000"], capsys)
    assert code == 3
    assert out == ""


def test_identities_memory_cap_exit_three(monkeypatch, capsys):
    monkeypatch.setenv(MEMORY_CAP_ENV, "100")
    code, out = run_cli(["identities", "--check", "ford", "--n", "500"], capsys)
    assert code == 3
    assert out == ""


def test_certify_past_the_scalar_companion_cap_exits_three(capsys):
    # conservative12/safe at ell = 281 needs the companion to q^33400503,
    # inside the coefficient budget but past the Newton path's FFT guard
    start = time.perf_counter()
    code, out = run_cli(["certify", "--m", "1", "--ell", "281", "--r", "0", "--prime", "281"], capsys)
    assert code == 3
    assert out == ""
    assert time.perf_counter() - start < 2.0


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    config = tmp_path / "scan.cfg"
    config.write_text("ensemble = ordinary\nnscan = 100  # comment\nell = 7\nm = 3\n")
    code, out = run_cli(["scan", "--config", str(config), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["n_scan"] == 100
    # explicit flag wins over the config value
    code, out = run_cli(
        ["scan", "--config", str(config), "--nscan", "150", "--format", "json"], capsys
    )
    assert json.loads(out)["parameters"]["n_scan"] == 150


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "freqmoments.cli", "certify", "--m", "3", "--ell", "7",
         "--r", "5", "--prime", "7", "--mode", "sharp24", "--level", "natural"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "certifying" in proc.stderr  # progress goes to stderr only


def test_certify_refuses_an_unprovable_prime_promptly():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "freqmoments.cli", "certify", "--m", "3", "--ell", "7",
         "--r", "5", "--prime", str(2**89 - 1)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "primality not proven" in proc.stderr
    assert proc.stdout == ""
    assert time.perf_counter() - start < 10.0


def test_stdout_payload_identical_across_jobs():
    base = ["scan", "--ensemble", "ordinary", "--m", "1,3", "--ell", "5,7",
            "--nscan", "200", "--format", "json"]
    runs = {}
    for jobs in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "freqmoments.cli", *base, "--jobs", jobs],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        runs[jobs] = proc.stdout
    assert runs["1"] == runs["4"]


# --- process entry ----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
PASS_ARGV = ["certify", "--m", "3", "--ell", "7", "--r", "5", "--prime", "7",
             "--mode", "sharp24", "--level", "natural"]
FAIL_ARGV = ["certify", "--m", "3", "--ell", "5", "--r", "1", "--prime", "5"]
_BLAS_PROBE = (
    "import json, os, sys, freqmoments.cli\n"
    "threads = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
    "print(json.dumps([{v: os.environ.get(v) for v in freqmoments.cli.BLAS_THREAD_VARS}, threads]))"
)


def _import_cli_fresh(**blas_env: str) -> tuple[dict, int | None]:
    """Import freqmoments.cli in a fresh interpreter whose only BLAS thread
    variables are blas_env; return those variables after the import and the
    process's thread count (None off Linux)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env, check=True
    )
    return tuple(json.loads(proc.stdout))


def test_cli_import_defaults_to_one_blas_thread():
    values, threads = _import_cli_fresh()
    assert values == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                      "OMP_NUM_THREADS": None}
    if sys.platform == "linux":
        assert threads == 1


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_import_keeps_a_chosen_thread_count(name):
    values, _ = _import_cli_fresh(**{name: "3"})
    assert values == {v: "3" if v == name else None for v in BLAS_THREAD_VARS}


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_main_does_not_freeze_the_heap(capsys, unfreeze):
    before = gc.get_freeze_count()
    assert main(PASS_ARGV) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [(PASS_ARGV, 0), (FAIL_ARGV, 1)], ids=["pass", "fail"])
def test_run_freezes_the_heap_and_returns_mains_code(argv, code, capsys, unfreeze):
    before = gc.get_freeze_count()
    assert run(argv) == code
    assert gc.get_freeze_count() > before
