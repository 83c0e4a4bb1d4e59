"""The package namespace resolves its re-exports lazily (PEP 562)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freqmoments

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package re-exports, with the submodule that defines it.
EXPORTS = {
    "arith": (
        "CONSERVATIVE12", "SHARP24", "PrimeTable", "SturmConfig", "factorize",
        "fermat_reduce", "index_gamma0", "kronecker_symbol", "primes_up_to",
        "sturm_bound",
    ),
    "congruence": (
        "CertificationRecord", "Progression", "ResourceLimitError", "ScanReport",
        "certify", "certify_batch", "certify_filtered", "predicted_hits", "scan",
    ),
    "divisorweights": (
        "DivisorWeight", "GlaisherFilter", "sigma_table", "weighted_sigma_table",
    ),
    "moments": (
        "FrequencyTable", "ensemble_moments", "ford_recursion_check",
        "frequency_oracle", "j_identity_check", "oracle_moment",
        "tau_convolution_check",
    ),
    "qseries": (
        "CoefficientRing", "Ensemble", "Series",
        "companion_series", "ensemble_by_name", "eta_power_coefficients",
        "euler_product_coefficients", "master_transform", "partition_counts",
        "tau_coefficients",
    ),
}
NAMES = [(name, module) for module, names in EXPORTS.items() for name in names]


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    assert _fresh_python("import sys, freqmoments; print('numpy' in sys.modules)") == "False"


def test_cli_import_loads_no_fractions_or_decimal():
    code = "import sys, freqmoments.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert _fresh_python(code) == "[]"


def test_cli_import_loads_no_dataclasses():
    code = "import sys, freqmoments.cli as cli; cli.build_parser(); print('dataclasses' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_cli_import_loads_no_moments_module():
    # the moments module holds the oracle and the identity checks, which
    # only the identities command runs
    code = "import sys, freqmoments.cli as cli; cli.build_parser(); print('freqmoments.moments' in sys.modules)"
    assert _fresh_python(code) == "False"


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_import_leaves_the_gc_switch_as_it_found_it(enabled):
    code = (
        f"import gc; gc.enable() if {enabled} else gc.disable(); "
        "import freqmoments.cli as cli; cli.build_parser(); print(gc.isenabled())"
    )
    assert _fresh_python(code) == str(enabled)


def test_cli_import_freezes_the_objects_it_created():
    code = "import gc, freqmoments.cli as cli; cli.build_parser(); print(gc.get_freeze_count() > 0)"
    assert _fresh_python(code) == "True"


def test_moments_reexports_the_moved_names():
    from freqmoments import arith, moments, qseries

    assert moments.master_transform is qseries.master_transform
    assert moments.fermat_reduce is arith.fermat_reduce


def _value_objects():
    """One instance of each immutable value class, made with positional and
    keyword arguments, and the same made again."""
    from freqmoments import arith, congruence, divisorweights, moments, qseries

    def make():
        odd = divisorweights.GlaisherFilter("odd")
        return [
            arith.PrimeTable(11, primes=(2, 3, 5, 7, 11)),
            arith.SturmConfig(arith.SHARP24, level_model="natural"),
            qseries.CoefficientRing(modulus=7),
            qseries.Ensemble("overpartition", eta=((1, 2), (2, -1))),
            divisorweights.GlaisherFilter("coprime", params=(3,)),
            divisorweights.DivisorWeight(3, selector=odd),
            congruence.Progression(11, r=6),
            congruence.CertificationRecord(
                "ordinary", "m=3", 3, 11, 6, 11, "sharp24", "safe", 484, 231,
                max_index_checked=2547, status="PASS",
            ),
            congruence.ScanReport("ordinary", "canonical", (3,), (7,), 100, True, hits=(((7, 0), (3,)),)),
            moments.IdentityCheckResult("m1", True, checked_through=10),
            moments.FrequencyTable(1, entries=((1,), (1, 1))),
        ]

    return list(zip(make(), make()))


FIRST_FIELD = {
    "PrimeTable": "limit", "SturmConfig": "mode", "CoefficientRing": "modulus",
    "Ensemble": "name", "GlaisherFilter": "kind", "DivisorWeight": "exponent",
    "Progression": "ell", "CertificationRecord": "ensemble", "ScanReport": "ensemble",
    "IdentityCheckResult": "name", "FrequencyTable": "n_max",
}


def test_value_classes_are_immutable_and_compare_by_value():
    import pickle

    for value, again in _value_objects():
        name = type(value).__name__
        assert value == again and hash(value) == hash(again), name
        assert pickle.loads(pickle.dumps(value)) == value, name
        assert repr(value).startswith(f"{name}("), name
        field = FIRST_FIELD[name]
        assert getattr(value, field) == getattr(again, field), name
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.not_a_field = 1


def test_series_is_immutable_and_unhashable():
    import pickle

    from freqmoments.qseries import CoefficientRing, Series

    ring = CoefficientRing(7)
    series = Series(ring, [1, 2, 3])
    assert series == Series(ring, [1, 2, 3]) and series != Series(ring, [1, 2])
    assert pickle.loads(pickle.dumps(series)) == series
    with pytest.raises(AttributeError):
        series.coeffs = None
    with pytest.raises(TypeError):
        hash(series)


def test_all_lists_the_reexported_names():
    assert len(NAMES) == 40
    assert sorted(freqmoments.__all__) == sorted(name for name, _ in NAMES)


@pytest.mark.parametrize("name, module", NAMES, ids=[name for name, _ in NAMES])
def test_name_resolves_to_its_submodule_object(name, module):
    submodule = importlib.import_module(f"freqmoments.{module}")
    assert getattr(freqmoments, name) is getattr(submodule, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freqmoments.no_such_name  # noqa: B018


def test_submodule_and_star_imports():
    from freqmoments import cli

    assert callable(cli.main)
    namespace: dict = {}
    exec("from freqmoments import *", namespace)
    assert {name for name, _ in NAMES} <= set(namespace)
    assert namespace["certify"] is freqmoments.congruence.certify
