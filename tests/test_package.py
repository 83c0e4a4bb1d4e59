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
        "index_gamma0", "kronecker_symbol", "primes_up_to", "sturm_bound",
    ),
    "congruence": (
        "CertificationRecord", "Progression", "ResourceLimitError", "ScanReport",
        "certify", "certify_batch", "certify_filtered", "predicted_hits", "project",
        "scan",
    ),
    "divisorweights": (
        "DirichletCharacterSpec", "DivisorWeight", "FilterModularData",
        "GlaisherFilter", "filter_modular_data",
        "sigma_table", "weighted_sigma_table",
    ),
    "moments": (
        "FrequencyTable", "ensemble_moments", "fermat_reduce", "ford_recursion_check",
        "frequency_oracle", "j_identity_check", "master_transform", "oracle_moment",
        "tau_convolution_check",
    ),
    "qseries": (
        "CoefficientRing", "Ensemble", "ExponentSequence", "Series",
        "companion_series", "ensemble_by_name", "eta_power_coefficients",
        "euler_product_coefficients", "partition_counts", "r2_coefficients",
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


def test_all_lists_the_reexported_names():
    assert len(NAMES) == 46
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
