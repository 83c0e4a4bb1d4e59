"""Frequency moments of Euler-product partition ensembles.

Compute moment sequences through divisor-sum convolutions, scan arithmetic
progressions for congruences, and certify survivors by checking projected
coefficients up to explicit half-integral Sturm bounds.

The names below resolve on first use (PEP 562), so ``import freqmoments``
loads no submodule and no numpy.  That lets the CLI entry point choose the
BLAS thread count before numpy starts its thread pool.
"""

from importlib import import_module

_EXPORTS = {
    "arith": (
        "CONSERVATIVE12",
        "SHARP24",
        "PrimeTable",
        "SturmConfig",
        "factorize",
        "fermat_reduce",
        "index_gamma0",
        "kronecker_symbol",
        "primes_up_to",
        "sturm_bound",
    ),
    "congruence": (
        "CertificationRecord",
        "Progression",
        "ResourceLimitError",
        "ScanReport",
        "certify",
        "certify_batch",
        "certify_filtered",
        "predicted_hits",
        "scan",
    ),
    "divisorweights": (
        "DivisorWeight",
        "GlaisherFilter",
        "sigma_table",
        "weighted_sigma_table",
    ),
    "moments": (
        "FrequencyTable",
        "ensemble_moments",
        "ford_recursion_check",
        "frequency_oracle",
        "j_identity_check",
        "oracle_moment",
        "tau_convolution_check",
    ),
    "qseries": (
        "CoefficientRing",
        "Ensemble",
        "Series",
        "companion_series",
        "ensemble_by_name",
        "eta_power_coefficients",
        "euler_product_coefficients",
        "master_transform",
        "partition_counts",
        "tau_coefficients",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
