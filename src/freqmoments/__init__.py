"""Frequency moments of Euler-product partition ensembles.

Compute moment sequences through divisor-sum convolutions, scan arithmetic
progressions for congruences, and certify survivors by checking projected
coefficients up to explicit half-integral Sturm bounds.
"""

from .arith import (
    CONSERVATIVE12,
    SHARP24,
    PrimeTable,
    SturmConfig,
    factorize,
    index_gamma0,
    kronecker_symbol,
    primes_up_to,
    sturm_bound,
)
from .congruence import (
    CertificationRecord,
    Progression,
    ResourceLimitError,
    ScanReport,
    certify,
    certify_batch,
    certify_filtered,
    predicted_hits,
    project,
    scan,
)
from .divisorweights import (
    DirichletCharacterSpec,
    DivisorWeight,
    FilterModularData,
    GlaisherFilter,
    expand_residue_filter,
    filter_modular_data,
    sigma_table,
    weighted_sigma_table,
)
from .moments import (
    FrequencyTable,
    ensemble_moments,
    fermat_reduce,
    ford_recursion_check,
    frequency_oracle,
    j_identity_check,
    master_transform,
    oracle_moment,
    tau_convolution_check,
)
from .qseries import (
    CoefficientRing,
    Ensemble,
    ExponentSequence,
    Series,
    companion_series,
    ensemble_by_name,
    eta_power_coefficients,
    euler_product_coefficients,
    partition_counts,
    r2_coefficients,
    series_inverse,
    tau_coefficients,
)

__version__ = "0.1.0"
