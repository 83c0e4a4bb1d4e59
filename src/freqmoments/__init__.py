"""Frequency moments of Euler-product partition ensembles.

Compute moment sequences through divisor-sum convolutions, scan arithmetic
progressions for congruences, and certify survivors by checking projected
coefficients up to explicit half-integral Sturm bounds.

Each name is imported from the submodule that defines it (``arith``,
``congruence``, ``divisorweights``, ``moments``, ``qseries``, ``cli``).
``import freqmoments`` imports nothing, so the CLI entry point can choose the
BLAS thread count before numpy starts its thread pool.
"""

__version__ = "0.1.0"
