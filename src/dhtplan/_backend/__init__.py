"""Numeric kernels: discrete CDFs, quantiles and the plan-search scans.

Plain re-exports of the pure-Python implementations in ``pure``.
"""

from .pure import (binom_cdf, binom_quantile_ge, binom_quantile_le,
                   discrete_scan, norm_iter_scan, poisson_cap, poisson_cdf,
                   poisson_quantile_ge, poisson_quantile_le, zero_scan)

__all__ = [
    "binom_cdf", "poisson_cdf", "binom_quantile_ge", "binom_quantile_le",
    "poisson_quantile_ge", "poisson_quantile_le", "poisson_cap",
    "discrete_scan", "zero_scan", "norm_iter_scan",
]
