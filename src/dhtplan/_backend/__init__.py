"""Numeric kernels: discrete CDFs and the plan-search scans.

Plain re-exports of the pure-Python implementations in ``pure``, which also
holds the discrete quantiles the scans fall back on.
"""

from .pure import binom_cdf, discrete_scan, norm_iter_scan, poisson_cdf, zero_scan

__all__ = ["binom_cdf", "poisson_cdf", "discrete_scan", "zero_scan", "norm_iter_scan"]
