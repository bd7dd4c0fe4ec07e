"""Composite Gauss-Legendre panel rules over the spatial box.

The panels of a space rule are sized to the kernel it integrates.
``rule_error`` is the error model: E(m, rho), the worst relative error,
over shifts, of the composite m-node rule with panels rho widths wide
applied to a unit Gaussian.  A kernel sigma*sqrt(t) wide in x is at
least sigma*sqrt(t) / L wide in the foot points y, where L bounds the
stretch of the characteristic map, so panels H wide see it with
rho = H * L / (sigma*sqrt(t)): m nodes on panels one kernel width wide
err by E(m, L).  The quadrature tables use TABLE_ORDER nodes per panel,
on the widest panels whose error meets a target (``matched_width``).
That inverse of E(TABLE_ORDER, .) is tabulated once, in
``MATCHED_WIDTHS``, and tests regenerate it from ``rule_error``, so
choosing a table's rule costs one small ``rule_error`` and a lookup.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["panel_rule", "panel_count", "rule_error", "matched_width", "TABLE_ORDER"]

# Gauss-Legendre nodes per panel of the quadrature tables
TABLE_ORDER = 16

# MATCHED_WIDTHS[j] is the largest rho with rule_error(TABLE_ORDER, rho)
# <= 10^(MATCHED_LEVEL0 + j / 10), rounded down to four digits.  Errors
# below the first level are the rounding of the rule's own weights and
# of the sums, so no target is taken below it.
MATCHED_LEVEL0 = -14.5
MATCHED_WIDTHS = (
    5.258, 5.305, 5.351, 5.396, 5.442, 5.487, 5.532, 5.574, 5.616, 5.659,
    5.703, 5.747, 5.792, 5.837, 5.883, 5.93, 5.977, 6.024, 6.072, 6.121,
    6.17, 6.22, 6.27, 6.321, 6.372, 6.424, 6.476, 6.529, 6.583, 6.637,
    6.691, 6.747, 6.803, 6.859, 6.916, 6.974, 7.033, 7.092, 7.152, 7.212,
    7.273, 7.335, 7.398, 7.461, 7.525, 7.59, 7.656, 7.723, 7.79, 7.858,
    7.927, 7.997, 8.068, 8.14, 8.213, 8.287, 8.361, 8.437, 8.514, 8.592,
    8.671, 8.751, 8.832, 8.915, 8.998, 9.083, 9.169, 9.256, 9.345, 9.435,
    9.527, 9.62, 9.714, 9.811, 9.908, 10.0, 10.1, 10.21, 10.31, 10.42,
    10.53, 10.64, 10.75, 10.86, 10.98, 11.1, 11.22, 11.34, 11.47, 11.6,
    11.73, 11.87, 12.01, 12.15, 12.29, 12.44, 12.59, 12.75, 12.9, 13.07,
    13.23, 13.41, 13.58, 13.77, 13.95, 14.15, 14.34, 14.55, 14.76, 14.98,
    15.21, 15.44, 15.69, 15.94, 16.2, 16.47, 16.76, 17.06, 17.37, 17.69,
    18.03, 18.39, 18.77, 19.17, 19.59, 20.03, 20.51, 21.02, 21.56, 22.14,
    22.77, 23.45, 24.19, 25.01, 25.9, 26.9, 28.01, 29.27, 30.72, 32.4, 34.4,
    36.82, 39.66, 43.15, 47.49, 52.95, 59.81, 68.46, 79.36, 93.09, 110.4,
    132.2,
)


@lru_cache(maxsize=16)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_count(width: float, scale: float, min_panels: int = 16,
                max_panels: int = 4096) -> int:
    """Number of equal panels covering an interval of ``width`` so each
    panel is at most ``scale`` wide, clipped to [min_panels, max_panels]."""
    if scale <= 0 or not np.isfinite(scale):
        return min_panels
    need = int(np.ceil(width / scale))
    return int(min(max(need, min_panels), max_panels))


def rule_error(order: int, rho, shifts: int = 64):
    """E(order, rho): the worst relative error, over ``shifts``
    equispaced shifts within a panel, of the composite ``order``-node
    Gauss-Legendre rule with panels ``rho`` wide on the whole line,
    applied to the unit Gaussian exp(-y^2 / 2) / sqrt(2 pi).  ``rho``
    may be an array; the result has its shape.

    By Poisson summation over the panels the error at shift s is
    2 sum_k exp(-2 pi^2 k^2 / rho^2) c_k cos(2 pi k s / rho), where
    c_k = (-1)^k / 2 * sum_i w_i cos(pi k x_i) is the rule's error on
    one period of cos(pi k x) over [-1, 1].  The sum runs to k = 1.6 rho
    + 2, past which exp(-2 pi^2 k^2 / rho^2) is below 1e-22.  Values
    below about 1e-16 are rounding.
    """
    rho = np.asarray(rho, dtype=float)
    k, c, waves = _error_series(order, math.ceil(1.6 * float(np.max(rho))) + 2, shifts)
    terms = np.exp(-2.0 * np.pi ** 2 * (k / rho[..., None]) ** 2) * c
    return 2.0 * np.max(np.abs((terms[..., None, :] * waves).sum(axis=-1)), axis=-1)


@lru_cache(maxsize=64)
def _error_series(order: int, count: int, shifts: int):
    """k = 1..count, the c_k of ``rule_error`` and cos(2 pi k j / shifts)
    (shifts, count), which depend on the rule and not on rho."""
    x, w = _leggauss(order)
    k = np.arange(1, count + 1)
    c = (-1.0) ** k * (0.5 * (np.cos(np.pi * np.outer(k, x)) * w).sum(axis=1))
    return k, c, np.cos((2.0 * np.pi / shifts) * np.outer(np.arange(shifts), k))


def matched_width(target: float) -> float:
    """The width rho of the widest TABLE_ORDER-node panels whose error
    E(TABLE_ORDER, rho) is at most ``target``, from ``MATCHED_WIDTHS``:
    the target is taken down to the tabulated level at or below it.  A
    target below the first level takes the first width, one past the
    last level the last width."""
    j = math.floor(10.0 * (math.log10(max(target, 1e-300)) - MATCHED_LEVEL0))
    return MATCHED_WIDTHS[min(max(j, 0), len(MATCHED_WIDTHS) - 1)]


def panel_rule(lo: float, hi: float, n_panels: int,
               nodes_per_panel: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi].

    Weights sum to hi - lo to machine precision, so integrating the
    constant 1 reproduces the interval length.
    """
    base_x, base_w = _leggauss(nodes_per_panel)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])  # (P,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights
