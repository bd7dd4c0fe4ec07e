"""Composite Gauss-Legendre rules.

Two flavors are needed: fixed tensor-product panel rules over the
spatial box (panel width tied to the kernel width sigma*sqrt(t)), and
an adaptive rule in time for flow displacements when no closed form is
available, which accepts each element of the integrand on its own error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["panel_rule", "panel_count", "adaptive_time_integral"]


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


def adaptive_time_integral(f, t0: float, t1: float, tol: float,
                           max_depth: int = 30) -> np.ndarray:
    """Integrate an elementwise ``f(tau) -> ndarray`` over [t0, t1].

    Panel-bisection Gauss-Legendre: a panel is accepted for an element
    when a 15-point estimate and the sum of two half-panel estimates
    agree there to the panel's share of ``tol``; the elements that fail
    take the sum over the bisected panels.  The absolute tolerance
    refers to each element's whole integral.  An element whose
    half-panel sum is not finite is accepted on the panel where that
    first shows, as bisection cannot make it finite: its integral is
    then inf or NaN.
    """
    if t1 == t0:
        return np.asarray(f(t0), dtype=float) * 0.0

    base_x, base_w = _leggauss(15)

    def gl(a: float, b: float) -> np.ndarray:
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        acc = None
        for xi, wi in zip(base_x, base_w):
            v = np.asarray(f(mid + half * xi), dtype=float) * (wi * half)
            acc = v if acc is None else acc + v
        return acc

    total_len = abs(t1 - t0)

    def recurse(a: float, b: float, whole: np.ndarray, depth: int) -> np.ndarray:
        m = 0.5 * (a + b)
        left = gl(a, m)
        right = gl(m, b)
        est = left + right
        with np.errstate(invalid="ignore"):  # inf - inf where est is not finite
            ok = np.abs(est - whole) <= tol * (abs(b - a) / total_len)
        ok |= ~np.isfinite(est)
        if np.all(ok) or depth >= max_depth:
            return est
        return np.where(ok, est, recurse(a, m, left, depth + 1)
                        + recurse(m, b, right, depth + 1))

    return recurse(t0, t1, gl(t0, t1), 0)
