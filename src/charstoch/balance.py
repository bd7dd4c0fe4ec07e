"""Balance-law residuals and covariance source terms.

The moment fields of the smoothed representation satisfy, for sigma > 0,

    d/dt rho + div(rho a)          = (sigma^2/2) Lap rho
    d/dt (rho u) + div(rho u a)    = (sigma^2/2) Lap(rho u) - I_u
    d/dt (rho a_i) + div(rho a_i a) = (sigma^2/2) Lap(rho a_i) - I_a_i

(all fields the sigma-smoothed ones), where the source terms are
covariance moments against the spatial kernel gradient:

    I_u   = sum_k integral (u - u_sigma)(a_k - a_sigma_k) dP/dx_k du
    I_a_i = sum_k integral (a_i - a_sigma_i)(a_k - a_sigma_k) dP/dx_k du.

The kernel gradient is available in closed form,

    dP/dx_k ~ (A_k(t, u0(y)) + y_k - x_k) / (sigma^2 t) * kernel,

so the I terms are plain quadratures; no finite differencing of P is
ever involved.  They take points (..., n).  Both are moments of the
kernel pass of the smoothed fields, over the table of (problem, t):
``representation._moments(..., iterms=True)`` adds a step to each
point's pass whose rows of u0 and a give the covariances and whose
centers, gathered per axis, give the gradient.  Each distinct column's
deviation from its mean and its sum are formed once: where a_i is u,
its column is the u0 column and I_a_i is I_u's sum.  The pair is kept
with the masses and means of the same passes, in the slot entry of
their table (``representation._table_for``), and freed with it, so
asking for both terms and then the fields at the same points, in any
order, costs the passes once.  The signs above are the ones that close
the identities; with them the discrete residuals vanish at the order
of the space-time stencil.  In the vanishing-noise limit the same system without
diffusion and without I terms holds for the transported fields while
the solution stays classical.

These are one law, d/dt q + div(q a) = (sigma^2/2) Lap q - S, for
q = rho, rho u, rho a_i with S = 0, I_u, I_a_i; ``_residual_core``
evaluates it once per q with second-order central differences in space
and in time, one-sided second-order at the time-window edges.  For
each time it asks for the two I terms at the probes, then the fields
at the probes, which their pass answers, and at the 2n offset points:
(2n + 1) passes per probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import blow_up_time, classical_fields
from .errors import NearBlowup
from .problem import (ProblemSpec, _batched, _point_rows, space_axes,
                      tensor_points)
from .representation import (_fields_sigma, _moments, _noise_ladder,
                             _support_reach)

__all__ = [
    "ResidualReport",
    "ItermRow",
    "eval_I_u_sigma",
    "eval_I_a_sigma",
    "residual_sigma_system",
    "residual_pressureless",
    "attach_ratios",
    "i_term_persistence",
]

# the most time steps a residual window may take: each step builds a
# kernel table (sigma system) and keeps the fields and sources at every
# probe, so a count far past this would not finish (the benchmark takes
# 50), and one such as 1e18 would grow the list of times until memory
# ran out
_MAX_STEPS = 100_000


@dataclass
class ResidualReport:
    """Aggregate residual of one balance equation at one resolution."""

    equation: str
    h: float
    dt: float
    max_residual: float
    l1_residual: float  # mean |residual| over the probe set
    ratio: float | None = None  # coarse/fine max ratio, filled on refinement


@dataclass(frozen=True)
class ItermRow:
    sigma: float
    i_u_sup: float
    i_a_sup: np.ndarray  # per component


def eval_I_u_sigma(spec: ProblemSpec, t: float, x):
    """Covariance source of the u-moment balance at points x (..., n),
    by direct quadrature.  Raises EmptyKernelSupport at the first point
    without kernel mass."""
    X, shape = _point_rows(x, spec.n)
    return _batched(_moments(spec, t, X, iterms=True)[3][0].copy(), shape)


def eval_I_a_sigma(spec: ProblemSpec, t: float, x):
    """Covariance sources of the velocity-moment balances at points
    x (..., n), with a trailing axis of length n.

    The gradient covariance is the same structure as the u source, and
    vanishes identically for velocities that are constant in u.  I_u at
    the same points comes out of the same passes, so calling both costs
    one pass per point.
    """
    X, shape = _point_rows(x, spec.n)
    return _batched(_moments(spec, t, X, iterms=True)[3][1].copy(), shape)


def _probe_points(spec: ProblemSpec, inset: float) -> np.ndarray:
    """Box grid points at least ``inset`` away from every box face."""
    kept = [ax[(ax - inset >= lo) & (ax + inset <= hi)]
            for ax, (lo, hi) in zip(space_axes(spec), spec.box)]
    if any(len(k) == 0 for k in kept):
        raise ValueError(
            f"probe inset {inset:g} leaves no interior grid points")
    return tensor_points(kept)


def _ddt(f: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative along axis 0: central inside,
    one-sided at both ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dt)
    return out


def _residual_core(spec: ProblemSpec, t_window, resolution,
                   smoothed: bool) -> list["ResidualReport"]:
    """Residuals of the smoothed system (``smoothed``: sigma fields,
    diffusion and I terms) or of the limit system (classical fields)."""
    t0, t1 = float(t_window[0]), float(t_window[1])
    h, dt = float(resolution[0]), float(resolution[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"time window ends must be finite, got ({t0:g}, {t1:g})")
    if not t1 > t0:
        raise ValueError("time window must satisfy t0 < t1")
    steps = (t1 - t0) / dt if 0 < dt < math.inf else math.nan
    if not (0 < h < math.inf and steps <= _MAX_STEPS):
        raise ValueError(f"resolution ({h:g}, {dt:g}) needs finite positive h and "
                         f"dt and at most {_MAX_STEPS} steps over ({t0:g}, {t1:g})")
    J = int(round(steps))
    if J < 2:
        raise ValueError("time window too short for the time stencil")
    dt_eff = (t1 - t0) / J
    times = [t0 + j * dt_eff for j in range(J + 1)]

    # Smoothed fields near a box face see the truncation of rho0, where
    # the stencil error is dominated by the edge transient rather than
    # the equations under test; probes stay clear of the transported
    # support edge (flow displacement plus kernel reach).
    fields, tag = (_fields_sigma, "sigma") if smoothed else (classical_fields, "bar")
    inset = h
    if smoothed:
        inset += _support_reach(spec, t1)
    probes = _probe_points(spec, inset)
    P = len(probes)
    n = spec.n
    O = 1 + 2 * n  # offsets: center, then (-h, +h) per axis
    offsets = np.zeros((O, n))
    for k in range(n):
        offsets[1 + 2 * k, k] = -h
        offsets[2 + 2 * k, k] = +h

    stencil = probes[:, None, :] + offsets[None, :, :]
    # the sources S and then the densities q of the one law (module
    # docstring).  The I terms of a time come first, I_a right after
    # I_u at the same probes, so the two share one kernel pass per
    # probe, which also answers the fields at the probes; only the 2n
    # offset points of each probe then take a pass of their own
    S = np.zeros((2 + n, J + 1, P))
    per_time = []
    for j, tj in enumerate(times):
        if smoothed:
            S[1, j] = eval_I_u_sigma(spec, tj, probes)
            S[2:, j] = eval_I_a_sigma(spec, tj, probes).T
            per_time.append([np.concatenate([c[:, None], o], axis=1) for c, o in
                             zip(fields(spec, tj, probes),
                                 fields(spec, tj, stencil[:, 1:]))])
        else:
            per_time.append(fields(spec, tj, stencil))
    rho, u, a = map(np.stack, zip(*per_time))
    Q = np.stack([rho, rho * u] + [rho * a[..., i] for i in range(n)])
    half_s2 = 0.5 * spec.sigma * spec.sigma
    names = [f"mass_{tag}", f"momentum_u_{tag}"] \
        + [f"momentum_a_{tag}_{i + 1}" for i in range(n)]
    out = []
    for q, s_e, name in zip(Q, S, names):
        # The per-axis sums start from zeros and R is a fresh contiguous
        # array: the frozen residual references depend on this order.
        div = np.zeros((J + 1, P))
        lap = np.zeros((J + 1, P))
        for k in range(n):
            lo, hi = 1 + 2 * k, 2 + 2 * k
            div += (q[:, :, hi] * a[:, :, hi, k]
                    - q[:, :, lo] * a[:, :, lo, k]) / (2.0 * h)
            lap += (q[:, :, hi] - 2.0 * q[:, :, 0] + q[:, :, lo]) / (h * h)
        R = _ddt(q[:, :, 0], dt_eff) + div
        if smoothed:
            R -= half_s2 * lap
        R += s_e
        out.append(ResidualReport(equation=name, h=h, dt=dt_eff,
                                  max_residual=float(np.max(np.abs(R))),
                                  l1_residual=float(np.mean(np.abs(R)))))
    return out


def residual_sigma_system(spec: ProblemSpec, t_window,
                          resolution) -> list[ResidualReport]:
    """Discrete residuals of the smoothed balance system on a window.

    ``t_window`` is (t0, t1) with t0 > 0; ``resolution`` is (h, dt).
    Halving both should shrink the max residuals by about 4 while the
    window stays inside the smooth regime of the quadrature fields.
    Returns one report per equation: mass, then the u moment, then the
    n velocity moments.
    """
    if not t_window[0] > 0:
        raise ValueError("sigma-system window requires t0 > 0")
    return _residual_core(spec, t_window, resolution, smoothed=True)


def residual_pressureless(spec: ProblemSpec, t_window,
                          resolution) -> list[ResidualReport]:
    """Discrete residuals of the limit system on the transported fields.

    Requires the window to sit inside [0, 0.9 t*]; beyond that the
    classical fields are about to fold and the check is meaningless.
    """
    if not 0 <= t_window[0] < math.inf:
        raise ValueError(f"pressureless window must start at a finite t0 >= 0, "
                         f"got {t_window[0]:g}")
    t_star = blow_up_time(spec).t_star
    if t_window[1] > 0.9 * t_star:
        raise NearBlowup(
            f"window end {t_window[1]:g} exceeds 0.9 * t_star = {0.9 * t_star:g}"
        )
    return _residual_core(spec, t_window, resolution, smoothed=False)


def attach_ratios(coarse: list[ResidualReport],
                  fine: list[ResidualReport]) -> list[ResidualReport]:
    """Fill the refinement-ratio field of the finer reports in place."""
    by_eq = {r.equation: r for r in coarse}
    for r in fine:
        c = by_eq.get(r.equation)
        if c is not None and r.max_residual > 0:
            r.ratio = c.max_residual / r.max_residual
    return fine


def i_term_persistence(spec: ProblemSpec, sigmas, t: float) -> list[ItermRow]:
    """Sup norms of the I terms over the box grid for a noise ladder.

    Below the blow-up time the sources shrink with sigma.  Past it they
    do not vanish, and there is no shock: inside the fold of the
    characteristic map they tend to d/dx P, where the pressure P is the
    covariance of u and a across the branches, and at the caustics that
    bound the fold their sup grows as sigma shrinks.  That contrast is
    the point of this probe, so it accepts any positive strictly
    decreasing ladder and any t > 0.  The box grid does not resolve the
    kernel width at the caustics, so past blow-up the sups are those of
    the grid points, not of the fields.
    """
    sig = _noise_ladder(sigmas)
    if t <= 0:
        raise ValueError("i_term_persistence requires t > 0")
    pts = tensor_points(space_axes(spec))
    rows = []
    for s in sig:
        sp = spec.with_sigma(s)
        # a NaN I_u is skipped (fmax), a NaN I_a propagates (max)
        iu = np.fmax.reduce(np.abs(eval_I_u_sigma(sp, t, pts)), initial=0.0)
        ia = np.max(np.abs(eval_I_a_sigma(sp, t, pts)), axis=0, initial=0.0)
        rows.append(ItermRow(sigma=s, i_u_sup=float(iu), i_a_sup=ia))
    return rows
