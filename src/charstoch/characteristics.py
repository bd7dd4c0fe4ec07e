"""Exact transport along characteristics, valid before gradient blow-up.

While the solution stays classical it satisfies the implicit relation

    u(t, x) = u0(x - A(t, u(t, x))),

where A is the flow displacement.  Everything here is built on that
relation and on one root-finder, ``solve_implicit``: one safeguarded
Newton iteration for u over a whole batch of points, each with its own
bracket.  Its root fixes the characteristic foot point y = x - A(t, u),
and every other classical field is read off there (``_foot``): the
inverse of the characteristic map
y -> y + A(t, u0(y)), the closed-form spatial gradient

    du/dx_i = (du0/dy_i)(y) / (1 + sum_j B_j(t, u) du0/dy_j(y)),

with B_j(t, u) = d/du A_j(t, u), the transported density
rho0(y) / det C where C = I + B outer grad(u0) is the map's Jacobian,
and the velocity a(t, u).  The rank-1 structure of C makes det C equal
to the gradient denominator and to the Newton slope, so all blow-up
diagnostics agree.  Every field maps points (..., n) to values (...),
a float for one point; a point's value does not depend on its batch.

The critical time is the supremum of times for which the condition
functional G(t, y) = B(t, u0(y)) . grad u0(y) stays above -1 over every
foot point.  For velocities without explicit time dependence B(t, u) is
t * da/du(u), so this reduces to the classical criterion

    t* = -1 / min_y G(1, y),

infinite when the minimum is nonnegative; otherwise a bisection in t on
the grid infimum of G(t, .) locates the crossing.  The grid is scanned
in ``problem._axis_blocks``, each bound as its ``axis_views``, so a
subtree of u0 or its gradient in one variable costs one axis of the
block; G takes u0 and its gradient from one program.  The
golden-section refinement evaluates G at one point with the
coordinates bound as floats.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import NearBlowup, NoConvergence, OutOfBracket, SingularJacobian
from .problem import (_BLOCK, ProblemSpec, _axis_blocks, _batched, _point_rows,
                      _refuse, axis_views, displacement_components,
                      du_displacement_components)

__all__ = [
    "BlowupReport",
    "blow_up_time",
    "solve_implicit",
    "gradient_exact",
    "invert_char_map",
    "eval_rho_bar",
    "eval_a_bar",
]

logger = logging.getLogger(__name__)

_DET_FLOOR = 1e-10
_BLOWUP_T_CAP = 2.0 ** 30


def _foot(spec: ProblemSpec, t: float, X: np.ndarray, u: np.ndarray):
    """Foot points of the characteristics through the rows of X (P, n)
    that carry the values u (P,).

    Returns per-point (y, u0y, g, B, det): y = X - A(t, u), u0y =
    u0(y), the factors g = grad u0(y) and B = dA/du(t, u) of the
    characteristic Jacobian C = I + B outer g, and det C = 1 + g . B by
    the rank-1 identity.  u0 and g come from one program, which computes
    their shared subexpressions once.  det is also the slope of the
    Newton residual u - u0y, and at the root of the implicit relation it
    is the gradient denominator.
    """
    y = X - np.stack(displacement_components(spec, t, u), axis=-1)
    u0y, *g = spec.init.jet_at(y)
    g = np.stack(g, axis=-1)
    B = np.stack(du_displacement_components(spec, t, u), axis=-1)
    # a stacked matmul rounds g . B as the 1-D dot of one point does
    return y, u0y, g, B, 1.0 + (g[:, None, :] @ B[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class BlowupReport:
    """Critical time search result.

    For a finite ``t_star`` the minimized functional is the blow-up
    condition value at (t_star, y_star), which sits at -1 up to the
    search tolerance.  For an infinite ``t_star`` under the classical
    criterion it is the (nonnegative) grid minimum of G(1, .), at its
    minimizing point.
    """

    t_star: float
    y_star: np.ndarray
    min_functional: float
    method: str  # "conway" | "lambda_grid"

    def to_json(self) -> str:
        payload = {
            "t_star": "inf" if math.isinf(self.t_star) else self.t_star,
            "y_star": [float(v) for v in self.y_star],
            "min_functional": self.min_functional,
            "method": self.method,
        }
        return json.dumps(payload, sort_keys=True)


def solve_implicit(spec: ProblemSpec, t: float, x):
    """Solve u = u0(x - A(t, u)) at points x (..., n) by one safeguarded
    Newton iteration over all of them.

    Each point's root is bracketed by the (1%-inflated) range of u0, in
    which its residual changes sign.  A Newton step is taken where it
    stays inside the point's bracket, else the point bisects; a point is
    frozen once |u - u0(x - A(t, u))| <= newton_tol.  Callers keep t
    below the blow-up time; past it the bracket still contains a root,
    but which branch is found is not specified.
    """
    X, shape = _point_rows(x, spec.n)
    if t == 0:
        return _batched(spec.init.u0_at(X), shape)
    lo, hi = spec.u_range

    def residual(u: np.ndarray) -> np.ndarray:
        A = displacement_components(spec, t, u)
        return u - spec.init.u0_at(X - np.stack(A, axis=-1))

    glo = residual(np.full(len(X), lo))
    ghi = residual(np.full(len(X), hi))
    live = (glo != 0.0) & (ghi != 0.0)
    _refuse(OutOfBracket, live & ((glo > 0) | (ghi < 0)), X, t,
            f"u-residual does not change sign over [{lo:g}, {hi:g}]")
    u = np.where(glo == 0.0, lo, np.where(ghi == 0.0, hi, 0.5 * (lo + hi)))
    lo, hi = np.full(len(X), lo), np.full(len(X), hi)
    for _ in range(spec.tol.max_iter):
        if not live.any():
            break
        v, a, b = u[live], lo[live], hi[live]
        _, u0y, _, _, slope = _foot(spec, t, X[live], v)
        gv = v - u0y
        a, b = np.where(gv < 0, v, a), np.where(gv < 0, b, v)
        # a zero or non-finite slope lands outside the bracket: bisect
        with np.errstate(all="ignore"):
            step = v - gv / slope
        step = np.where((a < step) & (step < b), step, 0.5 * (a + b))
        done = np.abs(gv) <= spec.tol.newton_tol
        u[live] = np.where(done, v, step)
        lo[live], hi[live] = a, b
        live[live] = ~done
    _refuse(NoConvergence, live, X, t, f"implicit solve did not reach "
            f"{spec.tol.newton_tol:g} in {spec.tol.max_iter} iterations")
    return _batched(u, shape)


def gradient_exact(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Spatial gradient of the classical solution at x (..., n), closed
    form, shape (..., n).

    Raises NearBlowup when the shared denominator drops below the
    configured margin; at that point the formula is untrustworthy and
    the caller is probing too close to t*.
    """
    X, shape = _point_rows(x, spec.n)
    _, _, g, _, den = _foot(spec, t, X, solve_implicit(spec, t, X))
    _refuse(NearBlowup, den < spec.tol.near_blowup_margin, X, t,
            "gradient denominator {:.3e}", den)
    return _batched(g / den[:, None], shape)


def _blowup_grid(spec: ProblemSpec) -> tuple[np.ndarray, ...]:
    """The axes of the blow-up search grid over the box."""
    per_axis = min(spec.tol.blowup_grid,
                   max(2, int(round(1e6 ** (1.0 / spec.n)))))
    return tuple(np.linspace(lo, hi, per_axis) for lo, hi in spec.box)


def _golden_min(f, a: float, b: float, xtol: float):
    """Golden-section minimum of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _coordinate_golden(f, y0: np.ndarray, spacings, box, sweeps: int = 3):
    """Refine a grid argmin by per-axis golden-section searches."""
    y = np.array(y0, dtype=float)
    fy = f(y)
    for _ in range(sweeps):
        for i, ((lo, hi), sp) in enumerate(zip(box, spacings)):
            a = max(lo, y[i] - sp)
            b = min(hi, y[i] + sp)
            if b <= a:
                continue

            def along(v, _i=i):
                yy = y.copy()
                yy[_i] = v
                return f(yy)

            v, fv = _golden_min(along, a, b, xtol=sp * 1e-4)
            if fv < fy:
                y[i], fy = v, fv
    return y, fy


def _condition(spec: ProblemSpec, t: float, jet):
    """Blow-up condition functional G = B(t, u0) . grad u0 from the
    values of the jet program (u0, du0/dx_1..du0/dx_n) at the foot
    points, in their shapes broadcast together.  A B_i without u is a
    scalar, which multiplies as it does broadcast."""
    u0v, *grads = jet
    B = spec.velocity.du_displacement(spec, t, u0v)
    return sum(B[i] * grads[i] for i in range(spec.n))


def _condition_at(spec: ProblemSpec, t: float, y: np.ndarray) -> float:
    """G at one foot point y (n,), with its coordinates bound as floats:
    the IEEE operations of G at that point of a grid, on scalars."""
    env = {f"x{i + 1}": v for i, v in enumerate(y.tolist())}
    return float(_condition(spec, t, ex.eval_expr(spec.init.jet_program, env)))


def blow_up_time(spec: ProblemSpec) -> BlowupReport:
    """Critical time of gradient blow-up, with its minimizing foot point.

    Both methods scan the condition functional G(t, .) on a dense grid
    and refine the grid minimum by golden-section searches.  Velocities
    without time dependence have G(t, .) = t G(1, .), so t* follows in
    closed form from the minimum of G(1, .) (method "conway").
    Otherwise the grid infimum of G(t, .) is bisected in t to the
    configured tolerance (method "lambda_grid"); this assumes the
    functional crosses -1 transversally.
    Grid ties break at the lowest flattened index.  The grid is never
    formed whole: it is scanned in ``_axis_blocks`` of at most
    ``_BLOCK`` points, bound as axes, so memory stays bounded; the
    blocks are runs of flat indices in C order.
    """
    started = time.perf_counter()
    axes = _blowup_grid(spec)
    shape = tuple(len(ax) for ax in axes)
    spacings = [(hi - lo) / (len(ax) - 1) for (lo, hi), ax in zip(spec.box, axes)]
    work = {"chunks": 0, "refine": 0}

    def point(i: int) -> np.ndarray:
        return np.array([ax[k] for ax, k in zip(axes, np.unravel_index(i, shape))])

    def grid_argmin(t: float) -> tuple[int, float]:
        i0, s0, offset = 0, None, 0
        for block in _axis_blocks(axes, _BLOCK):
            work["chunks"] += 1
            G = _condition(spec, t, spec.init.on_columns(spec.init.jet_program,
                                                         axis_views(block)))
            G = np.broadcast_to(G, tuple(map(len, block)))
            i = int(np.argmin(G))
            if s0 is None or G.flat[i] < s0:
                i0, s0 = offset + i, float(G.flat[i])
            offset += G.size
        return i0, s0

    def refine(t: float, i0: int):
        def at(y: np.ndarray) -> float:
            work["refine"] += 1
            return _condition_at(spec, t, y)

        return _coordinate_golden(at, point(i0), spacings, spec.box)

    def report(**fields) -> BlowupReport:
        logger.debug("blow-up search: %d grid points, %d chunks, %d refine "
                     "evaluations in %.3f s", math.prod(shape), work["chunks"],
                     work["refine"], time.perf_counter() - started)
        return BlowupReport(**fields)

    if not any(spec.velocity.time_dependent):
        i0, s0 = grid_argmin(1.0)
        if s0 >= 0:
            return report(t_star=math.inf, y_star=point(i0),
                          min_functional=s0, method="conway")
        y_best, s_best = refine(1.0, i0)
        t_star = -1.0 / s_best
        return report(t_star=float(t_star), y_star=y_best,
                      min_functional=float(t_star * s_best), method="conway")

    # time-dependent velocity: bisection on the grid infimum in t
    def functional_min(t: float):
        return refine(t, grid_argmin(t)[0])

    t_hi = max(list(spec.time_points) + [1.0])
    y_hi, m_hi = functional_min(t_hi)
    t_lo = 0.0
    while m_hi > -1.0:
        t_lo = t_hi
        t_hi *= 2.0
        if t_hi > _BLOWUP_T_CAP:
            return report(t_star=math.inf, y_star=y_hi,
                          min_functional=float(m_hi), method="lambda_grid")
        y_hi, m_hi = functional_min(t_hi)
    while t_hi - t_lo > spec.tol.blowup_tol:
        mid = 0.5 * (t_lo + t_hi)
        _, m_mid = functional_min(mid)
        if m_mid > -1.0:
            t_lo = mid
        else:
            t_hi = mid
    t_star = 0.5 * (t_lo + t_hi)
    y_star, m_star = functional_min(t_star)
    return report(t_star=float(t_star), y_star=y_star,
                  min_functional=float(m_star), method="lambda_grid")


def invert_char_map(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Find the foot points y0 with y0 + A(t, u0(y0)) = x, shape (..., n).

    y0 = x - A(t, u) at the implicit solution u, so it carries no
    iteration of its own and fails only where ``solve_implicit`` does.
    """
    X, shape = _point_rows(x, spec.n)
    return _batched(_foot(spec, t, X, solve_implicit(spec, t, X))[0], shape)


def eval_rho_bar(spec: ProblemSpec, t: float, x) -> float:
    """Transported density rho0(y0) / det C(t, y0); see classical_fields."""
    return classical_fields(spec, t, x)[0]


def eval_a_bar(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Velocity along the classical solution, a(t, u(t, x)); see
    classical_fields."""
    return classical_fields(spec, t, x)[2]


def classical_fields(spec: ProblemSpec, t: float, x):
    """(rho, u, a) of the classical solution at points x (..., n), from
    one implicit solve: rho and u of shape (...), a of shape (..., n).

    rho = rho0(y) / det C at the foot point y of the root u.  Raises
    SingularJacobian, naming the first such point, when det C drops
    below the floor, where the characteristic map folds.
    """
    X, shape = _point_rows(x, spec.n)
    u = solve_implicit(spec, t, X)
    y, _, _, _, det = _foot(spec, t, X, u)
    _refuse(SingularJacobian, det < _DET_FLOOR, X, t,
            "characteristic Jacobian determinant {:.3e}", det)
    a = np.stack(spec.velocity.a_values(t, u), axis=-1)
    return (_batched(spec.init.rho0_at(y) / det, shape), _batched(u, shape),
            _batched(a, shape))
