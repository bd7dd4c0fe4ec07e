"""Exact transport along characteristics, valid before gradient blow-up.

While the solution stays classical it satisfies the implicit relation

    u(t, x) = u0(x - A(t, u(t, x))),

where A is the flow displacement.  Everything here is built on that
relation: a safeguarded scalar Newton solve for u, the closed-form
spatial gradient

    du/dx_i = (du0/dy_i)(y) / (1 + sum_j B_j(t, u0(y)) du0/dy_j(y)),

with B_j(t, u) = d/du A_j(t, u) and y the characteristic foot point,
inversion of the characteristic map y -> y + A(t, u0(y)), and the
transported density rho0(y) / det C where C = I + B outer grad(u0) is
the map's Jacobian.  The rank-1 structure of C makes det C equal to the
gradient denominator, so all blow-up diagnostics agree.

The critical time is the supremum of times for which the denominator
stays above -1 over every foot point.  For velocities without explicit
time dependence this reduces to the classical criterion

    t* = -1 / min_y sum_i (da_i/du)(u0(y)) du0/dy_i(y),

infinite when the minimum is nonnegative; otherwise a bisection in t on
the grid infimum locates the crossing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    NearBlowup,
    NoConvergence,
    OutOfBracket,
    SingularJacobian,
)
from .problem import (
    ProblemSpec,
    du_displacement_components,
    flow_displacement,
    tensor_points,
)

__all__ = [
    "CharMap",
    "BlowupReport",
    "char_map",
    "solve_implicit",
    "gradient_exact",
    "blow_up_time",
    "invert_char_map",
    "eval_rho_bar",
    "eval_a_bar",
    "classical_fields",
]

_DET_FLOOR = 1e-10
_BLOWUP_T_CAP = 2.0 ** 30


def _rank1(spec: ProblemSpec, t: float, y, u):
    """Factors (g, B) of the characteristic Jacobian C = I + B outer g:
    g = grad u0(y) and B = dA/du(t, u), both of length n."""
    g = spec.init.grad_u0_point(y)
    B = np.array([float(c) for c in du_displacement_components(spec, t, u)])
    return g, B


@dataclass(frozen=True)
class CharMap:
    """The characteristic map y -> y + A(t, u0(y)) at a fixed time."""

    spec: ProblemSpec
    t: float

    def forward(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(self.spec.n)
        u = self.spec.init.u0_point(y)
        return y + flow_displacement(self.spec, self.t, u)

    def jacobian(self, y) -> np.ndarray:
        """C = I + B(t, u0(y)) outer grad u0(y), shape (n, n)."""
        y = np.asarray(y, dtype=float).reshape(self.spec.n)
        u = self.spec.init.u0_point(y)
        g, B = _rank1(self.spec, self.t, y, u)
        return np.eye(self.spec.n) + np.outer(B, g)

    def det(self, y) -> float:
        """det C via the rank-1 identity det = 1 + grad(u0) . B."""
        y = np.asarray(y, dtype=float).reshape(self.spec.n)
        u = self.spec.init.u0_point(y)
        g, B = _rank1(self.spec, self.t, y, u)
        return float(1.0 + g @ B)


def char_map(spec: ProblemSpec, t: float) -> CharMap:
    return CharMap(spec=spec, t=float(t))


@dataclass(frozen=True)
class BlowupReport:
    """Critical time search result.

    For a finite ``t_star`` the minimized functional is the blow-up
    condition value at (t_star, y_star), which sits at -1 up to the
    search tolerance.  For an infinite ``t_star`` under the classical
    criterion it is the (nonnegative) minimum of the denominator, at its
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


def solve_implicit(spec: ProblemSpec, t: float, x) -> float:
    """Solve u = u0(x - A(t, u)) by safeguarded Newton on a bracket.

    The root is bracketed by the (1%-inflated) range of u0, inside
    which the residual changes sign.  Newton steps are taken when they
    stay inside the current bracket; otherwise the step falls back to
    bisection.  Converged when |u - u0(x - A(t, u))| <= newton_tol.
    Callers are responsible for keeping t below the blow-up time; past
    it the bracket still contains a root, but which branch is found is
    not specified.
    """
    x = np.asarray(x, dtype=float).reshape(spec.n)
    if t == 0:
        return spec.init.u0_point(x)
    lo, hi = spec.u_range

    def residual(u: float) -> float:
        y = x - flow_displacement(spec, t, u)
        return u - spec.init.u0_point(y)

    glo = residual(lo)
    ghi = residual(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo > 0 or ghi < 0:
        raise OutOfBracket(
            f"u-residual does not change sign over [{lo:g}, {hi:g}] "
            f"at t={t:g}, x={x.tolist()}"
        )
    u = 0.5 * (lo + hi)
    for _ in range(spec.tol.max_iter):
        y = x - flow_displacement(spec, t, u)
        gu = u - spec.init.u0_point(y)
        if abs(gu) <= spec.tol.newton_tol:
            return float(u)
        if gu < 0:
            lo = u
        else:
            hi = u
        g, B = _rank1(spec, t, y, u)
        slope = 1.0 + float(g @ B)
        if slope != 0 and math.isfinite(slope):
            u_next = u - gu / slope
        else:
            u_next = 0.5 * (lo + hi)
        if not (lo < u_next < hi) or not math.isfinite(u_next):
            u_next = 0.5 * (lo + hi)
        u = u_next
    raise NoConvergence(
        f"implicit solve did not reach {spec.tol.newton_tol:g} "
        f"in {spec.tol.max_iter} iterations at t={t:g}, x={x.tolist()}"
    )


def gradient_exact(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Spatial gradient of the classical solution, closed form.

    Raises NearBlowup when the shared denominator drops below the
    configured margin; at that point the formula is untrustworthy and
    the caller is probing too close to t*.
    """
    x = np.asarray(x, dtype=float).reshape(spec.n)
    u = solve_implicit(spec, t, x)
    y = x - flow_displacement(spec, t, u)
    g, B = _rank1(spec, t, y, u)
    den = 1.0 + float(g @ B)
    if den < spec.tol.near_blowup_margin:
        raise NearBlowup(
            f"gradient denominator {den:.3e} at t={t:g}, x={x.tolist()}"
        )
    return g / den


def _blowup_grid(spec: ProblemSpec) -> np.ndarray:
    per_axis = min(spec.tol.blowup_grid,
                   max(2, int(round(1e6 ** (1.0 / spec.n)))))
    return tensor_points([np.linspace(lo, hi, per_axis) for lo, hi in spec.box])


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


def blow_up_time(spec: ProblemSpec) -> BlowupReport:
    """Critical time of gradient blow-up, with its minimizing foot point.

    Velocities without time dependence use the classical closed form on
    a dense grid with golden-section refinement (method "conway").
    Otherwise the grid infimum of the accumulated condition functional
    is bisected in t to the configured tolerance (method "lambda_grid");
    this assumes the functional crosses -1 transversally.
    Grid ties break at the lowest flattened index.
    """
    pts = _blowup_grid(spec)
    grads = spec.init.grad_u0_at(pts)
    u0v = spec.init.u0_at(pts)
    spacings = [(hi - lo) / (round(len(pts) ** (1.0 / spec.n)) - 1)
                for lo, hi in spec.box]

    vf = spec.velocity
    time_dep = any(vf.time_dependent)

    if not time_dep:
        def slope_values(u_arr: np.ndarray) -> list[np.ndarray]:
            out = []
            for i in range(spec.n):
                if vf.du_components is not None:
                    v = ex.eval_expr(vf.du_components[i], {"t": 0.0, "u": u_arr})
                    arr = np.empty(u_arr.shape)
                    arr[...] = v
                    out.append(arr)
                else:
                    out.append(np.asarray(
                        ex.numeric_partial(vf.components[i], "u",
                                           {"u": u_arr}), dtype=float,
                    ) * np.ones(u_arr.shape))
            return out

        das = slope_values(u0v)
        s = np.zeros(len(pts))
        for i in range(spec.n):
            s += das[i] * grads[:, i]
        i0 = int(np.argmin(s))
        if s[i0] >= 0:
            return BlowupReport(t_star=math.inf, y_star=pts[i0],
                                min_functional=float(s[i0]), method="conway")

        def s_point(y: np.ndarray) -> float:
            u = spec.init.u0_at(y[None, :])
            g = spec.init.grad_u0_at(y[None, :])[0]
            da = slope_values(u)
            return float(sum(float(da[i].reshape(-1)[0]) * g[i]
                             for i in range(spec.n)))

        y_best, s_best = _coordinate_golden(s_point, pts[i0], spacings, spec.box)
        t_star = -1.0 / s_best
        return BlowupReport(t_star=float(t_star), y_star=y_best,
                            min_functional=float(t_star * s_best),
                            method="conway")

    # time-dependent velocity: bisection on the grid infimum in t
    def functional_min(t: float):
        B = du_displacement_components(spec, t, u0v)
        G = np.zeros(len(pts))
        for i in range(spec.n):
            G += B[i] * grads[:, i]
        i0 = int(np.argmin(G))

        def g_point(y: np.ndarray) -> float:
            u = spec.init.u0_point(y)
            g = spec.init.grad_u0_at(y[None, :])[0]
            Bp = du_displacement_components(spec, t, np.asarray(u))
            return float(sum(float(np.asarray(Bp[i]).reshape(-1)[0]) * g[i]
                             for i in range(spec.n)))

        return _coordinate_golden(g_point, pts[i0], spacings, spec.box)

    t_hi = max(list(spec.time_points) + [1.0])
    y_hi, m_hi = functional_min(t_hi)
    t_lo = 0.0
    while m_hi > -1.0:
        t_lo = t_hi
        t_hi *= 2.0
        if t_hi > _BLOWUP_T_CAP:
            return BlowupReport(t_star=math.inf, y_star=y_hi,
                                min_functional=float(m_hi),
                                method="lambda_grid")
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
    return BlowupReport(t_star=float(t_star), y_star=y_star,
                        min_functional=float(m_star), method="lambda_grid")


def invert_char_map(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Find the foot point y0 with y0 + A(t, u0(y0)) = x.

    Newton iteration with the rank-1 Jacobian C, started at x, falling
    back to damped fixed-point steps whenever the Newton step fails to
    reduce the residual.  Raises SingularJacobian when det C collapses
    and NoConvergence at the iteration cap.
    """
    x = np.asarray(x, dtype=float).reshape(spec.n)
    if t == 0:
        return x.copy()

    def res(y: np.ndarray) -> np.ndarray:
        u = spec.init.u0_point(y)
        return y + flow_displacement(spec, t, u) - x

    y = x.copy()
    F = res(y)
    for _ in range(spec.tol.max_iter):
        fn = float(np.max(np.abs(F)))
        if fn <= spec.tol.newton_tol:
            return y
        u = spec.init.u0_point(y)
        g, B = _rank1(spec, t, y, u)
        det = 1.0 + float(g @ B)
        if abs(det) < _DET_FLOOR:
            raise SingularJacobian(
                f"characteristic Jacobian determinant {det:.3e} "
                f"at t={t:g}, x={x.tolist()}"
            )
        C = np.eye(spec.n) + np.outer(B, g)
        y_next = y - np.linalg.solve(C, F)
        F_next = res(y_next)
        if float(np.max(np.abs(F_next))) < fn:
            y, F = y_next, F_next
            continue
        lam = 0.5
        for _ in range(8):
            y_try = y - lam * F
            F_try = res(y_try)
            if float(np.max(np.abs(F_try))) < fn:
                y, F = y_try, F_try
                break
            lam *= 0.5
        else:
            y, F = y_next, F_next
    raise NoConvergence(
        f"characteristic inversion did not converge at t={t:g}, x={x.tolist()}"
    )


def eval_rho_bar(spec: ProblemSpec, t: float, x) -> float:
    """Transported density rho0(y0) / det C(t, y0)."""
    y0 = invert_char_map(spec, t, x)
    u = spec.init.u0_point(y0)
    g, B = _rank1(spec, t, y0, u)
    det = 1.0 + float(g @ B)
    if det < _DET_FLOOR:
        raise SingularJacobian(
            f"characteristic Jacobian determinant {det:.3e} "
            f"at t={t:g}, x={np.asarray(x).tolist()}"
        )
    return spec.init.rho0_point(y0) / det


def eval_a_bar(spec: ProblemSpec, t: float, x) -> np.ndarray:
    """Velocity along the classical solution, a(t, u(t, x))."""
    u = solve_implicit(spec, t, x)
    return np.array([float(v) for v in spec.velocity.a_values(t, u)])


def classical_fields(spec: ProblemSpec, t: float, x):
    """(rho, u, a) of the classical solution at x, from one implicit solve."""
    u = solve_implicit(spec, t, x)
    a = np.array([float(v) for v in spec.velocity.a_values(t, u)])
    return eval_rho_bar(spec, t, x), u, a
