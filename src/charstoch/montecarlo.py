"""Particle sampling of the stochastic characteristic flow.

Particles carry the frozen label U = u0(y) of their initial position
y and an importance weight; pushing them forward never touches y, U or
w.  The exact update samples the time-t marginal law of a characteristic
in one step: the drift is deterministic given U, so no path
discretization is needed.

All randomness comes from counter-based generator streams keyed by
(seed, purpose), so every ensemble and every evolution is reproducible
bit for bit from the problem seed alone, independent of call order.
That makes y a function of (seed, box, N): an ensemble does not store
it, and every reader (``sample_initial``, ``evolve_exact``,
``dump_ensemble`` and the ``y`` property) draws it again from the
(seed, init) stream, ``problem._BLOCK`` rows at a time; blocks read the
stream in order, so they are the rows of one draw bit for bit.

Field estimates are kernel moments of the quadrature fields' kind:
each ``estimate_fields`` call makes the particles one kernel-source
object (``representation._sources``), with their positions as one
array per axis, their weights, and their labels U as the one column,
and runs ``representation._kernel_moments`` on it.  The kernel is truncated by the tables' rule: ``kernel_cutoff``
kernel widths from the target, the width being the bandwidth h.  Each
target then scans only the particles of the 3^n cells, 8 h wide by
default, around it, and its sums run in cell order, not particle order.

With a constant rho0 every particle has one weight, held as a
read-only stride-0 view of one float, in the ensemble and in the
sources alike, so the route holds per particle only U and X.  The CLI
hands the evolved ensemble over to ``estimate_fields``, which lets
``_sources`` free X once it is sorted: the peak in 1D is 4 arrays of N
floats, the sort order, U and the sorted X and U.  Every weight and
every sum is the one the per-particle arrays gave, bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateKernel, ZeroMass
from .problem import _BLOCK, ProblemSpec, _point_rows, displacement_components
from .representation import _held_bytes, _kernel_moments, _sources, integrate_rho0

__all__ = [
    "ParticleEnsemble",
    "FieldEstimate",
    "sample_initial",
    "evolve_exact",
    "estimate_fields",
    "default_bandwidth",
    "dump_ensemble",
]

logger = logging.getLogger(__name__)

_KEY_INIT = 0x1D17
_KEY_EXACT = 0xE4AC7

# particle rows formatted per write in dump_ensemble
_DUMP_ROWS = 4096


def _stream(seed: int, purpose: int) -> np.random.Generator:
    key = np.array([seed, purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _initial_positions(seed: int, box, count: int, rows: int):
    """The initial positions y of ``count`` particles, uniform on
    ``box``, as (start, stop, block) for each ``rows`` rows in order.

    Each block is drawn from the (seed, init) stream where the last one
    stopped, so the blocks are the rows of one (count, n) draw bit for
    bit, whatever ``rows`` is.  Once the last block is taken, one debug
    line reports the count and the seconds spent drawing.
    """
    rng = _stream(seed, _KEY_INIT)
    lo = np.array([b[0] for b in box])
    width = np.array([b[1] for b in box]) - lo
    spent = 0.0
    for a in range(0, count, rows):
        started = time.perf_counter()
        y = rng.random((min(rows, count - a), len(box)))
        # lo + (hi - lo) * draw, in place
        y *= width
        y += lo
        spent += time.perf_counter() - started
        yield a, a + len(y), y
    logger.debug("particle positions y drawn: %d in %.3f s", count, spent)


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted particles at a single time.

    ``U = u0(y)`` are the frozen characteristic labels of the initial
    positions y, ``w`` the importance weights, which sum to the initial
    mass of rho0 over the box and stay fixed under evolution, and
    ``positions`` the positions at time t, or None at t = 0, in Fortran
    order so that each axis ``X[:, k]`` is contiguous.  y is not held:
    the ``y`` property draws it again from (``seed``, ``box``, N), and
    ``X`` is ``positions``, or that same draw at t = 0.
    Nothing writes an ensemble's arrays in place.  Where rho0 is
    constant every weight is one value, and ``w`` is a read-only (N,)
    view of that one float (stride 0), which holds 8 bytes rather than
    8 N.
    """

    U: np.ndarray  # (N,)
    w: np.ndarray  # (N,)
    t: float
    seed: int
    box: tuple[tuple[float, float], ...]  # the box y was drawn on
    positions: np.ndarray | None = None  # (N, n) at t, None at t = 0

    def __len__(self) -> int:
        return self.U.shape[0]

    @property
    def y(self) -> np.ndarray:
        """The initial positions (N, n), drawn again on each read."""
        y = np.empty((len(self), len(self.box)))
        for a, b, block in _initial_positions(self.seed, self.box, len(self), _BLOCK):
            y[a:b] = block
        return y

    @property
    def X(self) -> np.ndarray:
        """The positions (N, n) at time t: ``y`` at t = 0."""
        return self.y if self.positions is None else self.positions

    @property
    def nbytes(self) -> int:
        """Bytes held by the ensemble's arrays, a one-value ``w`` as one
        float; y, and X at t = 0, are drawn when read and count none."""
        held = (a for a in (self.U, self.w, self.positions) if a is not None)
        return sum(map(_held_bytes, held))

    def _log(self, what: str, started: float) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("particles %s: %d, %s weights, %d bytes in %.3f s",
                         what, len(self), "one-value" if self.w.strides == (0,)
                         else "per-particle", self.nbytes,
                         time.perf_counter() - started)


class FieldEstimate(NamedTuple):
    points: np.ndarray     # (..., n)
    rho_hat: np.ndarray    # (...)
    u_hat: np.ndarray      # (...) NaN where invalid
    valid: np.ndarray      # (...) bool
    bandwidth: float


def sample_initial(spec: ProblemSpec, n_particles: int) -> ParticleEnsemble:
    """Draw particles uniformly over the box and weight them by rho0.

    Weights are rescaled so their sum matches the quadrature mass of
    rho0 exactly; the estimator is then self-normalizing and mass
    comparisons against the smoothed density are apples to apples.

    The positions are drawn, and U and the weights formed from them,
    ``_BLOCK`` rows at a time, each as the whole arrays would give it.
    rho0 is taken as ``on_columns`` makes it.  A constant rho0 gives one
    weight, formed by the IEEE operations each particle's weight would
    take, summed as a stride-0 view (the sum of N copies, in the same
    order) and kept as a read-only view; otherwise the weights are
    formed per block from the sampled densities, and rescaled in place.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be at least 1")
    started = time.perf_counter()
    cell = spec.box_volume / n_particles
    U, w = np.empty(n_particles), None
    for a, b, y in _initial_positions(spec.rng_seed, spec.box, n_particles, _BLOCK):
        U[a:b] = spec.init.u0_at(y)
        rho, = spec.init.on_columns(spec.init.rho0_program, list(y.T))
        if np.ndim(rho) == 0:
            w = float(rho) * cell
        else:
            if w is None:
                w = np.empty(n_particles)
            np.multiply(rho, cell, out=w[a:b])
    one_value = np.ndim(w) == 0
    total = float(np.sum(np.broadcast_to(w, n_particles)))
    mass = integrate_rho0(spec)
    if mass <= 0 or total <= 0:
        raise ZeroMass(
            f"initial density carries no mass over the box "
            f"(quadrature {mass:.3e}, sample {total:.3e})"
        )
    if one_value:
        w = np.broadcast_to(w * (mass / total), n_particles)
    else:
        w *= mass / total
    ens = ParticleEnsemble(U=U, w=w, t=0.0, seed=spec.rng_seed, box=spec.box)
    ens._log("sampled", started)
    return ens


def evolve_exact(ens: ParticleEnsemble, spec: ProblemSpec, t: float) -> ParticleEnsemble:
    """Push particles to time t by sampling the marginal law directly.

    X = y + A(t, U) + sigma * sqrt(t) * Z reproduces the distribution of
    the characteristic at time t exactly; intermediate times from the
    same ensemble are not a path coupling, only matching marginals.
    X is formed ``_BLOCK`` rows at a time, drawing y and Z per block,
    each as the whole arrays would give it.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    started = time.perf_counter()
    # Fortran order: each axis X[:, k] is one contiguous array
    X = np.empty((len(ens), len(ens.box)), order="F")
    noise = _stream(ens.seed, _KEY_EXACT)
    scale = spec.sigma * math.sqrt(t)
    for a, b, y in _initial_positions(ens.seed, ens.box, len(ens), _BLOCK):
        # drift + y + sigma sqrt(t) z, formed in place in each axis' rows;
        # each block's drift, then z, is dropped before the next is formed
        rows = X[a:b].T
        for x, drift, yk in zip(rows, displacement_components(spec, t, ens.U[a:b]),
                                y.T):
            np.add(drift, yk, out=x)
        del drift
        z = noise.standard_normal(y.shape)
        z *= scale
        rows += z.T
        del z
    moved = replace(ens, positions=X, t=float(t))
    moved._log(f"evolved to t={t:g}", started)
    return moved


def default_bandwidth(spec: ProblemSpec, t: float) -> float:
    """Kernel width tied to the noise scale, floored by grid spacing."""
    spacing = min((hi - lo) / (g - 1)
                  for (lo, hi), g in zip(spec.box, spec.space_grid))
    return max(spec.sigma * math.sqrt(t) / 5.0, spacing / 2.0) if t > 0 \
        else spacing / 2.0


def estimate_fields(ens: ParticleEnsemble, spec: ProblemSpec, points,
                    bandwidth: float | None = None) -> FieldEstimate:
    """Kernel-density and weighted-regression field estimates.

    rho_hat is the weighted Gaussian KDE of the particle positions, cut
    at ``spec.tol.kernel_cutoff`` bandwidths like the quadrature kernel;
    u_hat the kernel-weighted average of the labels (Nadaraya-Watson).
    Points whose kernel mass falls below the denominator floor, such as
    points more than the cutoff from every particle, are flagged invalid
    with u_hat = NaN rather than divided through.  Points are (..., n),
    and the estimates take their batch shape.  The bandwidth must be
    finite and positive (ValueError), and its square no smaller than
    1e-300, as for a table's sigma^2 t (DegenerateKernel).

    The ensemble may be handed over: a caller that passes its only
    reference, as ``evolve_exact(...)`` written in the call, lets the
    sort free X, U and per-particle weights as their sorted copies are
    made, and the route then peaks one array of N floats lower.  A
    caller that holds the ensemble gets the same estimate, and its
    arrays are left as they are.  Under debug, one line says which of
    the two it was.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (spec.n,):
        raise ValueError(f"points must have {spec.n} coordinates")
    X, shape = _point_rows(pts, spec.n)
    h = default_bandwidth(spec, ens.t) if bandwidth is None else float(bandwidth)
    if not (math.isfinite(h) and h > 0):
        raise ValueError("bandwidth must be finite and positive")
    if h * h < 1e-300:
        raise DegenerateKernel(
            f"bandwidth^2 = {h * h:.3e} is below the representable kernel width")
    # hand the arrays over: _sources empties the lists and gets the only
    # reference to the weights, so once the ensemble is gone each array
    # is freed as its sorted copy is made
    centers, weights, columns = list(ens.X.T), [ens.w], [ens.U]
    held = weakref.ref(ens)
    del ens
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("particle ensemble %s when sorting began",
                     "still held by the caller" if held() is not None
                     else "released")
    src = _sources(centers, weights.pop(), columns, h * h,
                   spec.tol.kernel_cutoff, (2.0 * math.pi * h * h) ** (-spec.n / 2.0))
    den, means, _ = _kernel_moments(src, X, spec.tol.denom_floor)
    return FieldEstimate(points=pts, rho_hat=(src.norm * den).reshape(shape),
                         u_hat=means[:, 0].reshape(shape),
                         valid=(den >= spec.tol.denom_floor).reshape(shape),
                         bandwidth=h)


def dump_ensemble(ens: ParticleEnsemble, path) -> None:
    """Write particles as CSV: y1..yn, U, X1..Xn, w in %.12e.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends, no
    quoting), formatted ``_DUMP_ROWS`` rows per ``%`` call, with y drawn
    again per block of rows.
    """
    n = len(ens.box)
    header = [f"y{i + 1}" for i in range(n)] + ["U"] \
        + [f"X{i + 1}" for i in range(n)] + ["w"]
    row = ",".join(["%.12e"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a, b, y in _initial_positions(ens.seed, ens.box, len(ens),
                                          _DUMP_ROWS):
            X = y if ens.positions is None else ens.positions[a:b]
            block = np.column_stack([y, ens.U[a:b], X, ens.w[a:b]])
            fh.write((row * (b - a)) % tuple(block.ravel().tolist()))
