"""Particle sampling of the stochastic characteristic flow.

Particles carry the frozen label U = u0(y) of their initial position
y and an importance weight; pushing them forward never touches y, U or
w.  The exact update samples the time-t marginal law of a characteristic
in one step: the drift is deterministic given U, so no path
discretization is needed.

All randomness comes from counter-based generator streams keyed by
(seed, purpose), so every ensemble and every evolution is reproducible
bit for bit from the problem seed alone, independent of call order.
That makes y a function of (seed, box, N), and the positions at time t
a function of y, U, the problem and t: an ensemble stores neither.
``evolve_exact`` records the problem and t, and every reader
(``estimate_fields``, ``dump_ensemble`` and the ``y`` and ``X``
properties) draws the positions again, ``problem._BLOCK`` rows at a
time (``_blocks``): y from the (seed, init) stream and, once evolved,
the noise from the (seed, exact) stream.  Blocks read the streams in
order, so they are the rows of one draw bit for bit.  Positions given
explicitly, as tests build them, are held as given.

Field estimates are kernel moments of the quadrature fields' kind,
taken one block at a time: ``estimate_fields`` makes each block's
particles one kernel-source object (``representation._sources``), with
their positions as one array per axis, their weights, and their
labels U as the one column, and runs ``representation._kernel_moments``
on it with a step that returns each target's raw sum of wk * U.  The
masses and those sums are added over the blocks, in block order, and
each target is divided, and checked against the denominator floor,
once at the end, so a block without kernel mass at a target is never
divided through.  Those sources live for one block: they never enter
the table slot of ``representation``, and no moments are kept on them.
The ``FieldEstimate`` is rho_hat, u_hat and valid, in the points'
batch shape.  The kernel is truncated by the tables' rule:
``kernel_cutoff`` kernel widths from the target, the width being the
bandwidth h.  Each target then scans, per block, only the particles of
the 3^n cells around it, and its sums run in cell order, not particle
order.  An ensemble of at most ``_BLOCK`` particles is one block, and
its estimate is that of one sort of every particle, bit for bit; a
larger one adds the blocks' sums, which moves the estimates by about
1e-15 relative.

With a constant rho0 every particle has one weight, held as a
read-only stride-0 view of one float, in the ensemble and in the
sources alike, so an ensemble, evolved or not, holds per particle
only U.  The route sample -> evolve -> estimate then holds U and one
block's positions and sources at a time: at 10^6 particles it peaks at
1.46 times 8 N bytes in 1D and 1.79 in 2D under ``tracemalloc``, where
holding X, its sorted copy and the sort order peaked at 3.52 and 5.52.
The price is time: each target makes one pass per block, 16 at 10^6
particles where it made one.  In 1D that costs about what forming X
whole did, and in 2D the route is slower (README, Numerical notes).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateKernel, ZeroMass
from .problem import (_BLOCK, _CSV_ROWS, ProblemSpec, _point_rows, _write_csv,
                      displacement_components)
from .representation import (_held_bytes, _kernel_moments, _sources, _sum,
                             integrate_rho0)

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
    positions y, and ``w`` the importance weights, which sum to the
    initial mass of rho0 over the box and stay fixed under evolution.
    Neither y nor the positions at t are held: the ``y`` and ``X``
    properties, and every reader, draw them again (``_blocks``) from
    (``seed``, ``box``, N) and, once ``evolve_exact`` has recorded the
    problem it was evolved under as ``spec``, from that problem's drift
    and sigma at ``t``.  ``positions`` (N, n) at t, if given, are held
    and read as they are.
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
    positions: np.ndarray | None = None  # (N, n) at t, held as given
    spec: ProblemSpec | None = None  # the problem evolved under, or None

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
        """The positions (N, n) at time t, ``positions`` if given, else
        drawn again on each read in Fortran order, so that each axis
        ``X[:, k]`` is contiguous."""
        if self.positions is not None:
            return self.positions
        X = np.empty((len(self), len(self.box)), order="F")
        for a, b, _, block in _blocks(self):
            X[a:b] = block
        return X

    @property
    def nbytes(self) -> int:
        """Bytes held by the ensemble's arrays, a one-value ``w`` as one
        float; y, and X unless given as ``positions``, are drawn when
        read and count none."""
        held = (a for a in (self.U, self.w, self.positions) if a is not None)
        return sum(map(_held_bytes, held))

    def _log(self, what: str, started: float) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("particles %s: %d, %s weights, %d bytes in %.3f s",
                         what, len(self), "one-value" if self.w.strides == (0,)
                         else "per-particle", self.nbytes,
                         time.perf_counter() - started)


def _blocks(ens: ParticleEnsemble):
    """The ensemble ``_BLOCK`` rows at a time, as (start, stop, y, X):
    the block's initial positions and its positions at ``ens.t``.

    X is ``positions`` if they are given, y itself if the ensemble was
    never evolved, and else y + A(t, U) + sigma * sqrt(t) * Z, Z drawn
    from the (seed, exact) stream where the last block stopped, formed
    in Fortran order as a whole (N, n) draw would give each row.
    """
    noise = _stream(ens.seed, _KEY_EXACT)
    for a, b, y in _initial_positions(ens.seed, ens.box, len(ens), _BLOCK):
        if ens.positions is not None or ens.spec is None:
            yield a, b, y, y if ens.positions is None else ens.positions[a:b]
            continue
        spec = ens.spec
        X = np.empty(y.shape, order="F")
        # drift + y + sigma sqrt(t) z, formed in place in each axis' row
        rows = X.T
        for x, drift, yk in zip(rows, displacement_components(spec, ens.t, ens.U[a:b]),
                                y.T):
            np.add(drift, yk, out=x)
        del drift
        z = noise.standard_normal(y.shape)
        z *= spec.sigma * math.sqrt(ens.t)
        rows += z.T
        del z
        yield a, b, y, X


class FieldEstimate(NamedTuple):
    """The particle estimates at a batch of points, each array in the
    points' batch shape."""

    rho_hat: np.ndarray    # (...)
    u_hat: np.ndarray      # (...) NaN where invalid
    valid: np.ndarray      # (...) bool


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
    Nothing is drawn here: the moved ensemble shares U and w and
    records ``spec`` and t, and every reader forms X from them
    ``_BLOCK`` rows at a time (``_blocks``), drawing y and Z per block,
    each as the whole arrays would give it.  Given ``positions`` are
    not carried over.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    started = time.perf_counter()
    moved = replace(ens, t=float(t), positions=None, spec=spec)
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

    The ensemble is read one ``_BLOCK`` of particles at a time
    (``_blocks``), so the positions are drawn once per call and no
    array of N positions exists.  Each block's sources give every
    target its raw mass and raw sum of wk * U; both are added over the
    blocks, and u_hat is divided once, where the total mass reaches
    the floor.  The ensemble's arrays are left as they are.
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
    norm = (2.0 * math.pi * h * h) ** (-spec.n / 2.0)
    # x + -0.0 is x for every x, -0.0 too, so one block's sums keep their bits
    den, total = np.zeros(len(X)), np.full(len(X), -0.0)
    for a, b, _, x in _blocks(ens):
        src = _sources(list(x.T), ens.w[a:b], [ens.U[a:b]], h * h,
                       spec.tol.kernel_cutoff, norm)
        # an infinite floor forms no per-block mean: the step sums wk * U raw
        mass, _, sums = _kernel_moments(src, X, math.inf, _weighted_label_sum,
                                        "particle sums")
        den += mass
        total += sums[:, 0]
    valid = den >= spec.tol.denom_floor
    u_hat = np.divide(total, den, out=np.full(len(X), math.nan), where=valid)
    return FieldEstimate(rho_hat=(norm * den).reshape(shape),
                         u_hat=u_hat.reshape(shape), valid=valid.reshape(shape))


def _weighted_label_sum(x, idx, wk, mass, rows, mean):
    """The ``_kernel_moments`` step of a particle block: sum(wk * U)."""
    return [_sum(wk * rows[0])]


def dump_ensemble(ens: ParticleEnsemble, path) -> None:
    """Write particles as CSV: y1..yn, U, X1..Xn, w in %.12e.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends, no
    quoting).  ``_write_csv`` formats ``_CSV_ROWS`` rows per ``%`` call,
    and y and X are drawn again per ``_BLOCK`` rows (``_blocks``), as
    every reader forms them.
    """
    n = len(ens.box)
    header = [f"y{i + 1}" for i in range(n)] + ["U"] \
        + [f"X{i + 1}" for i in range(n)] + ["w"]
    blocks = (block[s:s + _CSV_ROWS]
              for block in (np.column_stack([y, ens.U[a:b], x, ens.w[a:b]])
                            for a, b, y, x in _blocks(ens))
              for s in range(0, len(block), _CSV_ROWS))
    _write_csv(path, header, blocks, eol="\r\n")
