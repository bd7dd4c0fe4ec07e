"""Quadrature evaluation of the smoothed moment fields.

For sigma > 0 and t > 0 the law of the stochastically perturbed
characteristics has the explicit density

    p(t, x, y) = (2 pi t sigma^2)^(-n/2)
                 * rho0(y) * exp(-|A(t, u0(y)) + y - x|^2 / (2 sigma^2 t)),

carrying the initial value u0(y).  Every field of interest is a
y-integral against this density over the problem box:

    rho_sigma(t, x) = integral p dy                      (density)
    u_sigma(t, x)   = integral u0(y) p dy / rho_sigma    (profile)
    a_sigma(t, x)   = integral a(t, u0(y)) p dy / rho_sigma

Integrals use tensor-product composite Gauss-Legendre rules, truncated
to the ball |A + y - x| <= kernel_cutoff * sigma * sqrt(t).  In y the
kernel is squeezed by the characteristic map y -> y + A(t, u0(y)), by
at most its stretch bound L, so each table's rule is matched to L: 16
nodes per panel, on the widest panels whose error model
(``quadrature.rule_error``) is no worse than half that of
``nodes_per_panel`` nodes on panels one kernel width wide, nor below
the kernel-cutoff tail.  The t = 0.3 bump table holds 200,704 nodes
where 8 nodes on one-kernel-width panels took 774,400, and the 2D bump
at sigma = 0.05 fits the node budget.  Every field takes points
(..., n) and returns one value per point.  The particle KDE in
``montecarlo`` is cut by the same rule, ``kernel_cutoff`` bandwidths.

A quadrature table and a particle ensemble are two discretizations of
the same source measure, and both are one ``_Sources``: centers, one
contiguous array per axis, weights, per-source columns, each distinct
array once, with a map from the fields to them, and the kernel's var,
cut and norm.  The table of a (problem, t) holds the displaced nodes,
tensor weight * rho0, and the columns of the fields u0 and a_1..a_n,
and is shared by every point.  ``_tabulate`` takes u0 and
rho0 on the node axes (``InitialData.on_columns`` on their
``axis_views``), never on the nodes' points, and each axis's centers
are its node axis plus the displacement, in one pass.  ``montecarlo``
builds sources from the particles and their labels U, and one-value
particle weights (a stride-0 view) stay one value there rather than
being permuted.  A table holds one column per distinct velocity
expression: an a_i that is u reads the u0 column, and equal
expressions share one column.
The one constructor, ``_sources``, sorts all of it once into cells one
cutoff radius wide.  Its cell order is a stable counting sort built
``_SORT_BLOCK`` keys at a time (``_cell_order``), 4 bytes per source.
It takes the centers and columns as lists that it empties, gathering
one array at a time through that order a block at a time, and a
table's weights are formed in cell order from the axis weights and
rho0 (``_NodeWeights``), never in node order, so the t = 0.3 bump
table build peaks at about 1.19 times the table's bytes (1.30 in a
process whose first Gauss-Legendre rule it computes) rather than with
both copies of every array alive.  The sources of the 3^n cells
around a point are then 3^(n-1) contiguous slices, so ``_gaussian_pass``, the only kernel
evaluation, scans those slices rather than every source.  It finds the
cells with Python scalars and forms the kept weights in place, so the
cost of a pass is that of its NumPy calls on the slices.  The fields
here, the covariance sources I_u and I_a of ``balance`` and the
particle estimates are all moments of that pass: ``_kernel_means``
gathers and averages each column around one point once, and
``_kernel_moments`` runs it over a point set, one loop over the
points as Python floats, with the I terms as an optional per-point step
(``_i_term_step``) on the same gathers, and gives each field its
column's mean.  ``_moments`` is the one call
for a table's moments at a point set: the masses, the means and, when
asked, the I terms.  It keeps the moments of the last point set beside
their table, and is the only code that reads or writes them, so the
three fields and the two I terms at the same points cost one pass per
point, in any order of the public calls; a field grid makes its pass
once for all three fields.  Sums run in cell order, and equal a scan
of all sources in that order bit for bit.  The node count still scales
like sigma^(-n) (halving sigma doubles it per axis), which governs the
table build and its memory, not the cost per point.

One table is held at a time, in the one entry of the slot ``_slot``
(``_table_for``) together with the moments kept on it; the slot is the
module's only mutable state.  Every caller asks for each (problem, t)
in one run of consecutive calls, so the slot is emptied, which frees
the table and its kept moments at once, before the next table is
built.  The 3D sigma-residual run of the README then holds one 80 MiB
table where it held five, and peaks at 133-145 MiB RSS where it
reached 452 MiB.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (DegenerateKernel, EmptyKernelSupport, EvalDomainError,
                     NumericalError)
from .problem import (_BLOCK, _CSV_ROWS, InitialData, ProblemSpec, _arrays,
                      _axis_blocks, _batched, _point_rows, _refuse, _write_csv,
                      axis_views, displacement_components,
                      du_displacement_components, space_axes, tensor_points)
from .quadrature import (TABLE_ORDER, matched_width, panel_count, panel_rule,
                         rule_error)

__all__ = [
    "FieldGrid",
    "eval_rho_sigma",
    "eval_u_sigma",
    "eval_a_sigma",
    "eval_field_grid",
    "integrate_rho0",
    "integrate_rho_sigma",
]

logger = logging.getLogger(__name__)

# exp underflows to exactly 0.0 past this exponent magnitude
_UNDERFLOW = 745.0

# total quadrature nodes a table may hold, across all axes
_NODE_BUDGET = 2_000_000

# the fewest nodes per axis of a table, 8 panels of TABLE_ORDER
_MIN_AXIS_NODES = 128

# np.sum of a 1D array, without its argument handling
_sum = np.add.reduce

# rows per block of the cell sort, and indices per block of its gathers
_SORT_BLOCK = 16_384


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product composite Gauss-Legendre rule over a box."""

    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]

    @property
    def weights(self) -> np.ndarray:
        """Flattened tensor weights, shape (M,): the axis weights
        multiplied into ones in axis order.  A new array on each access,
        which the caller may write."""
        out = np.ones(tuple(len(w) for w in self.axis_weights))
        for i, w in enumerate(self.axis_weights):
            out *= w.reshape((-1,) + (1,) * (len(self.axis_weights) - 1 - i))
        return out.ravel()


def quadrature_grid(box, scale: float, *, nodes_per_panel: int = 8,
                    min_panels: int = 16, max_panels: int = 4096) -> QuadratureGrid:
    """Composite rule over ``box`` with panels at most ``scale`` wide,
    ``min_panels`` to ``max_panels`` of them per axis."""
    nodes, weights = [], []
    for lo, hi in box:
        p = panel_count(hi - lo, scale, min_panels, max_panels)
        xs, ws = panel_rule(lo, hi, p, nodes_per_panel)
        nodes.append(xs)
        weights.append(ws)
    return QuadratureGrid(tuple(nodes), tuple(weights))


@dataclass(frozen=True)
class _Sources:
    """The finite sources of one truncated Gaussian sum, in cell order.

    A quadrature table and a particle ensemble are both such a set: the
    centers (displaced nodes or particle positions) as one contiguous
    array per axis, ``axes``, ``weights`` (tensor weight * rho0, or
    particle weights) and per-source ``columns``, each a distinct
    array, with the kernel's ``var``, ``cut`` and normalization
    ``norm``.  ``of`` maps each field (u0 and then a_1..a_n for a
    table, the labels U for particles) to its column: a table's a_i is
    the u0 column when a_i is u, and equal velocity expressions share
    one column, so a pass gathers and averages each array once.
    ``fixed`` holds, per column, its value where every source has that
    same value, else None; such a column's mean is that value exactly,
    at no cost per pass.  With e = |center - x|^2 / (2 var), a source can
    satisfy e <= cut only within radius sqrt(2 var cut) of x, so it
    lies in one of the 3^n square cells around x's cell.
    Every array is stably sorted by flat (C order) cell key, so the
    sources of cell k are positions ``starts[k]:starts[k + 1]``.
    Sources with a non-finite center are left out: they never carry
    kernel mass.
    """

    axes: tuple[np.ndarray, ...]  # n arrays (M,)
    weights: np.ndarray  # (M,)
    columns: tuple[np.ndarray, ...]  # (M,) each, distinct arrays
    var: float
    cut: float
    norm: float
    lo: np.ndarray       # (n,) lower corner of the finite sources
    width: float
    shape: np.ndarray    # (n,) cells per axis
    starts: np.ndarray   # (cells + 1,)
    fixed: tuple[float | None, ...]  # per column: its one value, or None
    of: tuple[int, ...]  # per field: the position of its column

    @cached_property
    def cell_grid(self) -> tuple[list[float], list[int], list[int]]:
        """``lo``, ``shape`` and the C-order strides of the flat cell key,
        as Python scalars per axis: cell (k_1..k_n) has key
        sum(k_i * strides_i)."""
        shape = self.shape.tolist()
        return (self.lo.tolist(), shape,
                [math.prod(shape[i + 1:]) for i in range(len(shape))])

    @property
    def nbytes(self) -> int:
        """Bytes held by the sources' arrays, one-value weights as one
        float."""
        return sum(map(_held_bytes, (*self.axes, self.weights, *self.columns,
                                     self.starts)))


def _held_bytes(a: np.ndarray) -> int:
    """The bytes behind ``a``: one item for a one-value view of stride 0,
    where ``nbytes`` counts every position."""
    return a.itemsize if a.strides == (0,) else a.nbytes


def _sources(centers: list, weights, columns: list, var: float,
             cutoff: float, norm: float) -> _Sources:
    """Sort ``centers``, a list of one coordinate array (M,) per axis,
    ``weights`` (M,), an array or anything with ``dtype`` and an
    ``ndarray.take`` such as ``_NodeWeights``, and each of the list
    ``columns`` (M,), one per field, into cells for the Gaussian sum
    with this var, truncated ``cutoff`` kernel widths sqrt(var) from
    each target.  The centers come back as one contiguous array per
    axis.

    The two lists are emptied: the arrays are permuted one at a time,
    and each unsorted one is dropped once its sorted copy exists, the
    weights last.  The permutation is the stable argsort of the cell
    keys, built by ``_cell_order`` as 4-byte indices (8 past 2^31 - 1
    sources), and every array, the weights too, is gathered through it
    ``_SORT_BLOCK`` indices at a time (``_gather``), so no array of one
    intp per source exists.  A caller that hands over its only
    references to the centers and columns therefore peaks at one array
    above the sorted sources, plus that half-width order, rather than
    with both copies of every array alive.  Weights that are one value,
    a stride-0 view such as ``sample_initial`` makes, read the same in
    any order: they are kept as a view of their first ``count``
    positions, not permuted.

    The one truncation rule of every kernel sum: a source counts while
    e <= cut = min(cutoff^2 / 2, the exponent where exp underflows).
    Cells are at least one cutoff radius wide (with a 1e-9 margin for
    rounding in e) and never more numerous than the finite sources, so
    a tiny bandwidth cannot allocate a huge ``starts``; wider cells only
    add candidates.  The bounding box is a plain min and max per axis;
    only when some center is not finite is it masked to the finite ones.
    Sources whose span on an axis overflows to inf cannot be cut into
    cells; they raise NumericalError naming the axis, before any key
    array exists.
    """
    started = time.perf_counter()
    cut = min(0.5 * cutoff ** 2, _UNDERFLOW)
    n, M = len(centers), len(weights)
    lo = np.array([np.min(c, initial=np.inf) for c in centers])
    hi = np.array([np.max(c, initial=-np.inf) for c in centers])
    bad = None  # the non-finite centers, if there are any (or no centers)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        bad = ~np.isfinite(centers[0])
        for c in centers[1:]:
            bad |= ~np.isfinite(c)
        ok = ~bad
        lo = np.array([np.min(c, where=ok, initial=np.inf) for c in centers])
        hi = np.array([np.max(c, where=ok, initial=-np.inf) for c in centers])
        del ok
    count = M if bad is None else M - int(np.count_nonzero(bad))
    with np.errstate(over="ignore"):  # an infinite extent is refused below
        lo, extent = (lo, hi - lo) if count else (np.zeros(n), np.zeros(n))
    wide = np.flatnonzero(np.isinf(extent))
    if wide.size:
        i = wide[0]
        raise NumericalError(f"kernel sources on axis x{i + 1} span [{lo[i]:g}, "
                             f"{hi[i]:g}], wider than the largest float")
    per_axis = max(1, int(count ** (1.0 / n)))
    # tiny keeps the width positive when the radius underflows to 0
    width = max(math.sqrt(2.0 * var * cut) * (1.0 + 1e-9),
                float(np.max(extent)) / per_axis, np.finfo(float).tiny)
    shape = np.minimum(np.floor(extent / width) + 1, per_axis).astype(np.int64)
    cells = int(np.prod(shape))
    # flat keys in the narrowest type, which lets the stable sort use a
    # radix sort; non-finite centers get key ``cells``, after every cell
    key = np.zeros(M, dtype=np.min_scalar_type(cells))
    for c, l, s in zip(centers, lo, shape):
        k = c - l
        k /= width
        np.floor(k, out=k)
        np.minimum(k, s - 1, out=k)
        if bad is not None:
            k[bad] = 0
        key *= int(s)
        key += k.astype(key.dtype)
        del k  # before the next axis allocates its own
    del c  # the last center, which the permutation below frees
    if bad is not None:
        key[bad] = cells
    del bad
    order, starts = _cell_order(key, cells)
    order = order[:count]
    del key
    # one array at a time, each unsorted one released (unless its caller
    # holds it) once its permuted copy exists; the weights go last
    axes = tuple(_gather(centers.pop(0), order) for _ in range(n))
    columns = tuple(_gather(columns.pop(0), order) for _ in range(len(columns)))
    if isinstance(weights, np.ndarray) and weights.strides == (0,):
        weights = weights[:count]
    else:
        weights = _gather(weights, order)
    src = _Sources(axes=axes, weights=weights, columns=columns,
                   var=var, cut=cut, norm=norm, lo=lo, width=width,
                   shape=shape, starts=starts, fixed=(None,) * len(columns),
                   of=tuple(range(len(columns))))
    logger.debug("kernel sources: %d, %s cells per axis, width %.6g, "
                 "%d distinct columns, sorted in %.3f s, %d bytes",
                 M, "x".join(str(s) for s in shape), width,
                 len(columns), time.perf_counter() - started, src.nbytes)
    return src


def _cell_order(key: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of ``key`` (M,), whose values are 0..cells, as
    int32 (int64 past 2^31 - 1 keys), and ``starts`` (cells + 1,), the
    first position of each key's run in it; the last run, of key
    ``cells``, starts at ``starts[cells]``.

    A counting sort, ``_SORT_BLOCK`` rows at a time.  The keys are
    counted a block at a time (``np.bincount`` would copy them all to
    intp).  Then each block is stable-argsorted on its own keys, and
    its runs of one key go, in index order, to the next free slots of
    their cells.  Blocks are taken in index order, so ties keep their
    index order as in the global stable sort.  The work per block is
    that of its own rows, whatever the number of cells, and no array
    of M intp exists."""
    M = len(key)
    starts = np.zeros(cells + 2, dtype=np.int64)
    for s in range(0, M, _SORT_BLOCK):
        np.add.at(starts[1:], key[s:s + _SORT_BLOCK], 1)
    starts = np.cumsum(starts, out=starts)[:-1]  # the keys below each key
    itype = np.int32 if M <= np.iinfo(np.int32).max else np.int64
    order = np.empty(M, dtype=itype)
    free = starts.astype(itype)  # the next free slot of each cell
    rank = np.arange(_SORT_BLOCK)
    new = np.empty(_SORT_BLOCK + 1, dtype=bool)  # where a run of one key begins
    new[0] = True
    for s in range(0, M, _SORT_BLOCK):
        kb = key[s:s + _SORT_BLOCK]
        b = len(kb)
        by = np.argsort(kb, kind="stable")
        kb = kb.take(by)
        np.not_equal(kb[1:], kb[:-1], out=new[1:b])
        new[b] = True
        edge = np.flatnonzero(new[:b + 1])  # the runs' first positions, then b
        first = edge[:-1]
        cell, size = kb.take(first), edge[1:] - first
        slot = free.take(cell)
        # the run from block position f fills slots slot..: the row at
        # position j goes to slot + j - f
        dest = np.repeat(slot - first, size)
        dest += rank[:b]
        by = by.astype(itype)  # values of order's type scatter faster
        by += s
        order[dest] = by
        free[cell] = slot + size
    return order, starts


def _gather(a, order: np.ndarray) -> np.ndarray:
    """``a.take(order)``, ``_SORT_BLOCK`` indices at a time, so that a
    narrow ``order`` is widened to intp one block at a time; ``a`` is an
    array or anything with its ``dtype`` and ``take(p, out, mode)``."""
    out = np.empty(len(order), dtype=a.dtype)
    for s in range(0, len(order), _SORT_BLOCK):
        # the indices are in range, and "wrap" writes straight to out
        a.take(order[s:s + _SORT_BLOCK], out=out[s:s + _SORT_BLOCK], mode="wrap")
    return out


# the one table held, keyed by (problem digest, sigma, t), and the kernel
# moments of its last point set: at most one entry, [table, kept or None]
_slot: dict[tuple[str, float, float], list] = {}


@lru_cache(maxsize=16)
def _slope_bound(init: InitialData, box) -> float:
    """max |grad u0| over a tensor sample of ``box``: the cell midpoints
    of 4096 cells in 1D, 256 per axis in 2D (65536 points), about 65536
    points in more, taken from the jet unexpanded on the ``axis_views``
    of its ``_axis_blocks``.  Where the gradient is undefined at a
    sample point (a kink of abs or sqrt, or a NaN), the bound is
    unknown: inf."""
    q = min(4096, round(65536 ** (1.0 / init.n)))
    axes = [lo + (np.arange(q) + 0.5) * ((hi - lo) / q) for lo, hi in box]
    bound = 0.0
    for block in _axis_blocks(axes, _BLOCK):
        try:
            grad = init.on_columns(init.jet_program, axis_views(block))[1:]
        except EvalDomainError:
            return math.inf
        top = math.sqrt(float(np.max(sum(g * g for g in grad))))
        if math.isnan(top):
            return math.inf
        bound = max(bound, top)
    return bound


def _stretch(spec: ProblemSpec, t: float) -> float:
    """L = 1 + max_u |dA/du(t, u)| * max_y |grad u0(y)|.  The Jacobian
    of the characteristic map y -> y + A(t, u0(y)) is the rank-one
    update C = I + (dA/du) grad u0^T of I, so L bounds its norm: the
    kernel, sigma*sqrt(t) wide in x, is at least sigma*sqrt(t) / L wide
    in y.  dA/du is sampled on ``u_range``, and the slope once per
    problem (``_slope_bound``).  A stretch above 64, or one that is not
    finite, counts as 64: there the reference rule errs by more than 3,
    and the tables are as dense as it is."""
    u = np.linspace(*spec.u_range, 201)
    with np.errstate(over="ignore"):  # an infinite b2 counts as 64 below
        b2 = sum(b * b for b in du_displacement_components(spec, t, u))
    stretch = 1.0 + math.sqrt(float(np.max(b2))) * _slope_bound(spec.init, spec.box)
    return stretch if stretch <= 64.0 else 64.0


def _build_table(spec: ProblemSpec, t: float) -> _Sources:
    """The kernel sources of (spec, t) (``_tabulate``) on a rule matched
    to the stretch L of the characteristic map (``_stretch``).

    In the foot points the kernel is at least sigma*sqrt(t) / L wide,
    so the reference rule, ``nodes_per_panel`` nodes on panels one
    kernel width wide, has the error E(nodes_per_panel, L) of
    ``quadrature.rule_error``.  The table takes the widest
    TABLE_ORDER-node panels (``quadrature.matched_width``) whose error
    is at most target = max(E(nodes_per_panel, L) / 2,
    exp(-kernel_cutoff^2 / 2)); accuracy below the kernel-cutoff tail
    buys nothing.  The half is a margin: E models the kernel as a
    Gaussian, while the tables integrate it as distorted by the
    characteristic map and, for the I terms, times a cubic in y, and
    matched on E alone rho and I_u came out up to 1.74 times the
    reference rule's error on the shipped configs.  The panels are
    never denser than the reference rule's, TABLE_ORDER / nodes_per_panel
    kernel widths: that binds only where the reference rule errs by
    more than about 1e-3 (L above 8 at 8 nodes), so that no table holds
    more nodes than the reference rule would.  At least _MIN_AXIS_NODES
    nodes per axis, and the node budget caps the panels per axis.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"field tables need a finite time t >= 0, got t={t!r}")
    scale = spec.sigma * math.sqrt(t)
    if scale * scale < 1e-300:
        raise DegenerateKernel(
            f"sigma^2 * t = {scale * scale:.3e} is below the representable "
            f"kernel width"
        )
    started = time.perf_counter()
    # before any table array exists, so the sample stays out of the peak
    stretch = _stretch(spec, t)
    target = max(0.5 * float(rule_error(spec.tol.nodes_per_panel, stretch)),
                 math.exp(-0.5 * spec.tol.kernel_cutoff ** 2))
    # in kernel widths, and never denser than the reference rule
    width = max(matched_width(target) / stretch,
                TABLE_ORDER / spec.tol.nodes_per_panel)
    panel = width * scale
    least = -(-_MIN_AXIS_NODES // TABLE_ORDER)
    per_axis_nodes = int(_NODE_BUDGET ** (1.0 / spec.n))
    cap = max(least, min(spec.tol.max_panels, per_axis_nodes // TABLE_ORDER))
    if any(math.ceil((hi - lo) / panel) > cap for lo, hi in spec.box):
        logger.warning(
            "quadrature panel cap %d binds at sigma=%g t=%g; "
            "field accuracy may degrade", cap, spec.sigma, t,
        )
    grid = quadrature_grid(spec.box, panel, nodes_per_panel=TABLE_ORDER,
                           min_panels=least, max_panels=cap)
    per_axis = [len(x) for x in grid.axis_nodes]
    table = _tabulate(spec, t, grid)
    logger.debug("kernel table at sigma=%g t=%g: %d nodes, %d distinct columns, "
                 "%d bytes, built in %.3f s; stretch %.4g, %d-node panels %.4g "
                 "kernel widths wide, %s panels per axis, error target %.3g",
                 spec.sigma, t, math.prod(per_axis), len(table.columns),
                 table.nbytes, time.perf_counter() - started, stretch, TABLE_ORDER,
                 width, "x".join(str(m // TABLE_ORDER) for m in per_axis), target)
    return table


@dataclass(frozen=True)
class _NodeWeights:
    """Tensor weight * rho0 at the nodes of ``grid``, formed only where
    ``take`` reads them, as ``_gather`` does a block at a time: at flat
    (C order) node positions, from the axis weights and ``rho0`` (a
    float, or an array that broadcasts to the grid).  Each weight is the
    product ``grid.weights * rho0`` forms, in the same order, so a
    table's weights come out in cell order without an array of every
    node's weight in node order."""

    grid: QuadratureGrid
    rho0: float | np.ndarray
    dtype = np.dtype(float)

    def __len__(self) -> int:
        return math.prod(len(w) for w in self.grid.axis_weights)

    def take(self, p: np.ndarray, out: np.ndarray, mode: str) -> np.ndarray:
        """The weights at positions ``p``, written to ``out`` as
        ``ndarray.take(p, out=out, mode=mode)`` writes them."""
        axis_weights = self.grid.axis_weights
        shape = tuple(len(w) for w in axis_weights)
        idx = []
        for m in shape[:0:-1]:  # the node's index on each axis
            p, i = np.divmod(p, m)
            idx.insert(0, i)
        idx.insert(0, p)
        w = axis_weights[0].take(p, out=out, mode=mode)
        for wi, i in zip(axis_weights[1:], idx[1:]):
            w *= wi.take(i)
        # a constant rho0 multiplies as it does broadcast
        w *= self.rho0 if np.ndim(self.rho0) == 0 \
            else np.broadcast_to(self.rho0, shape)[tuple(idx)]
        return out


def _tabulate(spec: ProblemSpec, t: float, grid: QuadratureGrid) -> _Sources:
    """The nodes of ``grid`` as the kernel sources of (spec, t): weights
    tensor weight * rho0, the fields u0 and then a_1..a_n at (t, u0),
    the a fields evaluated in cell order, and ``fixed`` marking the
    columns with one value at every node.  Each distinct array of those
    fields is one column, and ``of`` names each field's column: an a_i
    that ``a_values`` returns as u0 itself, or as the array of an equal
    expression, is that column.

    u0 and rho0 are taken on the ``axis_views`` of the node axes, u0 as
    one array of the grid's shape, each center array is its node axis
    plus the displacement, in one pass, and the weights are formed in
    cell order (``_NodeWeights``), so no array of node coordinates or of
    node-ordered weights is formed.
    """
    views = axis_views(grid.axis_nodes)
    rho0, = spec.init.on_columns(spec.init.rho0_program, views)
    u0v, = _arrays(spec.init.on_columns(spec.init.u0_program, views),
                   tuple(map(len, grid.axis_nodes)), views)
    centers = [np.add(x, d).ravel()
               for x, d in zip(views, displacement_components(spec, t, u0v))]
    u0v = u0v.ravel()
    var = spec.sigma * spec.sigma * t
    # _sources empties the lists, so it frees each unsorted array once
    # it is permuted
    columns = [u0v]
    del u0v
    table = _sources(centers, _NodeWeights(grid, rho0), columns, var,
                     spec.tol.kernel_cutoff, (2.0 * math.pi * var) ** (-spec.n / 2.0))
    # a is elementwise in u0, so it is evaluated in cell order directly,
    # once the unsorted arrays are freed: that keeps it out of the peak
    u0v = table.columns[0]
    fields = (u0v, *spec.velocity.a_values(t, u0v))
    distinct = {id(c): c for c in fields}
    columns = tuple(distinct.values())
    fixed = tuple(float(c[0]) if c.size and np.ptp(c) == 0 else None for c in columns)
    return replace(table, columns=columns, fixed=fixed,
                   of=tuple(list(distinct).index(id(c)) for c in fields))


def _table_for(spec: ProblemSpec, t: float) -> list:
    """The slot entry of (spec, t), [table, kept], from the one-entry
    slot ``_slot``: the table of (spec, t) and the kernel moments that
    ``_moments`` kept on it, None until it keeps some.

    The slot holds the entry of the (problem, t) last asked for.  Every
    caller asks for each (problem, t) in one run of consecutive calls,
    so another table would only be read again if the process came back
    to an earlier (problem, t), which costs one rebuild.  On a miss the
    slot is emptied before the build, so the old table and its kept
    moments are freed (unless a caller still holds them) before the new
    table allocates anything."""
    key = (spec.digest, spec.sigma, float(t))
    entry = _slot.get(key)
    if entry is None:
        if _slot:
            (_, sigma, t_old), old = _slot.popitem()
            logger.debug("kernel table at sigma=%g t=%g dropped, %d bytes",
                         sigma, t_old, old[0].nbytes)
            del old  # table and kept moments, before the build allocates
        entry = _slot[key] = [_build_table(spec, t), None]
    return entry


def _gaussian_pass(src: _Sources, x):
    """One Gaussian sum's sources around x: the only place a kernel is
    evaluated, for quadrature nodes and particles alike.

    With e = |center - x|^2 / (2 var), returns (idx, wk): the
    ascending cell-order positions of the sources with e <= cut and
    their weights times exp(-e).  The 3^n cells around x are 3^(n-1)
    runs of consecutive keys, one per line along the last axis, so e is
    computed on that many contiguous slices, in ascending position
    order, from the per-axis ``axes``: idx, wk and every sum over them
    equal those of a scan of all sources bit for bit.  The cells are
    found with Python scalars (``cell_grid``), and the kept weights are
    formed in place, so a pass makes no NumPy call on n-element arrays
    and a pass over few sources costs little more than its slices.  A
    target with a coordinate that is not finite, or with no cell within
    reach, has no sources.
    """
    lo, shape, strides = src.cell_grid
    cells = []
    for xi, l, s in zip(x, lo, shape):
        q = (xi - l) / src.width
        # floor(q) lies in [-1, s] exactly when q does in [-1, s + 1);
        # a NaN or infinite q fails too, before math.floor could raise
        if not -1.0 <= q < s + 1:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        k = math.floor(q)
        cells.append((max(k - 1, 0), min(k + 1, s - 1)))
    # the flat key of the first cell of each run along the last axis,
    # in ascending (C) order
    heads = [0]
    for (a, b), stride in zip(cells[:-1], strides[:-1]):
        heads = [h + c * stride for h in heads for c in range(a, b + 1)]
    a, b = cells[-1]
    starts, two_var = src.starts, 2.0 * src.var
    idx, wk = [], []
    for head in heads:
        start, stop = starts[head + a], starts[head + b + 1]
        e = src.axes[0][start:stop] - x[0]
        e *= e
        for ax, xi in zip(src.axes[1:], x[1:]):
            d = ax[start:stop] - xi
            d *= d
            e += d
        e /= two_var
        keep = (e <= src.cut).nonzero()[0]
        ek = e.take(keep)
        np.negative(ek, out=ek)
        np.exp(ek, out=ek)
        w = src.weights[start:stop].take(keep)
        w *= ek
        keep += start
        idx.append(keep)
        wk.append(w)
    if len(idx) == 1:
        return idx[0], wk[0]
    return np.concatenate(idx), np.concatenate(wk)


def _kernel_means(src: _Sources, x, floor: float):
    """One Gaussian sum around x and the weighted means of the sources'
    columns.

    Returns (idx, wk, den, rows, means): the sources and weights of
    ``_gaussian_pass``, their raw mass den = sum(wk), and per column
    (not per field: ``src.of`` maps the fields to them) its values at
    idx and its mean sum(wk * row) / den, so each array is gathered and
    averaged once.  A column in ``fixed`` has its one value as its
    mean, exactly.  The means are NaN unless den >= ``floor``, so a
    vanishing mass is never divided through.
    """
    idx, wk = _gaussian_pass(src, x)
    den = float(_sum(wk))
    rows = [c.take(idx) for c in src.columns]
    means = [math.nan if den < floor else c if c is not None
             else float(_sum(wk * row) / den) for row, c in zip(rows, src.fixed)]
    return idx, wk, den, rows, means


def _kernel_moments(src: _Sources, X: np.ndarray, floor: float,
                    step=None, label: str = ""):
    """``_kernel_means`` at each row of X (P, n): the raw masses (P,),
    the field means (P, len(src.of)), each field's column's mean, and,
    with a ``step``, what ``step(x, idx, wk, den, rows, means)`` returns
    after each point's pass, one value per field, as (P, len(src.of));
    else None.
    The points are passed as Python floats.  With
    ``CHARSTOCH_LOG=debug``, logs one line per batch: the targets, the
    kept sources and the wall time, after ``label`` if there is a step
    and after "kernel moments" and with the field count if not."""
    started = time.perf_counter()
    den, means, steps, kept = [], [], [], 0
    for x in X.tolist():
        idx, wk, mass, rows, mean = _kernel_means(src, x, floor)
        if step is not None:
            steps.append(step(x, idx, wk, mass, rows, mean))
        den.append(mass)
        means.append([mean[j] for j in src.of])
        kept += idx.size
    if logger.isEnabledFor(logging.DEBUG):
        elapsed = time.perf_counter() - started
        if step is None:
            logger.debug("kernel moments: %d targets, %d kept sources, %d columns "
                         "in %.3f s", len(X), kept, len(src.of), elapsed)
        else:
            logger.debug("%s: %d targets, %d kept sources in %.3f s",
                         label, len(X), kept, elapsed)
    shape = (len(X), len(src.of))
    return (np.array(den, dtype=float), np.array(means, dtype=float).reshape(shape),
            None if step is None else np.array(steps, dtype=float).reshape(shape))


def _i_term_step(spec: ProblemSpec, t: float, table: _Sources):
    """The I terms of one pass of ``table`` at a point as a step of
    ``_kernel_moments``, [I_u, I_a_1..I_a_n] (``balance``'s module
    docstring), and the batch's log label.  The step raises
    EmptyKernelSupport at a point without kernel mass.  Each column's
    deviation from its mean, and its sum, is formed once, in place in
    the pass's own gathered rows, and each field reads its column's
    through ``table.of`` (an a_i that is u reads the u0 column's).  The
    gradient factor is built in place from each axis's gathered
    centers."""
    n, norm, floor = spec.n, table.norm, spec.tol.denom_floor
    s2t = spec.sigma * spec.sigma * t
    of, axes = table.of, table.axes
    dt_components = [i for i in range(n) if spec.velocity.time_dependent[i]]

    def step(x, idx, wk, mass, rows, mean):
        if mass < floor:
            _refuse(EmptyKernelSupport, True, np.array([x]), t, "no kernel mass")
        dt_sums = []
        if dt_components:
            # taken before the rows are written: da_i/dt may be u0 itself
            dt_vals = spec.velocity.dt_values(t, rows[0])
            dt_sums = [norm * _sum(wk * dt_vals[i]) for i in dt_components]
        # row - mean per column, u0's first
        for row, m in zip(rows, mean):
            row -= m
        # sum_k (a_k - a_sigma_k)(A_k + y_k - x_k) / (sigma^2 t) per node;
        # (c - x_k) * dev equals dev * (c - x_k) bit for bit
        fac = np.zeros(len(wk))
        for k in range(n):
            c = axes[k].take(idx)
            c -= x[k]
            c *= rows[of[1 + k]]
            fac += c
        fac /= s2t
        sums = []
        for row in rows:
            term = wk * row
            term *= fac
            sums.append(norm * _sum(term))
        sums = [sums[j] for j in of]
        for i, dt_sum in zip(dt_components, dt_sums):
            sums[1 + i] -= dt_sum
        return sums

    return step, f"I terms at sigma={spec.sigma:g} t={t:g}"


def _moments(spec: ProblemSpec, t: float, X: np.ndarray, *, iterms: bool = False):
    """The kernel moments of the table of (spec, t) at the points X
    (P, n): (norm, den (P,), means (P, 1 + n), i_terms), i_terms being
    (I_u (P,), I_a (P, n)) with ``iterms`` and None otherwise.

    The moments of the last point set are kept in the table's slot
    entry (``_table_for``), as (X's shape and bytes, den, means, I terms
    or None), and answer a call at the same points that asks for no
    more than they hold; any other call makes one pass per point and is
    kept in their place.  They are freed with their table when the slot
    moves on to another (problem, t).
    An I-term call needs t > 0, and raises EmptyKernelSupport at the
    first point without kernel mass, after its pass, keeping nothing.
    The arrays may be the kept ones, so callers must not write into
    them."""
    if iterms and t <= 0:
        raise ValueError("I-term evaluation requires t > 0")
    entry = _table_for(spec, t)
    table, kept = entry
    key = (X.shape, X.tobytes())
    if kept is None or kept[0] != key or (iterms and kept[3] is None):
        step = _i_term_step(spec, t, table) if iterms else ()
        den, means, sums = _kernel_moments(table, X, spec.tol.denom_floor, *step)
        kept = entry[1] = (key, den, means,
                           None if sums is None else (sums[:, 0], sums[:, 1:]))
    return table.norm, kept[1], kept[2], kept[3] if iterms else None


def _support_reach(spec: ProblemSpec, t: float) -> float:
    """Largest distance the transported kernel reaches from a foot point:
    the largest flow displacement over ``u_range`` plus the kernel cutoff
    radius."""
    disp = displacement_components(spec, t, np.linspace(*spec.u_range, 201))
    reach = max(float(np.max(np.abs(d))) for d in disp)
    return reach + spec.tol.kernel_cutoff * spec.sigma * math.sqrt(t)


def eval_rho_sigma(spec: ProblemSpec, t: float, x):
    """Smoothed density rho_sigma(t, x) at points x (..., n); equals
    rho0(x) at t = 0.  Defined at points without kernel mass too."""
    X, shape = _point_rows(x, spec.n)
    if t == 0:
        return _batched(spec.init.rho0_at(X), shape)
    norm, den, _, _ = _moments(spec, t, X)
    return _batched(norm * den, shape)


def eval_u_sigma(spec: ProblemSpec, t: float, x):
    """Smoothed profile u_sigma(t, x) at points x (..., n); equals u0(x)
    at t = 0.

    Raises EmptyKernelSupport at the first point without kernel mass.
    """
    return _fields_sigma(spec, t, x)[1]


def eval_a_sigma(spec: ProblemSpec, t: float, x):
    """Smoothed velocity a_sigma(t, x) at points x (..., n), with a
    trailing axis of length n; raises as eval_u_sigma does."""
    return _fields_sigma(spec, t, x)[2]


def _fields_sigma(spec: ProblemSpec, t: float, x):
    """(rho, u, a) at points x (..., n), one kernel pass per point, in
    the shapes of ``classical_fields``; the kept kernel results of the
    same points answer without a pass.  Raises EmptyKernelSupport at the
    first point without kernel mass."""
    X, shape = _point_rows(x, spec.n)
    if t == 0:
        u = spec.init.u0_at(X)
        rho, a = spec.init.rho0_at(X), np.stack(spec.velocity.a_values(0.0, u), axis=-1)
    else:
        norm, den, means, _ = _moments(spec, t, X)
        _refuse(EmptyKernelSupport, den < spec.tol.denom_floor, X, t, "no kernel mass")
        means = means.copy()  # u and a are views, and callers get copies
        rho, u, a = norm * den, means[:, 0], means[:, 1:]
    return _batched(rho, shape), _batched(u, shape), _batched(a, shape)


@dataclass
class FieldGrid:
    """A field at time ``t`` sampled on the tensor grid of ``axes``.

    ``values`` has the grid shape for scalar fields and an extra
    trailing component axis for vector fields.  ``valid`` marks points
    where the evaluation succeeded; failed points hold NaN.
    """

    t: float
    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    valid: np.ndarray

    def to_csv(self, path) -> None:
        """Write rows in C order: t, coordinates, components, valid.

        Reals are %.12e and valid is 0 or 1, so identical runs produce
        identical bytes; ``_write_csv`` formats ``_CSV_ROWS`` rows per
        ``%`` call.
        """
        size = self.valid.size
        ncomp = self.values.shape[-1] if self.values.ndim > len(self.axes) else 1
        val_cols = ["value"] if ncomp == 1 else [f"value{i + 1}" for i in range(ncomp)]
        header = ["t"] + [f"x{i + 1}" for i in range(len(self.axes))] + val_cols + ["valid"]
        block = np.column_stack([np.full(size, self.t), tensor_points(self.axes),
                                 self.values.reshape(size, ncomp), self.valid.reshape(size)])
        _write_csv(path, header, (block[a:a + _CSV_ROWS] for a in range(0, size, _CSV_ROWS)),
                   row=",".join(["%.12e"] * (len(header) - 1)) + ",%d")


def eval_field_grid(spec: ProblemSpec, t: float, which: str) -> FieldGrid:
    """Evaluate one field ("rho", "u" or "a") on the problem's box grid.

    ``t`` may be any time >= 0, not only one of the problem's output
    times: tables are built per (problem, t).  One kernel pass per grid
    point (``_moments``) gives the masses and means of all three
    fields; it is kept, so the grids of the other two fields at this t
    make no pass.  The grid values are those of one call of the field's
    public evaluator, which the kept pass answers, so a grid entry and a
    direct call agree bit for bit.  Points whose kernel carries no mass
    are flagged invalid rather than failing the grid: u and a refuse
    such points, so a grid that has some reads its values off its own
    pass, NaN where invalid.  Each pass is one point's alone, so those
    values equal, elementwise, the evaluator's at the valid points.
    """
    # looked up per call, so that a rebound evaluator is the one called
    evaluate = {"rho": eval_rho_sigma, "u": eval_u_sigma,
                "a": eval_a_sigma}.get(which)
    if evaluate is None:
        raise ValueError(f"unknown field {which!r}")
    axes = space_axes(spec)
    pts = tensor_points(axes)
    valid = np.ones(len(pts), dtype=bool)
    if t != 0 and which != "rho":  # the density is defined without kernel mass
        _, den, means, _ = _moments(spec, t, pts)
        valid = den >= spec.tol.denom_floor
    # u and a refuse points without kernel mass, so such a grid reads
    # them off its own pass, whose means are NaN there
    values = evaluate(spec, t, pts) if valid.all() \
        else (means[:, 1:] if which == "a" else means[:, 0]).copy()
    shape = tuple(len(ax) for ax in axes)
    return FieldGrid(t=float(t), axes=axes,
                     values=values.reshape(shape + values.shape[1:]),
                     valid=valid.reshape(shape))


def _noise_ladder(sigmas) -> list[float]:
    """``sigmas`` as floats, checked to be positive, finite and strictly
    decreasing; raises ValueError otherwise."""
    sig = [float(s) for s in sigmas]
    if not sig or not all(0 < s < math.inf for s in sig):
        raise ValueError("sigmas must be positive and finite")
    if not all(b < a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    return sig


def integrate_rho0(spec: ProblemSpec) -> float:
    """Quadrature mass of rho0 over the box (kernel-independent rule).

    The float is ``np.sum`` of the tensor weights times rho0 in node (C)
    order, but no array of every node's weight is formed: the node
    range is split by NumPy's own pairwise rule down to blocks of at
    most ``_BLOCK`` weights, and each block is cut from the whole
    rows along the last axis that hold it, formed as
    ``QuadratureGrid.weights * rho0`` forms them, and summed by
    ``np.add.reduce``.
    """
    scale = min(hi - lo for lo, hi in spec.box) / 64.0
    grid = quadrature_grid(spec.box, scale,
                           nodes_per_panel=spec.tol.nodes_per_panel)
    *lead_x, last_x = grid.axis_nodes
    *lead_w, last_w = grid.axis_weights
    lead_shape, m = tuple(len(w) for w in lead_w), len(last_w)

    def block(a: int, b: int) -> np.ndarray:
        r0, r1 = a // m, -(-b // m)
        idx = np.unravel_index(np.arange(r0, r1), lead_shape) if lead_shape else ()
        w = np.ones(r1 - r0)
        for wi, i in zip(lead_w, idx):
            w *= wi[i]
        w = np.multiply.outer(w, last_w)
        # rho0 at the rows' nodes, its columns broadcasting to (rows, m)
        w *= spec.init.on_columns(spec.init.rho0_program,
                                  [x[i][:, None] for x, i in zip(lead_x, idx)]
                                  + [last_x])[0]
        return w.ravel()[a - r0 * m:b - r0 * m]

    def total(a: int, b: int) -> float:
        if b - a <= _BLOCK:
            return _sum(block(a, b))
        half = (b - a) // 2
        half -= half % 8
        return total(a, a + half) + total(a + half, b)

    return float(total(0, math.prod(lead_shape) * m))


def integrate_rho_sigma(spec: ProblemSpec, t: float,
                        margin: float | None = None) -> float:
    """Integrate the computed rho_sigma field over an enlarged box.

    Mass is conserved only when the transported kernel support stays
    inside the integration domain, so each axis is padded by the largest
    flow displacement plus the kernel cutoff radius (overridable via
    ``margin``).  Cost is one kernel pass per node of an n-dimensional
    tensor rule, summed in node order.  That suits n = 1.  In 2D it
    does not finish at the default tolerances: on ``gaussian_bump_2d``
    at t = 0.3 the rule has 1096^2 = 1.2 million nodes, each a pass of
    up to about 0.4 ms.
    """
    if t == 0:
        return integrate_rho0(spec)
    if margin is None:
        margin = _support_reach(spec, t)
    big_box = [(lo - margin, hi + margin) for lo, hi in spec.box]
    scale = spec.sigma * math.sqrt(t)
    grid = quadrature_grid(big_box, scale,
                           nodes_per_panel=spec.tol.nodes_per_panel,
                           max_panels=spec.tol.max_panels)
    rho = eval_rho_sigma(spec, t, tensor_points(grid.axis_nodes))
    # cumsum adds in node order, as a running total would
    return float(np.cumsum(grid.weights * rho)[-1])
