"""Problem definition: velocity field, initial data, and solver settings.

A problem is the Cauchy data for a multidimensional scalar conservation
law in nonconservative form,

    d/dt u + sum_i a_i(u) d/dx_i u = 0,      u(0, x) = u0(x),

where a = f'(u) is the velocity of the flux f, together with an initial
density rho0 weighting the characteristics, a noise amplitude sigma for
the stochastic regularization, a bounding box that truncates all
quadratures, and numerical tolerances.

Everything downstream works off the flow displacement

    A_i(t, u) = t * a_i(u),

and its u-derivative B_i(t, u) = t * da_i/du(u).  Every derivative is
exact: ``load_problem`` differentiates u0 and a once
(:func:`charstoch.expr.diff`).  The config keys ``a_u`` and ``grad_u0``
are optional checks against the derived trees, never evaluated
otherwise.

``InitialData`` and ``VelocityField`` compile their trees once, into the
programs of :mod:`charstoch.expr`; u0 and its gradient are one program.
The pointwise API takes points of shape (..., n).  The one evaluator of
initial data, ``InitialData.on_columns``, takes any columns that
broadcast together and returns each value as the program made it.
Tensor-product samples, such as a table's nodes, the blow-up grid and
the sample on which ``load_problem`` checks u0 and rho0 (about 2e5
points, and at least 201 per axis up to 201^3 points: 201^3 in 3D,
53^4 in 4D), are never formed as points: their columns are the
``axis_views``, axis i as a view of shape (1, .., m_i, .., 1), so a
subtree in one variable costs one axis and only a subtree mixing
variables costs the grid.  Every scan of such a sample walks it in
``_axis_blocks`` of at most ``_BLOCK`` points, the one block size of
the package's blocked scans, and reads the values so broadcast, without
expanding them.

The module also holds the package's one CSV writer, ``_write_csv``, and
its block size ``_CSV_ROWS``: field grids, particle dumps and the CLI's
tables all go through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, ExprError, SchemaError, ValidationError

__all__ = [
    "ProblemSpec",
    "VelocityField",
    "InitialData",
    "Tolerances",
    "load_problem",
    "flow_displacement",
    "displacement_components",
    "du_displacement_components",
]

logger = logging.getLogger(__name__)

_FLOAT_MAX = float(np.finfo(float).max)

# points per block of every blocked scan: a tensor sample
# (``_axis_blocks``), the rho0 mass rule and the particle rows
_BLOCK = 1 << 16

# rows per block of a large CSV table (a field grid, a particle dump),
# each block formatted by one ``%`` call in ``_write_csv``
_CSV_ROWS = 4096


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs with safe defaults; all overridable per problem.

    ``nodes_per_panel`` names the reference rule of the quadrature
    tables: that many Gauss-Legendre nodes on panels one kernel width
    sigma*sqrt(t) wide.  A table uses 16 nodes per panel, on panels as
    wide as its error model allows while erring no more than half the
    reference rule at the table's stretch, and never denser than the
    reference rule (see ``representation._build_table``), so the knob
    sets the accuracy, not the node count.  ``integrate_rho0`` and ``integrate_rho_sigma``
    still use nodes_per_panel nodes per panel directly.  ``max_panels``
    caps the panels per axis of the tables and of ``integrate_rho_sigma``'s
    rule; ``integrate_rho0``'s rule, 64 panels along the shortest side of
    the box, keeps ``panel_count``'s own cap of 4096.
    """

    kernel_cutoff: float = 8.0     # kernel cut at this many kernel widths:
                                   # sigma*sqrt(t), or the particle bandwidth
    newton_tol: float = 1e-12      # residual tolerance of root finders
    max_iter: int = 100            # iteration cap of root finders
    denom_floor: float = 1e-250    # raw weighted-mass floor for ratio fields
    near_blowup_margin: float = 1e-6  # gradient-denominator floor
    blowup_grid: int = 10_000      # blow-up search points per axis (capped)
    nodes_per_panel: int = 8       # nodes per panel of the reference rule
    max_panels: int = 4096         # spatial panels per axis, hard cap


@dataclass(frozen=True)
class VelocityField:
    """Velocity components a_i(u) and the trees of their exact
    derivatives da_i/du, derived from the components on load.  Each
    tuple of trees is compiled once per field, on first use, into one
    program: ``a_program`` and ``du_program``.
    """

    components: tuple[ex.Expr, ...]
    du_components: tuple[ex.Expr, ...]

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def a_program(self) -> ex.Program:
        return ex.compile_exprs(self.components)

    @cached_property
    def du_program(self) -> ex.Program:
        return ex.compile_exprs(self.du_components)

    def a_values(self, u) -> list[np.ndarray]:
        """Evaluate every component on an array of u values (shared
        arrays, see ``_values``)."""
        return _values(self.a_program, u)


@dataclass(frozen=True)
class InitialData:
    """Initial profile u0, characteristic density rho0, and the trees of
    grad u0 derived from u0.

    Each is compiled once, on first use: ``u0_program``,
    ``rho0_program`` and ``jet_program``, which computes u0 and then its
    gradient in one program, so the subexpressions they share are
    computed once.
    """

    n: int
    u0: ex.Expr
    rho0: ex.Expr
    grad_u0: tuple[ex.Expr, ...]

    @cached_property
    def u0_program(self) -> ex.Program:
        return ex.compile_exprs((self.u0,))

    @cached_property
    def rho0_program(self) -> ex.Program:
        return ex.compile_exprs((self.rho0,))

    @cached_property
    def jet_program(self) -> ex.Program:
        return ex.compile_exprs((self.u0, *self.grad_u0))

    def on_columns(self, program: ex.Program, columns) -> list:
        """The trees of ``program`` in x1..xn at the points whose
        coordinates are ``columns``, arrays that broadcast to the points'
        shape, each value as the program made it: a float for a constant
        tree, else an array that may be one of the columns, so callers
        must not write into it.

        The columns may be those of the points or, for a tensor product,
        its ``axis_views``: then a subtree costs the axes its variables
        span, no point is formed, and every element gets the operations
        and domain checks it gets on ``tensor_columns``, so the values,
        broadcast, and any EvalDomainError are the same."""
        env = {f"x{i + 1}": c for i, c in enumerate(columns)}
        return list(ex.eval_expr(program, env))

    def _at(self, program: ex.Program, pts) -> list[np.ndarray]:
        """``on_columns`` on points of shape (..., n), as one new or
        computed float array of shape (...) per tree."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        columns = [pts[..., i] for i in range(self.n)]
        return _arrays(self.on_columns(program, columns), pts.shape[:-1], columns)

    def u0_at(self, pts) -> np.ndarray:
        """u0 on points of shape (..., n), returned with shape (...)."""
        return self._at(self.u0_program, pts)[0]

    def rho0_at(self, pts) -> np.ndarray:
        return self._at(self.rho0_program, pts)[0]

    def jet_at(self, pts) -> list[np.ndarray]:
        """u0 and then du0/dx_1..du0/dx_n on points of shape (..., n),
        each with shape (...), from one program."""
        return self._at(self.jet_program, pts)

    def grad_u0_at(self, pts) -> np.ndarray:
        """Exact gradient of u0 on points (..., n) -> (..., n).

        Raises EvalDomainError at a point where u0 has no derivative,
        e.g. abs(x1) at x1 = 0.
        """
        return np.stack(self.jet_at(pts)[1:], axis=-1)


@dataclass(frozen=True)
class ProblemSpec:
    """Validated, immutable bundle of one problem instance."""

    n: int
    velocity: VelocityField
    init: InitialData
    sigma: float
    box: tuple[tuple[float, float], ...]
    space_grid: tuple[int, ...]
    time_points: tuple[float, ...]
    tol: Tolerances
    rng_seed: int
    u_range: tuple[float, float]  # u0 range over the box, inflated by 1%

    @property
    def box_volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.box]))

    def with_sigma(self, sigma: float) -> "ProblemSpec":
        return dataclasses.replace(self, sigma=float(sigma))

    @cached_property
    def digest(self) -> str:
        """Content hash of the resolved problem: the SHA-256 of its
        ``repr``.  Every field enters, expressions as the ``repr`` of
        their parsed trees, which are frozen dataclasses printing each
        constant as its shortest round-trip float, so two problems share
        a digest exactly when they are equal, however their sources were
        spelled."""
        return hashlib.sha256(repr(self).encode()).hexdigest()


def _arrays(values, shape, inputs=()) -> list[np.ndarray]:
    """Evaluation results as float arrays of ``shape``.  A float array
    of that shape is kept as it is, unless it is one of ``inputs``;
    anything else is broadcast into a new array, once per object, so
    results that are one object stay one array."""
    made: dict[int, np.ndarray] = {}
    out = []
    for v in values:
        if isinstance(v, np.ndarray) and v.shape == shape and v.dtype == float \
                and all(v is not c for c in inputs):
            out.append(v)
            continue
        a = made.get(id(v))
        if a is None:
            a = made[id(v)] = np.empty(shape, dtype=float)
            a[...] = v
        out.append(a)
    return out


def _values(program: ex.Program, u) -> list[np.ndarray]:
    """The trees of ``program`` in u on an array of u values.  Equal
    trees give one array, and a tree that is u gives the u array itself,
    so callers must not write into the results."""
    u_arr = np.asarray(u, dtype=float)
    return _arrays(ex.eval_expr(program, {"u": u_arr}), u_arr.shape)


def _times_t(program: ex.Program, t: float, u) -> list:
    """t times each tree of ``program`` in u, as computed: exactly 0.0
    at t = 0, else a scalar for a tree without u and an array of u's
    shape for a tree with u, never one callers may write into; equal
    trees give one value.  A tree without u is so multiplied once, where
    every element would take the same arithmetic."""
    if t == 0:
        return [0.0] * len(program.trees)
    t = float(t)
    values = ex.eval_expr(program, {"u": np.asarray(u, dtype=float)})
    scaled: dict[int, object] = {}
    for v in values:
        if id(v) not in scaled:
            scaled[id(v)] = t * v
    return [scaled[id(v)] for v in values]


def _point_rows(x, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Points of shape (..., n) as rows (P, n), and the batch shape (...)."""
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    return x.reshape(shape + (n,)).reshape(-1, n), shape


def _batched(values: np.ndarray, shape):
    """Per-row values (P, ...) in the batch shape; a float for one point."""
    values = values.reshape(shape + values.shape[1:])
    return float(values) if values.ndim == 0 else values


def _refuse(error, fail: np.ndarray, X: np.ndarray, t: float, what: str,
            *values: np.ndarray) -> None:
    """Raise ``error`` at the first row of X where ``fail`` holds, with
    ``what`` formatted by the ``values`` of that row."""
    bad = np.flatnonzero(fail)
    if bad.size:
        i = bad[0]
        head = what.format(*(v[i] for v in values))
        raise error(f"{head} at t={t:g}, x={X[i].tolist()}")


def space_axes(spec: ProblemSpec) -> tuple[np.ndarray, ...]:
    """Axes of the configured output grid over the problem box."""
    return tuple(np.linspace(lo, hi, g)
                 for (lo, hi), g in zip(spec.box, spec.space_grid))


def axis_views(axes) -> list[np.ndarray]:
    """Each 1D axis i of a tensor product as a float view of shape
    (1, .., m_i, .., 1), so that the axes broadcast to the grid."""
    n = len(axes)
    return [np.asarray(ax, dtype=float).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, ax in enumerate(axes)]


def tensor_columns(axes) -> tuple[np.ndarray, ...]:
    """Tensor product of 1D axes as flattened points in C order, one
    C-contiguous coordinate array (M,) per axis.  To evaluate initial
    data on such a product, ``InitialData.on_columns`` takes its
    ``axis_views`` and forms none of these columns."""
    return tuple(m.ravel() for m in np.meshgrid(*axes, indexing="ij"))


def tensor_points(axes) -> np.ndarray:
    """Tensor product of 1D axes as flattened points, shape (M, n), C order."""
    return np.stack(tensor_columns(axes), axis=-1)


# ---------------------------------------------------------------------------
# configuration loading


_TOP_REQUIRED = ("n", "a", "u0", "rho0", "sigma", "box", "space_grid", "time_points")
_TOP_OPTIONAL = ("a_u", "grad_u0", "rng_seed", "tolerances")


def load_problem(config_text: str) -> ProblemSpec:
    """Parse and validate a JSON problem configuration.

    Unknown fields are rejected (SchemaError) so typos cannot silently
    change a run; so is a variable other than u in ``a`` or ``a_u``, the
    velocity being a(u).  Field-level shape/type problems raise
    SchemaError; semantic inconsistencies (negative density, bad box, a
    supplied ``a_u`` or ``grad_u0`` that disagrees with the exact
    derivative of its tree) raise ValidationError.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"configuration is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SchemaError("configuration root must be a JSON object")

    known = set(_TOP_REQUIRED) | set(_TOP_OPTIONAL)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise SchemaError(f"unknown configuration field(s): {', '.join(unknown)}")
    missing = sorted(k for k in _TOP_REQUIRED if k not in raw)
    if missing:
        raise SchemaError(f"missing configuration field(s): {', '.join(missing)}")

    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("'n' must be an integer >= 1")

    u_vars = frozenset({"u"})
    x_vars = frozenset(f"x{i + 1}" for i in range(n))

    a = _parse_expr_list(raw, "a", n, u_vars)
    a_u = _parse_expr_list(raw, "a_u", n, u_vars) if "a_u" in raw else None
    u0 = _parse_one_expr(raw, "u0", x_vars)
    rho0 = _parse_one_expr(raw, "rho0", x_vars)
    grad_u0 = _parse_expr_list(raw, "grad_u0", n, x_vars) if "grad_u0" in raw else None

    sigma = _require_real(raw, "sigma")
    if sigma < 0:
        raise ValidationError("'sigma' must be >= 0")

    box = _parse_box(raw["box"], n)
    space_grid = _parse_space_grid(raw["space_grid"], n)
    time_points = _parse_time_points(raw["time_points"])
    rng_seed = raw.get("rng_seed", 0)
    if not isinstance(rng_seed, int) or isinstance(rng_seed, bool) or rng_seed < 0 \
            or rng_seed >= 2 ** 64:
        raise SchemaError("'rng_seed' must be an unsigned 64-bit integer")
    tol = _parse_tolerances(raw.get("tolerances", {}))

    velocity = VelocityField(a, tuple(ex.diff(c, "u") for c in a))
    init = InitialData(n, u0, rho0, tuple(ex.diff(u0, f"x{i + 1}") for i in range(n)))

    u_range = _validate_initial_data(init, box, space_grid, grad_u0)
    if a_u is not None:
        us = np.linspace(u_range[0], u_range[1], 20)
        _check("a_u", _max_errors(_values(ex.compile_exprs(a_u), us),
                                  _values(velocity.du_program, us)), "d/du of 'a[{i}]'")

    return ProblemSpec(
        n=n, velocity=velocity, init=init, sigma=float(sigma), box=box,
        space_grid=space_grid, time_points=time_points, tol=tol,
        rng_seed=rng_seed, u_range=u_range,
    )


def _parse_one_expr(raw: dict, key: str, allowed) -> ex.Expr:
    src = raw[key]
    if not isinstance(src, str):
        raise SchemaError(f"'{key}' must be a string expression")
    try:
        return ex.parse(src, allowed)
    except ExprError as e:
        raise SchemaError(f"'{key}': {e}") from e


def _parse_expr_list(raw: dict, key: str, n: int, allowed) -> tuple[ex.Expr, ...]:
    src = raw[key]
    if not isinstance(src, list) or len(src) != n \
            or not all(isinstance(s, str) for s in src):
        raise SchemaError(f"'{key}' must be a list of {n} string expression(s)")
    out = []
    for i, s in enumerate(src):
        try:
            out.append(ex.parse(s, allowed))
        except ExprError as e:
            raise SchemaError(f"'{key}[{i}]': {e}") from e
    return tuple(out)


def _require_real(raw: dict, key: str) -> float:
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise SchemaError(f"'{key}' must be a finite real number")
    return float(v)


def _parse_box(src, n: int) -> tuple[tuple[float, float], ...]:
    if not isinstance(src, list) or len(src) != n:
        raise SchemaError(f"'box' must be a list of {n} [lo, hi] pair(s)")
    out = []
    for i, pair in enumerate(src):
        if not isinstance(pair, list) or len(pair) != 2 \
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair):
            raise SchemaError(f"'box[{i}]' must be a [lo, hi] pair of reals")
        lo, hi = float(pair[0]), float(pair[1])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise SchemaError(f"'box[{i}]' must be finite")
        if not lo < hi:
            raise ValidationError(f"'box[{i}]': need lo < hi, got [{lo}, {hi}]")
        out.append((lo, hi))
    return tuple(out)


def _parse_space_grid(src, n: int) -> tuple[int, ...]:
    if not isinstance(src, list) or len(src) != n \
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in src):
        raise SchemaError(f"'space_grid' must be a list of {n} integer(s)")
    if any(v < 2 for v in src):
        raise ValidationError("'space_grid' entries must be >= 2")
    return tuple(src)


def _parse_time_points(src) -> tuple[float, ...]:
    if not isinstance(src, list) \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in src):
        raise SchemaError("'time_points' must be a list of reals")
    pts = tuple(float(v) for v in src)
    if any(not np.isfinite(v) or v < 0 for v in pts):
        raise ValidationError("'time_points' must be nonnegative and finite")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValidationError("'time_points' must be strictly increasing")
    return pts


def _parse_tolerances(src) -> Tolerances:
    if not isinstance(src, dict):
        raise SchemaError("'tolerances' must be an object")
    types = {f.name: f.type for f in dataclasses.fields(Tolerances)}
    unknown = sorted(set(src) - set(types))
    if unknown:
        raise SchemaError(f"unknown tolerance field(s): {', '.join(unknown)}")
    kwargs = {}
    for key, val in src.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise SchemaError(f"tolerance '{key}' must be a number")
        # chained comparisons refuse NaN, infinities and ints past the
        # float range before int() or float() sees them; the declared
        # types are strings, as the module's annotations are postponed
        if types[key] == "int":
            if not (1 <= val <= _FLOAT_MAX and int(val) == val):
                raise SchemaError(
                    f"tolerance '{key}' must be a finite positive integer")
            kwargs[key] = int(val)
        else:
            if not 0 < val <= _FLOAT_MAX:
                raise ValidationError(f"tolerance '{key}' must be finite and > 0")
            kwargs[key] = float(val)
    return Tolerances(**kwargs)


def _max_errors(got, want) -> list:
    """The max relative error of each supplied ``got[i]`` against the
    exact ``want[i]``: NaN where either holds a NaN."""
    return [np.max(np.abs(w - g) / (1.0 + np.abs(w))) for g, w in zip(got, want)]


def _check(key: str, errors, what: str) -> None:
    """Refuse the first supplied ``key[i]`` whose max relative error
    ``errors[i]`` (see ``_max_errors``) exceeds 1e-6."""
    for i, err in enumerate(errors):
        if not err <= 1e-6:
            raise ValidationError(f"'{key}[{i}]' disagrees with "
                                  f"{what.format(i=i, j=i + 1)} (max relative error {err:.3e})")


def _write_csv(path, header, blocks, row=None, eol="\n") -> None:
    """Write a CSV table: the ``header`` names, then each block of rows
    with one ``%`` call.  A block is a 2D array or a list of row tuples,
    and every cell is ``%.12e`` unless ``row`` gives the row's format.
    ``eol`` ends every line and is written as it is.  Every CSV file the
    package writes is written here."""
    line = (",".join(["%.12e"] * len(header)) if row is None else row) + eol
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + eol)
        for block in blocks:
            cells = block.ravel().tolist() if isinstance(block, np.ndarray) \
                else [cell for r in block for cell in r]
            fh.write((line * len(block)) % tuple(cells))


def _axis_blocks(axes, size: int):
    """The tensor product of ``axes`` as tensor products of sub-axes, in
    C order, each of at most ``size`` points, and of whole rows along
    the last axis where one row fits."""
    inner = math.prod(len(ax) for ax in axes[1:])
    if inner > size and len(axes) > 1:
        for i in range(len(axes[0])):
            for rest in _axis_blocks(axes[1:], size):
                yield [axes[0][i:i + 1], *rest]
        return
    step = max(1, size // inner)
    for a in range(0, len(axes[0]), step):
        yield [axes[0][a:a + step], *axes[1:]]


def _validate_initial_data(init: InitialData, box, space_grid,
                           grad_u0) -> tuple[float, float]:
    """Check u0 and rho0 on a tensor sample of the box, read unexpanded
    on ``axis_views``, and return the u0 range inflated by 1%.

    The sample takes about 2e5 points, and at least 201 per axis up to
    201^3 points in all: 200,000 in 1D, 447^2 in 2D, 201^3 in 3D and
    m^n with m = int(201^(3/n)) past that (53^4 in 4D), each axis
    widened to the space grid where that is finer.

    The sample is read in ``_axis_blocks`` of ``_BLOCK`` points,
    each tree over every block before the next, and the verdicts are
    those of the whole sample: finiteness, sign, the u0 range and the
    max relative error of a supplied grad_u0.  An EvalDomainError of the
    supplied grad_u0 anywhere comes before one of the exact gradient.
    """
    started = time.perf_counter()
    n = len(box)
    per_axis = max(round(2e5 ** (1.0 / n)), min(201, int(201 ** (3.0 / n))))
    axes = [np.linspace(lo, hi, max(per_axis, g)) for (lo, hi), g in zip(box, space_grid)]
    blocks = [axis_views(b) for b in _axis_blocks(axes, _BLOCK)]
    finite = {"u0": True, "rho0": True}
    lo, hi, negative = math.inf, -math.inf, False
    for block in blocks:
        v, = init.on_columns(init.u0_program, block)
        finite["u0"] &= bool(np.all(np.isfinite(v)))
        lo, hi = min(lo, float(np.min(v))), max(hi, float(np.max(v)))
    for block in blocks:
        v, = init.on_columns(init.rho0_program, block)
        finite["rho0"] &= bool(np.all(np.isfinite(v)))
        negative |= bool(np.any(v < 0))
    for key, ok in finite.items():
        if not ok:
            raise ValidationError(f"'{key}' is not finite everywhere on the box")
    if negative:
        raise ValidationError("'rho0' takes negative values on the box")
    if grad_u0 is not None:
        supplied, errors, exact_error = ex.compile_exprs(grad_u0), [], None
        for block in blocks:
            got = init.on_columns(supplied, block)
            if exact_error is None:
                try:
                    want = init.on_columns(init.jet_program, block)[1:]
                except EvalDomainError as e:
                    exact_error = e
                else:
                    errors.append(_max_errors(got, want))
        if exact_error is not None:
            raise exact_error
        # NumPy's max, so a NaN in any block gives NaN, as in one pass
        _check("grad_u0", np.max(errors, axis=0), "d/dx{j} of 'u0'")
    span = hi - lo
    pad = 0.01 * span if span > 0 else 0.01 * max(1.0, abs(hi))
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("initial data checked on a %s tensor sample in %.3f s",
                     "x".join(str(len(ax)) for ax in axes),
                     time.perf_counter() - started)
    return (lo - pad, hi + pad)


# ---------------------------------------------------------------------------
# flow displacement


def displacement_components(spec: ProblemSpec, t: float, u) -> list[np.ndarray]:
    """A_i(t, u) = t * a_i(u) for an array of u values, one array per
    component, exactly 0.0 at t = 0.  Equal components give one array."""
    return _arrays(_times_t(spec.velocity.a_program, t, u), np.shape(u))


def flow_displacement(spec: ProblemSpec, t: float, u: float) -> np.ndarray:
    """A(t, u) as a vector of length n, for a scalar u."""
    return np.stack(displacement_components(spec, t, np.asarray(float(u))))


def du_displacement_components(spec: ProblemSpec, t: float, u) -> list[np.ndarray]:
    """B_i(t, u) = d/du A_i(t, u) = t * da_i/du(u), one array of u's
    shape per component, exactly 0.0 at t = 0; equal components give
    one."""
    return _arrays(_times_t(spec.velocity.du_program, t, u), np.shape(u))
