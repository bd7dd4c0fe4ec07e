"""Moment-balance identities and their covariance source terms."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from charstoch import (
    EmptyKernelSupport,
    NearBlowup,
    attach_ratios,
    eval_a_bar,
    eval_a_sigma,
    eval_field_grid,
    eval_I_a_sigma,
    eval_I_u_sigma,
    eval_rho_bar,
    eval_rho_sigma,
    eval_u_sigma,
    i_term_persistence,
    load_problem,
    residual_pressureless,
    residual_sigma_system,
    solve_implicit,
)
from charstoch import balance, representation
from charstoch.balance import _fields_sigma
from charstoch.characteristics import classical_fields
from charstoch.problem import _batched, _point_rows, _refuse
from charstoch.representation import _kernel_means, _table_for

BUMP_2D = Path(__file__).resolve().parent.parent / "configs" / "gaussian_bump_2d.json"


def make(**overrides):
    cfg = {
        "n": 1,
        "a": ["u"],
        "u0": "sin(x1)",
        "rho0": "1",
        "sigma": 0.1,
        "box": [[-2 * math.pi, 2 * math.pi]],
        "space_grid": [41],
        "time_points": [0.25, 0.5, 0.75],
    }
    cfg.update(overrides)
    return load_problem(json.dumps(cfg))


@pytest.fixture(scope="module")
def burgers():
    return make()


def probe_cases(burgers):
    """(spec, t, x): three burgers_sin points and one 2D bump point."""
    bump2d = make(n=2, a=["u", "u"], u0="exp(-x1^2-x2^2)", sigma=0.2,
                  box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[11, 11],
                  time_points=[0.3])
    return [(burgers, 0.5, np.array([x])) for x in (-1.0, 0.4, 2.0)] \
        + [(bump2d, 0.3, np.array([0.3, -0.2]))]


def test_constant_profile_kills_u_source():
    spec = make(u0="2", rho0="exp(-x1^2)", box=[[-6.0, 6.0]])
    assert eval_I_u_sigma(spec, 0.5, np.array([0.3])) == 0.0


def test_velocity_constant_in_u_and_t_kills_a_source():
    spec = make(a=["1"])
    out = eval_I_a_sigma(spec, 0.5, np.array([0.3]))
    np.testing.assert_array_equal(out, [0.0])


def test_burgers_sources_coincide(burgers):
    """With a(u) = u the two covariance integrals are the same integral."""
    for x in (-1.0, 0.4, 2.0):
        iu = eval_I_u_sigma(burgers, 0.5, np.array([x]))
        ia = eval_I_a_sigma(burgers, 0.5, np.array([x]))
        assert ia[0] == iu


def eval_I_u_sigma_assembled(spec, t, x):
    """I_u rebuilt from raw gradient moments of 1, u, a_k and u a_k.

    Algebraically identical to eval_I_u_sigma; a reference assembly for
    cross-checks, with kernel passes of its own.
    """
    if t <= 0:
        raise ValueError("I-term evaluation requires t > 0")
    X, shape = _point_rows(x, spec.n)
    table = _table_for(spec, t)[0]
    n, norm, floor = spec.n, table.norm, spec.tol.denom_floor
    s2t = spec.sigma * spec.sigma * t
    out = np.empty(len(X))
    for p, xp in enumerate(X.tolist()):
        idx, wk, den, rows, means = _kernel_means(table, xp, floor)
        # the rows and means are per column; each field reads its column's
        (u0v, *avals), (u, *a) = ([c[j] for j in table.of] for c in (rows, means))
        if den < floor:
            _refuse(EmptyKernelSupport, True, X[p:p + 1], t, "no kernel mass")
        total = 0.0
        for k in range(n):
            gk = (table.axes[k].take(idx) - xp[k]) / s2t
            m_one = norm * np.sum(wk * gk)
            m_u = norm * np.sum(wk * u0v * gk)
            m_a = norm * np.sum(wk * avals[k] * gk)
            m_ua = norm * np.sum(wk * u0v * avals[k] * gk)
            total += m_ua - u * m_a - a[k] * m_u + u * a[k] * m_one
        out[p] = total
    return _batched(out, shape)


def test_assembled_moments_agree_with_direct(burgers):
    for t in (0.3, 0.5):
        for x in np.linspace(-3.0, 3.0, 7):
            direct = eval_I_u_sigma(burgers, t, np.array([x]))
            assembled = eval_I_u_sigma_assembled(burgers, t, np.array([x]))
            assert assembled == pytest.approx(direct, abs=1e-8)


def test_constant_data_gives_exactly_zero_sources_2d():
    """Constant u0 in 2D with a = (2 u, u): every column of the table is
    constant, so its mean is that constant and each deviation is exactly
    zero, and I_u and I_a vanish exactly."""
    c = 0.7
    spec = make(n=2, a=["2*u", "u"], u0="0.7", rho0="exp(-x1^2-x2^2)", sigma=0.3,
                box=[[-4.0, 4.0], [-4.0, 4.0]], space_grid=[9, 9], time_points=[0.5])
    x = np.array([[0.3, -0.2], [1.0, 0.5], [-2.5, 2.0]])
    iu = eval_I_u_sigma(spec, 0.5, x)
    ia = eval_I_a_sigma(spec, 0.5, x)
    np.testing.assert_array_equal(iu, 0.0)
    np.testing.assert_array_equal(ia, 0.0)
    np.testing.assert_array_equal(eval_u_sigma(spec, 0.5, x), c)
    np.testing.assert_array_equal(eval_a_sigma(spec, 0.5, x), [[2 * c, c]] * 3)


def test_i_terms_require_positive_time(burgers):
    with pytest.raises(ValueError):
        eval_I_u_sigma(burgers, 0.0, np.array([0.0]))


def test_constant_data_residuals_vanish():
    spec = make(a=["1"], u0="2", rho0="1", sigma=0.3,
                box=[[-10.0, 10.0]], space_grid=[21], time_points=[0.5])
    for row in residual_sigma_system(spec, (0.3, 0.5), (0.2, 0.1)):
        assert row.max_residual <= 1e-10


def test_source_terms_shift_their_residuals(monkeypatch):
    """Constant data make every residual vanish, so I terms replaced by
    constants come out as the residuals of the u and velocity moments
    at every probe and time; the mass balance has no source and stays
    at 0."""
    line = make(a=["1"], u0="2", rho0="1", sigma=0.3,
                box=[[-10.0, 10.0]], space_grid=[21], time_points=[0.5])
    plane = make(n=2, a=["1", "0.5"], u0="2", rho0="1", sigma=0.5,
                 box=[[-5.0, 5.0], [-5.0, 5.0]], space_grid=[11, 11],
                 time_points=[0.5])
    monkeypatch.setattr(balance, "eval_I_u_sigma",
                        lambda spec, t, x: np.full(len(x), 0.125))
    monkeypatch.setattr(balance, "eval_I_a_sigma",
                        lambda spec, t, x: np.full((len(x), spec.n), 0.25))
    for spec in (line, plane):
        rows = residual_sigma_system(spec, (0.3, 0.5), (0.2, 0.1))
        assert [r.equation for r in rows] == \
            ["mass_sigma", "momentum_u_sigma"] \
            + [f"momentum_a_sigma_{i + 1}" for i in range(spec.n)]
        for row, c in zip(rows, [0.0, 0.125] + [0.25] * spec.n):
            assert row.max_residual == pytest.approx(c, abs=1e-9)
            assert row.l1_residual == pytest.approx(c, abs=1e-9)


def test_sigma_system_second_order_refinement(burgers):
    coarse = residual_sigma_system(burgers, (0.3, 0.5), (0.08, 0.032))
    fine = residual_sigma_system(burgers, (0.3, 0.5), (0.04, 0.016))
    attach_ratios(coarse, fine)
    names = [r.equation for r in fine]
    assert names == ["mass_sigma", "momentum_u_sigma", "momentum_a_sigma_1"]
    for r in fine:
        assert 2.5 <= r.ratio <= 6.0
    for r in coarse:
        assert r.ratio is None


SMOOTHED = (eval_rho_sigma, eval_u_sigma, eval_a_sigma, eval_I_u_sigma,
            eval_I_a_sigma, eval_I_u_sigma_assembled)


def test_residual_sigma_fields_are_the_public_evaluators(burgers):
    """The residual path and the pointwise evaluators share one kernel
    pass, so they agree bit for bit; a batch equals its per-point
    calls."""
    for spec, t, x in probe_cases(burgers):
        rho, u, a = _fields_sigma(spec, t, x)
        assert rho == eval_rho_sigma(spec, t, x)
        assert u == eval_u_sigma(spec, t, x)
        assert np.array_equal(a, eval_a_sigma(spec, t, x))
    X = np.stack([x for spec, _, x in probe_cases(burgers) if spec is burgers])
    for evaluate in SMOOTHED:
        batch = evaluate(burgers, 0.5, X)
        for p, x in enumerate(X):
            one = evaluate(burgers, 0.5, x)
            assert type(one) is float or one.shape == (1,)  # a or I_a
            np.testing.assert_array_equal(batch[p], one)
    # a batch is refused at its first point without kernel mass, except
    # by the density, which is defined there
    narrow = make(rho0="exp(-400*x1^2)", box=[[-8.0, 8.0]], sigma=0.05,
                  space_grid=[17], time_points=[0.1])
    grid = np.linspace(-8.0, 8.0, 17)[:, None]
    for evaluate in SMOOTHED[1:]:
        with pytest.raises(EmptyKernelSupport, match=r"t=0\.1, x=\[-8\.0\]$"):
            evaluate(narrow, 0.1, grid)
    assert eval_rho_sigma(narrow, 0.1, grid).shape == (17,)


def count_passes(monkeypatch) -> list:
    """Start from no kept kernel results; the returned list grows by one
    per kernel pass."""
    passes = []
    real = representation._gaussian_pass

    def counting(src, x):
        passes.append(x)
        return real(src, x)

    monkeypatch.setattr(representation, "_gaussian_pass", counting)
    representation._slot.clear()
    return passes


@pytest.mark.parametrize("first", [eval_I_u_sigma, eval_I_a_sigma])
def test_i_terms_share_one_pass_per_point(monkeypatch, first):
    """I_u and I_a at the same P points cost P kernel passes together, in
    either order, and equal the per-point calls and a cold recomputation
    bit for bit, in 2D and on a 1D line with a = u^2 / 2."""
    bump = make(n=2, a=["u", "u^2/2"], u0="exp(-x1^2-x2^2)", sigma=0.2,
                box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[11, 11],
                time_points=[0.3])
    line = make(a=["u^2/2"], u0="0.7+0.2*sin(x1)", rho0="exp(-x1^2)", sigma=0.3,
                box=[[-6.0, 6.0]], space_grid=[25], time_points=[0.5])
    second = eval_I_a_sigma if first is eval_I_u_sigma else eval_I_u_sigma
    passes = count_passes(monkeypatch)
    for spec, t, X in ((bump, 0.3, np.array([[0.3, -0.2], [0.0, 0.5], [1.0, 1.0]])),
                       (line, 0.5, np.linspace(-2.0, 2.0, 5)[:, None])):
        passes.clear()
        pair = {f: f(spec, t, X) for f in (first, second)}
        assert len(passes) == len(X)
        # callers get copies: writing into one changes nothing kept
        for f in (first, second):
            f(spec, t, X).fill(0.0)
        assert len(passes) == len(X)
        for f in (first, second):
            np.testing.assert_array_equal(f(spec, t, X), pair[f])
            for p, x in enumerate(X):
                np.testing.assert_array_equal(f(spec, t, x), pair[f][p])
        representation._slot.clear()
        for f in (second, first):
            np.testing.assert_array_equal(f(spec, t, X), pair[f])
    assert np.all(pair[eval_I_a_sigma] != 0.0)


def test_i_term_pair_recomputed_for_new_sigma_time_or_points(monkeypatch, burgers):
    X = np.linspace(-2.0, 2.0, 5)[:, None]
    passes = count_passes(monkeypatch)
    eval_I_u_sigma(burgers, 0.5, X)
    for spec, t, pts in ((burgers.with_sigma(0.05), 0.5, X), (burgers, 0.4, X),
                         (burgers, 0.5, X + 0.1), (burgers, 0.5, X[:3]),
                         (burgers, 0.5, X)):
        passes.clear()
        eval_I_a_sigma(spec, t, pts)
        assert len(passes) == len(pts), (spec.sigma, t, pts)


def test_refused_i_term_batch_stores_nothing(monkeypatch):
    """A batch refused part way keeps no pair, so no later call can be
    answered from it, and the pair kept before it stays."""
    narrow = make(rho0="exp(-400*x1^2)", box=[[-8.0, 8.0]], sigma=0.05,
                  space_grid=[17], time_points=[0.1])
    grid = np.linspace(-8.0, 8.0, 17)[8:, None]  # x = 0, 1, ..., 8
    inner = np.array([[0.0], [0.01]])
    passes = count_passes(monkeypatch)
    iu = eval_I_u_sigma(narrow, 0.1, inner)
    for evaluate in (eval_I_u_sigma, eval_I_a_sigma, eval_I_u_sigma):
        passes.clear()
        with pytest.raises(EmptyKernelSupport, match=r"t=0\.1, x=\[2\.0\]$"):
            evaluate(narrow, 0.1, grid)
        assert len(passes) == 3  # x = 0 and 1, then the refused x = 2
    passes.clear()
    np.testing.assert_array_equal(eval_I_u_sigma(narrow, 0.1, inner), iu)
    assert passes == []


NARROW = dict(rho0="exp(-400*x1^2)", box=[[-8.0, 8.0]], sigma=0.05,
              space_grid=[17], time_points=[0.1])


@pytest.mark.parametrize("order", list(itertools.permutations(("rho", "u", "a"))))
def test_field_grids_share_one_pass_per_point(monkeypatch, order):
    """The rho, u and a grids at one (spec, t) cost one kernel pass per
    grid point together, in any order, and equal grids computed with
    nothing kept.  The narrow rho0 leaves 14 of 17 points without
    kernel mass."""
    bump = load_problem(BUMP_2D.read_text())
    passes = count_passes(monkeypatch)
    for spec, t in ((bump, 0.3), (make(**NARROW), 0.1)):
        passes.clear()
        grids = [eval_field_grid(spec, t, which) for which in order]
        assert len(passes) == grids[0].valid.size
        for which, grid in zip(order, grids):
            representation._slot.clear()
            cold = eval_field_grid(spec, t, which)
            np.testing.assert_array_equal(grid.values, cold.values)
            np.testing.assert_array_equal(grid.valid, cold.valid)
        assert np.count_nonzero(grids[order.index("u")].valid) \
            == (121 if spec is bump else 3)


def test_kept_fields_are_copies_and_recomputed_for_new_sigma_time_or_points(
        monkeypatch, burgers):
    X = np.linspace(-2.0, 2.0, 5)[:, None]
    passes = count_passes(monkeypatch)
    fields = [f(burgers, 0.5, X) for f in (eval_rho_sigma, eval_u_sigma, eval_a_sigma)]
    assert len(passes) == len(X)  # rho's pass answers u and a
    for f in (eval_rho_sigma, eval_u_sigma, eval_a_sigma):
        f(burgers, 0.5, X).fill(0.0)
    rho, u, a = _fields_sigma(burgers, 0.5, X)
    u.fill(0.0)
    a.fill(0.0)
    assert len(passes) == len(X)
    for f, kept in zip((eval_rho_sigma, eval_u_sigma, eval_a_sigma), fields):
        np.testing.assert_array_equal(f(burgers, 0.5, X), kept)
    for spec, t, pts in ((burgers.with_sigma(0.05), 0.5, X), (burgers, 0.4, X),
                         (burgers, 0.5, X + 0.1), (burgers, 0.5, X[:3]),
                         (burgers, 0.5, X)):
        passes.clear()
        eval_a_sigma(spec, t, pts)
        assert len(passes) == len(pts), (spec.sigma, t, pts)
    # the I terms need every node of a pass, not only the kept means,
    # and their pass then answers the fields
    passes.clear()
    eval_I_u_sigma(burgers, 0.5, X)
    assert len(passes) == len(X)
    np.testing.assert_array_equal(eval_u_sigma(burgers, 0.5, X), fields[1])
    assert len(passes) == len(X)


def test_sigma_residuals_reuse_the_i_term_pass_at_probes(monkeypatch, burgers):
    """One residual_sigma_system call on burgers_sin costs (J+1)(2n+1)P
    kernel passes, the fields at the probes coming from the I-term
    pass, and reports exactly what it reports with nothing kept before
    any field call, which costs (J+1)(2n+2)P."""
    window, (h, dt) = (0.3, 0.5), (0.2, 0.05)
    J, n = 4, 1
    P = len(balance._probe_points(
        burgers, h + representation._support_reach(burgers, window[1])))
    passes = count_passes(monkeypatch)
    reports = residual_sigma_system(burgers, window, (h, dt))
    assert len(passes) == (J + 1) * (2 * n + 1) * P

    def cold(spec, t, x):
        representation._slot.clear()
        return _fields_sigma(spec, t, x)

    monkeypatch.setattr(balance, "_fields_sigma", cold)
    passes.clear()
    assert residual_sigma_system(burgers, window, (h, dt)) == reports
    assert len(passes) == (J + 1) * (2 * n + 2) * P


def test_sigma_system_second_order_refinement_2d():
    """test_06's band on the 2D bump with a = (u, u^2/2), whose second
    velocity moment is its own law, with its own n-component I_a."""
    cfg = json.loads(BUMP_2D.read_text())
    spec = load_problem(json.dumps(dict(cfg, a=["u", "u^2/2"])))
    coarse = residual_sigma_system(spec, (0.3, 0.5), (0.2, 0.04))
    fine = residual_sigma_system(spec, (0.3, 0.5), (0.1, 0.02))
    attach_ratios(coarse, fine)
    by_eq = {r.equation: r for r in fine}
    assert list(by_eq) == ["mass_sigma", "momentum_u_sigma",
                           "momentum_a_sigma_1", "momentum_a_sigma_2"]
    for r in fine:
        assert 2.8 <= r.ratio <= 5.2, f"{r.equation}: ratio {r.ratio:.2f}"
    assert by_eq["momentum_a_sigma_2"].max_residual \
        != by_eq["momentum_u_sigma"].max_residual


def test_classical_fields_are_the_public_evaluators(burgers):
    for spec, t, x in probe_cases(burgers):
        rho, u, a = classical_fields(spec, t, x)
        assert rho == eval_rho_bar(spec, t, x)
        assert u == solve_implicit(spec, t, x)
        assert np.array_equal(a, eval_a_bar(spec, t, x))


def test_pressureless_second_order_refinement(burgers):
    coarse = residual_pressureless(burgers, (0.2, 0.4), (0.08, 0.032))
    fine = residual_pressureless(burgers, (0.2, 0.4), (0.04, 0.016))
    attach_ratios(coarse, fine)
    for r in fine:
        assert 2.5 <= r.ratio <= 6.0
    assert [r.equation for r in fine] == ["mass_bar", "momentum_u_bar",
                                          "momentum_a_bar_1"]


@pytest.mark.parametrize("a", [["u", "u"], ["u", "u^2/2"]])
def test_pressureless_second_order_refinement_2d(a):
    """test_07's band on the 2D bump.  The coarser pair 0.2:0.04 ->
    0.1:0.02 gives a momentum ratio of 2.79, below the band, so the
    first pair that enters it, 0.1:0.02 -> 0.05:0.01, is the one
    checked.  With a = (u, u^2/2) the second velocity moment is its own
    law, apart from the u moment."""
    cfg = json.loads(BUMP_2D.read_text())
    spec = load_problem(json.dumps(dict(cfg, a=a)))
    coarse = residual_pressureless(spec, (0.2, 0.4), (0.1, 0.02))
    fine = residual_pressureless(spec, (0.2, 0.4), (0.05, 0.01))
    attach_ratios(coarse, fine)
    by_eq = {r.equation: r for r in fine}
    assert list(by_eq) == ["mass_bar", "momentum_u_bar", "momentum_a_bar_1",
                           "momentum_a_bar_2"]
    for r in fine:
        assert 2.8 <= r.ratio <= 5.2, f"{r.equation}: ratio {r.ratio:.2f}"
    u_row, a2_row = by_eq["momentum_u_bar"], by_eq["momentum_a_bar_2"]
    assert by_eq["momentum_a_bar_1"].max_residual == u_row.max_residual
    if a[1] == "u":
        assert a2_row.max_residual == u_row.max_residual
    else:
        assert a2_row.max_residual != u_row.max_residual
        assert a2_row.ratio != u_row.ratio


def test_pressureless_refuses_window_near_blowup(burgers):
    with pytest.raises(NearBlowup):
        residual_pressureless(burgers, (0.5, 0.95), (0.04, 0.016))


def test_window_validation(burgers):
    with pytest.raises(ValueError):
        residual_sigma_system(burgers, (0.5, 0.3), (0.04, 0.016))
    with pytest.raises(ValueError):
        residual_sigma_system(burgers, (0.0, 0.2), (0.04, 0.016))
    with pytest.raises(ValueError):
        residual_sigma_system(burgers, (0.3, 0.5), (0.04, 0.4))
    with pytest.raises(ValueError):
        residual_sigma_system(burgers, (0.3, 0.5), (-0.1, 0.016))
    for end in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            residual_sigma_system(burgers, (0.3, end), (0.08, 0.032))
        with pytest.raises(ValueError, match="finite"):
            residual_pressureless(burgers, (end, 0.5), (0.08, 0.032))
    with pytest.raises(ValueError, match="finite"):
        residual_pressureless(burgers, (-0.5, 0.2), (0.1, 0.05))


def test_persistence_rows_and_validation(burgers):
    rows = i_term_persistence(burgers, [0.2, 0.1], 0.5)
    assert [r.sigma for r in rows] == [0.2, 0.1]
    assert rows[0].i_u_sup > rows[1].i_u_sup > 0.0
    assert rows[0].i_a_sup.shape == (1,)
    with pytest.raises(ValueError):
        i_term_persistence(burgers, [0.1, 0.2], 0.5)
    with pytest.raises(ValueError):
        i_term_persistence(burgers, [], 0.5)
    with pytest.raises(ValueError):
        i_term_persistence(burgers, [0.1], 0.0)
