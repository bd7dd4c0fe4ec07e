"""Composite Gauss-Legendre rules: the error model E(m, rho) and the
matched widths of the table rule tabulated from it."""

import math

import numpy as np
import pytest

from charstoch.quadrature import (MATCHED_LEVEL0, MATCHED_WIDTHS, TABLE_ORDER,
                                  matched_width, panel_rule, rule_error)


def brute_error(order: int, rho: float, shifts: int) -> float:
    """Worst |rule - 1| over ``shifts`` equispaced shifts s in [0, rho)
    of the composite ``order``-node rule with panels rho wide, edges at
    the multiples of rho, summed over [-40 - rho, 40 + rho] on the unit
    Gaussian centred at s."""
    half = math.ceil(40.0 / rho) + 1
    x, w = panel_rule(-half * rho, half * rho, 2 * half, order)
    worst = 0.0
    for s in np.arange(shifts) * (rho / shifts):
        g = np.exp(-0.5 * (x - s) ** 2) / math.sqrt(2.0 * math.pi)
        worst = max(worst, abs(float(np.sum(w * g)) - 1.0))
    return worst


@pytest.mark.parametrize("order", [4, 8, 16])
def test_rule_error_matches_a_brute_force_sum(order):
    """E from Poisson summation is the brute-force sum over the same 64
    shifts to 2e-15 absolute, the rounding of that sum (measured at
    most 1.3e-15, on errors from 1e-24 to 1.6)."""
    rhos = [1.0, 1.364, 2.0, 2.82, 4.0, 5.5, 8.0, 12.0, 20.0]
    got = rule_error(order, np.array(rhos))
    assert got.shape == (len(rhos),)
    for rho, e in zip(rhos, got):
        want = brute_error(order, rho, 64)
        assert abs(e - want) <= 2e-15
        assert abs(float(rule_error(order, rho)) - want) <= 2e-15


def test_rule_error_grows_with_the_panel_width():
    """E(m, .) is nondecreasing on a fine grid, which the matched widths
    assume, and E(16, .) lies below E(8, .)."""
    rho = np.geomspace(1.0, 64.0, 600)
    for order in (8, TABLE_ORDER):
        assert np.all(np.diff(rule_error(order, rho)) >= 0)
    assert np.all(rule_error(TABLE_ORDER, rho) <= rule_error(8, rho))


def test_matched_widths_regenerate_from_rule_error():
    """Each tabulated width is the crossing of E(16, .) with its level,
    found by bisection, rounded down to four digits: the width never
    errs above its level, and the crossing is less than 0.1% wider."""
    levels = 10.0 ** (MATCHED_LEVEL0 + np.arange(len(MATCHED_WIDTHS)) / 10)
    lo, hi = np.ones(len(levels)), np.full(len(levels), 160.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        ok = rule_error(TABLE_ORDER, mid) <= levels
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    widths = np.array(MATCHED_WIDTHS)
    four = np.array([math.floor(c * 10 ** (3 - math.floor(math.log10(c))))
                     / 10 ** (3 - math.floor(math.log10(c))) for c in lo])
    np.testing.assert_array_equal(widths, four)
    assert np.all(rule_error(TABLE_ORDER, widths) <= levels)
    assert np.all(lo < widths * 1.001)


def test_matched_width_takes_the_level_at_or_below_the_target():
    first, last = MATCHED_WIDTHS[0], MATCHED_WIDTHS[-1]
    assert matched_width(10.0 ** MATCHED_LEVEL0) in (first, MATCHED_WIDTHS[1])
    # the default kernel-cutoff tail: 10^-13.9 <= 1.27e-14 < 10^-13.8
    assert matched_width(math.exp(-32.0)) == MATCHED_WIDTHS[6]
    assert matched_width(1e-20) == first
    assert matched_width(0.0) == first
    assert matched_width(1e3) == last
    targets = np.geomspace(1e-15, 10.0, 200)
    for target in targets:
        assert rule_error(TABLE_ORDER, matched_width(target)) <= max(
            target, 10.0 ** MATCHED_LEVEL0)
