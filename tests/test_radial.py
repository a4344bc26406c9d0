"""Radial shooting oracle for the one-orbital concentration threshold."""

import math

import numpy as np
import pytest

from fermivar.radial import (
    BracketError,
    _integrate,
    _series_start,
    gn_constants,
    shoot_soliton,
    shooting_report,
)


# One shared solve per module: the oracle is deterministic and ~seconds.
PROFILE = shoot_soliton()
CONSTS = gn_constants(PROFILE)


def test_profile_shape_and_positivity():
    p = PROFILE
    assert p.r[0] == 0.0
    assert p.r[-1] == pytest.approx(p.r_max)
    assert np.all(np.isfinite(p.w))
    assert np.all(p.w > 0.0)
    # monotone decreasing profile
    assert np.all(np.diff(p.w) < 0.0)
    assert p.w0 == pytest.approx(p.w[1], rel=1e-3)  # w(0+) ~ w0


def test_tail_is_matched_analytic_form():
    p = PROFILE
    tail = p.r > p.match_radius + 1.0
    expected = p.tail_coeff * np.exp(-p.r[tail]) / p.r[tail]
    assert np.allclose(p.w[tail], expected, rtol=1e-12)
    # continuity across the matching radius
    im = int(round(p.match_radius / p.dr))
    left = p.w[im - 1]
    right = p.tail_coeff * math.exp(-p.r[im - 1]) / p.r[im - 1]
    assert abs(left / right - 1.0) < 1e-3


def test_defining_integral_identities():
    # Stationarity forces T = (3/5) I, M = (2/5) I, hence T + M = I.
    c = CONSTS
    assert abs(c.T / c.I - 0.6) < 1e-3
    assert abs(c.M / c.I - 0.4) < 1e-3
    assert abs((c.T + c.M) / c.I - 1.0) < 1e-3
    assert c.a1_star == pytest.approx(c.T * c.M ** (2.0 / 3.0) / c.I, rel=1e-14)


def test_frozen_reference_values():
    # Independent frozen constants (bisection + trapezoid at dr = 2e-3).
    c = CONSTS
    assert c.M == pytest.approx(63.78311578, rel=2e-5)
    assert c.T == pytest.approx(95.67464568, rel=2e-5)
    assert c.I == pytest.approx(159.45778946, rel=2e-5)
    assert c.a1_star == pytest.approx(9.578297, rel=1e-5)


def test_step_size_convergence():
    coarse = gn_constants(shoot_soliton(dr=4e-3))
    assert abs(coarse.a1_star / CONSTS.a1_star - 1.0) < 1e-4
    assert abs(coarse.M / CONSTS.M - 1.0) < 1e-4


def test_bad_bracket_raises():
    with pytest.raises(BracketError):
        shoot_soliton(bracket=(0.1, 0.2))  # both undershoot


def test_shooting_report_contents():
    rep = shooting_report(PROFILE)
    for key in ("w0", "M", "T", "I", "a1_star", "match_radius", "tail_coeff"):
        assert key in rep
    res = rep["residuals"]
    assert res["sum_identity"] < 1e-3
    assert res["kinetic_fraction"] < 1e-3
    assert res["mass_fraction"] < 1e-3


def test_virial_residuals_at_roundoff():
    # With w' read off the profile spline, T = (3/5) I and T + M = I hold to
    # the quadrature's accuracy rather than to a finite difference's.
    res = shooting_report(PROFILE)["residuals"]
    assert res["kinetic_fraction"] < 1e-10
    assert res["sum_identity"] < 1e-10


def _rhs(r, w, dw):
    # w'' = -(2/r) w' + w - |w|^{4/3} w
    return dw, -(2.0 / r) * dw + w - abs(w) ** (4.0 / 3.0) * w


def _reference_integrate(w0, dr, r_max, keep):
    """Textbook RK4 through a right-hand-side function, same stop rules."""
    nsteps = int(round(r_max / dr))
    w, dw = _series_start(w0, dr)
    r = dr
    ws = [w0, w]
    for k in range(1, nsteps):
        k1w, k1v = _rhs(r, w, dw)
        k2w, k2v = _rhs(r + dr / 2, w + dr / 2 * k1w, dw + dr / 2 * k1v)
        k3w, k3v = _rhs(r + dr / 2, w + dr / 2 * k2w, dw + dr / 2 * k2v)
        k4w, k4v = _rhs(r + dr, w + dr * k3w, dw + dr * k3v)
        w = w + dr / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        dw = dw + dr / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r = (k + 1) * dr
        ws.append(w)
        if w <= 0.0:
            return "cross", r, np.array(ws) if keep else None
        if dw > 0.0 and w < 0.5 * w0:
            return "turn", r, np.array(ws) if keep else None
    return "decay", r, np.array(ws) if keep else None


@pytest.mark.parametrize("w0, keep, kind", [
    (10.0, False, "cross"),
    (2.5, True, "turn"),
    (PROFILE.w0, True, None),
])
def test_integrate_matches_reference_rk4_bit_for_bit(w0, keep, kind):
    got = _integrate(w0, PROFILE.dr, PROFILE.r_max, keep=keep)
    ref = _reference_integrate(w0, PROFILE.dr, PROFILE.r_max, keep)
    if kind is not None:
        assert got[0] == kind
    assert got[:2] == ref[:2]
    if keep:
        assert got[2].tobytes() == ref[2].tobytes()
    else:
        assert got[2] is None
