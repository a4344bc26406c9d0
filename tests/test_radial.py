"""Radial shooting oracle for the one-orbital concentration threshold."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import fermivar
from fermivar import radial
from fermivar.radial import (
    BracketError,
    _integrate,
    _series_start,
    gn_constants,
    shoot_soliton,
    shooting_report,
)


# One shared solve per module: the oracle is deterministic and takes a few
# tenths of a second.
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
    assert p.dw[0] == 0.0
    assert np.all(p.dw[1:] < 0.0)


def test_tail_is_matched_analytic_form():
    p = PROFILE
    tail = p.r > p.match_radius + 1.0
    rt = p.r[tail]
    expected = p.tail_coeff * np.exp(-rt) / rt
    assert np.allclose(p.w[tail], expected, rtol=1e-12)
    slope = -p.tail_coeff * np.exp(-rt) * (1.0 / rt + 1.0 / rt**2)
    assert np.allclose(p.dw[tail], slope, rtol=1e-12)
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


@pytest.mark.parametrize("bracket", [
    (10.0, 1.0),  # reversed: the ends disagree, but lo > hi
    (4.0, 4.0),
    (math.nan, 10.0),
    (1.0, math.inf),
])
def test_malformed_bracket_raises(bracket):
    with pytest.raises(BracketError, match="finite with lo < hi"):
        shoot_soliton(bracket=bracket)


def _plain_bisection(tol=1e-12, dr=2e-3, r_max=25.0, bracket=(1.0, 10.0)):
    """One-level bisection at the fine step: the reference shooting root."""
    lo, hi = bracket
    cross_is_high = _integrate(hi, dr, r_max)[0] == "cross"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        kind = _integrate(mid, dr, r_max)[0]
        if kind == "decay":
            return mid
        if (kind == "cross") == cross_is_high:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_coarse_first_shooting_gives_the_fine_root_bit_for_bit():
    assert PROFILE.bisections["coarse_bracket"] == "accepted"
    assert PROFILE.bisections["coarse"] > 0
    assert PROFILE.w0 == _plain_bisection()
    assert PROFILE.w0 == 4.1917233351192351


def test_rejected_coarse_bracket_restarts_at_the_fine_step(monkeypatch):
    # Below the 1.6e-10 shift of the root between the coarse and the fine
    # step, the coarse bracket misses the fine root: the fine step must
    # refuse it and bisect the original bracket itself.
    monkeypatch.setattr(radial, "_HANDOFF_WIDTH", 1e-12)
    profile = shoot_soliton()
    assert profile.bisections["coarse_bracket"] == "rejected"
    assert profile.w0 == PROFILE.w0
    assert profile.bisections["fine"] > PROFILE.bisections["fine"]


def _final_bracket(w0):
    """The final bracket of the default shooting that holds ``w0``."""
    coarse = radial._shooting_side(radial._COARSE_STEPS * PROFILE.dr, PROFILE.r_max, True)
    lo, hi, _ = radial._bisect(1.0, 10.0, radial._HANDOFF_WIDTH, coarse)
    return radial._bisect(lo, hi, 1e-12, lambda mid: mid > w0)[:2]


@pytest.mark.parametrize("brackets_off, checks, fine", [
    (1, 3, 0),  # the neighbour verifies: one more end integrated
    # two neighbours fail too: the coarse bracket's ends are checked, and
    # the fine bisection of that bracket runs
    (3, 6, 17),
])
def test_misplaced_secant_estimate_still_gives_the_fine_root(
        monkeypatch, brackets_off, checks, fine):
    # an estimate in the wrong final bracket fails the check; the shooting
    # moves to the neighbour, then falls back to the fine bisection
    lo, hi = _final_bracket(PROFILE.w0)
    secant = radial._secant_root

    def misplaced(*args):
        _, shots = secant(*args)
        return PROFILE.w0 + brackets_off * (hi - lo), shots

    monkeypatch.setattr(radial, "_secant_root", misplaced)
    profile = shoot_soliton()
    assert profile.w0 == PROFILE.w0
    assert profile.bisections == {**PROFILE.bisections, "checks": checks, "fine": fine}


def test_default_shooting_integrates_at_most_eight_fine_trajectories(monkeypatch):
    # two end classifications, the secant's shots, the two ends of the
    # verified bracket and the kept profile; a return to the fine bisection
    # would add its 17 steps
    calls = []
    integrate = radial._integrate

    def counted(w0, dr, r_max, keep=False):
        calls.append(dr)
        return integrate(w0, dr, r_max, keep)

    monkeypatch.setattr(radial, "_integrate", counted)
    profile = shoot_soliton()
    assert profile.w0 == PROFILE.w0
    assert calls.count(2e-3) <= 8
    assert profile.bisections["fine"] == 0


def test_hermite_reader_matches_a_cubic_spline():
    p = PROFILE
    spline = CubicSpline(p.r, p.w, bc_type=((1, 0.0), "not-a-knot"))
    r = np.linspace(0.0, p.r_max, 100_003)
    w, dw = p.read(r)
    assert np.max(np.abs(w - spline(r))) < 1e-11
    assert np.max(np.abs(dw - spline(r, 1))) < 1e-8
    # the samples themselves, and zero beyond the mesh
    w, dw = p.read(p.r)
    np.testing.assert_allclose(w, p.w, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dw, p.dw, rtol=1e-10, atol=0.0)
    w, dw = p.read(np.array([p.r_max + 1e-9, 40.0]))
    assert np.all(w == 0.0) and np.all(dw == 0.0)


def test_continuum_bound_leaves_scipy_interpolate_unloaded():
    code = (
        "import sys\n"
        "from fermivar.solvers import separated_pair_upper_bound\n"
        "separated_pair_upper_bound(separations=(2.5,))\n"
        "assert 'scipy.interpolate' not in sys.modules, 'scipy.interpolate loaded'\n"
    )
    # the child imports this checkout's package, with or without PYTHONPATH
    src = str(Path(fermivar.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_shooting_report_contents():
    rep = shooting_report(PROFILE, CONSTS)
    for key in ("w0", "M", "T", "I", "a1_star", "match_radius", "tail_coeff"):
        assert key in rep
    assert rep["bisections"] == PROFILE.bisections
    res = rep["residuals"]
    assert res["sum_identity"] < 1e-3
    assert res["kinetic_fraction"] < 1e-3
    assert res["mass_fraction"] < 1e-3


def test_virial_residuals_at_roundoff():
    # With the w' samples of the integrator, T = (3/5) I and T + M = I hold
    # to the quadrature's accuracy rather than to a finite difference's.
    res = shooting_report(PROFILE, CONSTS)["residuals"]
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
    ws, dws = [w0, w], [0.0, dw]
    for k in range(1, nsteps):
        k1w, k1v = _rhs(r, w, dw)
        k2w, k2v = _rhs(r + dr / 2, w + dr / 2 * k1w, dw + dr / 2 * k1v)
        k3w, k3v = _rhs(r + dr / 2, w + dr / 2 * k2w, dw + dr / 2 * k2v)
        k4w, k4v = _rhs(r + dr, w + dr * k3w, dw + dr * k3v)
        w = w + dr / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        dw = dw + dr / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r = (k + 1) * dr
        ws.append(w)
        dws.append(dw)
        history = (np.array(ws), np.array(dws)) if keep else None
        if w <= 0.0:
            return "cross", r, history
        if dw > 0.0 and w < 0.5 * w0:
            return "turn", r, history
    return "decay", r, history


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
        for got_h, ref_h in zip(got[2], ref[2], strict=True):
            assert got_h.tobytes() == ref_h.tobytes()
    else:
        assert got[2] is None
