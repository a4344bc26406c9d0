"""Radial shooting solver for the scale-normalized focusing ground state.

Solves the radial two-point problem

    -w'' - (2/r) w' + w = w^{7/3},   w'(0) = 0,  w(r) -> 0  (r -> inf),

whose positive decaying solution is the optimizer of the rank-one
concentration quotient.  Everything in this module is one-dimensional and
deliberately shares no code with the cubic-grid solvers: it is the
independent cross-check for them.

Integral identities of the exact solution (used as self-tests downstream):

    T + M = I,    T = (3/5) I,    M = (2/5) I,

with M = 4*pi*int r^2 w^2, T = 4*pi*int r^2 w'^2, I = 4*pi*int r^2 w^{10/3},
and the rank-one threshold is a1 = T * M^(2/3) / I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import exp1


class BracketError(RuntimeError):
    """Shooting bracket endpoints do not classify as (undershoot, overshoot)."""


@dataclass(frozen=True)
class RadialProfile:
    """Shooting solution on a uniform radial mesh.

    Beyond ``match_radius`` the stored samples are the matched analytic tail
    C * exp(-r)/r rather than the raw integrator output; the raw solution is
    polluted there by the exponentially growing mode at the level of the
    bisection resolution.
    """

    r: np.ndarray
    w: np.ndarray
    w0: float
    dr: float
    r_max: float
    match_radius: float
    tail_coeff: float


class GNConstants(NamedTuple):
    M: float
    T: float
    I: float
    a1_star: float


def _series_start(w0: float, r: float) -> tuple[float, float]:
    """Taylor expansion about the regular singular point r = 0.

    w(r) = w0 + c r^2 + d r^4 + O(r^6) with 6c = w0 - w0^{7/3} and
    20 d = (1 - (7/3) w0^{4/3}) c.
    """
    c = (w0 - w0 ** (7.0 / 3.0)) / 6.0
    d = (1.0 - (7.0 / 3.0) * w0 ** (4.0 / 3.0)) * c / 20.0
    return w0 + c * r * r + d * r ** 4, 2.0 * c * r + 4.0 * d * r ** 3


def _integrate(w0: float, dr: float, r_max: float, keep: bool = False):
    """Fixed-step RK4 from the series start at r = dr.

    Returns (kind, r_stop, history) where kind is 'cross' if w reached zero,
    'turn' if w started growing again while positive, and 'decay' if the
    trajectory survived to r_max.  history is (r array, w array) when keep.
    """
    nsteps = int(round(r_max / dr))
    w, dw = _series_start(w0, dr)
    r = dr
    ws = np.empty(nsteps + 1) if keep else None
    if keep:
        ws[0] = w0
        ws[1] = w
    # The right-hand side w'' = -(2/r) w' + w - |w|^{4/3} w is written out
    # at each stage (the slopes of w are the stage values of w').
    half, sixth, p = dr / 2, dr / 6, 4.0 / 3.0
    for k in range(1, nsteps):
        k1w = dw
        k1v = -(2.0 / r) * dw + w - abs(w) ** p * w
        rm = r + half
        w2 = w + half * k1w
        k2w = dw + half * k1v
        k2v = -(2.0 / rm) * k2w + w2 - abs(w2) ** p * w2
        w3 = w + half * k2w
        k3w = dw + half * k2v
        k3v = -(2.0 / rm) * k3w + w3 - abs(w3) ** p * w3
        w4 = w + dr * k3w
        k4w = dw + dr * k3v
        k4v = -(2.0 / (r + dr)) * k4w + w4 - abs(w4) ** p * w4
        w = w + sixth * (k1w + 2 * k2w + 2 * k3w + k4w)
        dw = dw + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        r = (k + 1) * dr
        if keep:
            ws[k + 1] = w
        if w <= 0.0:
            return "cross", r, (None if not keep else ws[: k + 2])
        if dw > 0.0 and w < 0.5 * w0:
            return "turn", r, (None if not keep else ws[: k + 2])
    return "decay", r, ws


def shoot_soliton(
    tol: float = 1e-12,
    dr: float = 2e-3,
    r_max: float = 25.0,
    bracket: tuple[float, float] = (1.0, 10.0),
) -> RadialProfile:
    """Bisect the shooting parameter w(0) until the bracket is below tol.

    The dichotomy: too-large w(0) makes the trajectory cross zero, too-small
    makes it turn around while positive.  Both bracket endpoints are
    classified up front and must disagree.
    """
    lo, hi = bracket
    kinds = {}
    for end in (lo, hi):
        kind, _, _ = _integrate(end, dr, r_max)
        if kind == "decay":
            kind = "turn"  # border case: treat like an undershoot
        kinds[end] = kind
    if kinds[lo] == kinds[hi]:
        raise BracketError(
            f"bracket endpoints both classify as {kinds[lo]!r}: {bracket}"
        )
    cross_is_high = kinds[hi] == "cross"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # float resolution reached
        kind, _, _ = _integrate(mid, dr, r_max)
        goes_up = (kind == "cross") == cross_is_high
        if kind == "decay":
            lo = hi = mid
            break
        if goes_up:
            hi = mid
        else:
            lo = mid
    w0 = 0.5 * (lo + hi)

    kind, r_stop, ws = _integrate(w0, dr, r_max, keep=True)
    n = int(round(r_max / dr)) + 1
    r = np.arange(n) * dr
    w = np.zeros(n)
    m = len(ws)
    w[:m] = ws

    # Match the analytic far field C e^{-r}/r where the signal still beats the
    # parasitic growing mode (amplitude ~ tol * e^{+r}).
    match_radius = _pick_match_radius(r[: m], w[: m], w0, tol)
    im = int(round(match_radius / dr))
    C = w[im] * r[im] * math.exp(r[im])
    tail = r > match_radius
    w[tail] = C * np.exp(-r[tail]) / r[tail]
    return RadialProfile(
        r=r, w=w, w0=w0, dr=dr, r_max=r_max, match_radius=r[im], tail_coeff=C
    )


def _pick_match_radius(r: np.ndarray, w: np.ndarray, w0: float, tol: float) -> float:
    """Largest radius where the decaying signal dominates bisection noise.

    Noise after bisection ~ tol * e^{+r}; signal ~ e^{-r}.  Equality at
    r* = -log(tol)/2; back off two units for margin, and never match inside
    r = 4 (the profile core).
    """
    r_star = -math.log(max(tol, 1e-300)) / 2.0 - 2.0
    r_star = max(4.0, min(r_star, float(r[-1]) - 1.0))
    i = int(np.searchsorted(r, r_star))
    # step inward until w is positive and decreasing (sane matching point)
    while i > 2 and not (w[i] > 0.0 and w[i] < w[i - 1]):
        i -= 1
    return float(r[i])


def profile_spline(profile: RadialProfile):
    """Cubic spline of w(r) through the stored mesh, with w'(0) = 0 clamped.

    The spline is the one smooth reading of the profile that every
    continuum integral uses (w' included); it is only meaningful on
    [0, r_max], and callers take w = 0 beyond.
    """
    # imported here: scipy.interpolate adds a few tenths of a second to
    # `import fermivar`, and only the threshold path needs it
    from scipy.interpolate import CubicSpline

    return CubicSpline(profile.r, profile.w, bc_type=((1, 0.0), "not-a-knot"))


def gn_constants(profile: RadialProfile) -> GNConstants:
    """Mass, kinetic and interaction integrals plus the rank-one threshold.

    Quadrature is the trapezoid rule on the stored mesh, with w' read off
    :func:`profile_spline`; the [r_max, inf) remainders of the matched tail
    are added in closed form (they are far below the quoted tolerances but
    cost nothing).
    """
    r, w, C, R = profile.r, profile.w, profile.tail_coeff, profile.r_max
    fourpi = 4.0 * math.pi
    dw = profile_spline(profile)(r, 1)
    M = fourpi * np.trapezoid(r * r * w * w, dx=profile.dr)
    T = fourpi * np.trapezoid(r * r * dw * dw, dx=profile.dr)
    I = fourpi * np.trapezoid(r * r * np.abs(w) ** (10.0 / 3.0), dx=profile.dr)

    # tails: w = C e^{-r}/r, w' = -C e^{-r}(1/r + 1/r^2)
    e2R = math.exp(-2.0 * R)
    M += fourpi * C * C * e2R / 2.0
    T += fourpi * C * C * e2R * (0.5 + 1.0 / R)
    kap = 10.0 / 3.0
    # int_R^inf r^{-4/3} e^{-kap r} dr, first-order asymptotic
    I += fourpi * C ** kap * R ** (-4.0 / 3.0) * math.exp(-kap * R) / kap * (
        1.0 - 4.0 / (3.0 * kap * R)
    )
    a1 = T * M ** (2.0 / 3.0) / I
    return GNConstants(M=M, T=T, I=I, a1_star=a1)


def shooting_report(profile: RadialProfile) -> dict:
    """JSON-ready summary with the defining residuals of the solution."""
    c = gn_constants(profile)
    res_sum = abs(c.T + c.M - c.I) / c.I
    res_T = abs(c.T - 0.6 * c.I) / c.I
    res_M = abs(c.M - 0.4 * c.I) / c.I
    return {
        "w0": profile.w0,
        "M": c.M,
        "T": c.T,
        "I": c.I,
        "a1_star": c.a1_star,
        "match_radius": profile.match_radius,
        "tail_coeff": profile.tail_coeff,
        "residuals": {
            "sum_identity": res_sum,
            "kinetic_fraction": res_T,
            "mass_fraction": res_M,
        },
    }
