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


class BracketError(RuntimeError):
    """Shooting bracket endpoints do not classify as (undershoot, overshoot)."""


@dataclass(frozen=True)
class RadialProfile:
    """Shooting solution on a uniform radial mesh, with its slope w'.

    Beyond ``match_radius`` the stored samples are the matched analytic tail
    C * exp(-r)/r and its slope -C * exp(-r) * (1/r + 1/r^2) rather than the
    raw integrator output; the raw solution is polluted there by the
    exponentially growing mode at the level of the bisection resolution.
    ``bisections`` counts the steps of the shooting (see
    :func:`shoot_soliton`): ``coarse`` bisection steps, ``secant`` shots,
    fine-step ``checks`` of bracket ends and ``fine`` bisection steps, and
    says whether the coarse bracket was accepted (``coarse_bracket``).
    """

    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    w0: float
    dr: float
    r_max: float
    match_radius: float
    tail_coeff: float
    bisections: dict

    def read(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w and w' at the radii ``r`` >= 0 (an array), 0 beyond r_max.

        The cubic Hermite interpolant of the (w, w') samples: one mesh
        interval index serves both values.
        """
        h = self.dr
        s = np.asarray(r) / h
        last = len(self.w) - 1
        i = np.minimum(s.astype(np.intp), last - 1)
        t = s - i
        w_i, w_j = self.w[i], self.w[i + 1]
        dw_i, dw_j = self.dw[i], self.dw[i + 1]
        # w = w_i + h dw_i t + b t^2 + c t^3 on [r_i, r_i + h]
        jump = w_j - w_i
        b = 3.0 * jump - h * (2.0 * dw_i + dw_j)
        c = h * (dw_i + dw_j) - 2.0 * jump
        t2 = t * t
        w = w_i + t * (h * dw_i + t * b + t2 * c)
        dw = dw_i + (2.0 * b * t + 3.0 * c * t2) / h
        outside = s > last
        w[outside] = 0.0
        dw[outside] = 0.0
        return w, dw


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

    Returns (kind, r_stop, history, end) where kind is 'cross' if w reached
    zero, 'turn' if w started growing again while positive, and 'decay' if
    the trajectory survived to r_max.  history is the (w, w') arrays on the
    mesh r = 0, dr, ..., r_stop when keep, else None; end is (w, w') at
    r_stop.
    """
    nsteps = int(round(r_max / dr))
    w, dw = _series_start(w0, dr)
    r = dr
    if keep:
        ws, dws = np.empty(nsteps + 1), np.empty(nsteps + 1)
        ws[0], dws[0] = w0, 0.0
        ws[1], dws[1] = w, dw
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
            ws[k + 1], dws[k + 1] = w, dw
        if w <= 0.0:
            return "cross", r, (ws[: k + 2], dws[: k + 2]) if keep else None, (w, dw)
        if dw > 0.0 and w < 0.5 * w0:
            return "turn", r, (ws[: k + 2], dws[: k + 2]) if keep else None, (w, dw)
    return "decay", r, (ws, dws) if keep else None, (w, dw)


# Coarse-first shooting: bisect with this multiple of the step until the
# bracket is no wider than the handoff width, then hand over to the fine
# step.  The root moves by 1.6e-10 between the two steps, far inside the
# handoff width, so the fine step nearly always accepts the coarse bracket.
_COARSE_STEPS = 4
_HANDOFF_WIDTH = 1e-7

# The secant's miss is the Robin mismatch w' + (1 + 1/R) w at this radius,
# which vanishes on the decaying tail C e^{-r}/r of the linearised equation.
# Here it is linear in w(0) across the handoff width (three shots converge),
# and the nonlinear term w^{7/3} moves its zero by less than 1e-14, inside
# the fine root's final bracket (5.1e-13 wide at dr = 2e-3, tol = 1e-12).
# That shift grows about e^{10/3}-fold per unit of R inward: at R = 9 it is
# 1.5e-12, three final brackets.  At R = 11 the miss is no longer linear
# across the handoff width.
_MISS_RADIUS = 10.5
_MAX_SHOTS = 8


def _bisect(lo, hi, tol, side):
    """Bisect [lo, hi] until it is at most ``tol`` wide.

    ``side(mid)`` is True when the midpoint belongs to hi's side, False for
    lo's, and None when the midpoint is the root, which ends the bisection
    as a bracket of width zero.  Returns the final (lo, hi) and the number
    of midpoints classified.
    """
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # float resolution reached
        high = side(mid)
        steps += 1
        if high is None:
            return mid, mid, steps
        if high:
            hi = mid
        else:
            lo = mid
    return lo, hi, steps


def _shooting_side(dr, r_max, cross_is_high):
    """The bisection's ``side`` at step dr: a midpoint that decays to r_max
    is the root."""
    def side(w0):
        kind = _integrate(w0, dr, r_max)[0]
        return None if kind == "decay" else (kind == "cross") == cross_is_high
    return side


def _secant_root(lo, hi, tol, dr):
    """Zero of the Robin miss G(w0) = w'(R) + (1 + 1/R) w(R), R = _MISS_RADIUS,
    by secant steps from the ends of a bracket within the handoff width.

    Returns the estimate and the number of shots integrated.  The steps
    stop once a step is below tol / 64, after ``_MAX_SHOTS`` shots, or when
    a shot stops short of R; an estimate from an unconverged run is checked
    like any other.
    """
    def miss(w0):
        kind, _, _, (w, dw) = _integrate(w0, dr, _MISS_RADIUS)
        return dw + (1.0 + 1.0 / _MISS_RADIUS) * w if kind == "decay" else None

    x0, x1 = lo, hi
    g0, g1 = miss(x0), miss(x1)
    shots = 2
    while g0 is not None and g1 is not None and g1 != g0:
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if abs(x2 - x1) <= tol / 64 or shots == _MAX_SHOTS:
            return x2, shots
        x0, g0, x1, g1 = x1, g1, x2, miss(x2)
        shots += 1
    return x1, shots


def shoot_soliton(
    tol: float = 1e-12,
    dr: float = 2e-3,
    r_max: float = 25.0,
    bracket: tuple[float, float] = (1.0, 10.0),
) -> RadialProfile:
    """The shooting parameter w(0) of the fine-step bisection down to tol.

    The dichotomy: too-large w(0) makes the trajectory cross zero, too-small
    makes it turn around while positive.  The bracket must be finite with
    lo < hi, and its endpoints are classified up front and must disagree.

    The bisection first runs with step ``_COARSE_STEPS * dr`` down to
    ``_HANDOFF_WIDTH``.  In that bracket the secant steps of
    :func:`_secant_root` estimate the root, and the fine bisection's own
    midpoint arithmetic is replayed from the bracket against the estimate.
    Only the two ends of the final bracket are integrated at the fine
    step.  If they classify as the original ends, the fine root lies in
    that bracket; the classification is monotone in w(0), so every
    midpoint the replay placed also classifies as the fine bisection
    would, and w0 is the fine bisection's to the bit.  An end that
    classifies wrongly says on which side the root lies: the check moves
    to the neighbouring final bracket, at most twice.  After that it falls
    back to the fine bisection, of the coarse bracket if the fine step
    classifies its ends as it classified the original ends, else of the
    original bracket.
    """
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BracketError(f"bracket must be finite with lo < hi: {bracket}")
    kind_lo = _integrate(lo, dr, r_max)[0]
    kind_hi = _integrate(hi, dr, r_max)[0]
    # border case: an endpoint that decays is treated like an undershoot
    ends = tuple("turn" if k == "decay" else k for k in (kind_lo, kind_hi))
    if ends[0] == ends[1]:
        raise BracketError(f"bracket endpoints both classify as {ends[0]!r}: {bracket}")
    cross_is_high = ends[1] == "cross"

    c_lo, c_hi, coarse = _bisect(lo, hi, max(tol, _HANDOFF_WIDTH),
                                 _shooting_side(_COARSE_STEPS * dr, r_max, cross_is_high))
    checked = {}  # fine-step kinds of the bracket ends checked

    def kinds(*xs):
        for x in xs:
            if x not in checked:
                checked[x] = _integrate(x, dr, r_max)[0]
        return tuple(checked[x] for x in xs)

    est, shots = _secant_root(c_lo, c_hi, tol, dr) if c_hi - c_lo > tol else (c_lo, 0)
    b_lo, b_hi, _ = _bisect(c_lo, c_hi, tol, lambda mid: mid > est)
    verified = False
    for _ in range(3):  # the estimate's bracket, then at most two neighbours
        k_lo, k_hi = kinds(b_lo, b_hi)
        if (k_lo, k_hi) == ends:
            verified = True
            break
        if k_lo == ends[1]:  # the root lies below: the left neighbour
            edge = math.nextafter(b_lo, -math.inf)
        elif k_hi == ends[0]:  # above: the right neighbour
            edge = b_hi
        else:
            break
        moved = _bisect(c_lo, c_hi, tol, lambda mid: mid > edge)[:2]
        if moved == (b_lo, b_hi):
            break
        b_lo, b_hi = moved
    if verified:
        lo, hi, fine, accepted = b_lo, b_hi, 0, True
    else:
        accepted = c_lo < c_hi and kinds(c_lo, c_hi) == ends
        if accepted:
            lo, hi = c_lo, c_hi
        lo, hi, fine = _bisect(lo, hi, tol, _shooting_side(dr, r_max, cross_is_high))
    w0 = 0.5 * (lo + hi)

    _, _, (ws, dws), _ = _integrate(w0, dr, r_max, keep=True)
    n = int(round(r_max / dr)) + 1
    r = np.arange(n) * dr
    w, dw = np.zeros(n), np.zeros(n)
    m = len(ws)
    w[:m], dw[:m] = ws, dws

    # Match the analytic far field C e^{-r}/r where the signal still beats the
    # parasitic growing mode (amplitude ~ tol * e^{+r}).
    match_radius = _pick_match_radius(r[:m], w[:m], w0, tol)
    im = int(round(match_radius / dr))
    C = w[im] * r[im] * math.exp(r[im])
    tail = r > match_radius
    rt = r[tail]
    w[tail] = C * np.exp(-rt) / rt
    dw[tail] = -C * np.exp(-rt) * (1.0 / rt + 1.0 / (rt * rt))
    return RadialProfile(
        r=r, w=w, dw=dw, w0=w0, dr=dr, r_max=r_max, match_radius=r[im],
        tail_coeff=C,
        bisections={"coarse": coarse, "secant": shots, "checks": len(checked),
                    "fine": fine,
                    "coarse_bracket": "accepted" if accepted else "rejected"},
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


def gn_constants(profile: RadialProfile) -> GNConstants:
    """Mass, kinetic and interaction integrals plus the rank-one threshold.

    Quadrature is the trapezoid rule on the stored mesh, with the w' samples
    the integrator recorded; the [r_max, inf) remainders of the matched tail
    are added in closed form (they are far below the quoted tolerances but
    cost nothing).
    """
    r, w, dw = profile.r, profile.w, profile.dw
    C, R = profile.tail_coeff, profile.r_max
    fourpi = 4.0 * math.pi
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


def shooting_report(profile: RadialProfile, c: GNConstants) -> dict:
    """JSON-ready summary of the shooting and of its constants ``c``, with
    the defining (virial) residuals of the solution."""
    return {
        "w0": profile.w0,
        "M": c.M,
        "T": c.T,
        "I": c.I,
        "a1_star": c.a1_star,
        "match_radius": profile.match_radius,
        "tail_coeff": profile.tail_coeff,
        "bisections": dict(profile.bisections),
        "residuals": {
            "sum_identity": abs(c.T + c.M - c.I) / c.I,
            "kinetic_fraction": abs(c.T - 0.6 * c.I) / c.I,
            "mass_fraction": abs(c.M - 0.4 * c.I) / c.I,
        },
    }
