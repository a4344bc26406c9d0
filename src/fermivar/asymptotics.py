"""Post-processing of continuation sweeps into quantitative verdicts.

Everything here is a pure function of its inputs: power-law fits of the
energy and density norms against the distance to threshold, blow-up profile
extraction by rescaling, concentration-point tracking across trap minima,
Richardson limits of the scaled multipliers, exponential decay-rate fits,
and the energy-constant decomposition.  Re-running on saved sweep artifacts
reproduces reports bitwise.

Scaling conventions: a sweep records eps = (a_hat - a)^{1/(p+2)}, the
blow-up length; rescaled orbitals are w_i(y) = eps^{3/2} u_i(eps*y + x_peak)
so the rescaled density keeps mass 2; scaled multipliers are eps^2 * mu_i.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    BoxGrid,
    ScalarField,
    atomic_open,
    integrate,
    norm,
    resample_scaled,
)
from .frames import OrbitalPair, combine, gram, loewdin_matrix
from .model import TrapPotential, density, p_integral, quotient_value


FORMAT_VERSION = 1

CSV_HEADER = ("a,eps,E,T,W,P,mu1,mu2,peak_x,peak_y,peak_z,defect,converged,"
              "under_resolved,stop_reason")

# Verdict slacks for noise-dominated regimes: the boundedness test compares
# scale-free O(1) quantities, so a small absolute floor keeps symmetric traps
# (median offset ~ 0) from failing on peak-location jitter, and the distance
# trend tolerates jitter of the same origin.
XBAR_FLOOR = 0.25
DIST_SLACK = 0.02


class SweepFormatError(ValueError):
    pass


class WindowError(ValueError):
    """Requested analysis window does not fit the available data."""


class PeakTieWarning(UserWarning):
    pass


class ResolutionWarning(UserWarning):
    """A blow-up length spans too few source grid spacings."""


# A blow-up length eps is resolved when it spans at least this many grid
# spacings; sweep records below it are flagged under-resolved and profile
# extraction warns.
EPS_RESOLUTION_NODES = 8.0


@dataclass(frozen=True)
class SweepRecord:
    a: float
    eps: float
    E: float
    T: float
    W: float
    P: float
    mu1: float
    mu2: float
    peak: tuple[float, float, float]
    defect: float
    converged: bool
    under_resolved: bool = False
    # the solve's stop reason (SolveResult.stop_reason), if one is known
    stop_reason: str | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def usable(self) -> bool:
        return self.converged and not self.under_resolved


def usable_records(records) -> list[SweepRecord]:
    return [r for r in records if r.usable]


_FLAGS = {True: "true", False: "false"}


def write_sweep_csv(records, path) -> None:
    """One row per record, every field of it: floats by repr, flags as
    true/false, and a stop reason of None as an empty cell."""
    recs = list(records)
    if any(b.a <= a.a for a, b in zip(recs, recs[1:])):
        raise SweepFormatError("records must be sorted by a ascending")
    with atomic_open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in recs:
            w.writerow(
                [repr(float(v)) for v in (
                    r.a, r.eps, r.E, r.T, r.W, r.P, r.mu1, r.mu2,
                    r.peak[0], r.peak[1], r.peak[2], r.defect,
                )]
                + [_FLAGS[bool(r.converged)], _FLAGS[bool(r.under_resolved)],
                   r.stop_reason or ""]
            )


def read_sweep_csv(path) -> list[SweepRecord]:
    """Inverse of write_sweep_csv: the records come back equal, floats
    bit for bit and a missing stop reason as None."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise SweepFormatError(f"unexpected CSV header {header!r}")
        rows = list(csv.reader(fh))
    flag = {v: k for k, v in _FLAGS.items()}
    out = []
    for row in rows:
        if len(row) != 15:
            raise SweepFormatError(f"expected 15 columns, got {len(row)}")
        if row[12] not in flag or row[13] not in flag:
            raise SweepFormatError(f"bad flags {row[12]!r}, {row[13]!r}")
        vals = [float(x) for x in row[:12]]
        out.append(
            SweepRecord(
                a=vals[0], eps=vals[1], E=vals[2], T=vals[3], W=vals[4],
                P=vals[5], mu1=vals[6], mu2=vals[7],
                peak=(vals[8], vals[9], vals[10]), defect=vals[11],
                converged=flag[row[12]], under_resolved=flag[row[13]],
                stop_reason=row[14] or None,
            )
        )
    if any(b.a <= a.a for a, b in zip(out, out[1:])):
        raise SweepFormatError("records must be sorted by a ascending")
    return out


# ---------------------------------------------------------------------------
# peak location and profile extraction
# ---------------------------------------------------------------------------


def find_peak(rho: ScalarField) -> np.ndarray:
    """Sub-grid peak of a nonnegative field via per-axis parabola fit.

    The max node is found first (C-order argmax, i.e. smallest lexicographic
    index on ties), then each axis gets a quadratic through the node and its
    two neighbors.  Offsets are clamped to half a spacing.  A node tied
    within 1e-12 relative and more than one node away on some axis is
    reported as a warning; adjacent ties, such as the nodes either side of
    a mirror plane on an even grid, share the chosen node's parabolas.
    """
    v = rho.values
    vmax = float(v.max())
    if not vmax > 0:
        raise ValueError("field has no positive values, peak undefined")
    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    tied = np.argwhere(v >= vmax - 1e-12 * vmax)
    if (np.abs(tied - np.asarray(idx)) > 1).any():
        warnings.warn("peak is tied within 1e-12; smallest node index used",
                      PeakTieWarning, stacklevel=2)
    grid = rho.grid
    h = grid.spacing
    n = grid.n_per_axis
    ax = grid.axis()
    peak = np.empty(3)
    for d in range(3):
        i = min(max(idx[d], 1), n - 2)
        sl = list(idx)
        sl[d] = slice(i - 1, i + 2)
        vm, v0, vp = v[tuple(sl)]
        den = vm - 2.0 * v0 + vp
        off = 0.0
        if den < 0.0:
            off = 0.5 * h * (vm - vp) / den
            off = min(max(off, -0.5 * h), 0.5 * h)
        peak[d] = ax[i] + off
    return peak


@dataclass
class ProfileExtract:
    rescaled_pair: OrbitalPair
    lambda1: float | None
    lambda2: float | None
    eps: float
    center: tuple[float, float, float]
    raw_mass: float

    @property
    def rescaled_density(self) -> ScalarField:
        return density(self.rescaled_pair)


def rescale_extract(
    pair: OrbitalPair,
    eps: float,
    center,
    ref_grid: BoxGrid,
    mu1: float | None = None,
    mu2: float | None = None,
) -> ProfileExtract:
    """Blow-up profile w_i(y) = eps^{3/2} u_i(eps*y + center) on ref_grid.

    The rescaling is mass-preserving up to interpolation and window-tail
    error; raw_mass records the interpolated mass before the final
    orthonormalization so callers can assert the 2 +- 1e-4 invariant.  The
    profile is read off a quintic spline: on an s+p Gaussian pair whose eps
    spans 3.9 source spacings the mass error is 5e-6 (cubic: 4e-4), and it
    stays below 1e-4 down to about 2.6 spacings.  The invariant is promised
    only when eps spans at least ``EPS_RESOLUTION_NODES`` source spacings
    (the default rule by which sweep records count as under-resolved) and
    the window holds the tails; below that rule a
    :class:`ResolutionWarning` is issued.  Scaled multipliers eps^2*mu_i
    ride along when the mu_i are given.

    Working set: the two ref_grid fields that become the result, and while
    the second is resampled the transients of :func:`resample_scaled`, two
    arrays of n_ref^2 * n_src values (n_src = 32 into n_ref = 96: 2.7
    ref_grid fields in all).  The Gram sums (:func:`grid.inner`) and the
    Loewdin step (:func:`loewdin_matrix`, then :func:`frames.combine`) work
    one x-slab at a time, the Loewdin step in place.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    c = np.asarray(center, dtype=float)
    src = pair.grid
    reach = abs(c).max() + eps * ref_grid.half_width
    if reach > src.half_width * (1.0 + 1e-12):
        raise WindowError(
            f"rescale window reaches {reach:.6g}, source box ends at "
            f"{src.half_width:.6g}"
        )
    if eps < EPS_RESOLUTION_NODES * src.spacing:
        warnings.warn(
            f"eps={eps:.4g} spans {eps / src.spacing:.2f} source spacings, "
            f"below {EPS_RESOLUTION_NODES:g}: the extracted mass is not promised "
            "to hold 2 +- 1e-4", ResolutionWarning, stacklevel=2)
    w = []
    for u in (pair.u1, pair.u2):
        v = resample_scaled(u, eps, center=c, out_grid=ref_grid, order=5)
        v *= eps ** 1.5
        w.append(ScalarField(ref_grid, v))
    G = gram(*w)
    w = combine(w, loewdin_matrix(G), out=[f.values for f in w])
    return ProfileExtract(
        rescaled_pair=OrbitalPair(*w),
        lambda1=None if mu1 is None else eps * eps * mu1,
        lambda2=None if mu2 is None else eps * eps * mu2,
        eps=eps,
        center=(float(c[0]), float(c[1]), float(c[2])),
        raw_mass=float(G[0, 0] + G[1, 1]),
    )


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    log_constant: float
    r_squared: float
    n_points: int
    window: tuple[float, float]


def fit_power_law(xs, ys) -> ScalingFit:
    """Least-squares line on (log x, log y); exponent is the slope."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("xs and ys must be 1-D and equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 points, got {x.size}")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    ss_res = float((resid ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=float(slope),
        log_constant=float(intercept),
        r_squared=min(max(r2, 0.0), 1.0),
        n_points=int(x.size),
        window=(float(x.min()), float(x.max())),
    )


# ---------------------------------------------------------------------------
# concentration tracking
# ---------------------------------------------------------------------------


def track_concentration(records, trap: TrapPotential) -> dict:
    """Where does the density peak go as a approaches the threshold?

    Identifies the limit well among the flattest minima, reports the
    rescaled offsets (peak - x_k)/eps, a boundedness verdict on their last
    half (max <= 2*median + floor), and the trend of the distance to the
    minimum set.
    """
    recs = usable_records(records)
    if len(recs) < 4:
        raise ValueError(f"need >= 4 usable records, got {len(recs)}")
    meta = trap.metadata()
    flattest = [np.asarray(c, dtype=float) for c in meta.flattest]
    minima = [np.asarray(c, dtype=float) for c in meta.centers]

    last_peak = np.asarray(recs[-1].peak)
    k = int(np.argmin([np.linalg.norm(last_peak - c) for c in flattest]))
    well = flattest[k]

    xbar_seq = [(np.asarray(r.peak) - well) / r.eps for r in recs]
    norms = [float(np.linalg.norm(xb)) for xb in xbar_seq]
    half = norms[len(norms) // 2:]
    bounded = max(half) <= 2.0 * float(np.median(half)) + XBAR_FLOOR
    xbar = np.median(np.stack(xbar_seq[len(xbar_seq) // 2:]), axis=0)

    dist = [
        float(min(np.linalg.norm(np.asarray(r.peak) - c) for c in minima))
        for r in recs
    ]
    trend_ok = dist[-1] <= dist[0] + DIST_SLACK

    return {
        "well": [float(x) for x in well],
        "well_index": k,
        "xbar_seq": [[float(x) for x in xb] for xb in xbar_seq],
        "xbar_norms": norms,
        "xbar": [float(x) for x in xbar],
        "bounded": bool(bounded),
        "dist_to_minima": dist,
        "dist_trend_ok": bool(trend_ok),
        "verdict": "ok" if (bounded and trend_ok) else "failed",
    }


# ---------------------------------------------------------------------------
# multiplier limits
# ---------------------------------------------------------------------------


def _extrapolate_to_zero(xs, ys) -> float:
    """Quadratic through the last three (x, y) points evaluated at x=0."""
    e = np.asarray(xs[-3:], dtype=float)
    y = np.asarray(ys[-3:], dtype=float)
    coef = np.polyfit(e, y, 2)
    return float(coef[2])


def multiplier_limits(records, a_hat: float | None = None) -> dict:
    """Limits of the scaled multipliers eps^2*mu_i as a -> a_hat.

    Extrapolates the last three usable records to eps=0 and checks the
    expected structure: lambda1 < lambda2 < 0.  With a_hat given, also
    forms the trace identity in the limit, lambda1+lambda2 against
    -(2 a_hat/3) * lim eps^2 P, and the vanishing of eps^2 E
    (``eps2_E_limit``).  The paper's law E ~ (a_hat-a)^{p/(p+2)} makes
    eps^2 E linear in the gap a_hat - a, so that limit is extrapolated in
    the gap; in eps it would be a power eps^{p+2} that a quadratic misses.
    Per-record rows carry the exact finite-a trace identity residual
    |mu1+mu2 - (E - 2aP/3)| (relative).
    """
    recs = usable_records(records)
    if len(recs) < 3:
        raise ValueError(f"need >= 3 usable records, got {len(recs)}")
    eps = [r.eps for r in recs]
    y1 = [r.eps ** 2 * r.mu1 for r in recs]
    y2 = [r.eps ** 2 * r.mu2 for r in recs]
    lam1 = _extrapolate_to_zero(eps, y1)
    lam2 = _extrapolate_to_zero(eps, y2)

    per_record = []
    for r in recs:
        lhs = r.mu1 + r.mu2
        rhs = r.E - (2.0 * r.a / 3.0) * r.P
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        per_record.append({
            "a": r.a, "eps": r.eps,
            "eps2_mu1": r.eps ** 2 * r.mu1,
            "eps2_mu2": r.eps ** 2 * r.mu2,
            "ordered_negative": bool(r.mu1 < r.mu2 < 0.0),
            "sum_rule_rel_residual": rel,
        })

    out = {
        "lambda1": lam1,
        "lambda2": lam2,
        "ordered_ok": bool(lam1 < lam2),
        "negative_ok": bool(lam2 < 0.0),
        "per_record": per_record,
    }
    if a_hat is not None:
        out["eps2_E_limit"] = _extrapolate_to_zero(
            [a_hat - r.a for r in recs], [r.eps ** 2 * r.E for r in recs])
        p_lim = _extrapolate_to_zero(eps, [r.eps ** 2 * r.P for r in recs])
        lhs = lam1 + lam2
        rhs = -(2.0 * a_hat / 3.0) * p_lim
        out["sum_rule_limit"] = {
            "lambda_sum": lhs,
            "minus_two_thirds_a_P": rhs,
            "rel_dev": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
            "eps2_P_limit": p_lim,
        }
    return out


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------


def radial_shell_profile(field: ScalarField, absolute: bool = False):
    """Shell means of a field about the grid center, one bin per spacing.

    Shells past the inscribed sphere are dropped (they are clipped by the
    box and would bias decay fits).  Returns (centers, means, counts).
    """
    grid = field.grid
    X, Y, Z = grid.meshgrid()
    r = np.sqrt(X * X + Y * Y + Z * Z)
    h = grid.spacing
    vals = np.abs(field.values) if absolute else field.values
    nbins = int(math.floor(grid.half_width / h))
    idx = np.minimum((r / h).astype(np.int64), nbins)
    sums = np.bincount(idx.ravel(), weights=vals.ravel(), minlength=nbins + 1)
    counts = np.bincount(idx.ravel(), minlength=nbins + 1)
    keep = slice(0, nbins)  # strictly inside the inscribed sphere
    centers = (np.arange(nbins) + 0.5) * h
    means = np.where(counts[keep] > 0, sums[keep] / np.maximum(counts[keep], 1), 0.0)
    return centers, means, counts[keep]


def shell_decay_rate(field: ScalarField, r_lo: float, r_hi: float,
                     absolute: bool = False) -> float:
    """Fitted exponential rate of shell means over [r_lo, r_hi].

    The shell means m(r) are fitted as log m = c + beta log r - kappa r and
    kappa is returned.  The free power prefactor absorbs the angular and
    polynomial factors an orbital carries on top of its exponential (the
    shell mean of |x e^{-kappa r}| grows like r e^{-kappa r}); without it
    the fitted rate reads kappa - beta/r.
    """
    if not 0 <= r_lo < r_hi:
        raise WindowError(f"bad decay window [{r_lo}, {r_hi}]")
    centers, means, counts = radial_shell_profile(field, absolute=absolute)
    sel = (centers >= r_lo) & (centers <= r_hi) & (means > 0) & (counts > 0)
    if int(sel.sum()) < 6:
        raise WindowError(
            f"decay window [{r_lo:.3g}, {r_hi:.3g}] holds {int(sel.sum())} "
            "usable shells, need 6"
        )
    r = centers[sel]
    design = np.stack([np.ones_like(r), np.log(r), -r], axis=1)
    coef = np.linalg.lstsq(design, np.log(means[sel]), rcond=None)[0]
    return float(coef[2])


@dataclass(frozen=True)
class DecayRates:
    rate_rho: float
    rate_w1: float
    rate_w2: float
    window_rho: tuple[float, float]
    window_w1: tuple[float, float]
    window_w2: tuple[float, float]


def fit_decay_rate(extract: ProfileExtract) -> DecayRates:
    """Exponential decay rates of the rescaled orbitals and density.

    Each orbital's shell means of |w_i| are fitted with the prefactor model
    of :func:`shell_decay_rate` over [2, 5] decay lengths (clipped to the
    inscribed sphere), the length 2/sqrt|lambda_i| read off the extract's
    scaled multipliers.  Since rho = w1^2 + w2^2, the density decays at
    twice the slower orbital's rate, and ``rate_rho`` is that; its window
    ``window_rho`` is the slower orbital's window.  A direct fit of rho's
    shell means does not work: they mix two exponentials with different
    prefactors, and on a 64^3 profile planted at rate 4 it reads 2.7-3.6
    whatever the window.
    """
    if extract.lambda1 is None or extract.lambda2 is None:
        raise ValueError("extract carries no scaled multipliers")
    if not (extract.lambda1 < 0 and extract.lambda2 < 0):
        raise WindowError("scaled multipliers must be negative for decay fits")
    grid = extract.rescaled_pair.grid
    r_box = grid.half_width * (1.0 - 2.0 * grid.spacing / grid.half_width)

    def window(ell: float) -> tuple[float, float]:
        if r_box < 4.0 * ell:
            raise WindowError(
                f"profile resolved over {r_box / ell:.2f} decay lengths, need 4"
            )
        return 2.0 * ell, min(5.0 * ell, r_box)

    win_1 = window(2.0 / math.sqrt(-extract.lambda1))
    win_2 = window(2.0 / math.sqrt(-extract.lambda2))
    rate_1 = shell_decay_rate(extract.rescaled_pair.u1, *win_1, absolute=True)
    rate_2 = shell_decay_rate(extract.rescaled_pair.u2, *win_2, absolute=True)
    return DecayRates(
        rate_rho=2.0 * min(rate_1, rate_2),
        rate_w1=rate_1,
        rate_w2=rate_2,
        window_rho=win_1 if rate_1 <= rate_2 else win_2,
        window_w1=win_1,
        window_w2=win_2,
    )


# ---------------------------------------------------------------------------
# energy constant
# ---------------------------------------------------------------------------


def energy_constant_check(records, extract: ProfileExtract,
                          trap: TrapPotential, xbar) -> dict:
    """Limit constant of E/(a_hat-a)^{p/(p+2)} vs its profile decomposition.

    Left side: the constant of a fixed-exponent power-law fit of E over the
    last half of the usable records.  Right side: int rho^{5/3} plus
    alpha * int |y+xbar|^p rho on the rescaled profile.  Both sides are
    computed by this artifact independently of each other.
    """
    recs = usable_records(records)
    if len(recs) < 2:
        raise ValueError("need >= 2 usable records")
    meta = trap.metadata()
    p = float(meta.p)
    alpha = meta.alpha
    theta = p / (p + 2.0)
    a_hat = recs[-1].a + recs[-1].eps ** (p + 2.0)

    tail = recs[len(recs) // 2:]
    logs = [math.log(r.E) - theta * math.log(a_hat - r.a) for r in tail]
    lhs = math.exp(sum(logs) / len(logs))

    rho = extract.rescaled_density
    grid = rho.grid
    X, Y, Z = grid.meshgrid()
    xb = np.asarray(xbar, dtype=float)
    r2 = (X + xb[0]) ** 2 + (Y + xb[1]) ** 2 + (Z + xb[2]) ** 2
    weight = r2 ** (p / 2.0)
    p_norm = p_integral(rho)
    moment = integrate(ScalarField(grid, weight * rho.values))
    rhs = p_norm + alpha * moment

    tp = quotient_value(extract.rescaled_pair)
    return {
        "lhs_fit_constant": lhs,
        "rhs_profile_constant": rhs,
        "rel_err": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
        "p": p,
        "alpha": alpha,
        "theta": theta,
        "a_hat": a_hat,
        "profile_p_norm": p_norm,
        "profile_trap_moment": moment,
        "kinetic_identity": {
            "profile_quotient": tp,
            "a_hat": a_hat,
            "rel_dev": abs(tp - a_hat) / a_hat,
        },
    }


# ---------------------------------------------------------------------------
# report assembly and plot tables
# ---------------------------------------------------------------------------


def build_report(
    records,
    trap: TrapPotential,
    a_hat: float,
    profile_extracts: list[ProfileExtract],
    decay_extract: ProfileExtract | None = None,
    metadata: dict | None = None,
) -> dict:
    """Assemble every verdict into one JSON-ready dictionary.

    profile_extracts must share one reference grid and follow record order
    (ascending a); the decay extract may live on a wider grid.  A decay fit
    the extract's window cannot hold (positive scaled multipliers, a box of
    fewer than four decay lengths) leaves ``{"skipped": <reason>}`` under
    ``decay``; too few usable records raise ValueError.  Pure function: the
    report built from stored artifacts is the same, byte for byte, as the
    one built from the objects they were written from.
    """
    recs = list(records)
    use = usable_records(recs)
    meta = trap.metadata()
    p = float(meta.p)

    fits = []
    if len(use) >= 3:
        xs = [a_hat - r.a for r in use]
        for name, ys, expected in (
            ("E", [r.E for r in use], p / (p + 2.0)),
            ("P", [r.P for r in use], -2.0 / (p + 2.0)),
        ):
            f = fit_power_law(xs, ys)
            fits.append({
                "quantity": name,
                "exponent": f.exponent,
                "expected_exponent": expected,
                "log_constant": f.log_constant,
                "r_squared": f.r_squared,
                "n_points": f.n_points,
                "window": list(f.window),
            })

    report: dict = {
        "format_version": FORMAT_VERSION,
        "a_hat": float(a_hat),
        "p": p,
        "alpha": meta.alpha,
        "n_records": len(recs),
        "n_usable": len(use),
        "under_resolved": [bool(r.under_resolved) for r in recs],
        "converged": [bool(r.converged) for r in recs],
        "fits": fits,
        "concentration": track_concentration(recs, trap),
        "multipliers": multiplier_limits(recs, a_hat=a_hat),
    }

    if profile_extracts:
        masses = [ex.raw_mass for ex in profile_extracts]
        rhos = [ex.rescaled_density for ex in profile_extracts]
        dists = [norm(ScalarField(cur.grid, cur.values - prev.values))
                 for prev, cur in zip(rhos, rhos[1:])]
        tp = quotient_value(profile_extracts[-1].rescaled_pair)
        report["profile"] = {
            "raw_masses": masses,
            "max_mass_error": max(abs(m - 2.0) for m in masses),
            "consecutive_density_distances": dists,
            "last_three_decreasing": bool(
                len(dists) >= 2 and dists[-1] < dists[-2]
            ),
            "quotient": tp,
            "quotient_rel_dev": abs(tp - a_hat) / a_hat,
        }
        xbar = report["concentration"]["xbar"]
        report["energy_constant"] = energy_constant_check(
            recs, profile_extracts[-1], trap, xbar
        )

    if decay_extract is not None:
        lam = report["multipliers"]
        try:
            rates = fit_decay_rate(decay_extract)
        except WindowError as exc:
            report["decay"] = {"skipped": str(exc)}
        else:
            b_rho = math.sqrt(max(-lam["lambda2"], 0.0))
            b_w1 = 0.5 * math.sqrt(max(-lam["lambda1"], 0.0))
            b_w2 = 0.5 * math.sqrt(max(-lam["lambda2"], 0.0))
            report["decay"] = {
                "rate_rho": rates.rate_rho,
                "rate_w1": rates.rate_w1,
                "rate_w2": rates.rate_w2,
                "window_rho": list(rates.window_rho),
                "window_w1": list(rates.window_w1),
                "window_w2": list(rates.window_w2),
                "bound_rho": b_rho,
                "bound_w1": b_w1,
                "bound_w2": b_w2,
                "ok_rho": bool(rates.rate_rho >= 0.85 * b_rho),
                "ok_w1": bool(rates.rate_w1 >= 0.85 * b_w1),
                "ok_w2": bool(rates.rate_w2 >= 0.85 * b_w2),
            }

    if metadata:
        report["run"] = metadata
    return report


def write_json(doc: dict, path) -> None:
    """Write a JSON artifact atomically: sorted keys, two-space indent."""
    with atomic_open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_plot_tables(records, a_hat: float, outdir,
                      decay_extract: ProfileExtract | None = None) -> list:
    """Plot-ready CSVs: log-log pairs for E and P, radial density profile."""
    paths = []
    use = usable_records(records)
    for name, get in (("E", lambda r: r.E), ("P", lambda r: r.P)):
        path = os.path.join(outdir, f"loglog_{name}.csv")
        with atomic_open(path, "w") as fh:
            fh.write(f"a_hat_minus_a,{name}\n")
            for r in use:
                fh.write(f"{repr(a_hat - r.a)},{repr(get(r))}\n")
        paths.append(path)
    if decay_extract is not None:
        centers, means, counts = radial_shell_profile(decay_extract.rescaled_density)
        path = os.path.join(outdir, "radial_profile.csv")
        with atomic_open(path, "w") as fh:
            fh.write("r,rho_shell_mean\n")
            for c, m, k in zip(centers, means, counts):
                if k > 0:
                    fh.write(f"{repr(float(c))},{repr(float(m))}\n")
        paths.append(path)
    return paths
