"""Trap potentials, energies and the mean-field operator for an orbital pair.

The energy of an orthonormal pair (u1, u2) with density rho = u1^2 + u2^2 is

    E_a = T + W - a * P,
    T = sum_i kinetic(u_i),  W = int V rho,  P = int rho^{5/3},

and the associated mean-field operator is H = -lap + V - (5a/3) rho^{2/3}.
Multiplying the stationarity system by the orbitals and integrating gives the
trace identity  mu1 + mu2 = E - (2a/3) P,  which holds *exactly* for the 2x2
Rayleigh multipliers at any pair (the trace is rotation invariant), so it is
a free consistency check on every solver record.

Traps are finite products  V(x) = g * prod_m |x - x_m|^{p_m}  with a
positive constant prefactor g.  The flatness data derived from the wells:

    p       = max_m p_m
    alpha_m = lim_{x->x_m} V(x)/|x-x_m|^p   (+inf when p_m < p)
    alpha   = min over finite alpha_m
    Z       = argmin wells (the flattest minima)

Infinite alpha_m is represented by ``math.inf``, never by a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    BoxGrid,
    ScalarField,
    integrate,
    inner,
    kinetic_energy,
    laplacian_apply,
)
from .frames import OrbitalPair

FIVE_THIRDS = 5.0 / 3.0


class TrapError(ValueError):
    pass


@dataclass(frozen=True)
class Well:
    center: tuple[float, float, float]
    power: float

    def __post_init__(self):
        if not (self.power > 0.0 and math.isfinite(self.power)):
            raise TrapError(f"well power must be positive, got {self.power}")
        if len(self.center) != 3 or not all(math.isfinite(c) for c in self.center):
            raise TrapError(f"bad well center {self.center}")


@dataclass(frozen=True)
class TrapMetadata:
    p: float
    centers: tuple[tuple[float, float, float], ...]
    alphas: tuple[float, ...]  # math.inf flags the steeper wells
    alpha: float
    flattest: tuple[tuple[float, float, float], ...]  # the set Z


@dataclass(frozen=True)
class TrapPotential:
    wells: tuple[Well, ...]
    prefactor: float = 1.0

    def __post_init__(self):
        if not self.wells:
            raise TrapError("trap needs at least one well")
        centers = [np.asarray(w.center) for w in self.wells]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if np.linalg.norm(centers[i] - centers[j]) == 0.0:
                    raise TrapError(f"wells {i} and {j} share a center")
        if not (self.prefactor > 0.0 and math.isfinite(self.prefactor)):
            raise TrapError(f"prefactor must be positive, got {self.prefactor}")

    # ----- derived flatness data ------------------------------------------

    def metadata(self) -> TrapMetadata:
        p = max(w.power for w in self.wells)
        centers = tuple(tuple(float(c) for c in w.center) for w in self.wells)
        alphas = []
        for m, w in enumerate(self.wells):
            if w.power < p:
                alphas.append(math.inf)
                continue
            a = float(self.prefactor)
            for k, other in enumerate(self.wells):
                if k == m:
                    continue
                d = np.linalg.norm(np.asarray(w.center) - np.asarray(other.center))
                a *= d ** other.power
            alphas.append(float(a))
        finite = [a for a in alphas if math.isfinite(a)]
        alpha = min(finite)
        flattest = tuple(
            centers[m]
            for m, a in enumerate(alphas)
            if math.isfinite(a) and a <= alpha * (1.0 + 1e-12)
        )
        return TrapMetadata(
            p=float(p), centers=centers, alphas=tuple(alphas), alpha=alpha,
            flattest=flattest,
        )


def potential_field(trap: TrapPotential, grid: BoxGrid) -> ScalarField:
    """Sample the trap on the grid.  All well centers must sit inside the box."""
    L = grid.half_width
    for w in trap.wells:
        if max(abs(c) for c in w.center) > L:
            raise TrapError(f"well center {w.center} outside box [-{L}, {L}]^3")
    return ScalarField(grid, _well_product(trap, *grid.meshgrid()))


def _well_product(trap: TrapPotential, X, Y, Z) -> np.ndarray:
    """g * prod_m |x - x_m|^{p_m} at the points (X, Y, Z)."""
    V = np.full(X.shape, float(trap.prefactor))
    for w in trap.wells:
        r2 = (X - w.center[0]) ** 2 + (Y - w.center[1]) ** 2 + (Z - w.center[2]) ** 2
        V = V * r2 ** (w.power / 2.0)
    return V


# ---------------------------------------------------------------------------


@dataclass
class Diagnostics:
    """Energy decomposition and stationarity data for one pair."""

    energy: float
    kinetic: float
    potential: float
    p_norm: float  # int rho^{5/3}
    a: float
    mu1: float | None = None
    mu2: float | None = None
    sum_rule_residual: float | None = None
    virial_residual: float | None = None


def density(frame) -> ScalarField:
    """rho = sum_i u_i^2 of a frame (an :class:`OrbitalPair` or a tuple of k
    fields); integrates to k within k times the frame's orthonormality defect."""
    us = tuple(frame)
    v = us[0].values * us[0].values
    for u in us[1:]:
        v += u.values * u.values
    return ScalarField(us[0].grid, v)


def five_thirds_power(x: np.ndarray) -> np.ndarray:
    """x^{5/3} as c^4 c with c = cbrt(x): three products instead of numpy's
    general ``pow``, within 1e-15 relative of cbrt(x) ** 5, and exactly 0
    at x = 0."""
    c = np.cbrt(x)
    out = c * c
    out *= out
    out *= c
    return out


def p_integral(rho: ScalarField) -> float:
    """P = int rho^{5/3}."""
    return integrate(ScalarField(rho.grid, five_thirds_power(rho.values)))


def effective_potential(rho: ScalarField, V: ScalarField, a: float) -> np.ndarray:
    """V - (5a/3) rho^{2/3}, the multiplicative part of the mean-field operator."""
    return V.values - FIVE_THIRDS * a * np.cbrt(rho.values) ** 2


def quotient_value(frame) -> float:
    """Concentration quotient T (m/k)^{2/3} / P of a k-frame, m = int rho.

    On orthonormal frames m = k and this is T/P.  The mass factor makes it
    invariant under frame rotations and a common amplitude scale, so frames
    whose norms drift at rounding level compare on equal terms.
    """
    us = tuple(frame)
    rho = density(us)
    T = sum(kinetic_energy(u) for u in us)
    m = integrate(rho)
    return T * (m / len(us)) ** (2.0 / 3.0) / p_integral(rho)


def energy(pair: OrbitalPair, a: float, V: ScalarField) -> Diagnostics:
    """Fill the energy decomposition E = T + W - a*P."""
    rho = density(pair)
    T = kinetic_energy(pair.u1) + kinetic_energy(pair.u2)
    W = integrate(ScalarField(rho.grid, V.values * rho.values))
    P = p_integral(rho)
    return Diagnostics(
        energy=T + W - a * P,
        kinetic=T,
        potential=W,
        p_norm=P,
        a=a,
    )


def concentration_energies(
    pair: OrbitalPair,
    a: float,
    trap: TrapPotential,
    x0,
    taus,
) -> list[float]:
    """Energies of the exact concentration family built from ``pair``.

    The family v_i^tau(x) = tau^{3/2} u_i(tau (x - x0)) is orthonormal for
    every tau > 0, and both the kinetic term and the rho^{5/3} term scale
    exactly as tau^2, so

        E(tau) = tau^2 (T0 - a P0) + integral V(x0 + y/tau) rho0(y) dy,

    with T0, P0, rho0 taken from the supplied pair (its profile about the
    origin).  Only the trap term needs quadrature, and that integrand lives
    on the pair's own grid with the analytic potential sampled at contracted
    points — so narrow members of the family (large tau) cost no resolution.
    Above the threshold (a > T0/P0 achievable) the tau^2 term drives E to
    -infinity; below it, E grows without bound.
    """
    x0 = np.asarray(x0, dtype=float)
    grid = pair.grid
    rho = density(pair)
    T0 = kinetic_energy(pair.u1) + kinetic_energy(pair.u2)
    P0 = p_integral(rho)
    X, Y, Z = grid.meshgrid()
    out = []
    for tau in taus:
        t = float(tau)
        if t <= 0.0:
            raise ValueError(f"tau must be positive, got {tau}")
        V = _well_product(trap, x0[0] + X / t, x0[1] + Y / t, x0[2] + Z / t)
        trap_term = integrate(ScalarField(grid, V * rho.values))
        out.append(float(t * t * (T0 - a * P0) + trap_term))
    return out


def hamiltonian_apply(
    rho: ScalarField, V: ScalarField, a: float, frame
) -> tuple[ScalarField, ...]:
    """H u = -lap u + (V - (5a/3) rho^{2/3}) u for every orbital of a frame.

    ``frame`` is an :class:`OrbitalPair` or a tuple of fields; the effective
    potential is formed once for all of them.  H is Dirichlet-masked: the
    multiplicative part acts on the interior nodes only, as on the
    boundary-masked field, so the whole operator stays symmetric under the
    grid inner product and the boundary of each H u is zero.
    """
    core = (slice(1, -1),) * 3
    w = effective_potential(rho, V, a)[core]
    out = []
    for u in frame:
        hu = laplacian_apply(u)
        hu.values[core] += w * u.values[core]
        out.append(hu)
    return tuple(out)


def multipliers(frame, V: ScalarField, a: float):
    """Sorted eigenvalues and eigenbasis of the k x k matrix <u_i, H u_j>.

    Returns ((mu_1..mu_k), R, (H u_1..H u_k)) where R is the k x k rotation
    whose columns express the multiplier eigenbasis in terms of the frame
    (an :class:`OrbitalPair` or a tuple of fields).
    """
    us = tuple(frame)
    rho = density(us)
    hus = hamiltonian_apply(rho, V, a, us)
    M = np.array([[inner(u, hv) for hv in hus] for u in us])
    M = 0.5 * (M + M.T)
    vals, R = np.linalg.eigh(M)
    return tuple(float(v) for v in vals), R, hus


def sum_rule_residual(diag: Diagnostics) -> float:
    """Relative defect of mu1 + mu2 = E - (2a/3) P."""
    if diag.mu1 is None or diag.mu2 is None:
        raise ValueError("multipliers not set on diagnostics")
    lhs = diag.mu1 + diag.mu2
    rhs = diag.energy - (2.0 * diag.a / 3.0) * diag.p_norm
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def virial_residual(diag: Diagnostics, trap: TrapPotential) -> float | None:
    """Relative defect of 2(T - aP) = p W for a single homogeneous well.

    Only meaningful for one well (the dilation x -> tau x about the well
    center is then an exact symmetry of the continuum problem); returns None
    otherwise.
    """
    if len(trap.wells) != 1:
        return None
    p = trap.wells[0].power
    lhs = 2.0 * (diag.kinetic - diag.a * diag.p_norm)
    rhs = p * diag.potential
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def lower_bound_gap(diag: Diagnostics, a: float, a_star: float) -> float:
    """E - (1 - a/a_star) T; nonnegative when a_star certifies the quotient."""
    return diag.energy - (1.0 - a / a_star) * diag.kinetic


def diagnose(
    pair: OrbitalPair,
    a: float,
    V: ScalarField,
    trap: TrapPotential | None = None,
    mus: tuple[float, float] | None = None,
) -> Diagnostics:
    """Full diagnostics: energy parts, multipliers, trace identity, virial.

    ``mus`` are the pair's multipliers if the caller has computed them.
    """
    diag = energy(pair, a, V)
    diag.mu1, diag.mu2 = multipliers(pair, V, a)[0] if mus is None else mus
    diag.sum_rule_residual = sum_rule_residual(diag)
    if trap is not None:
        diag.virial_residual = virial_residual(diag, trap)
    return diag
