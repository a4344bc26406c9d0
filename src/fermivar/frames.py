"""Orthonormal orbital frames: Loewdin orthonormalization and frame geometry.

The constraint manifold is the set of L2-orthonormal k-frames (u_1..u_k):
pairs for the trapped problem and the rank-2 quotient, single unit fields for
the rank-1 quotient.  Moving on it uses three pieces, each written once for a
tuple of k fields:

* ``project_tangent_frame`` removes the symmetric part of <u_i, d_j>, leaving
  a direction that preserves orthonormality to first order,
* ``retract_frame`` steps along a direction and restores the constraint
  exactly via symmetric (Loewdin) orthonormalization,
* ``loewdin_frame`` itself multiplies the frame by Gram^{-1/2}.

``loewdin``, ``project_tangent`` and ``retract`` are their k = 2 entry points
on :class:`OrbitalPair`.  For two unit fields with overlap s the Loewdin
output expands as Q~_i = Q_i - (s/2) Q_j + O(s^2) with error below 2 s^2 for
s <= 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    BoxGrid,
    ScalarField,
    inner,
    integrate,
    resample_scaled,
)

PAIR_DEFECT_TOL = 1e-6


class NearSingularGramError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(
            f"Gram matrix nearly singular (min eigenvalue {min_eig:.3e}); "
            "the fields are linearly dependent or vanish"
        )
        self.min_eig = min_eig


class PairDefectError(ValueError):
    pass


def gram(*fields: ScalarField) -> np.ndarray:
    """Symmetric matrix of the inner products <f_i, f_j>."""
    k = len(fields)
    G = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            G[i, j] = G[j, i] = inner(fields[i], fields[j])
    return G


@dataclass
class OrbitalPair:
    """An orthonormal pair of fields on a shared grid.

    Construction checks the orthonormality defect against a loose tolerance;
    the solvers keep it at roundoff level via :func:`loewdin` and
    :func:`retract`.  Iterating a pair yields (u1, u2), its k = 2 frame.
    """

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise PairDefectError("orbitals live on different grids")
        d = self.defect()
        if not np.isfinite(d) or d > PAIR_DEFECT_TOL:
            raise PairDefectError(
                f"orthonormality defect {d:.3e} exceeds {PAIR_DEFECT_TOL:.0e}; "
                "run loewdin() first"
            )

    def __iter__(self):
        return iter((self.u1, self.u2))

    @property
    def grid(self) -> BoxGrid:
        return self.u1.grid

    def defect(self) -> float:
        G = gram(self.u1, self.u2)
        return float(np.abs(G - np.eye(2)).max())

    def copy(self) -> "OrbitalPair":
        return OrbitalPair(self.u1.copy(), self.u2.copy())


def loewdin_frame(fields) -> tuple[ScalarField, ...]:
    """Symmetric orthonormalization (f_1..f_k) -> (f_1..f_k) Gram^{-1/2}."""
    fields = tuple(fields)
    k = len(fields)
    vals, U = np.linalg.eigh(gram(*fields))
    if vals[0] <= 1e-10:
        raise NearSingularGramError(float(vals[0]))
    S = (U * (1.0 / np.sqrt(vals))) @ U.T
    out = []
    for j in range(k):
        v = fields[0].values * S[0, j]
        for i in range(1, k):
            v += fields[i].values * S[i, j]  # in place: one temporary field
        out.append(ScalarField(fields[0].grid, v))
    return tuple(out)


def project_tangent_frame(frame, dirs) -> tuple[ScalarField, ...]:
    """Project a raw direction onto the tangent space of the constraint.

    The output satisfies <u_i, delta_j> + <u_j, delta_i> = 0 and the
    projection is idempotent.
    """
    k = len(frame)
    B = np.array([[inner(frame[i], dirs[j]) for j in range(k)] for i in range(k)])
    S = 0.5 * (B + B.T)
    out = []
    for j in range(k):
        v = dirs[j].values - frame[0].values * S[0, j]
        for i in range(1, k):
            v -= frame[i].values * S[i, j]
        out.append(ScalarField(frame[0].grid, v))
    return tuple(out)


def retract_frame(frame, dirs, step: float) -> tuple[ScalarField, ...]:
    """Step along ``dirs`` and restore orthonormality by Loewdin."""
    return loewdin_frame(
        ScalarField(u.grid, u.values + step * d.values) for u, d in zip(frame, dirs)
    )


def loewdin(f1: ScalarField, f2: ScalarField) -> OrbitalPair:
    """Symmetric orthonormalization of a pair (k = 2 :func:`loewdin_frame`)."""
    return OrbitalPair(*loewdin_frame((f1, f2)))


def project_tangent(
    pair: OrbitalPair, d1: ScalarField, d2: ScalarField
) -> tuple[ScalarField, ScalarField]:
    """Tangent projection at a pair (k = 2 :func:`project_tangent_frame`)."""
    return project_tangent_frame((pair.u1, pair.u2), (d1, d2))


def retract(
    pair: OrbitalPair, d1: ScalarField, d2: ScalarField, step: float
) -> OrbitalPair:
    """Retraction at a pair (k = 2 :func:`retract_frame`)."""
    return OrbitalPair(*retract_frame((pair.u1, pair.u2), (d1, d2), step))


# ---------------------------------------------------------------------------
# concentration trial states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialPairInfo:
    renorm_1: float
    renorm_2: float
    overlap: float  # |<Q1_tau, Q2_tau>| before Loewdin
    cutoff_loss_1: float  # squared-mass fraction removed by the cutoff
    cutoff_loss_2: float
    degraded: bool


def smoothstep_cutoff(grid: BoxGrid, x0: np.ndarray, radius: float) -> ScalarField:
    """Quintic plateau: 1 on |x - x0| <= radius, 0 beyond 2*radius, C^2."""
    X, Y, Z = grid.meshgrid()
    r = np.sqrt((X - x0[0]) ** 2 + (Y - x0[1]) ** 2 + (Z - x0[2]) ** 2)
    t = np.clip((2.0 * radius - r) / radius, 0.0, 1.0)
    phi = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return ScalarField(grid, phi)


def make_trial_pair(
    minimizer: OrbitalPair,
    tau: float,
    x0,
    cutoff_radius_fraction: float = 0.4,
    target_grid: BoxGrid | None = None,
) -> tuple[OrbitalPair, TrialPairInfo]:
    """Cutoff-rescaled concentration family around x0.

    Q_i^tau(x) = A_i tau^{3/2} phi(x - x0) Q_i(tau (x - x0)) with a quintic
    plateau cutoff phi of radius cutoff_radius_fraction * L (full support
    twice that), each orbital renormalized, the pair then Loewdin-cleaned.
    For tau large the overlap and the renormalization corrections vanish
    rapidly; a tau too small for the cutoff flags ``degraded``.
    """
    if not (0.0 < cutoff_radius_fraction < 1.0):
        raise ValueError("cutoff_radius_fraction must lie in (0, 1)")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x0 = np.asarray(x0, dtype=float)
    grid = minimizer.grid if target_grid is None else target_grid
    radius = cutoff_radius_fraction * grid.half_width
    phi = smoothstep_cutoff(grid, x0, radius)

    raw = []
    losses = []
    for u in (minimizer.u1, minimizer.u2):
        # resample_scaled evaluates u(scale*x + center); u(tau(x - x0)) needs
        # center = -tau*x0 on the output coordinates.
        v = tau ** 1.5 * resample_scaled(u, tau, center=-tau * x0, out_grid=target_grid)
        bare = ScalarField(grid, v)
        cut = ScalarField(grid, v * phi.values)
        m_bare = integrate(ScalarField(grid, bare.values ** 2))
        m_cut = integrate(ScalarField(grid, cut.values ** 2))
        losses.append(1.0 - m_cut / m_bare if m_bare > 0 else 1.0)
        raw.append(cut)

    m1 = integrate(ScalarField(grid, raw[0].values ** 2))
    m2 = integrate(ScalarField(grid, raw[1].values ** 2))
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError("trial orbitals vanished: tau or cutoff out of range")
    A1, A2 = 1.0 / np.sqrt(m1), 1.0 / np.sqrt(m2)
    q1 = ScalarField(grid, raw[0].values * A1)
    q2 = ScalarField(grid, raw[1].values * A2)
    overlap = abs(inner(q1, q2))
    pair = loewdin(q1, q2)
    degraded = max(losses) > 1e-3
    info = TrialPairInfo(
        renorm_1=float(A1),
        renorm_2=float(A2),
        overlap=float(overlap),
        cutoff_loss_1=float(losses[0]),
        cutoff_loss_2=float(losses[1]),
        degraded=bool(degraded),
    )
    return pair, info
