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


def loewdin_matrix(G: np.ndarray) -> np.ndarray:
    """Gram^{-1/2}, the matrix a frame with Gram matrix ``G`` is multiplied by."""
    vals, U = np.linalg.eigh(G)
    if vals[0] <= 1e-10:
        raise NearSingularGramError(float(vals[0]))
    return (U * (1.0 / np.sqrt(vals))) @ U.T


def loewdin_frame(fields) -> tuple[ScalarField, ...]:
    """Symmetric orthonormalization (f_1..f_k) -> (f_1..f_k) Gram^{-1/2}."""
    fields = tuple(fields)
    k = len(fields)
    S = loewdin_matrix(gram(*fields))
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
