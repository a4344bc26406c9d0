"""Orthonormal orbital frames: Loewdin orthonormalization and frame geometry.

The constraint manifold is the set of L2-orthonormal k-frames (u_1..u_k):
pairs for the trapped problem and the rank-2 quotient, single unit fields for
the rank-1 quotient.  All frame arithmetic is written once here, for a tuple
(or :class:`OrbitalPair`) of k fields:

* :func:`combine` multiplies a frame by a k x m matrix, the one kernel behind
  the package's frame rotations, tangent projections and Loewdin steps,
* :func:`frame_dot` is the frame inner product sum_i <x_i, y_i>,
* :func:`project_tangent` removes the symmetric part of <u_i, d_j>, leaving
  a direction that preserves orthonormality to first order,
* :func:`retract` steps along a direction and restores the constraint
  exactly via symmetric (Loewdin) orthonormalization,
* :func:`loewdin_frame` itself multiplies the frame by Gram^{-1/2}.

:func:`loewdin` is its k = 2 entry point returning an :class:`OrbitalPair`.
For two unit fields with overlap s the Loewdin output expands as
Q~_i = Q_i - (s/2) Q_j + O(s^2) with error below 2 s^2 for s <= 0.1.
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


def combine(fields, M, base=None, out=None) -> tuple[ScalarField, ...]:
    """Column j of (f_1..f_k) M, or base_j - (f_1..f_k) M[:, j] with ``base``.

    Terms accumulate (or are subtracted) one at a time in field order, one
    x-slab (:meth:`BoxGrid.x_slabs`) at a time, so each column equals the
    whole-array sequence f_1 M[0, j] + f_2 M[1, j] + .. bit for bit.  New
    columns are formed in place in their own arrays.  ``out``, a list of one
    array per column that receives the result, may hold the input fields'
    own arrays: every column of a slab is then formed before any is written.
    """
    fields = tuple(fields)
    grid = fields[0].grid
    k, m = M.shape
    fresh = out is None
    if fresh:
        out = [np.empty(grid.shape) for _ in range(m)]
    for s in grid.x_slabs():
        cols = []
        for j in range(m):
            dest = out[j][s] if fresh else None
            if base is None:
                v = np.multiply(fields[0].values[s], M[0, j], out=dest)
                for i in range(1, k):
                    v += fields[i].values[s] * M[i, j]
            else:
                v = np.subtract(base[j].values[s], fields[0].values[s] * M[0, j], out=dest)
                for i in range(1, k):
                    v -= fields[i].values[s] * M[i, j]
            cols.append(v)
        if not fresh:
            for o, v in zip(out, cols):
                o[s] = v
    return tuple(ScalarField(grid, o) for o in out)


def frame_dot(x, y) -> float:
    """Frame inner product sum_i <x_i, y_i> under the trapezoid weights."""
    return sum(inner(xi, yi) for xi, yi in zip(x, y))


def loewdin_frame(fields) -> tuple[ScalarField, ...]:
    """Symmetric orthonormalization (f_1..f_k) -> (f_1..f_k) Gram^{-1/2}."""
    fields = tuple(fields)
    return combine(fields, loewdin_matrix(gram(*fields)))


def project_tangent(frame, dirs) -> tuple[ScalarField, ...]:
    """Project a raw direction onto the tangent space of the constraint.

    The output satisfies <u_i, delta_j> + <u_j, delta_i> = 0 and the
    projection is idempotent.
    """
    frame = tuple(frame)
    k = len(frame)
    B = np.array([[inner(frame[i], dirs[j]) for j in range(k)] for i in range(k)])
    return combine(frame, 0.5 * (B + B.T), base=dirs)


def retract(frame, dirs, step: float) -> tuple[ScalarField, ...]:
    """Step along ``dirs`` and restore orthonormality by Loewdin."""
    return loewdin_frame(
        ScalarField(u.grid, u.values + step * d.values) for u, d in zip(frame, dirs)
    )


def loewdin(f1: ScalarField, f2: ScalarField) -> OrbitalPair:
    """Symmetric orthonormalization of a pair (k = 2 :func:`loewdin_frame`)."""
    return OrbitalPair(*loewdin_frame((f1, f2)))
