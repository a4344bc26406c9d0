"""Variational solvers for the two-orbital ground state and the thresholds.

Both minimizations run on orthonormal frames through one preconditioned
Riemannian L-BFGS loop, :func:`optim.riemannian_lbfgs`; this module holds
the two problems it is handed:

* the trapped energy at fixed coupling a over orthonormal pairs,
  preconditioned by the separable surrogate of the mean-field operator
  averaged over the pair density's 1-D marginals; a descent that ends
  short of its tolerance, or on a pair that fails the aufbau check, takes
  one self-consistent-field step to the two lowest levels of the pair's
  own mean-field operator and descends once more from there.  A cold
  solve starts from the two lowest a = 0 Ritz pairs on
  the surrogate's product modes.  When the second level is degenerate
  (the p level of a symmetric trap) its Ritz basis is arbitrary, so the
  start takes the p orbital along the cube symmetry axis whose pair has
  the lowest energy at a (the body diagonals on the traps measured); the
  descent no longer turns it through the lattice's weak cubic anisotropy;
* the concentration quotient T/P over k-frames (k = 2 pairs, k = 1 unit
  fields), on slices pinned at fixed orbital widths and started from
  Gaussians, so no random numbers enter.  The discrete quotient degrades at
  the grid scale (a lattice spike scores T/P = 6 regardless of h), so
  collapse past the node-mass guard is an under-resolution error.

Eigenpairs come from a numpy block LOBPCG (:func:`_lobpcg`, Knyazev's
iteration as ``scipy.sparse.linalg.lobpcg`` runs it, so the package needs
no scipy) preconditioned with the inverse of a separable surrogate of the
mean-field operator (:class:`TensorPreconditioner`) on the axis lines
through its deepest node.  Each eigensolve starts from warm
fields where the solve has them and fills the rest of its block by a
Rayleigh-Ritz step on the surrogate's lowest product modes, which are
exact eigenvectors on a separable trap; no random numbers enter.  On a
product mode the operator acts as the surrogate eigenvalue plus the
diagonal's departure from the surrogate potential, so that step applies
no operator and is built over x-slabs in a few fields of memory.  One
LOBPCG run follows; the residuals of the requested levels are recomputed
and certified after it, and of the block's guard columns only their Ritz
values (upper bounds) and residuals come back, uncertified.

The continuum upper bound on the rank-2 threshold evaluates the separated
pair trial by a 2-D quadrature streamed over blocks of nodes
(:func:`separated_pair_upper_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    BoxGrid,
    ScalarField,
    axis_marginals,
    boundary_max_abs,
    dilate,
    dilation_generator,
    inner,
    integrate,
    marginal_second_moment,
    mask_boundary,
    neg_laplacian_core,
    norm,
    second_moment,
)
from .frames import (
    OrbitalPair,
    combine,
    frame_dot,
    loewdin,
    loewdin_frame,
    project_tangent,
    retract,
)
from .model import (
    Diagnostics,
    TrapPotential,
    density,
    diagnose,
    effective_potential,
    energy,
    five_thirds_power,
    hamiltonian_apply,
    multipliers,
    p_integral,
    potential_field,
    quotient_value,
)

from . import asymptotics as _asy
from .optim import riemannian_lbfgs
from .radial import gn_constants, shoot_soliton, shooting_report


class SolverError(RuntimeError):
    pass


class UnderResolvedError(SolverError):
    """The iterate collapsed below the resolvable width of the grid."""


# A quotient descent returns its record, the iterate with the smallest full
# residual (dilation components included, as the eigenresidual report
# measures it), and stops once no iterate has set a new record for this many
# iterations: past its stall the quotient inches down a node-concentration
# channel while that residual grows.  The widest gap between two records
# measured is 20 iterations (n = 96).
_STALL_PATIENCE = 25

# Curvature pairs kept by the ground-state L-BFGS descent.
_LBFGS_MEMORY = 8

# A LOBPCG run stops on its k lowest residuals after _GUARD_ITERS iterations
# at the earliest, unless the whole block has converged, and after
# _EIG_MAX_ITERS at the latest.  The guard columns' iterations decide the
# aufbau check: stopped as soon as its two levels were within tol, a level
# check certified stationary (1s, 2s) pairs at a = 6.5 as converged, 49-72 %
# above the minimum (harmonic n = 16 and 24, quartic n = 24).  One iteration
# sufficed on every forced start measured; 16, the length of the rounds this
# rule replaced, keeps the level checks' guard values as they were.
_GUARD_ITERS = 16
_EIG_MAX_ITERS = 96

# Product modes of the tensor preconditioner in the Rayleigh-Ritz start of
# every eigensolve.  The block's own k + 3 modes are not enough: from the
# 5 lowest alone the four-well trap of the tests (L = 2.5, n = 12, k = 2)
# converges to wrong levels, 16.54 for a lowest level of 12.27.
_START_MODES = 27

# Iterations between preconditioner rebuilds in both descents; the quotient
# descent re-pins drifted orbital widths on the same beat.
_REFRESH_EVERY = 25

# Narrowest radial width, in grid spacings, a quotient iterate may take.
_COLLAPSE_WIDTH_NODES = 6.0

# Largest single-node mass share an orbital may carry before the iterate
# counts as under-resolved.  This value admits cores spanning >~ 7.4
# spacings -- the per-node counterpart of the sweep rule that flags
# records with eps/h < 8.  At the default pinned width of (n-1)/10
# spacings, smooth profiles sit near 1e-3 for n >= 90 while node-scale
# cores stay above 5e-3 at any n; coarser grids would need a larger value.
_SPIKE_GUARD = 2.5e-3

# Residual norm below which every LOBPCG column must fall before its Gram
# matrices are computed rather than taken as exact.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# Eigenresidual scale: a converged trapped solve's Euler-Lagrange
# residuals may reach 50 times it, however small grad_tol is.
_EIG_TOL = 1e-7

# The cube's 13 symmetry axes: four-fold, two-fold, then three-fold.
_CUBE_AXES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6
    # Pinned width of a quotient minimizer as a fraction of the box
    # half-width.  The quotient is dilation-invariant, so any pin scale is
    # equally valid in exact arithmetic; on the grid the kinetic stencil
    # under-counts narrow profiles, so the pin should sit near the scale the
    # estimate will be compared against (for continuation runs, the width of
    # the deepest resolved records).
    pin_fraction: float = 0.2

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if not (0.0 < self.pin_fraction <= 0.45):
            raise ValueError("pin_fraction must lie in (0, 0.45]")


@dataclass
class EigResult:
    values: np.ndarray
    fields: list[ScalarField]
    residuals: np.ndarray
    converged: bool
    iterations: int
    # Ritz values (upper bounds on the next levels) and residuals of the
    # block's guard columns; the residuals do not enter ``converged``
    guard_values: np.ndarray
    guard_residuals: np.ndarray


@dataclass
class SolveResult:
    pair: OrbitalPair
    diag: Diagnostics
    converged: bool
    iters: int
    residuals: tuple[float, float]  # (inf, inf) after a breach: not computed
    # (iteration, energy, grad norm); the SCF step's entry holds its L1 change
    history: list[tuple[int, float, float]]
    # why the descent stopped (see optim.riemannian_lbfgs); a second pass
    # reads "<first>+scf+<second>" after a descent that stopped short, or
    # "aufbau+<second>" after an aufbau failure
    stop_reason: str
    threshold_breach: bool = False
    degeneracy_gap: float | None = None
    # SCF steps taken (0 or 1) and the L1 density change of that step
    scf_outer: int = 0
    scf_defect: float | None = None
    max_pair_defect: float = 0.0
    width: float = 0.0
    # the two certified levels and an upper bound on the next, uncertified
    eig_values: tuple[float, ...] = ()
    # LOBPCG iterations of the closing level checks
    level_eig_iters: int = 0


# ---------------------------------------------------------------------------
# preconditioner and eigensolver
# ---------------------------------------------------------------------------


class TensorPreconditioner:
    """Inverse of a separable surrogate of -lap + diag on interior nodes.

    The surrogate potential v1(x)+v2(y)+v3(z) - 2 depth averages the given
    diagonal over product weights: v1 = sum_jk diag[:, j, k] w2[j] w3[k]
    (likewise v2, v3) are the ``lines`` and ``depth`` = sum_i v1[i] w1[i]
    is the diagonal's mean, counted once.  This is the mean-field
    (vibrational SCF) separable surrogate of a potential on a product
    density, and its mean under the weights equals the diagonal's.  The
    default ``weights`` are one-hot at the diagonal's minimum node i0, so
    the lines are the diagonal along the three axis lines through i0 and
    ``depth`` is diag(i0): the surrogate sees the trap growth and the
    attractive mean-field well where the orbitals live.  The ground-state
    descent passes its pair density's 1-D marginals instead, so the
    surrogate sees the whole well.  The 1-D operators 2/h^2 + v_d with
    off-diagonal -1/h^2 have eigenvalues ``lams[d]`` and eigenvectors
    ``Q[d]``; a product mode Q1[:, i] (x) Q2[:, j] (x) Q3[:, l] is an
    eigenvector of the surrogate operator with eigenvalue lams[0][i] +
    lams[1][j] + lams[2][l] - 2 depth.  Exactly separable potentials (e.g.
    the pure harmonic trap, centred or not, at a = 0) make the surrogate
    exact under any weights, and its product modes are then the operator's
    eigenvectors (:func:`_start_block`).  Application transforms each axis
    into the eigenbasis of its 1-D tridiagonal operator, divides by the
    summed eigenvalues and transforms back: six (m, m) matrix products per
    field.
    """

    # shift added to the surrogate operator
    SHIFT = 1.0

    def __init__(self, grid: BoxGrid, diag: np.ndarray, weights=None):
        h = grid.spacing
        m = diag.shape[0]
        if weights is None:
            i0 = np.unravel_index(int(np.argmin(diag)), diag.shape)
            weights = tuple(np.eye(1, m, i)[0] for i in i0)
        w1, w2, w3 = weights
        # einsum, not BLAS: the averages do not depend on the thread count,
        # and one-hot weights pick the diagonal's values exactly
        self.lines = (
            np.einsum("ijk,j,k->i", diag, w2, w3),
            np.einsum("ijk,i,k->j", diag, w1, w3),
            np.einsum("ijk,i,j->k", diag, w1, w2),
        )
        self.depth = float(np.einsum("i,i->", self.lines[0], w1))
        self.Q = []
        self.lams = []
        # LAPACK's dense symmetric solver on the m x m tridiagonal gives the
        # same bits as its tridiagonal one at every m measured (10 to 158)
        off = np.diag(np.full(m - 1, -1.0 / (h * h)), 1)
        for v in self.lines:
            lam, Q = np.linalg.eigh(np.diag(2.0 / (h * h) + v) + off + off.T)
            self.Q.append(np.ascontiguousarray(Q))
            self.lams.append(lam)
        lams = self.lams
        den = (
            lams[0][:, None, None]
            + lams[1][None, :, None]
            + lams[2][None, None, :]
            + (self.SHIFT - 2.0 * self.depth)
        )
        dmin = float(den.min())
        if dmin <= 0.0:  # keep the surrogate SPD whatever the well depth
            den += 1.0 - dmin
        self.den = den

    def apply_core(self, core: np.ndarray) -> np.ndarray:
        """Surrogate inverse of one (m, m, m) field or an (m, m, m, b) block.

        Each mode product contracts the leading spatial axis and appends
        the new one, (i, j, k) -> (j, k, a): one (m^2, m) @ (m, m) matmul
        on a transposed view, so three products bring the axes back to
        their order with no copy.  A block goes one field at a time, so it
        equals its fields applied one at a time and each field's working set
        stays in cache (n = 32, 5 fields, one BLAS thread: 2.2 ms, against
        2.6 ms for one batched product); the last product of each field is
        written into its row of a field-major result.  The result does not
        depend on the BLAS thread count (identical under 1 and 2 OpenBLAS
        threads for n = 10..160; a test pins n = 96), which products with m
        rows and m^2 columns do not guarantee.
        """
        m = self.den.shape[0]
        fields = core.reshape(m ** 3, -1)
        out = np.empty(fields.shape[::-1])
        for j, row in enumerate(out):
            t = np.ascontiguousarray(fields[:, j])
            for Q in self.Q:
                t = np.matmul(t.reshape(m, -1).T, Q)
            t = t.reshape(-1) / self.den.reshape(-1)
            for Q in self.Q[:2]:
                t = np.matmul(t.reshape(m, -1).T, Q.T)
            np.matmul(t.reshape(m, -1).T, self.Q[2].T, out=row.reshape(m * m, m))
        return out.T.reshape(core.shape)


def _core(values: np.ndarray) -> np.ndarray:
    return values[1:-1, 1:-1, 1:-1]


def _pad(core: np.ndarray) -> np.ndarray:
    n = core.shape[0] + 2
    out = np.zeros((n, n, n))
    out[1:-1, 1:-1, 1:-1] = core
    return out


def _apply_prec(prec: TensorPreconditioner, frame):
    """The preconditioner on the interior nodes of every field of a frame."""
    return tuple(ScalarField(f.grid, _pad(prec.apply_core(_core(f.values)))) for f in frame)


def _start_block(prec: TensorPreconditioner, diag: np.ndarray,
                 warm: list[ScalarField] | None, block: int):
    """The start of an eigensolve of A = -lap + diag: (m^3, block) columns,
    and the Ritz values of those past the warm ones.

    The ``warm`` fields come first.  The other columns are the lowest
    (orthonormal) Ritz vectors of A on the surrogate's ``_START_MODES``
    lowest product modes b_c (in stable argsort order of the summed 1-D
    eigenvalues), past the first ``len(warm)``.  A product mode satisfies
    A b = L b + R o b, with L its surrogate eigenvalue and R = diag minus
    the surrogate potential, so the Ritz matrix is S = diag(L) + B^T (R o B)
    and needs no operator application.  S is accumulated, and the columns
    B U are written, over x-slabs of m // _START_MODES rows: no slab holds
    more than one field's worth of mode values, and B itself is never formed.
    """
    m = diag.shape[0]
    X = np.empty((m ** 3, block))
    nwarm = 0
    for f in (warm or [])[:block]:
        X[:, nwarm] = _core(f.values).ravel()
        nwarm += 1
    if nwarm == block:
        return X, np.empty(0)
    # den grows weakly with each index, so a mode with an index past
    # _START_MODES has at least _START_MODES modes before it in the stable
    # order: the lowest lie in the corner of smaller indices, whose stable
    # order is that of the whole grid
    c = min(m, _START_MODES)
    corner = prec.den[:c, :c, :c]
    modes = np.argsort(corner, axis=None, kind="stable")[:_START_MODES]
    i, j, l = np.unravel_index(modes, corner.shape)
    (Q1, Q2, Q3), (v1, v2, v3) = prec.Q, prec.lines
    L0, L1, L2 = prec.lams
    rows = max(1, m // _START_MODES)

    def slabs():
        for x0 in range(0, m, rows):
            x = slice(x0, min(m, x0 + rows))
            B = Q1[x, None, None, i] * Q2[None, :, None, j] * Q3[None, None, :, l]
            yield x, B.reshape(-1, modes.size)

    S = np.diag(L0[i] + L1[j] + L2[l] - 2.0 * prec.depth)
    for x, B in slabs():
        R = (diag[x] - v1[x, None, None] - v2[None, :, None] - v3[None, None, :]
             + 2.0 * prec.depth)
        S += B.T @ (R.reshape(-1, 1) * B)
    vals, U = np.linalg.eigh(0.5 * (S + S.T))
    U = U[:, nwarm:block]
    for x, B in slabs():
        X[x.start * m * m:x.stop * m * m, nwarm:] = B @ U
    return X, vals[nwarm:block]


def _unit_fields(grid: BoxGrid, X: np.ndarray) -> list[ScalarField]:
    """The orthonormal rows of an (c, m^3) interior block as fields of unit
    L2 norm, zero on the boundary."""
    m = grid.n_per_axis - 2
    scale = math.sqrt(grid.spacing ** 3)
    return [ScalarField(grid, _pad(x.reshape(m, m, m) / scale)) for x in X]


def _inv_cholesky(V: np.ndarray):
    """Inverse of the lower Cholesky factor L of V V^T, so that L^{-1} V has
    orthonormal rows; None if V V^T is not numerically positive definite."""
    try:
        # the copy keeps the product off BLAS syrk, which numpy calls for
        # V @ V.T and which took 3.5 times as long on (5, 27000) blocks
        return np.linalg.inv(np.linalg.cholesky(V @ V.copy().T))
    except np.linalg.LinAlgError:
        return None


def _symmetric(upper) -> np.ndarray:
    """The symmetric matrix whose block row i starts with the blocks
    ``upper[i]`` from the diagonal on; diagonal blocks are symmetrized."""
    rows = []
    for i, row in enumerate(upper):
        rows.append([upper[j][i - j].T for j in range(i)]
                    + [0.5 * (row[0] + row[0].T), *row[1:]])
    return np.block(rows)


def _ritz(gram_a: np.ndarray, gram_b: np.ndarray, count: int):
    """The ``count`` lowest eigenpairs of the pencil (gram_a, gram_b), by the
    Cholesky factor L of gram_b, with the eigenvectors as rows; None if
    gram_b is not numerically positive definite."""
    try:
        Li = np.linalg.inv(np.linalg.cholesky(gram_b))
    except np.linalg.LinAlgError:
        return None
    vals, Y = np.linalg.eigh(Li @ gram_a @ Li.T)
    return vals[:count], Y[:, :count].T @ Li


def _lobpcg(matmat, pmat, X: np.ndarray, k: int, tol: float):
    """Lowest eigenpairs of a symmetric operator by block LOBPCG, in one run.

    Knyazev's locally optimal block preconditioned conjugate gradient
    (SIAM J. Sci. Comput. 23, 2001), step for step the iteration of
    ``scipy.sparse.linalg.lobpcg`` with B = I, less its restart on a
    residual that grows 2^20-fold.  Blocks hold one vector per row, so
    every vector is contiguous: ``X`` is the (b, N) start, with orthonormal
    rows, and ``matmat`` and ``pmat`` apply the operator and the
    preconditioner to (c, N) blocks.  Each iteration

    * forms the residuals R = A X - diag(lam) X and locks every vector whose
      residual norm has fallen to 0.2 ``tol``: it stays in X and in the
      Rayleigh-Ritz step but gets no new directions (soft locking);
    * preconditions the active residuals, W = pmat(R), orthogonalizes W
      against X and orthonormalizes it, and the active rows of P (the W and
      P part of the last update) likewise, by the inverse Cholesky factor of
      their Gram matrix (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006);
    * moves X to the b lowest Ritz pairs of [X W P].  Its Gram matrices are
      assembled from (<= b, N) block products; X X^T = W W^T = P P^T = I and
      X W^T = 0 are taken as exact until every residual is below sqrt(eps),
      and computed from then on.  A P that cannot be orthonormalized, or a
      Gram matrix of [X W P] that is not numerically positive definite,
      drops P from the step.

    One run carries P throughout.  It stops when every vector is locked,
    when the k lowest residuals are within ``tol`` after ``_GUARD_ITERS``
    iterations or more, after ``_EIG_MAX_ITERS``, or when W cannot be
    orthonormalized or no Rayleigh-Ritz step is possible.  Returns the last
    iterate and the number of iterations run.
    """
    X = _inv_cholesky(X) @ X
    AX = matmat(X)
    lam, V = np.linalg.eigh(X @ AX.T)
    X, AX = V.T @ X, V.T @ AX
    b = lam.size
    active = np.ones(b, dtype=bool)
    P = AP = None
    explicit = False
    it = 0
    while True:
        R = AX - lam[:, None] * X
        res = np.sqrt(np.einsum("ij,ij->i", R, R))
        active &= res > 0.2 * tol
        if (not active.any() or it >= _EIG_MAX_ITERS
                or (it >= _GUARD_ITERS and res[:k].max() <= tol)):
            return X, it
        W = pmat(R[active])
        W -= (W @ X.T) @ X
        F = _inv_cholesky(W)
        if F is None:
            return X, it
        W = F @ W
        AW = matmat(W)
        c = W.shape[0]
        if P is not None:
            P, AP = P[active], AP[active]
            F = _inv_cholesky(P)
            if F is not None:
                P, AP = F @ P, F @ AP
        explicit = explicit or res.max() <= _SQRT_EPS
        if explicit:
            XAX, XX, XW, WW = X @ AX.T, X @ X.T, X @ W.T, W @ W.T
        else:
            XAX, XX, XW, WW = np.diag(lam), np.eye(b), np.zeros((b, c)), np.eye(c)
        XAW, WAW = X @ AW.T, W @ AW.T
        step = None
        if P is not None and F is not None:
            PP = P @ P.T if explicit else np.eye(c)
            step = _ritz(
                _symmetric([[XAX, XAW, X @ AP.T], [WAW, W @ AP.T], [P @ AP.T]]),
                _symmetric([[XX, XW, X @ P.T], [WW, W @ P.T], [PP]]), b)
        if step is not None:
            lam, V = step
            VP = V[:, b + c:]
            P, AP = V[:, b:b + c] @ W + VP @ P, V[:, b:b + c] @ AW + VP @ AP
        else:
            step = _ritz(_symmetric([[XAX, XAW], [WAW]]), _symmetric([[XX, XW], [WW]]), b)
            if step is None:
                return X, it
            lam, V = step
            P, AP = V[:, b:] @ W, V[:, b:] @ AW
        X, AX = V[:, :b] @ X + P, V[:, :b] @ AX + AP
        it += 1


def lowest_eigenpairs(
    rho: ScalarField,
    V: ScalarField,
    a: float,
    k: int,
    tol: float,
    warm: list[ScalarField] | None = None,
) -> EigResult:
    """Certified k lowest eigenpairs of H = -lap + V - (5a/3) rho^{2/3}.

    One LOBPCG run (:func:`_lobpcg`) with the tensor preconditioner on a
    block of k + 3, whose stop rule gives the guard columns the iterations
    the aufbau check needs (``_GUARD_ITERS``), then one Rayleigh-Ritz step
    on fresh operator products; the residuals ||H v - lam v|| of its k
    lowest rows are recomputed in L2 and certify them if all are within
    tol.  Only those rows become fields; the three guard columns return
    their Ritz values, upper bounds on the levels of their index, and
    residuals, uncertified.

    The start block (:func:`_start_block`) holds the ``warm`` fields first.
    Its other columns are the lowest Ritz vectors of H on the
    preconditioner's ``_START_MODES`` lowest product modes, past the first
    ``len(warm)``, built slab by slab in a few fields of memory.  Where
    the surrogate is exact (a separable trap at a = 0) those modes are
    eigenvectors of H, so LOBPCG only certifies them.  No random numbers
    enter: the same input gives the same block.  ``iterations`` counts the
    LOBPCG iterations run, at least one.
    """
    if k < 1 or k > 8:
        raise ValueError("k must be in 1..8")
    grid = rho.grid
    n, h = grid.n_per_axis, grid.spacing
    m = n - 2
    diag = _core(effective_potential(rho, V, a))
    prec = TensorPreconditioner(grid, diag)

    # blocks hold one field per row; the kernels see them as (m, m, m, c)
    # views with the fields last, and return the same memory layout
    def matmat(X: np.ndarray) -> np.ndarray:
        x = X.reshape(-1, m, m, m)
        y = neg_laplacian_core(x.transpose(1, 2, 3, 0), h).transpose(3, 0, 1, 2)
        y += diag * x
        return y.reshape(X.shape)

    def pmat(X: np.ndarray) -> np.ndarray:
        x = X.reshape(-1, m, m, m).transpose(1, 2, 3, 0)
        return prec.apply_core(x).transpose(3, 0, 1, 2).reshape(X.shape)

    block = min(m ** 3, k + 3)
    X = np.ascontiguousarray(np.linalg.qr(_start_block(prec, diag, warm, block)[0])[0].T)
    X, iterations = _lobpcg(matmat, pmat, X, k, tol)
    AX = matmat(X)
    evals, U = _ritz(X @ AX.T, X @ X.T, block)
    X, AX = U @ X, U @ AX
    R = AX - evals[:, None] * X
    res = np.sqrt(np.einsum("ij,ij->i", R, R))

    # L2 residuals equal algebraic ones under the uniform interior weight
    return EigResult(
        values=np.asarray(evals[:k], dtype=float),
        fields=_unit_fields(grid, X[:k]),
        residuals=np.asarray(res[:k], dtype=float),
        converged=bool(res[:k].max() <= tol),
        # a start already within tol takes no step but counts one
        iterations=max(1, iterations),
        guard_values=np.asarray(evals[k:], dtype=float),
        guard_residuals=np.asarray(res[k:], dtype=float),
    )


# ---------------------------------------------------------------------------
# shared solver pieces
# ---------------------------------------------------------------------------


def _gradient_fields(frame, rho, V, a):
    """2 H u_i for every orbital of the frame."""
    hus = hamiltonian_apply(rho, V, a, frame)
    for hu in hus:
        hu.values *= 2.0
    return hus


def _positive_lobe(u: ScalarField) -> ScalarField:
    """Deterministic sign convention: the dominant lobe is made positive.

    The reference node is the first (C-order) node attaining max |u|; its
    value is made positive, by negating ``u`` in place.  For a nodeless
    orbital this is plain positivity, for a p-like orbital it pins one lobe.
    """
    if u.values.ravel()[int(np.argmax(np.abs(u.values)))] < 0:
        u.values *= -1.0
    return u


def _rotate_to_multiplier_basis(frame, V, a):
    """The stationarity finish of every minimizer, for a k-frame.

    Rotates the frame to the eigenbasis of <u_i, H u_j>, H = -lap + V -
    (5a/3) rho^{2/3}, makes each dominant lobe positive
    (:func:`_positive_lobe`) and certifies the result.  Returns the rotated
    fields, their multipliers mu_1 <= .. <= mu_k and the eigenresiduals
    ||H u_i - mu_i u_i|| of the rotated frame.
    """
    us = tuple(frame)
    mus, R, _ = multipliers(us, V, a)
    rotated = [_positive_lobe(u) for u in combine(us, R)]
    hus = hamiltonian_apply(density(rotated), V, a, rotated)
    residuals = tuple(norm(ScalarField(u.grid, hu.values - mu * u.values))
                      for u, hu, mu in zip(rotated, hus, mus))
    return tuple(rotated), mus, residuals


def pair_width(pair: OrbitalPair) -> float:
    """Effective width (int |x|^2 rho / 2)^{1/2} about the origin."""
    rho = density(pair)
    return math.sqrt(max(second_moment(rho) / 2.0, 0.0))


def _density_sigma(rho: ScalarField, center: np.ndarray) -> float:
    """Per-axis standard deviation of rho/2 about ``center``."""
    mass = integrate(rho)
    if mass <= 0:
        return 0.0
    return math.sqrt(max(second_moment(rho, center) / mass / 3.0, 0.0))


def _centroid(grid: BoxGrid, marginals) -> tuple[float, float, float]:
    """Centroid of a unit-mass density from its :func:`axis_marginals`."""
    xw = grid.axis() * grid.quad_weights_1d()
    return tuple(p @ xw for p in marginals)


def _gaussian(grid: BoxGrid, sigma: float):
    """exp(-|x|^2 / (4 sigma^2)) on the nodes, and the node coordinates."""
    xs = grid.meshgrid()
    r2 = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    return np.exp(-r2 / (4.0 * sigma * sigma)), xs


def _unit_orbital(grid: BoxGrid, values: np.ndarray) -> ScalarField:
    """``values`` with the boundary set to zero, scaled to unit norm."""
    f = ScalarField(grid, mask_boundary(values))
    return ScalarField(grid, f.values / norm(f))


def gaussian_pair(grid: BoxGrid, sigma: float) -> OrbitalPair:
    """s-like and x-axis p-like Gaussians, the structured initial guess."""
    g, xs = _gaussian(grid, sigma)
    return loewdin(_unit_orbital(grid, g), _unit_orbital(grid, xs[0] * g))


# ---------------------------------------------------------------------------
# trapped ground state
# ---------------------------------------------------------------------------


class _GroundStateDescent:
    """The trapped energy at coupling a as a :func:`riemannian_lbfgs` problem.

    Directions are horizontal (Grassmann): E depends on the pair only
    through rho, so :meth:`project` also drops the flat in-span rotation
    that :func:`project_tangent` keeps.  The inner product is the
    trapezoid :func:`frames.frame_dot`.  H_0 is the tensor preconditioner
    averaged over the pair density's 1-D marginals, rebuilt every
    ``_REFRESH_EVERY`` iterations.  The run stops on ``"breach"`` at the
    twelfth iterate below ``breach_floor``, or at the first
    1e3 (1 + |floor|) below it, so the history records the dive.
    """

    dot = staticmethod(frame_dot)

    def __init__(self, a: float, V: ScalarField, breach_floor: float):
        self.a, self.V, self.floor = a, V, breach_floor
        self.post_breach, self.max_defect = 0, 0.0

    def move(self, pair, d, step):
        cand = OrbitalPair(*retract(pair, d, step))
        return cand, energy(cand, self.a, self.V).energy

    def gradient(self, pair, rho=None):
        rho = density(pair) if rho is None else rho
        return project_tangent(pair, _gradient_fields(pair, rho, self.V, self.a))

    def project(self, v):
        M = np.array([[inner(u, d) for d in v] for u in self.pair])
        return combine(self.pair, M, base=v)

    def precondition(self, v):
        return self.project(_apply_prec(self.prec, v))

    def examine(self, it, pair, E):
        self.pair = pair
        self.max_defect = max(self.max_defect, pair.defect())
        rho = density(pair)
        if it % _REFRESH_EVERY == 1:
            core = _core(rho.values)
            marginals = (core.sum(axis=(1, 2)), core.sum(axis=(0, 2)), core.sum(axis=(0, 1)))
            self.prec = TensorPreconditioner(
                pair.grid, _core(effective_potential(rho, self.V, self.a)),
                weights=tuple(w / w.sum() for w in marginals),
            )
        self.post_breach += E < self.floor
        deep = E < self.floor - 1e3 * (1 + abs(self.floor))
        stop = "breach" if self.post_breach >= 12 or deep else None
        return pair, E, self.gradient(pair, rho), stop, False


def scf_refine(pair: OrbitalPair, eig: EigResult, a: float, V: ScalarField,
               history: list) -> tuple[OrbitalPair, int, float]:
    """One self-consistent-field step from ``pair``.

    Occupies the two lowest fields of ``eig``, the certified eigen block
    of H[rho(pair)] (the level check), Loewdin-orthonormalized, and
    appends (step, energy, L1 density change) to ``history``.  Returns
    (new pair, 1, L1 density change).  The step count and the history
    entry serve the benchmark's tracer, which wraps this function by name,
    reads ``result[1]`` as its SCF steps and counts descent iterations as
    ``iters - scf_outer``; ROADMAP item 4 retires that coupling.
    """
    cand = loewdin(eig.fields[0], eig.fields[1])
    change = integrate(ScalarField(
        pair.grid, np.abs(density(cand).values - density(pair).values)))
    history.append((len(history) + 1, energy(cand, a, V).energy, change))
    return cand, 1, change


def _degenerate_shell(values, fields: list[ScalarField]) -> list[ScalarField]:
    """The fields of the second level if it is degenerate, else [].

    A level within 1e-8 (1 + |value|) of the second is degenerate with it;
    a second level degenerate with the first counts as no shell.
    """
    tol = 1e-8 * (1.0 + abs(values[1]))
    shell = [f for v, f in zip(values, fields) if abs(v - values[1]) <= tol]
    return [] if len(shell) < 2 or abs(values[0] - values[1]) <= tol else shell


def _ritz_levels(grid: BoxGrid, V: ScalarField):
    """The five lowest Ritz values and unit fields of -lap + V on the
    surrogate's product modes, the start of a k = 2 eigensolve at a = 0
    (:func:`_start_block`); exact eigenpairs on a separable trap."""
    diag = _core(V.values)
    X, values = _start_block(TensorPreconditioner(grid, diag), diag, None, 5)
    return values, _unit_fields(grid, X.T)


def _axis_start(u1: ScalarField, shell: list[ScalarField], n) -> OrbitalPair:
    """The pair of u1 and (n . (x - xbar)) u1 projected onto the shell.

    xbar is the centroid of u1^2; n . x is formed from the 1-D axis.
    """
    grid, x = u1.grid, u1.grid.axis()
    xbar = _centroid(grid, axis_marginals(ScalarField(grid, u1.values * u1.values)))
    d = [ni * (x - ci) for ni, ci in zip(n, xbar)]
    t = ScalarField(grid, u1.values * (
        d[0][:, None, None] + d[1][None, :, None] + d[2][None, None, :]))
    return loewdin(u1, *combine(shell, np.array([[inner(f, t)] for f in shell])))


def _oriented_start(values, fields: list[ScalarField], a: float,
                    V: ScalarField) -> OrbitalPair:
    """The cold-start pair from :func:`_ritz_levels`, oriented for coupling a.

    A non-degenerate second level gives the two lowest fields.  In a
    degenerate shell (the p level of a symmetric trap) their basis is
    arbitrary, and the descent would spend most of its iterations turning
    the p orbital through the lattice's weak cubic anisotropy.  The start
    is instead the :func:`_axis_start` of lowest energy at a over the cube
    symmetry axes ``_CUBE_AXES``, scanned in order; a later axis displaces
    the best only when lower by more than 1e-8 relative.  Axes equivalent
    by symmetry tie to rounding (below 1e-15 relative at a = 5, n = 24 and
    32), while face and body diagonals differ by 1e-4 (quartic) to 1e-3
    (harmonic), so the pick is the table's first axis of the lowest class.
    """
    shell = _degenerate_shell(values, fields)
    if not shell:
        return loewdin(fields[0], fields[1])
    best, best_E = None, math.inf
    for n in _CUBE_AXES:
        cand = _axis_start(fields[0], shell, n)
        E = energy(cand, a, V).energy
        if best is None or E < best_E - 1e-8 * abs(best_E):
            best, best_E = cand, E
    return best


def minimize_ground_state(
    a: float,
    trap: TrapPotential,
    grid: BoxGrid,
    cfg: SolverConfig,
    warm_start: OrbitalPair | None = None,
) -> SolveResult:
    """Trapped two-orbital ground state at coupling a.

    Riemannian L-BFGS descent (:class:`_GroundStateDescent`), then the
    rotation to the multiplier eigenbasis with certified eigenresiduals
    and the aufbau check below.  One rule decides a second pass: a first
    pass that stops short of grad_tol (``max_iters``, or ``line_search``
    when neither the Armijo nor the derivative test takes a step) or
    fails the aufbau check takes one SCF step (:func:`scf_refine`: the
    check's two lowest fields, Loewdin-orthonormalized) and descends once
    more from there.  Each pass gets ``cfg.max_iters`` iterations.
    ``history`` and ``iters`` count both passes' iterations and the SCF
    step; ``scf_outer`` counts the SCF step (0 or 1), and ``scf_defect``
    is its L1 density change.
    ``stop_reason`` reads left to right: the first descent's reason, then
    for a second pass ``+scf+`` and its reason after a short stop (for
    instance ``max_iters+scf+tolerance``), or ``aufbau+`` and its reason
    after an aufbau failure (``aufbau+tolerance``).  A cold solve calls
    no eigensolver: it starts from :func:`_oriented_start` of the five
    a = 0 Ritz pairs of :func:`_ritz_levels` (exact eigenpairs on a
    separable trap).  A ``warm_start`` with non-zero boundary values (a
    quotient slice's frame, say) has its boundary planes set to zero and
    is Loewdin-orthonormalized again: the kinetic energy ignores boundary
    nodes that the mass counts, and the descent's own moves keep them
    zero.  ``converged`` needs the last pass's small eigenresiduals and
    its aufbau property, checked on a certified eigen block: the occupied
    multipliers are the two lowest levels of the pair's own mean-field
    operator.  That level check certifies those two levels
    only; the third, behind ``degeneracy_gap`` and ``eig_values[2]``, is
    its first guard Ritz value, an uncertified upper bound on the third
    level (on the body diagonal of a symmetric trap it is one of a
    degenerate pair, which a certified boundary would split).  The check
    starts from the rotated pair alone, after a cold start as after a warm
    one; the Ritz rule of :func:`_start_block` fills the rest of its block.
    An energy dive through zero flags ``threshold_breach`` — the
    subcritical energy is provably nonnegative, so crossing zero means a is
    past the discrete threshold (the descent is left to run a few more
    steps so the history records the dive).
    """
    V = potential_field(trap, grid)
    if warm_start is not None:
        if max(boundary_max_abs(u) for u in warm_start) > 0.0:
            pair = loewdin(*(ScalarField(grid, mask_boundary(u.values)) for u in warm_start))
        else:
            pair = warm_start.copy()
    else:
        pair = _oriented_start(*_ritz_levels(grid, V), a, V)

    history: list[tuple[int, float, float]] = []
    E = energy(pair, a, V).energy
    breach_floor = -1e-6 * max(1.0, abs(E))
    max_defect, scf_outer, scf_defect, level_iters, reason = 0.0, 0, None, 0, ""
    for second in (False, True):
        descent, log = _GroundStateDescent(a, V, breach_floor), []
        pair, _, stop, _ = riemannian_lbfgs(
            descent, pair, E, memory=_LBFGS_MEMORY, max_iters=cfg.max_iters,
            grad_tol=cfg.grad_tol, log=log)
        it0 = len(history)
        history += [(it0 + it, v, g) for it, v, g in log]
        max_defect = max(max_defect, descent.max_defect, pair.defect())
        if descent.post_breach:  # whatever stop followed the dive
            diag = diagnose(pair, a, V, trap)
            return SolveResult(
                pair=pair, diag=diag, converged=False, iters=len(history),
                residuals=(math.inf, math.inf), history=history,
                stop_reason="breach", threshold_breach=True,
                scf_outer=scf_outer, scf_defect=scf_defect,
                max_pair_defect=max_defect, width=pair_width(pair),
            )
        reason += stop
        frame, mus, residuals = _rotate_to_multiplier_basis(pair, V, a)
        rotated = OrbitalPair(*frame)
        # certify the two occupied levels; the first guard gives the gap
        gap_eig = lowest_eigenpairs(
            density(rotated), V, a, 2, 1e-6,
            warm=[rotated.u1, rotated.u2],
        )
        level_iters += gap_eig.iterations
        # Aufbau: a minimizer occupies the two lowest levels of its own
        # mean-field operator (swapping in a lower level lowers E to second
        # order), so a lower second level marks a stationary point that is
        # not a minimum.
        aufbau = gap_eig.values[1] >= mus[1] - 1e-6 * (1.0 + abs(mus[1]))
        if second or (stop == "tolerance" and aufbau):
            break
        pair, scf_outer, scf_defect = scf_refine(rotated, gap_eig, a, V, history)
        E = history[-1][1]  # the SCF step's energy
        reason = "aufbau+" if stop == "tolerance" else reason + "+scf+"
    max_defect = max(max_defect, rotated.defect())
    diag = diagnose(rotated, a, V, trap, mus)
    levels = (*gap_eig.values, gap_eig.guard_values[0])
    gap = float(levels[2] - levels[1])

    res_tol = 10.0 * cfg.grad_tol
    converged = (
        aufbau
        and gap_eig.converged
        and max(residuals) <= max(res_tol, 50 * _EIG_TOL)
    )
    return SolveResult(
        pair=rotated, diag=diag, converged=converged, iters=len(history),
        residuals=residuals, history=history,
        stop_reason=reason, degeneracy_gap=gap,
        scf_outer=scf_outer, scf_defect=scf_defect,
        max_pair_defect=max_defect, width=pair_width(rotated),
        eig_values=tuple(float(v) for v in levels),
        level_eig_iters=level_iters,
    )


# ---------------------------------------------------------------------------
# concentration quotients
# ---------------------------------------------------------------------------


def _max_node_mass(grid: BoxGrid, *fields: ScalarField) -> float:
    """Largest share of a unit orbital's mass held by one grid node."""
    h3 = grid.spacing ** 3
    return h3 * max(float(np.max(f.values * f.values)) for f in fields)


def _orbital_width(u: ScalarField) -> float:
    """Radial second-moment width of a unit-mass orbital about its centroid."""
    ps = axis_marginals(ScalarField(u.grid, u.values * u.values))
    return math.sqrt(max(marginal_second_moment(u.grid, ps, _centroid(u.grid, ps)), 0.0))


def _pinned_width(grid: BoxGrid, cfg: SolverConfig) -> float:
    """Radial width the quotient minimizers pin; raises if the grid cannot hold it."""
    target_w = cfg.pin_fraction * grid.half_width
    if target_w < _COLLAPSE_WIDTH_NODES * grid.spacing:
        # w/h = pin_fraction * (n-1)/2 depends on n alone (n >= 61 at 0.2)
        raise UnderResolvedError(
            f"pinned width {target_w:.3g} below {_COLLAPSE_WIDTH_NODES} nodes"
        )
    return target_w


def _pin_orbitals(us, widths) -> tuple[ScalarField, ...]:
    """Rescale each orbital to its prescribed radial width, re-orthonormalize."""
    ws = [_orbital_width(u) for u in us]
    if min(ws) <= 0:
        raise UnderResolvedError("iterate has zero width")
    return loewdin_frame(dilate(u, w / c) for u, w, c in zip(us, ws, widths))


def minimize_quotient_rank2(
    grid: BoxGrid, cfg: SolverConfig
) -> tuple[float, OrbitalPair, tuple[float, float], tuple[float, float], list[dict], list[dict]]:
    """Discrete two-orbital concentration threshold on this grid.

    The continuum quotient is dilation invariant, but the lattice is not:
    the discrete kinetic term undercounts sharp cores, so unconstrained
    descent funnels into node-scale spikes.  A single overall width pin
    does not help, because one orbital can concentrate at full mass while
    the other spreads.  The descent therefore runs on a doubly pinned slice
    (:class:`_QuotientSlice`), and the one internal parameter this freezes,
    the width ratio of the two orbitals, is recovered by an outer scan of
    slices at the ratios 2^(k/6), k = k_lo..4, with k_lo down to -2 as far
    as the collapse floor allows.  Each slice starts from the same pinned
    Gaussian s+p pair of :func:`gaussian_pair`; slices that turn spiky are
    rejected by the node-mass guard.  The reported value is the polished
    minimum of the best-scoring scanned slice that survives the polish,
    finished by :func:`_rotate_to_multiplier_basis` at the polish's value.
    The discrete value depends on the box scale as well as the node count,
    because the descent has absolute, scale-dependent inputs such as the
    preconditioner shift: at n = 32 and pin 0.4 it is 9.890449593 at
    half-width 2.2 and 9.888898362 at 2.5.

    Returns the value, the pair, its multipliers and eigenresiduals, the
    scan log and the polish log.  The scan log has one entry per scanned
    ratio in scan order: ``{"ratio", "q", "stop", "iterations"}`` with the
    coarse value and its descent's stop reason (see
    :func:`_quotient_descent`) and iteration count, or ``{"ratio",
    "rejected"}`` with the reason the slice collapsed.  The polish log has
    one entry per polish attempt in the same form; its last entry is the
    polish that produced the returned pair.
    """
    target_w = _pinned_width(grid, cfg)
    floor = _COLLAPSE_WIDTH_NODES * grid.spacing
    sigma0 = target_w / 2.0
    coarse = replace(
        cfg, grad_tol=max(cfg.grad_tol, 1e-4), max_iters=min(cfg.max_iters, 60)
    )

    def attempt(start, ratio, config, log):
        """The slice's record frame and value, logged; None if rejected."""
        try:
            us, q, stop, its = _quotient_descent(
                start, grid, config, (target_w, ratio * target_w))
        except UnderResolvedError as exc:
            log.append({"ratio": ratio, "rejected": str(exc)})
            return None
        log.append({"ratio": ratio, "q": q, "stop": stop, "iterations": its})
        return q, us

    # Outer scan over the orbital width ratio.  Every slice starts fresh from
    # the pinned Gaussian s+p seed: warm-starting a slice from its neighbor
    # lets one kurtosis-contaminated iterate poison the rest of the chain,
    # while fresh slices fail one at a time and are simply skipped.
    step_r = 2.0 ** (1.0 / 6.0)
    scanned = {}
    log = []
    k_lo = 0
    while k_lo > -2 and step_r ** (k_lo - 1) * target_w >= floor:
        k_lo -= 1
    for k in range(k_lo, 5):
        r = step_r ** k
        found = attempt(gaussian_pair(grid, sigma0), r, coarse, log)
        if found is not None:
            scanned[r] = found
    if not scanned:
        raise UnderResolvedError("every quotient start collapsed on this grid")

    # Full-tolerance polish of the best scanned slice.  A slice that was
    # quietly creeping toward node-scale structure during the short scan pass
    # dies under the guard here, and the next-best scanned ratio is polished
    # instead.  Only a polished, guard-passing pair is returned.
    polish = []
    for r in sorted(scanned, key=lambda rr: scanned[rr][0]):
        found = attempt(scanned[r][1], r, cfg, polish)
        if found is not None:
            q, pair = found
            break
    else:
        raise UnderResolvedError(
            "no quotient slice admitted a resolved minimizer on this grid"
        )

    frame, mus, residuals = _rotate_to_multiplier_basis(pair, grid.zeros(), q)
    return quotient_value(frame), OrbitalPair(*frame), mus, residuals, log, polish


def _drop_modes(x, modes):
    """Remove from a frame direction its components along orthonormal modes."""
    for b in modes:
        c = frame_dot(x, b)
        x = tuple(ScalarField(xi.grid, xi.values - c * bi.values) for xi, bi in zip(x, b))
    return x


class _QuotientSlice:
    """The quotient on a pinned slice as a :func:`riemannian_lbfgs` problem.

    Each orbital's dilation generator is removed from the gradient and the
    search direction; widths that drifted are re-pinned every
    ``_REFRESH_EVERY`` iterations, which restarts the descent.  ``best``
    holds the record (full residual, frame, quotient).  The first iterate
    whose largest node mass exceeds ``_SPIKE_GUARD`` or whose narrower
    width falls below ``_COLLAPSE_WIDTH_NODES`` spacings raises
    :class:`UnderResolvedError`, before its gradient is taken: it has found
    a spike+halo path, which beats every smooth profile on the lattice but
    not in the continuum, and a slice that turns spiky does not recover.

    The inner product is the trapezoid :func:`frames.frame_dot`, as in the
    ground-state descent.  Here it is needed, not only shared: the pinned
    frames are Loewdin-orthonormalized dilations (:func:`_pin_orbitals`),
    which are not zero on the boundary, and their norms, slopes and mode
    projections count those nodes with half weights.
    """

    dot = staticmethod(frame_dot)

    def __init__(self, grid: BoxGrid, widths):
        self.widths, self.zero, self.prec = widths, grid.zeros(), None
        self.best, self.last_record = None, 0

    def move(self, us, d, step):
        cand = retract(us, d, step)
        return cand, quotient_value(cand)

    def gradient(self, us, rho=None, q=None):
        # tangent part of grad q = (2/P) * (-lap u_i - (5q/3) rho^{2/3} u_i)
        rho = density(us) if rho is None else rho
        q = quotient_value(us) if q is None else q
        g, P = _gradient_fields(us, rho, self.zero, q), p_integral(rho)
        return project_tangent(us, tuple(ScalarField(f.grid, f.values / P) for f in g))

    def project(self, v):
        return _drop_modes(project_tangent(self.us, v), self.modes)

    def precondition(self, v):
        return _apply_prec(self.prec, v)

    def examine(self, it, us, q):
        k, zero = len(us), self.zero
        restart = it % _REFRESH_EVERY == 0 and any(
            abs(_orbital_width(u) / wt - 1.0) > 0.02 for u, wt in zip(us, self.widths))
        if restart:
            us = _pin_orbitals(us, self.widths)
            q = quotient_value(us)
        ws = [_orbital_width(u) for u in us]
        spiky = _max_node_mass(zero.grid, *us) > _SPIKE_GUARD
        if spiky or min(ws) < _COLLAPSE_WIDTH_NODES * zero.grid.spacing:
            raise UnderResolvedError(
                f"quotient iterate left the resolvable regime at iteration {it} "
                "(widths " + "/".join(f"{w:.3g}" for w in ws) + f", spiky={spiky})")
        rho = density(us)
        if self.prec is None or it % _REFRESH_EVERY == 0:
            self.prec = TensorPreconditioner(
                zero.grid, _core(effective_potential(rho, zero, q)),
            )
        # one dilation mode per orbital, in the tangent space, orthonormalized
        modes = []
        for i in range(k):
            m = _drop_modes(project_tangent(us, tuple(
                dilation_generator(us[j]) if j == i else zero for j in range(k))), modes)
            nn = math.sqrt(frame_dot(m, m))
            if nn > 1e-12:
                modes.append(tuple(ScalarField(f.grid, f.values / nn) for f in m))
        self.us, self.modes = us, modes
        t = self.gradient(us, rho, q)
        full = math.sqrt(frame_dot(t, t))
        if self.best is None or full < self.best[0]:
            self.best, self.last_record = (full, us, q), it
        stop = "stall" if it - self.last_record >= _STALL_PATIENCE else None
        return us, q, _drop_modes(t, self.modes), stop, restart


def _quotient_descent(us, grid, cfg, widths):
    """Preconditioned descent of the quotient over k-frames on the pinned slice.

    ``us`` holds k orbitals (k = 2 for the pair quotient, k = 1 for the
    single-orbital one) and ``widths`` their pinned radial widths; the
    descent is :func:`riemannian_lbfgs` without curvature memory on a
    :class:`_QuotientSlice`.  Returns the record frame (not the last
    iterate, see ``_STALL_PATIENCE``), its quotient, the stop reason and the
    number of iterations (gradient evaluations) run.  The run stops on
    ``"tolerance"`` (sliced gradient below ``grad_tol``), ``"stall"``,
    ``"line_search"`` or ``"max_iters"``.
    """
    us, problem = _pin_orbitals(us, widths), _QuotientSlice(grid, widths)
    _, _, reason, it = riemannian_lbfgs(problem, us, quotient_value(us), memory=0,
                                        max_iters=cfg.max_iters, grad_tol=cfg.grad_tol)
    _, us, q = problem.best
    return us, q, reason, it


def minimize_quotient_rank1(
    grid: BoxGrid, cfg: SolverConfig
) -> tuple[float, ScalarField, float, float, str, int]:
    """Single-orbital concentration threshold (the shooting cross-check).

    The k = 1 case of the pinned-slice descent behind
    :func:`minimize_quotient_rank2`, run once from the pinned s-like
    Gaussian of :func:`gaussian_pair`; an iterate that leaves the resolvable
    regime raises :class:`UnderResolvedError`.  Returns the value, the
    orbital (finished by :func:`_rotate_to_multiplier_basis`, so its
    dominant lobe is positive), its multiplier and eigenresidual, then the
    descent's stop reason and iteration count.
    """
    target_w = _pinned_width(grid, cfg)
    g, _ = _gaussian(grid, target_w / math.sqrt(3.0))
    us, q, reason, its = _quotient_descent(
        (_unit_orbital(grid, g),), grid, cfg, (target_w,))
    (u,), (mu,), (residual,) = _rotate_to_multiplier_basis(us, grid.zeros(), q)
    return quotient_value((u,)), u, mu, residual, reason, its


# Composite Gauss-Legendre rule of the separated-pair quadrature: order per
# panel, panels along the separation axis and off it, and the reach beyond the
# lump centres (w(22)^2 ~ 1e-22, below every quoted digit).
_GL_ORDER = 8
_PAIR_PANELS = (80, 40)
_PAIR_REACH = 22.0


def _gauss_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``panels`` equal order-8 Gauss-Legendre panels on [a, b]."""
    t, wt = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * t).ravel(), (half * wt).ravel()


def _separated_pair_quotients(profile, d: float, panels=_PAIR_PANELS) -> tuple[float, float]:
    """Continuum quotients of the separated pair (k=2) and of one lump (k=1).

    The lumps are w(|x -+ d e_x|) with w read off ``profile`` (zero beyond
    r_max); the pair is their even/odd orthonormal combination.  Every
    field is axisymmetric about the x axis, so each integral over R^3 is a
    2-D one in cylindrical coordinates (x, r) with measure 2 pi r dx dr, done
    by composite Gauss-Legendre on ``panels`` = (x panels, r panels).  The x
    nodes are made exactly mirror-symmetric, so the right lump, read at
    hypot(d - x, r), equals the left one at the mirrored node bit for bit.
    The sum over the x > 0 half is therefore the sum over the x < 0 half
    with the lumps swapped: only that half is evaluated, each lump's own
    integrand summed over both lumps and each pair integrand doubled.

    The integrands are streamed over blocks of ``_GL_ORDER`` x panels
    (``_GL_ORDER``^2 x nodes by all r nodes), so the working set is a few
    block arrays, not full (x, r) planes.  A first pass accumulates the
    mass, kinetic energy and |L|^{10/3} integral of one lump and the
    overlap and gradient cross term of the two; a second pass, which needs
    the mass and overlap to form the pair density rho, accumulates the
    integrals of rho and rho^{5/3}.
    """
    x, wx = _gauss_panels(-d - _PAIR_REACH, d + _PAIR_REACH, panels[0])
    x, wx = 0.5 * (x - x[::-1]), 0.5 * (wx + wx[::-1])
    # the x < 0 half: node x_i of it mirrors node -x_i of the other half
    x, wx = x[:x.size // 2], wx[:x.size // 2]
    r, wr = _gauss_panels(0.0, _PAIR_REACH, panels[1])
    wr = (wr * r)[None, :]
    rows = _GL_ORDER * _GL_ORDER

    def blocks():
        """Per block of x rows: weights, x column, (w, w', w'/dist) of each lump."""
        for start in range(0, x.size, rows):
            X = x[start:start + rows, None]
            lumps = []
            for dist in (np.hypot(X + d, r), np.hypot(d - X, r)):
                # Gauss nodes have r > 0, so dist > 0
                f, df = profile.read(dist)
                lumps.append((f, df, df / dist))
            yield 2.0 * math.pi * wx[start:start + rows, None] * wr, X, lumps

    # mass and kinetic energy of one lump, overlap and gradient cross term
    # of the two, with grad L . grad R = gl gr ((x + d)(x - d) + r^2)
    M = K = s = g = PL = 0.0
    for weight, X, ((fl, dfl, gl), (fr, dfr, gr)) in blocks():
        M += float(np.sum(weight * (fl * fl + fr * fr)))
        K += float(np.sum(weight * (dfl * dfl + dfr * dfr)))
        s += float(np.sum(weight * (fl * fr)))
        g += float(np.sum(weight * (gl * gr * ((X + d) * (X - d) + r * r))))
        PL += float(np.sum(weight * (five_thirds_power(fl * fl)
                                     + five_thirds_power(fr * fr))))
    s, g = 2.0 * s, 2.0 * g
    # half the integrals of rho and rho^{5/3}
    half_mass = half_P = 0.0
    for weight, _, ((fl, _, _), (fr, _, _)) in blocks():
        rho = (fl + fr) ** 2 / (2.0 * (M + s)) + (fl - fr) ** 2 / (2.0 * (M - s))
        half_mass += float(np.sum(weight * rho))
        half_P += float(np.sum(weight * five_thirds_power(rho)))
    T = (K + g) / (M + s) + (K - g) / (M - s)
    q2 = T * half_mass ** (2.0 / 3.0) / (2.0 * half_P)
    q1 = K * M ** (2.0 / 3.0) / PL
    return q2, q1


def separated_pair_upper_bound(
    separations: tuple[float, ...] = (2.0, 2.5, 3.0),
    profile=None,
) -> dict:
    """Continuum upper bound on the rank-2 threshold from explicit trials.

    The best concentric pair (an s-like and a p-like orbital sharing one
    center) scores *above* the rank-1 threshold, so the rank-2 infimum must
    exploit separation: place two copies of the radial one-orbital
    minimizer at x = +-d and take their even/odd normalized combinations.
    As d grows, the superadditivity of the rho^{5/3} term (gain ~
    e^{-(8/3)d}) beats the orthogonalization cost (~ e^{-4d}), so the
    quotient of this family dips strictly below the rank-1 value at finite
    d before returning to it as d -> infinity.  The dip is shallow —
    relative depth of order 1e-5 — which is why descent-based estimates on
    affordable grids cannot resolve the ordering and why this explicit
    trial evaluation exists.

    The trial pair is axisymmetric about the separation axis, so its
    continuum quotient is a 2-D quadrature in cylindrical coordinates: 80 x
    40 order-8 Gauss-Legendre panels over x in [-d-22, d+22], r in [0, 22],
    of w and w' read off the shooting profile by its cubic Hermite reader
    (:func:`_separated_pair_quotients`: the x < 0 half only, streamed in
    blocks of 64 x nodes, so the working set is a few megabytes, not
    eleven full 640 x 320 planes).  The value is reported as the ratio to the same-quadrature rank-1
    quotient of one lump, times the shooting oracle's rank-1 constant (the
    two agree to ~1e-11).  Because the trial pair is an admissible
    orthonormal competitor, its continuum quotient upper-bounds the true
    threshold.

    Returns a dict with the bound (``value``), the separation attaining it,
    its relative depth below the rank-1 constant, that constant
    (``rank1``), the per-separation table, ``quad_error``, |value - value
    at half the panels|, and ``oracle``, the shooting report of the profile.
    Deterministic; no RNG involved.
    """
    if profile is None:
        profile = shoot_soliton()
    consts = gn_constants(profile)
    a1 = consts.a1_star

    def value(d: float, panels) -> float:
        q2, q1 = _separated_pair_quotients(profile, d, panels)
        return float(q2 / q1 * a1)

    table = [{"separation": float(d), "value": value(d, _PAIR_PANELS)}
             for d in separations]
    best = min(table, key=lambda row: row["value"])
    coarse = value(best["separation"], tuple(p // 2 for p in _PAIR_PANELS))
    return {
        "value": best["value"],
        "separation": best["separation"],
        "rel_below_rank1": float((a1 - best["value"]) / a1),
        "rank1": float(a1),
        "table": table,
        "quad_error": abs(best["value"] - coarse),
        "oracle": shooting_report(profile, consts),
    }


# ---------------------------------------------------------------------------
# continuation sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    records: list
    pairs: list  # OrbitalPair per record (same order)
    widths: list
    aborted_at: int | None = None


def continuation_sweep(
    trap: TrapPotential,
    grid: BoxGrid,
    a_list,
    cfg: SolverConfig,
    a_hat: float,
) -> SweepOutcome:
    """Sequence of ground-state solves for increasing a.

    The first point starts cold, as in :func:`minimize_ground_state`; each
    later point from the previous pair.

    Records carry the scale parameter eps = (a_hat - a)^{1/(p+2)} and the
    under-resolution flag (eps spanning fewer than
    ``asymptotics.EPS_RESOLUTION_NODES`` grid spacings, the rule
    :func:`asymptotics.rescale_extract` warns by).  Only a threshold breach
    aborts the sweep: ``aborted_at`` is that index and the earlier records
    are kept.  An unconverged solve is recorded with ``converged`` false,
    and the sweep goes on from its pair.
    """
    a_arr = [float(a) for a in a_list]
    if any(b <= a for a, b in zip(a_arr, a_arr[1:])):
        raise ValueError("a_list must be strictly increasing")
    if any(a >= a_hat for a in a_arr):
        raise ValueError("sweep couplings must stay below a_hat")
    p = trap.metadata().p
    records: list[_asy.SweepRecord] = []
    pairs = []
    widths = []
    prev = None
    aborted = None
    for i, a in enumerate(a_arr):
        res = minimize_ground_state(a, trap, grid, cfg, warm_start=prev)
        if res.threshold_breach:
            aborted = i
            break
        rho = density(res.pair)
        peak = _asy.find_peak(rho)
        sigma = _density_sigma(rho, peak)
        eps = (a_hat - a) ** (1.0 / (p + 2.0))
        under = eps < _asy.EPS_RESOLUTION_NODES * grid.spacing
        rec = _asy.SweepRecord(
            a=a,
            eps=eps,
            E=res.diag.energy,
            T=res.diag.kinetic,
            W=res.diag.potential,
            P=res.diag.p_norm,
            mu1=res.diag.mu1,
            mu2=res.diag.mu2,
            peak=(float(peak[0]), float(peak[1]), float(peak[2])),
            defect=res.pair.defect(),
            converged=res.converged,
            under_resolved=bool(under),
            stop_reason=res.stop_reason,
        )
        records.append(rec)
        pairs.append(res.pair)
        widths.append(sigma)
        prev = res.pair
    return SweepOutcome(records=records, pairs=pairs, widths=widths, aborted_at=aborted)
