"""Variational solvers for the two-orbital ground state and the thresholds.

Two families of problems share the machinery here:

* trapped minimization at fixed coupling a: descend the energy over
  orthonormal pairs (preconditioned Riemannian L-BFGS with Loewdin
  retraction and Armijo backtracking); only a descent that ends short of
  its tolerance is polished with a self-consistent-field loop that solves
  the two lowest eigenpairs of the frozen mean-field operator and mixes
  densities linearly;

* the concentration quotients: minimize T/P over orthonormal k-frames, by
  one pinned-slice descent for k = 2 (pairs) and k = 1 (unit fields), each
  started from pinned Gaussians only, so no random numbers enter.  The
  continuum quotient is dilation invariant, but the discrete one degrades at
  the grid scale (a lattice spike scores T/P = 6 regardless of h), so
  iterates are periodically dilated back to a reference width — collapse
  past that guard is an under-resolution error, not a minimum.

Eigenpairs come from LOBPCG preconditioned with the inverse of a separable
surrogate of the mean-field operator (:class:`TensorPreconditioner`).
Residuals are recomputed and certified after every solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, lobpcg

from .grid import (
    BoxGrid,
    ScalarField,
    dilate,
    dilation_generator,
    inner,
    integrate,
    mask_boundary,
    neg_laplacian_core,
    norm,
    second_moment,
)
from .frames import (
    OrbitalPair,
    loewdin,
    loewdin_frame,
    project_tangent,
    project_tangent_frame,
    retract,
    retract_frame,
)
from .model import (
    Diagnostics,
    TrapPotential,
    density,
    diagnose,
    effective_potential,
    energy,
    hamiltonian_apply,
    multipliers,
    p_integral,
    potential_field,
    quotient_value,
)

from . import asymptotics as _asy
from .radial import gn_constants, profile_spline, shoot_soliton


class SolverError(RuntimeError):
    pass


class UnderResolvedError(SolverError):
    """The iterate collapsed below the resolvable width of the grid."""


# Quotient descents on a finite lattice stall near the smooth optimum and
# then *keep going*: past the stall the iterate trades smoothness for node
# concentration, so the quotient keeps inching down while the stationarity
# residual grows by orders of magnitude.  The slide is invisible to the
# slice-restricted gradient (it can keep shrinking), so the record tracks
# the residual *with* the dilation components included — the same quantity
# the eigenresidual report measures.  Every iterate must pass the node-mass
# and width guard (the first that fails rejects the slice), so the
# minimizers return the cleanest iterate seen (smallest full residual) and
# stop once no iterate has set a new record for this many iterations: the
# record they would return can no longer change, whether the run is
# sliding, creeping on a plateau, or taking rounding-level Armijo steps.
# The widest gap between two records measured is 20 iterations (n = 96).
_SLIDE_PATIENCE = 25

# Curvature pairs kept by the ground-state L-BFGS descent.
_LBFGS_MEMORY = 8

# Armijo sufficient-decrease constant and step factor of the backtracking
# line search in both descents.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5

# Shift of the tensor preconditioner's separable surrogate operator.
_PRECOND_SHIFT = 1.0

# LOBPCG runs in rounds of 15 iterations, at most this many.
_EIG_ROUNDS = 6

# Iterations between preconditioner rebuilds in both descents; the quotient
# descent re-pins drifted orbital widths on the same beat.
_REFRESH_EVERY = 25

# Narrowest radial width, in grid spacings, a quotient iterate may take.
_COLLAPSE_WIDTH_NODES = 6.0


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6
    step_init: float = 0.25
    scf_mixing: float = 0.5
    scf_toggle: bool = True
    seed: int = 2024
    scf_max_outer: int = 90
    scf_tol: float = 1e-8  # L1 self-consistency defect
    eig_tol: float = 1e-7
    # Pinned width of a quotient minimizer as a fraction of the box
    # half-width.  The quotient is dilation-invariant, so any pin scale is
    # equally valid in exact arithmetic; on the grid the kinetic stencil
    # under-counts narrow profiles, so the pin should sit near the scale the
    # estimate will be compared against (for continuation runs, the width of
    # the deepest resolved records).
    pin_fraction: float = 0.2
    # Largest single-node mass share an orbital may carry before the iterate
    # counts as under-resolved.  The default admits cores spanning >~ 7.4
    # spacings -- the per-node counterpart of the sweep rule that flags
    # records with eps/h < 8.  At the default pinned width of (n-1)/10
    # spacings, smooth profiles sit near 1e-3 for n >= 90 while node-scale
    # cores stay above 5e-3 at any n; coarser grids need a larger value.
    spike_guard: float = 2.5e-3

    def __post_init__(self):
        if not (0.0 < self.scf_mixing <= 1.0):
            raise ValueError(f"scf_mixing must be in (0, 1], got {self.scf_mixing}")
        if self.max_iters < 1 or self.scf_max_outer < 1:
            raise ValueError("max_iters and scf_max_outer must be at least 1")
        for name in ("grad_tol", "step_init", "eig_tol", "scf_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in uint64")
        if not (0.0 < self.spike_guard <= 1.0):
            raise ValueError("spike_guard must be a mass fraction in (0, 1]")
        if not (0.0 < self.pin_fraction <= 0.45):
            raise ValueError("pin_fraction must lie in (0, 0.45]")


@dataclass
class EigResult:
    values: np.ndarray
    fields: list[ScalarField]
    residuals: np.ndarray
    converged: bool
    iterations: int = 0


@dataclass
class SolveResult:
    pair: OrbitalPair
    diag: Diagnostics
    converged: bool
    iters: int
    residuals: tuple[float, float]
    history: list[tuple[int, float, float]]  # (iteration, energy, grad norm)
    # why the descent stopped (see _descent_phase), "+scf" when the SCF
    # polish ran after it
    stop_reason: str
    threshold_breach: bool = False
    degeneracy_gap: float | None = None
    scf_outer: int = 0
    scf_defect: float | None = None
    max_pair_defect: float = 0.0
    width: float = 0.0
    eig_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# preconditioner and eigensolver
# ---------------------------------------------------------------------------


class TensorPreconditioner:
    """Inverse of a separable surrogate of -lap + diag on interior nodes.

    The surrogate potential v1(x)+v2(y)+v3(z) samples the given diagonal
    along the three axis lines through its minimum node (minus twice the
    minimum so the well depth is counted once), capturing both the trap
    growth and the attractive mean-field well where the orbitals live.
    Exactly separable potentials (e.g. the pure harmonic trap) make the
    surrogate exact.  Application transforms each axis into the eigenbasis
    of its 1-D tridiagonal operator, divides by the summed eigenvalues and
    transforms back: six (m, m) matrix products per field.
    """

    def __init__(self, grid: BoxGrid, diag: np.ndarray, shift: float):
        h = grid.spacing
        m = diag.shape[0]
        i0 = np.unravel_index(int(np.argmin(diag)), diag.shape)
        lines = (
            diag[:, i0[1], i0[2]],
            diag[i0[0], :, i0[2]],
            diag[i0[0], i0[1], :],
        )
        self.Q = []
        lams = []
        off = np.full(m - 1, -1.0 / (h * h))
        for v in lines:
            lam, Q = eigh_tridiagonal(2.0 / (h * h) + v, off)
            self.Q.append(np.ascontiguousarray(Q))
            lams.append(lam)
        base = shift - 2.0 * float(diag[i0])
        den = (
            lams[0][:, None, None]
            + lams[1][None, :, None]
            + lams[2][None, None, :]
            + base
        )
        dmin = float(den.min())
        if dmin <= 0.0:  # keep the surrogate SPD whatever the well depth
            den += 1.0 - dmin
        self.den = den

    def apply_core(self, core: np.ndarray) -> np.ndarray:
        """Surrogate inverse of one (m, m, m) field or an (m, m, m, b) block.

        Each mode product contracts the leading spatial axis and appends
        the new one, (i, j, k) -> (j, k, a): one (m^2, m) @ (m, m) matmul
        per field on a transposed view, so three products bring the axes
        back to their order with no copy.  The block's fields are moved to
        the front first; every field then goes through the same products
        as alone, so a block equals its fields applied one at a time.  The
        result does not depend on the BLAS thread count (identical under 1
        and 2 OpenBLAS threads for n = 10..160; a test pins n = 96), which
        products with m rows and m^2 columns do not guarantee.
        """
        m = self.den.shape[0]
        t = core.reshape(m ** 3, -1).T
        b = t.shape[0]
        for Q in self.Q:
            t = np.matmul(t.reshape(b, m, -1).transpose(0, 2, 1), Q)
        t = t.reshape(b, -1) / self.den.reshape(-1)
        for Q in self.Q:
            t = np.matmul(t.reshape(b, m, -1).transpose(0, 2, 1), Q.T)
        return t.reshape(b, -1).T.reshape(core.shape)


def _core(values: np.ndarray) -> np.ndarray:
    return values[1:-1, 1:-1, 1:-1]


def _pad(core: np.ndarray) -> np.ndarray:
    n = core.shape[0] + 2
    out = np.zeros((n, n, n))
    out[1:-1, 1:-1, 1:-1] = core
    return out


def lowest_eigenpairs(
    rho: ScalarField,
    V: ScalarField,
    a: float,
    k: int,
    tol: float,
    cfg: SolverConfig | None = None,
    warm: list[ScalarField] | None = None,
) -> EigResult:
    """Certified k lowest eigenpairs of H = -lap + V - (5a/3) rho^{2/3}.

    LOBPCG with the tensor preconditioner, then a Rayleigh-Ritz cleanup of the
    returned block; residuals ||H v - lam v|| are recomputed in L2 and the
    result is flagged unconverged if any exceeds tol.
    """
    if k < 1 or k > 8:
        raise ValueError("k must be in 1..8")
    cfg = cfg or SolverConfig()
    grid = rho.grid
    n, h = grid.n_per_axis, grid.spacing
    m = n - 2
    diag = _core(effective_potential(rho, V, a))
    prec = TensorPreconditioner(grid, diag, _PRECOND_SHIFT)

    def matmat(X: np.ndarray) -> np.ndarray:
        x = X.reshape(m, m, m, -1)
        return (neg_laplacian_core(x, h) + diag[..., None] * x).reshape(X.shape)

    def pmat(X: np.ndarray) -> np.ndarray:
        return prec.apply_core(X.reshape(m, m, m, -1)).reshape(X.shape)

    mdof = m ** 3
    A = LinearOperator((mdof, mdof), matvec=lambda x: matmat(x.reshape(-1, 1))[:, 0],
                       matmat=matmat, dtype=np.float64)
    M = LinearOperator((mdof, mdof), matvec=lambda x: pmat(x.reshape(-1, 1))[:, 0],
                       matmat=pmat, dtype=np.float64)

    block = min(mdof, k + 3)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(17,)))
    X = np.empty((mdof, block))
    nwarm = 0
    if warm:
        for f in warm[:block]:
            X[:, nwarm] = _core(f.values).ravel()
            nwarm += 1
    if nwarm < block:
        X[:, nwarm:] = rng.standard_normal((mdof, block - nwarm))
        # smooth the random tail so the first iterations are not wasted
        X[:, nwarm:] = pmat(X[:, nwarm:])
    X, _ = np.linalg.qr(X)

    total_iter = 0
    for _round in range(_EIG_ROUNDS):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # residuals are recomputed and certified below; the solver's own
            # not-converged-yet warnings are noise between rounds
            warnings.simplefilter("ignore")
            _vals, X = lobpcg(
                A, X, M=M, tol=tol * 0.2, maxiter=15, largest=False,
                verbosityLevel=0,
            )
        total_iter += 15
        # Rayleigh-Ritz cleanup: orthonormalize, project, rediagonalize
        Q, _ = np.linalg.qr(X)
        AQ = matmat(Q)
        S = Q.T @ AQ
        S = 0.5 * (S + S.T)
        evals, U = np.linalg.eigh(S)
        X = Q @ U
        AX = AQ @ U
        R = AX - X * evals[None, :]
        res = np.linalg.norm(R[:, :k], axis=0)
        if res.max() <= tol:
            break

    fields = []
    for j in range(k):
        v = _pad(X[:, j].reshape(m, m, m) / math.sqrt(h ** 3))
        fields.append(ScalarField(grid, v))
    # L2 residuals equal algebraic ones under the uniform interior weight
    return EigResult(
        values=np.asarray(evals[:k], dtype=float),
        fields=fields,
        residuals=np.asarray(res, dtype=float),
        converged=bool(res.max() <= tol),
        iterations=total_iter,
    )


# ---------------------------------------------------------------------------
# shared solver pieces
# ---------------------------------------------------------------------------


def _gradient_fields(frame, rho, V, a):
    """2 H u_i for every orbital of the frame."""
    return tuple(ScalarField(rho.grid, 2.0 * hamiltonian_apply(rho, V, a, u).values)
                 for u in frame)


def _frame_dot(x, y) -> float:
    """Frame inner product sum_i <x_i, y_i>."""
    return sum(inner(xi, yi) for xi, yi in zip(x, y))


def _fix_signs(pair: OrbitalPair) -> OrbitalPair:
    """Deterministic sign convention: the dominant lobe is positive.

    The reference node is the first (C-order) node attaining max |u|; its
    value is made positive.  For the nodeless orbital this is plain
    positivity, for the p-like orbital it pins one lobe.
    """
    out = []
    for u in (pair.u1, pair.u2):
        flat = np.abs(u.values).ravel()
        i = int(np.argmax(flat))
        v = u.values.ravel()[i]
        out.append(ScalarField(u.grid, -u.values if v < 0 else u.values.copy()))
    return OrbitalPair(out[0], out[1])


def _rotate_to_multiplier_basis(pair, V, a):
    (mu1, mu2), R, (hu1, hu2) = multipliers(pair, V, a)
    u1 = ScalarField(pair.grid, pair.u1.values * R[0, 0] + pair.u2.values * R[1, 0])
    u2 = ScalarField(pair.grid, pair.u1.values * R[0, 1] + pair.u2.values * R[1, 1])
    rotated = _fix_signs(OrbitalPair(u1, u2))
    rho = density(rotated)
    r1 = hamiltonian_apply(rho, V, a, rotated.u1)
    r2 = hamiltonian_apply(rho, V, a, rotated.u2)
    res1 = norm(ScalarField(pair.grid, r1.values - mu1 * rotated.u1.values))
    res2 = norm(ScalarField(pair.grid, r2.values - mu2 * rotated.u2.values))
    return rotated, (mu1, mu2), (res1, res2)


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


def _gaussian(grid: BoxGrid, sigma: float, center=(0.0, 0.0, 0.0)):
    """exp(-|x - center|^2 / (4 sigma^2)) on the nodes, and x - center per axis."""
    xs = tuple(x - c for x, c in zip(grid.meshgrid(), center))
    r2 = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    return np.exp(-r2 / (4.0 * sigma * sigma)), xs


def _unit_orbital(grid: BoxGrid, values: np.ndarray) -> ScalarField:
    """``values`` with the boundary set to zero, scaled to unit norm."""
    f = ScalarField(grid, mask_boundary(values))
    return ScalarField(grid, f.values / norm(f))


def gaussian_pair(
    grid: BoxGrid, sigma: float, center=(0.0, 0.0, 0.0), axis: int = 0
) -> OrbitalPair:
    """s-like and p-like Gaussians, the structured initial guess."""
    g, xs = _gaussian(grid, sigma, center)
    return loewdin(_unit_orbital(grid, g), _unit_orbital(grid, xs[axis] * g))


# ---------------------------------------------------------------------------
# trapped ground state
# ---------------------------------------------------------------------------


def _horizontal(pair: OrbitalPair, d1: ScalarField, d2: ScalarField):
    """Remove every component of (d1, d2) along span(u1, u2).

    The energy depends on the pair only through rho, which is invariant
    under rotations of the frame, so the in-span rotation that
    :func:`project_tangent` keeps is a flat direction; dropping it leaves
    the horizontal (Grassmann) tangent vector.
    """
    u = (pair.u1, pair.u2)
    out = []
    for d in (d1, d2):
        c1, c2 = inner(u[0], d), inner(u[1], d)
        out.append(ScalarField(pair.grid, d.values - c1 * u[0].values - c2 * u[1].values))
    return out[0], out[1]


def _descent_phase(
    pair: OrbitalPair,
    a: float,
    V: ScalarField,
    cfg: SolverConfig,
    *,
    max_iters: int,
    step_init: float,
    history: list,
    it0: int = 0,
    breach_floor: float | None = None,
):
    """Preconditioned Riemannian L-BFGS with Armijo backtracking.

    Works on the horizontal tangent space of the pair (see
    :func:`_horizontal`) with the tensor preconditioner as the initial
    inverse Hessian and the last ``_LBFGS_MEMORY`` curvature pairs, each
    projected onto the tangent space of the iterate it is formed at.  The
    curvature pairs are
    what let the descent follow soft modes, such as the orientation of a
    p-like orbital in a nearly isotropic trap, which plain preconditioned
    descent crawls along.  The first step of a fresh memory is
    ``step_init``; later trial steps start at 1.  A direction that is not
    a descent direction clears the memory.

    Returns (pair, stop reason, max_defect).  The stop reason is
    ``"tolerance"`` (gradient norm at ``cfg.grad_tol``), ``"line_search"``
    (no Armijo step in 40 halvings: the energy no longer resolves the
    step), ``"max_iters"`` or ``"breach"`` (the energy fell through
    ``breach_floor``; this one overrides the others).
    """
    grid = pair.grid
    prec = None
    E = energy(pair, a, V).energy
    max_defect = pair.defect()
    breached = False
    reason = "max_iters"
    post_breach = 0
    memory: list[tuple[tuple, tuple, float]] = []  # (s, y, 1/<s, y>)
    last = None  # (step vector, tangent gradient) of the previous iterate

    def apply_prec(x):
        return _horizontal(pair, *(
            ScalarField(grid, _pad(prec.apply_core(_core(f.values)))) for f in x))

    for it in range(1, max_iters + 1):
        rho = density(pair)
        if it % _REFRESH_EVERY == 1:
            prec = TensorPreconditioner(
                grid, _core(effective_potential(rho, V, a)), _PRECOND_SHIFT,
            )
        g1, g2 = _gradient_fields(pair, rho, V, a)
        t = project_tangent(pair, g1, g2)
        grad_norm = math.sqrt(_frame_dot(t, t))
        history.append((it0 + it, E, grad_norm))
        if breach_floor is not None and E < breach_floor:
            breached = True
            post_breach += 1
            if post_breach >= 12 or E < breach_floor - 1e3 * (1 + abs(breach_floor)):
                break
        if grad_norm <= cfg.grad_tol and not breached:
            reason = "tolerance"
            break
        if last is not None:
            step_vec, t_prev = (_horizontal(pair, *x) for x in last)
            y = tuple(ScalarField(grid, t[i].values - t_prev[i].values) for i in range(2))
            sy = _frame_dot(step_vec, y)
            if sy > 1e-12 * math.sqrt(_frame_dot(step_vec, step_vec) * _frame_dot(y, y)):
                memory.append((step_vec, y, 1.0 / sy))
                del memory[:-_LBFGS_MEMORY]
        # two-loop recursion: r = H_k t with H_0 the preconditioner
        q = t
        alphas = []
        for sv, yv, r in reversed(memory):
            al = r * _frame_dot(sv, q)
            alphas.append(al)
            q = tuple(ScalarField(grid, q[i].values - al * yv[i].values) for i in range(2))
        z = apply_prec(q)
        if memory:
            sv, yv, r = memory[-1]
            hy = apply_prec(yv)
            z = tuple(ScalarField(grid, z[i].values / (r * _frame_dot(yv, hy)))
                      for i in range(2))
        for (sv, yv, r), al in zip(memory, reversed(alphas)):
            be = r * _frame_dot(yv, z)
            z = tuple(ScalarField(grid, z[i].values + (al - be) * sv[i].values)
                      for i in range(2))
        d = tuple(ScalarField(grid, -f.values) for f in _horizontal(pair, *z))
        slope = _frame_dot(t, d)
        if slope >= 0.0:  # curvature memory lost descent: start afresh
            memory.clear()
            d = tuple(ScalarField(grid, -f.values) for f in apply_prec(t))
            slope = _frame_dot(t, d)
            if slope >= 0.0:
                d = tuple(ScalarField(grid, -f.values) for f in t)
                slope = -grad_norm ** 2
        accepted = False
        step = 1.0 if memory else step_init
        for _ in range(40):
            cand = retract(pair, d[0], d[1], step)
            Ec = energy(cand, a, V).energy
            if Ec <= E + _ARMIJO_C * step * slope:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            reason = "line_search"
            break
        last = (tuple(ScalarField(grid, step * f.values) for f in d), t)
        pair = cand
        E = Ec
        max_defect = max(max_defect, pair.defect())
    if breached:
        reason = "breach"
    return pair, reason, max_defect


def _occupied_from_eigs(eig: EigResult, ref: OrbitalPair) -> OrbitalPair:
    """Two occupied orbitals from an eigen block, steadied against ref.

    Within an exactly degenerate cluster the eigenbasis is arbitrary (the
    p-shell of a symmetric trap rotates freely), so the self-consistency
    defect is only meaningful modulo that freedom.  Cluster members are
    recombined to maximize overlap with the previous iterate before any
    densities get compared.
    """
    vals, fields = eig.values, eig.fields

    def cluster(i: int) -> list[int]:
        tol = 1e-8 * (1.0 + abs(vals[i]))
        return [j for j in range(len(vals)) if abs(vals[j] - vals[i]) <= tol]

    def project(ref_u, members, orth_to=None):
        acc = np.zeros(ref_u.grid.shape)
        for j in members:
            acc += inner(fields[j], ref_u) * fields[j].values
        v = ScalarField(ref_u.grid, acc)
        if orth_to is not None:
            v = ScalarField(v.grid, v.values - inner(orth_to, v) * orth_to.values)
        nv = norm(v)
        if nv < 1e-8:  # reference orthogonal to the cluster; keep solver pick
            return None
        return ScalarField(v.grid, v.values / nv)

    c1 = cluster(0)
    u1 = project(ref.u1, c1) if len(c1) > 1 else fields[0]
    if u1 is None:
        u1 = fields[0]
    if 1 in c1:
        u2 = project(ref.u2, c1, orth_to=u1)
        if u2 is None:
            u2 = fields[1]
    else:
        c2 = cluster(1)
        u2 = project(ref.u2, c2) if len(c2) > 1 else fields[1]
        if u2 is None:
            u2 = fields[1]
    return loewdin(u1, u2)


def scf_refine(
    pair: OrbitalPair,
    a: float,
    V: ScalarField,
    cfg: SolverConfig,
    history: list | None = None,
    it0: int = 0,
) -> tuple[OrbitalPair, int, float, list]:
    """Self-consistent-field polish with adaptive linear density mixing.

    Freezes rho, solves the lowest eigen block of H[rho], rebuilds the
    density and mixes.  Mixing grows toward 1 while the defect shrinks
    steadily and halves on an energy oscillation; repeated oscillation falls
    back to a short careful descent and retries.  Stalls (no defect progress
    over six outers) exit with the best iterate rather than spinning.
    Returns (pair, outer iterations, final defect, history).
    """
    if history is None:
        history = []
    rho_mix = density(pair)
    warm = [pair.u1, pair.u2]
    beta = cfg.scf_mixing
    energies: list[float] = []
    defect = math.inf
    best_defect = math.inf
    stall = 0
    fallbacks = 0
    outer = 0
    while outer < cfg.scf_max_outer:
        outer += 1
        # eigensolve only as tightly as the current self-consistency defect
        # warrants, with a floor that keeps the final residuals certifiable
        etol = 0.05 * defect if math.isfinite(defect) else 1e-5
        etol = min(max(etol, 0.1 * cfg.scf_tol, 1e-10), 1e-5, cfg.eig_tol * 100)
        eig = lowest_eigenpairs(rho_mix, V, a, 4, etol, cfg, warm=warm)
        cand = _occupied_from_eigs(eig, pair)
        rho_new = density(cand)
        defect = integrate(
            ScalarField(rho_new.grid, np.abs(rho_new.values - rho_mix.values))
        )
        E = energy(cand, a, V).energy
        energies.append(E)
        history.append((it0 + outer, E, defect))
        pair, warm = cand, list(eig.fields)
        if defect <= cfg.scf_tol:
            break
        if defect < 0.9 * best_defect:
            best_defect, stall = defect, 0
            beta = min(1.0, beta * 1.3)
        else:
            stall += 1
            if stall >= 6:
                break
        if len(energies) >= 4:
            e = energies[-4:]
            up_down = (e[1] > e[0]) != (e[2] > e[1]) and (e[2] > e[1]) != (e[3] > e[2])
            wobble = abs(e[3] - e[2]) > 1e-12 * (1.0 + abs(e[3]))
            if up_down and wobble:
                beta = max(0.05, cfg.scf_mixing / 2.0 ** (fallbacks + 1))
                energies.clear()
                fallbacks += 1
                if fallbacks >= 3:
                    # descend a little and restart the loop once
                    pair, _, _ = _descent_phase(
                        pair, a, V, cfg,
                        max_iters=40, step_init=cfg.step_init / 4.0,
                        history=history, it0=it0 + outer,
                    )
                    rho_mix = density(pair)
                    warm = [pair.u1, pair.u2]
                    fallbacks = 0
                    continue
        rho_mix = ScalarField(
            rho_mix.grid,
            (1.0 - beta) * rho_mix.values + beta * rho_new.values,
        )
    return pair, outer, defect, history


def minimize_ground_state(
    a: float,
    trap: TrapPotential,
    grid: BoxGrid,
    cfg: SolverConfig,
    warm_start: OrbitalPair | None = None,
) -> SolveResult:
    """Trapped two-orbital ground state at coupling a.

    L-BFGS descent phase, then an SCF polish if cfg.scf_toggle and the
    descent stopped short of grad_tol (iteration cap or line search) or on a
    stationary point that fails the aufbau check, final rotation to the
    multiplier eigenbasis with certified eigenresiduals.  ``converged``
    needs small eigenresiduals and the aufbau property: the occupied
    multipliers are the two lowest levels of the pair's own mean-field
    operator.  An energy dive through zero flags ``threshold_breach`` — the
    subcritical energy is provably nonnegative, so crossing zero means a is
    past the discrete threshold (the descent is left to run a few more
    steps so the history records the dive).
    """
    V = potential_field(trap, grid)
    if warm_start is not None:
        pair = warm_start.copy()
    else:
        zero = grid.zeros()
        eig = lowest_eigenpairs(zero, V, 0.0, 2, max(cfg.eig_tol, 1e-8), cfg)
        pair = loewdin(eig.fields[0], eig.fields[1])

    history: list[tuple[int, float, float]] = []
    E0 = energy(pair, a, V).energy
    breach_floor = -1e-6 * max(1.0, abs(E0))

    pair, reason, max_defect = _descent_phase(
        pair, a, V, cfg,
        max_iters=cfg.max_iters, step_init=cfg.step_init,
        history=history, breach_floor=breach_floor,
    )

    scf_outer = 0
    scf_defect = None
    if reason == "breach":
        diag = diagnose(pair, a, V, trap)
        return SolveResult(
            pair=pair, diag=diag, converged=False, iters=len(history),
            residuals=(math.inf, math.inf), history=history,
            stop_reason=reason, threshold_breach=True,
            max_pair_defect=max_defect, width=pair_width(pair),
        )

    polish = cfg.scf_toggle and reason != "tolerance"
    while True:
        if polish:
            pair, scf_outer, scf_defect, history = scf_refine(
                pair, a, V, cfg, history=history, it0=len(history)
            )
            max_defect = max(max_defect, pair.defect())
        rotated, (mu1, mu2), (res1, res2) = _rotate_to_multiplier_basis(pair, V, a)
        # degeneracy gap of the mean-field operator above the occupied shell
        gap_eig = lowest_eigenpairs(
            density(rotated), V, a, 3, max(cfg.eig_tol, 1e-6), cfg,
            warm=[rotated.u1, rotated.u2],
        )
        # Aufbau: a minimizer occupies the two lowest levels of its own
        # mean-field operator (swapping in a lower level lowers E to second
        # order), so a lower second level marks a stationary point that is
        # not a minimum; the SCF, which occupies the lowest levels, takes
        # over from there.
        aufbau = gap_eig.values[1] >= mu2 - 1e-6 * (1.0 + abs(mu2))
        if aufbau or polish or not cfg.scf_toggle:
            break
        polish = True
    max_defect = max(max_defect, rotated.defect())
    diag = diagnose(rotated, a, V, trap)
    gap = float(gap_eig.values[2] - gap_eig.values[1])

    res_tol = 10.0 * cfg.grad_tol
    converged = (
        aufbau
        and max(res1, res2) <= max(res_tol, 50 * cfg.eig_tol)
        and (scf_defect is None or scf_defect <= 100 * cfg.scf_tol)
    )
    return SolveResult(
        pair=rotated, diag=diag, converged=converged, iters=len(history),
        residuals=(res1, res2), history=history,
        stop_reason=reason + "+scf" if polish else reason, degeneracy_gap=gap,
        scf_outer=scf_outer, scf_defect=scf_defect,
        max_pair_defect=max_defect, width=pair_width(rotated),
        eig_values=tuple(float(v) for v in gap_eig.values),
    )


# ---------------------------------------------------------------------------
# concentration quotients
# ---------------------------------------------------------------------------


def quotient_value_rank1(u: ScalarField) -> float:
    """Rank-1 quotient T m^{2/3} / int u^{10/3} (k = 1 :func:`quotient_value`)."""
    return quotient_value((u,))


def _max_node_mass(grid: BoxGrid, *fields: ScalarField) -> float:
    """Largest share of a unit orbital's mass held by one grid node."""
    h3 = grid.spacing ** 3
    return h3 * max(float(np.max(f.values * f.values)) for f in fields)


def _orbital_width(u: ScalarField) -> float:
    """Radial second-moment width of a unit-mass orbital."""
    w2 = second_moment(ScalarField(u.grid, u.values * u.values))
    return math.sqrt(max(w2, 0.0))


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
) -> tuple[float, OrbitalPair, list[dict], list[dict]]:
    """Discrete two-orbital concentration threshold on this grid.

    The continuum quotient is dilation invariant, but the lattice is not:
    the discrete kinetic term undercounts sharp cores, so unconstrained
    descent funnels into node-scale spikes.  A single overall width pin
    does not help here, because one orbital can concentrate at full mass
    while the other spreads to keep any global moment fixed.  The descent
    therefore runs on a doubly pinned slice -- each orbital's radial width
    held fixed and both per-orbital dilation generators projected out of
    the search direction -- and the one genuine internal parameter this
    freezes, the width ratio of the two orbitals, is recovered by an outer
    scan of slices, each started from the same pinned Gaussian s+p pair of
    :func:`gaussian_pair`.  Slices whose descent still finds a kurtotic
    core+shoulder shape (pinned widths, node-scale center) are rejected by
    the node-mass guard rather than reported: such shapes slide indefinitely
    on the lattice and carry no threshold information.  The reported value
    is the polished minimum of the best-scoring scanned slice that survives
    the polish, rotated to the eigenbasis of its own mean-field operator.
    The discrete value depends on the node count alone, not the box scale.

    Returns the value, the pair, the scan log and the polish log.  The scan
    log has one entry per scanned ratio in scan order: ``{"ratio", "q",
    "stop", "iterations"}`` with the coarse value and its descent's stop
    reason (see :func:`_quotient_descent`) and iteration count, or
    ``{"ratio", "rejected"}`` with the reason the slice collapsed.  The
    polish log has one entry per polish attempt in the same form; its last
    entry is the polish that produced the returned pair.
    """
    target_w = _pinned_width(grid, cfg)
    floor = _COLLAPSE_WIDTH_NODES * grid.spacing
    sigma0 = target_w / 2.0
    coarse = replace(
        cfg, grad_tol=max(cfg.grad_tol, 1e-4), max_iters=min(cfg.max_iters, 60)
    )

    def slice_min(start, ratio, config):
        return _quotient_descent(start, grid, config, (target_w, ratio * target_w))

    def scan(r):
        """Coarse slice at ratio r from the Gaussian seed; None if it collapsed."""
        if any(math.isclose(r, e["ratio"]) for e in log if "rejected" in e):
            return None  # an edge step back onto a slice already rejected
        try:
            us, qc, stop, its = slice_min(gaussian_pair(grid, sigma0), r, coarse)
        except UnderResolvedError as exc:
            log.append({"ratio": r, "rejected": str(exc)})
            return None
        scanned[r] = (qc, us)
        log.append({"ratio": r, "q": qc, "stop": stop, "iterations": its})
        return qc

    # Outer scan over the orbital width ratio.  Every slice starts fresh from
    # the pinned Gaussian s+p seed: warm-starting a slice from its neighbor
    # lets one kurtosis-contaminated iterate poison the rest of the chain,
    # while fresh slices fail one at a time and are simply skipped.  The
    # node-bearing orbital usually prefers ratio >= 1; the scan extends
    # itself when the minimum lands on an edge.
    step_r = 2.0 ** (1.0 / 6.0)
    scanned = {}
    log = []
    best_r = None
    k_lo = 0
    while k_lo > -2 and step_r ** (k_lo - 1) * target_w >= floor:
        k_lo -= 1
    for k in range(k_lo, 5):
        r = step_r ** k
        qc = scan(r)
        if qc is not None and (best_r is None or qc < scanned[best_r][0]):
            best_r = r
    if best_r is None:
        raise UnderResolvedError("every quotient start collapsed on this grid")
    for _ in range(3):
        rs = sorted(scanned)
        i = rs.index(best_r)
        if i == 0 and best_r / step_r >= floor / target_w:
            r = best_r / step_r
        elif i == len(rs) - 1:
            r = best_r * step_r
        else:
            break
        qc = scan(r)
        if qc is None or qc >= scanned[best_r][0]:
            break
        best_r = r
    # parabolic refinement of the ratio through the bracketing triple
    rs = sorted(scanned)
    i = rs.index(best_r)
    if 0 < i < len(rs) - 1:
        x0, x1, x2 = (math.log(r) for r in rs[i - 1:i + 2])
        y0, y1, y2 = (scanned[r][0] for r in rs[i - 1:i + 2])
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if den > 0:
            xv = x1 - 0.5 * (
                (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
            ) / den
            rv = math.exp(xv)
            if min(abs(rv / r - 1.0) for r in rs) > 0.01:
                qc = scan(rv)
                if qc is not None and qc < scanned[best_r][0]:
                    best_r = rv

    # Full-tolerance polish of the best scanned slice.  A slice that was
    # quietly creeping toward node-scale structure during the short scan pass
    # dies under the guard here, and the next-best scanned ratio is polished
    # instead.  Only a polished, guard-passing pair is returned.
    polish = []
    for r in sorted(scanned, key=lambda rr: scanned[rr][0]):
        try:
            pair, q, stop, its = slice_min(scanned[r][1], r, cfg)
        except UnderResolvedError as exc:
            polish.append({"ratio": r, "rejected": str(exc)})
            continue
        polish.append({"ratio": r, "q": q, "stop": stop, "iterations": its})
        break
    else:
        raise UnderResolvedError(
            "no quotient slice admitted a resolved minimizer on this grid"
        )

    zero = grid.zeros()
    rotated, _, _ = _rotate_to_multiplier_basis(OrbitalPair(*pair), zero, q)
    return quotient_value(rotated), rotated, log, polish


def _drop_modes(x, modes):
    """Remove from a frame direction its components along orthonormal modes."""
    for b in modes:
        c = _frame_dot(x, b)
        x = tuple(ScalarField(xi.grid, xi.values - c * bi.values) for xi, bi in zip(x, b))
    return x


def _quotient_descent(us, grid, cfg, widths):
    """Projected descent of the quotient over k-frames on the pinned slice.

    ``us`` holds k orbitals (k = 2 for the pair quotient, k = 1 for the
    single-orbital one) and ``widths`` their pinned radial widths.  Each
    orbital's dilation generator is removed from the gradient and the search
    direction, and widths that drift are re-pinned every ``_REFRESH_EVERY``
    iterations.  A guard checks every iterate: the first whose largest
    node mass exceeds ``spike_guard`` or whose narrower width falls below
    ``_COLLAPSE_WIDTH_NODES`` spacings raises :class:`UnderResolvedError`
    naming its iteration.  Such runs have found a spike+halo path (those
    beat every smooth profile on the lattice while the continuum assigns
    them a far larger quotient, so they carry no threshold information),
    and a slice that turns spiky does not recover.

    Returns the frame with the smallest full stationarity residual
    (gradient norm before the dilation modes are removed), its quotient,
    the stop reason and the number of iterations (gradient evaluations)
    run -- not the last iterate: past the stall the quotient keeps creeping
    down along a node-concentration channel that looks convergent to the
    slice-restricted gradient while the full residual grows, so the final
    iterate is the least trustworthy of the run.  The run stops on
    ``"tolerance"`` (sliced gradient below ``grad_tol``), ``"stall"`` (no
    new record for ``_SLIDE_PATIENCE`` iterations), ``"line_search"``
    (Armijo failed) or ``"max_iters"``.
    """
    k = len(widths)
    prec = None
    zero = grid.zeros()
    us = _pin_orbitals(us, widths)
    q = quotient_value(us)
    step = cfg.step_init
    best = None
    last_record = 0
    reason = "max_iters"
    floor = _COLLAPSE_WIDTH_NODES * grid.spacing
    for it in range(1, cfg.max_iters + 1):
        if it % _REFRESH_EVERY == 0 and any(
                abs(_orbital_width(u) / wt - 1.0) > 0.02 for u, wt in zip(us, widths)):
            us = _pin_orbitals(us, widths)
            q = quotient_value(us)
            step = cfg.step_init
        ws = [_orbital_width(u) for u in us]
        spiky = _max_node_mass(grid, *us) > cfg.spike_guard
        if spiky or min(ws) < floor:
            raise UnderResolvedError(
                f"quotient iterate left the resolvable regime at iteration {it} "
                "(widths " + "/".join(f"{w:.3g}" for w in ws) + f", spiky={spiky})")
        rho = density(us)
        if prec is None or it % _REFRESH_EVERY == 0:
            prec = TensorPreconditioner(
                grid, _core(effective_potential(rho, zero, q)), _PRECOND_SHIFT,
            )
        P = p_integral(rho)
        # grad q = (2/P) * (-lap u_i - (5q/3) rho^{2/3} u_i)
        g = tuple(ScalarField(grid, f.values / P)
                  for f in _gradient_fields(us, rho, zero, q))
        # one dilation mode per orbital, in the tangent space, orthonormalized
        modes = []
        for i in range(k):
            m = _drop_modes(project_tangent_frame(us, tuple(
                dilation_generator(us[j]) if j == i else zero for j in range(k))), modes)
            nn = math.sqrt(_frame_dot(m, m))
            if nn > 1e-12:
                modes.append(tuple(ScalarField(grid, f.values / nn) for f in m))

        t = project_tangent_frame(us, g)
        full = math.sqrt(_frame_dot(t, t))
        t = _drop_modes(t, modes)
        gn = math.sqrt(_frame_dot(t, t))
        if best is None or full < best[0]:
            best = (full, us, q)
            last_record = it
        if gn <= cfg.grad_tol:
            reason = "tolerance"
            break
        if it - last_record >= _SLIDE_PATIENCE:
            reason = "stall"
            break
        d = _drop_modes(project_tangent_frame(us, tuple(
            ScalarField(grid, -_pad(prec.apply_core(_core(f.values)))) for f in t
        )), modes)
        slope = _frame_dot(g, d)
        if slope >= 0:
            d, slope = tuple(ScalarField(grid, -f.values) for f in t), -gn * gn
        accepted = False
        tau = step
        for _ in range(40):
            cand = retract_frame(us, d, tau)
            qc = quotient_value(cand)
            if qc <= q + _ARMIJO_C * tau * slope:
                accepted = True
                break
            tau *= _BACKTRACK
        if not accepted:
            reason = "line_search"
            break
        us, q = cand, qc
        step = min(cfg.step_init, tau / _BACKTRACK)
    _, us, q = best
    return us, q, reason, it


def quotient_multiplier_residuals(pair: OrbitalPair):
    """Multipliers and eigenresiduals of the quotient stationarity system."""
    q = quotient_value(pair)
    zero = pair.grid.zeros()
    rotated, (m1, m2), (r1, r2) = _rotate_to_multiplier_basis(pair, zero, q)
    return rotated, q, (m1, m2), (r1, r2)


def minimize_quotient_rank1(
    grid: BoxGrid, cfg: SolverConfig
) -> tuple[float, ScalarField, str, int]:
    """Single-orbital concentration threshold (the shooting cross-check).

    The k = 1 case of the pinned-slice descent behind
    :func:`minimize_quotient_rank2`, run once from the pinned s-like
    Gaussian of :func:`gaussian_pair`; an iterate that leaves the resolvable
    regime raises :class:`UnderResolvedError`.  The returned orbital has a
    positive dominant lobe; the descent's stop reason and iteration count
    come last.
    """
    target_w = _pinned_width(grid, cfg)
    g, _ = _gaussian(grid, target_w / math.sqrt(3.0))
    (u,), _, reason, its = _quotient_descent(
        (_unit_orbital(grid, g),), grid, cfg, (target_w,))
    if u.values.ravel()[int(np.argmax(np.abs(u.values)))] < 0:
        u = ScalarField(grid, -u.values)
    return quotient_value_rank1(u), u, reason, its


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


def _separated_pair_quotients(spline, d: float, panels=_PAIR_PANELS) -> tuple[float, float]:
    """Continuum quotients of the separated pair (k=2) and of one lump (k=1).

    The lumps are w(|x -+ d e_x|) with w read off ``spline`` (zero beyond its
    last knot); the pair is their even/odd orthonormal combination.  Every
    field is axisymmetric about the x axis, so each integral over R^3 is a
    2-D one in cylindrical coordinates (x, r) with measure 2 pi r dx dr, done
    by composite Gauss-Legendre on ``panels`` = (x panels, r panels).
    """
    x, wx = _gauss_panels(-d - _PAIR_REACH, d + _PAIR_REACH, panels[0])
    r, wr = _gauss_panels(0.0, _PAIR_REACH, panels[1])
    X, R = x[:, None], r[None, :]
    weight = 2.0 * math.pi * wx[:, None] * (wr * r)[None, :]

    def quad(f: np.ndarray) -> float:
        return float(np.sum(weight * f))

    def lump(c: float) -> tuple[np.ndarray, np.ndarray]:
        # w and w'/dist; Gauss nodes have r > 0, so dist > 0
        dist = np.hypot(X - c, R)
        inside = dist <= spline.x[-1]
        f = np.where(inside, spline(dist), 0.0)
        return f, np.where(inside, spline(dist, 1), 0.0) / dist

    (fl, gl), (fr, gr) = lump(-d), lump(+d)
    # mass and kinetic energy of one lump, overlap and gradient cross term
    # of the two, with grad L . grad R = gl gr ((x + d)(x - d) + r^2)
    M = quad(fl * fl)
    K = quad(gl * gl * ((X + d) ** 2 + R * R))
    s = quad(fl * fr)
    g = quad(gl * gr * ((X + d) * (X - d) + R * R))
    T = (K + g) / (M + s) + (K - g) / (M - s)
    rho = (fl + fr) ** 2 / (2.0 * (M + s)) + (fl - fr) ** 2 / (2.0 * (M - s))
    q2 = T * (quad(rho) / 2.0) ** (2.0 / 3.0) / quad(np.cbrt(rho) ** 5)
    q1 = K * M ** (2.0 / 3.0) / quad(np.cbrt(fl * fl) ** 5)
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
    of w and w' from one cubic spline of the shooting profile.  The value
    is reported as the ratio to the same-quadrature rank-1 quotient of one
    lump, times the shooting oracle's rank-1 constant (the two agree to
    ~1e-11).  Because the trial pair is an admissible orthonormal
    competitor, its continuum quotient upper-bounds the true threshold.

    Returns a dict with the bound (``value``), the separation attaining it,
    its relative depth below the rank-1 constant, the per-separation
    table, and ``quad_error``, |value - value at half the panels|.
    Deterministic; no RNG involved.
    """
    if profile is None:
        profile = shoot_soliton()
    a1 = gn_constants(profile).a1_star
    spline = profile_spline(profile)

    def value(d: float, panels) -> float:
        q2, q1 = _separated_pair_quotients(spline, d, panels)
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

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def continuation_sweep(
    trap: TrapPotential,
    grid: BoxGrid,
    a_list,
    cfg: SolverConfig,
    a_hat: float,
    warm_start: OrbitalPair | None = None,
) -> SweepOutcome:
    """Warm-started sequence of ground-state solves for increasing a.

    Records carry the scale parameter eps = (a_hat - a)^{1/(p+2)} and the
    under-resolution flag (eps spanning fewer than
    ``asymptotics.EPS_RESOLUTION_NODES`` grid spacings, the rule
    :func:`asymptotics.rescale_extract` warns by).  Any solve failure aborts
    the sweep at that index with the partial records preserved.
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
    prev = warm_start
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
