"""Ground-state solver, concentration-quotient minimizers, sweep driver."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal, subspace_angles

import fermivar
from fermivar.frames import OrbitalPair, loewdin
from fermivar.grid import (
    BoxGrid,
    ScalarField,
    boundary_max_abs,
    inner,
    integrate,
    mask_boundary,
    neg_laplacian_core,
    norm,
)
from fermivar.model import (
    TrapPotential,
    Well,
    density,
    effective_potential,
    hamiltonian_apply,
    multipliers,
    potential_field,
)
from fermivar import solvers
from fermivar.solvers import (
    SolverConfig,
    TensorPreconditioner,
    _quotient_descent,
    _separated_pair_quotients,
    UnderResolvedError,
    continuation_sweep,
    gaussian_pair,
    lowest_eigenpairs,
    minimize_ground_state,
    minimize_quotient_rank1,
    minimize_quotient_rank2,
    quotient_value,
    separated_pair_upper_bound,
)
from fermivar.asymptotics import PeakTieWarning
from fermivar.radial import gn_constants, shoot_soliton

from helpers import exact_harmonic_levels, random_pair, traced_peak_mb

HARMONIC = TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=2.0),))
QUARTIC = TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=4.0),))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    SolverConfig()  # defaults are valid
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(pin_fraction=0.5)
    for bad in ({"grad_tol": math.nan}, {"grad_tol": math.inf},
                {"grad_tol": 0.0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


# ---------------------------------------------------------------------------
# starting states
# ---------------------------------------------------------------------------


def test_gaussian_pair_orthonormal_and_shaped():
    g = BoxGrid(32, 3.0)
    pair = gaussian_pair(g, 0.5)
    assert pair.defect() <= 1e-12
    # u1 even, u2 odd along axis 0.  Nodes sit at x_i = -L + i*h, so
    # reversing the index along axis 0 is the reflection x -> -x for any n
    # (an even n has no node on the x=0 plane itself).
    u1, u2 = pair.u1.values, pair.u2.values
    assert abs(u2 + u2[::-1, :, :]).max() < 1e-10
    assert abs(u1 - u1[::-1, :, :]).max() < 1e-10
    mid = g.n_per_axis // 2
    assert pair.u1.values[mid, mid, mid] > 0


# ---------------------------------------------------------------------------
# eigensolver against the exact discrete spectrum
# ---------------------------------------------------------------------------


def test_lowest_eigenpairs_free_laplacian_exact():
    # With rho = V = 0 the operator is the discrete Dirichlet Laplacian,
    # whose spectrum is known in closed form.
    g = BoxGrid(24, 2.0)
    n, h = g.n_per_axis, g.spacing

    def lam1d(m):
        return (2.0 / h**2) * (1.0 - math.cos(math.pi * m / (n - 1)))

    exact = sorted(
        lam1d(i) + lam1d(j) + lam1d(k)
        for i in range(1, 4) for j in range(1, 4) for k in range(1, 4)
    )
    zero = g.zeros()
    eig = lowest_eigenpairs(zero, zero, 0.0, 4, 1e-8)
    assert eig.converged
    assert np.allclose(eig.values, exact[:4], rtol=1e-7)
    # residual certificates
    assert np.all(eig.residuals <= 1e-8 * (1 + np.abs(eig.values)))
    for f in eig.fields:
        assert abs(norm(f) - 1.0) < 1e-10


def test_lowest_eigenpairs_validation():
    g = BoxGrid(16, 2.0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(g.zeros(), g.zeros(), 0.0, 0, 1e-6)
    with pytest.raises(ValueError):
        lowest_eigenpairs(g.zeros(), g.zeros(), 0.0, 9, 1e-6)


def _axis_line_surrogate(grid, diag, shift):
    """The surrogate of the axis lines through the diagonal's minimum node:
    (lines, depth, lams, Q, den), the preconditioner's default weights."""
    h, m = grid.spacing, diag.shape[0]
    i0 = np.unravel_index(int(np.argmin(diag)), diag.shape)
    lines = (diag[:, i0[1], i0[2]].copy(), diag[i0[0], :, i0[2]].copy(),
             diag[i0[0], i0[1], :].copy())
    depth = float(diag[i0])
    off = np.full(m - 1, -1.0 / (h * h))
    lams, Qs = [], []
    for v in lines:
        lam, Q = eigh_tridiagonal(2.0 / (h * h) + v, off)
        lams.append(lam)
        Qs.append(np.ascontiguousarray(Q))
    den = (lams[0][:, None, None] + lams[1][None, :, None] + lams[2][None, None, :]
           + (shift - 2.0 * depth))
    dmin = float(den.min())
    if dmin <= 0.0:
        den += 1.0 - dmin
    return lines, depth, lams, Qs, den


def test_default_preconditioner_is_the_axis_line_surrogate():
    # default weights are one-hot at the minimum node: every field of the
    # preconditioner equals the axis-line formula bit for bit, also for a
    # well deep enough to make the surrogate shift itself SPD
    g = BoxGrid(14, 2.5)
    rng = np.random.default_rng(5)
    rho = density(gaussian_pair(g, 0.4))
    V = potential_field(QUARTIC, g)
    deep = rng.random((12, 12, 12))
    deep[3, 7, 5] = -1e3
    diags = (solvers._core(effective_potential(rho, V, 6.0)),
             rng.random((12, 12, 12)), deep)
    for diag in diags:
        prec = TensorPreconditioner(g, diag)
        lines, depth, lams, Qs, den = _axis_line_surrogate(g, diag, 1.0)
        assert prec.depth == depth
        for got, want in zip((*prec.lines, *prec.lams, *prec.Q), (*lines, *lams, *Qs)):
            assert np.array_equal(got, want)
        assert np.array_equal(prec.den, den)
    assert prec.den.min() == 1.0  # the deep well took the shift branch


def test_weighted_preconditioner_averages_over_product_weights():
    # lines and depth are the diagonal's averages over the weights of the
    # other axes; the surrogate's mean under the weights is the diagonal's
    g = BoxGrid(12, 2.0)
    rng = np.random.default_rng(8)
    diag = rng.random((10, 10, 10))
    w = tuple(x / x.sum() for x in rng.random((3, 10)))
    prec = TensorPreconditioner(g, diag, weights=w)
    W = w[0][:, None, None] * w[1][None, :, None] * w[2][None, None, :]
    mean = float((W * diag).sum())
    assert prec.depth == pytest.approx(mean, rel=1e-14)
    assert np.allclose(prec.lines[0], (diag * (W / w[0][:, None, None])).sum(axis=(1, 2)),
                       rtol=1e-14, atol=0.0)
    surrogate = (prec.lines[0][:, None, None] + prec.lines[1][None, :, None]
                 + prec.lines[2][None, None, :] - 2.0 * prec.depth)
    assert float((W * surrogate).sum()) == pytest.approx(mean, rel=1e-13)


def test_tensor_preconditioner_block_and_dense_solve():
    # A separable diagonal makes the surrogate exact, so apply_core inverts
    # -lap_h + diag + shift, whose 512 x 512 matrix is assembled here from
    # the 1-D tridiagonals.  A block of fields equals field by field.
    g = BoxGrid(10, 1.5)
    m, h = g.n_per_axis - 2, g.spacing
    x = g.axis()[1:-1]
    diag = (x ** 2)[:, None, None] + (0.5 * x + 1.0)[None, :, None] \
        + np.cos(x)[None, None, :]
    shift = TensorPreconditioner.SHIFT
    prec = TensorPreconditioner(g, diag)
    T = (np.diag(np.full(m, 2.0 / h ** 2))
         - np.diag(np.full(m - 1, 1.0 / h ** 2), 1)
         - np.diag(np.full(m - 1, 1.0 / h ** 2), -1))
    eye = np.eye(m)
    A = (np.kron(np.kron(T, eye), eye) + np.kron(np.kron(eye, T), eye)
         + np.kron(np.kron(eye, eye), T) + np.diag(diag.ravel() + shift))
    block = np.random.default_rng(9).standard_normal((m, m, m, 3))
    out = prec.apply_core(block)
    assert out.shape == block.shape
    for j in range(3):
        col = prec.apply_core(np.ascontiguousarray(block[..., j]))
        assert np.array_equal(out[..., j], col)
        dense = np.linalg.solve(A, block[..., j].ravel()).reshape(m, m, m)
        assert np.abs(col - dense).max() <= 1e-12 * np.abs(dense).max()


DOUBLE_WELL = TrapPotential(wells=(Well(center=(-0.8, 0.0, 0.0), power=2.0),
                                   Well(center=(0.8, 0.0, 0.0), power=4.0)))
# four harmonic wells multiplied, on alternate corners of a cube: a trap
# whose separable surrogate at the minimum node sees one well only
FOUR_WELLS = TrapPotential(wells=tuple(
    Well(center=c, power=2.0) for c in ((0.7, 0.7, 0.7), (0.7, -0.7, -0.7),
                                        (-0.7, 0.7, -0.7), (-0.7, -0.7, 0.7))))
OFF_CENTRE = TrapPotential(wells=(Well(center=(0.3, -0.2, 0.1), power=2.0),))
# four harmonic wells multiplied, in the z = 0 plane: its p shell is
# two-fold (p_x, p_y), with p_z above it
PLANAR = TrapPotential(wells=tuple(
    Well(center=c, power=2.0) for c in ((0.3, 0.0, 0.0), (-0.3, 0.0, 0.0),
                                        (0.0, 0.3, 0.0), (0.0, -0.3, 0.0))))


@pytest.mark.parametrize("trap", [HARMONIC, OFF_CENTRE], ids=["centred", "off_centre"])
def test_separable_cold_eigensolve_is_exact(trap):
    # the start block is spanned by the surrogate's product modes, which are
    # the operator's eigenvectors: one pass certifies them, and the levels are
    # sums of the 1-D levels of -d^2/dx^2 + (x - c)^2
    g = BoxGrid(24, 2.2)
    eig = lowest_eigenpairs(g.zeros(), potential_field(trap, g), 0.0, 2,
                            solvers._EIG_TOL)
    assert eig.converged
    assert eig.iterations == 1
    assert max(eig.residuals.max(), eig.guard_residuals.max()) <= 1e-12
    h, x = g.spacing, g.axis()[1:-1]
    one_d = [eigh_tridiagonal(2.0 / h ** 2 + (x - c) ** 2,
                              np.full(x.size - 1, -1.0 / h ** 2))[0]
             for c in trap.wells[0].center]
    sums = np.sort((one_d[0][:, None, None] + one_d[1][None, :, None]
                    + one_d[2][None, None, :]).ravel())[:5]
    vals = np.concatenate([eig.values, eig.guard_values])
    assert vals == pytest.approx(sums, rel=1e-12)


def _dense_levels(g, trap, count):
    """The lowest levels of the assembled 7-point -lap_h + V."""
    m, h = g.n_per_axis - 2, g.spacing
    T = sparse.diags([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
                     [-1, 0, 1]) / h ** 2
    H = sparse.kronsum(sparse.kronsum(T, T), T) + sparse.diags(
        solvers._core(potential_field(trap, g).values).ravel())
    return np.linalg.eigvalsh(H.toarray())[:count]


@pytest.mark.parametrize("trap, g, certified, tol, rel", [
    pytest.param(HARMONIC, BoxGrid(12, 2.2), True, solvers._EIG_TOL, 1e-8, id="harmonic"),
    pytest.param(QUARTIC, BoxGrid(12, 2.5), True, solvers._EIG_TOL, 1e-8, id="quartic"),
    pytest.param(DOUBLE_WELL, BoxGrid(14, 2.5), True, solvers._EIG_TOL, 1e-8,
                 id="double_well"),
    # not separable, though its surrogate is a single harmonic well: the
    # surrogate's k + 3 lowest modes localise in one well and miss the
    # lowest level, while the Ritz start on its 27 lowest finds every level.
    # The block stays uncertified for k = 2 and 3, so only the values are
    # checked
    pytest.param(FOUR_WELLS, BoxGrid(16, 2.2), False, solvers._EIG_TOL, 1e-8,
                 id="four_wells"),
    # a tolerance whose fifth, 0.2 tol, lies below sqrt(eps): LOBPCG computes
    # its Gram matrices once every residual is that small, which no solve
    # of the package asks it to
    pytest.param(QUARTIC, BoxGrid(12, 2.5), True, 1e-9, 1e-10, id="quartic_tight"),
])
def test_lowest_eigenpairs_match_the_dense_spectrum(trap, g, certified, tol, rel):
    V = potential_field(trap, g)
    dense = _dense_levels(g, trap, 7)
    for k in (2, 3, 4):
        eig = lowest_eigenpairs(g.zeros(), V, 0.0, k, tol)
        assert eig.converged or not certified
        assert np.abs(eig.values - dense[:k]).max() <= rel * np.abs(dense[:k]).max()
        # the guard values are Ritz values, upper bounds on the levels of
        # their index, as the README's reading of degeneracy_gap assumes
        assert eig.guard_values.size == 3
        assert np.all(eig.guard_values >= dense[k:k + 3] - 1e-12 * np.abs(dense).max())


def _apply(diag, X, h):
    """-lap_h + diag on (m^3, b) columns."""
    m = diag.shape[0]
    x = X.reshape(m, m, m, -1)
    return (neg_laplacian_core(x, h) + diag[..., None] * x).reshape(X.shape)


def _dense_ritz_start(prec, diag, h, block):
    """Reference start: the surrogate's lowest product modes as dense columns
    B, the operator applied to each, and the Ritz pairs of S = B^T (A B)."""
    m = diag.shape[0]
    i, j, l = np.unravel_index(np.argsort(prec.den, axis=None, kind="stable")
                               [:solvers._START_MODES], prec.den.shape)
    Q1, Q2, Q3 = prec.Q
    B = (Q1[:, None, None, i] * Q2[None, :, None, j]
         * Q3[None, None, :, l]).reshape(m ** 3, -1)
    S = B.T @ _apply(diag, B, h)
    vals, U = np.linalg.eigh(0.5 * (S + S.T))
    return vals[:block], B @ U[:, :block]


@pytest.mark.parametrize("n", [12, 16, 24])
@pytest.mark.parametrize("trap, whole", [
    # the quartic's fifth Ritz pair is one of a degenerate cluster that the
    # block cuts, so only its first four columns span a fixed subspace
    pytest.param(QUARTIC, 4, id="quartic"),
    pytest.param(DOUBLE_WELL, 5, id="double_well"),
    pytest.param(FOUR_WELLS, 5, id="four_wells"),
])
def test_slab_start_is_the_dense_rayleigh_ritz_start(trap, whole, n):
    # the start built from A b = L b + R o b over x-slabs equals the
    # Rayleigh-Ritz step with A applied to every mode
    g = BoxGrid(n, 2.5)
    diag = solvers._core(potential_field(trap, g).values)
    prec = TensorPreconditioner(g, diag)
    X, start_vals = solvers._start_block(prec, diag, None, 5)
    vals, ref = _dense_ritz_start(prec, diag, g.spacing, 5)
    ritz = np.einsum("ij,ij->j", X, _apply(diag, X, g.spacing))
    assert np.abs(ritz - vals).max() <= 1e-12 * np.abs(vals).max()
    assert np.abs(start_vals - vals).max() <= 1e-12 * np.abs(vals).max()
    assert subspace_angles(X[:, :whole], ref[:, :whole]).max() <= 1e-6
    # warm fields take the first columns; the Ritz fill skips as many, and
    # so do its values
    warm = [ScalarField(g, np.pad(X[:, 2].reshape(diag.shape), 1))]
    Xw, warm_vals = solvers._start_block(prec, diag, warm, 5)
    assert np.array_equal(Xw[:, 0], X[:, 2])
    assert np.abs(Xw[:, 1:] - X[:, 1:]).max() <= 1e-12
    assert np.array_equal(warm_vals, start_vals[1:])


def test_start_block_works_in_a_few_fields():
    # no (m^3, 27) mode block is formed: the n = 48 start holds its five
    # columns and at most one slab of mode values and its product with R
    g = BoxGrid(48, 2.2)
    diag = solvers._core(potential_field(QUARTIC, g).values)
    prec = TensorPreconditioner(g, diag)
    field_mb = diag.nbytes / 1e6
    assert traced_peak_mb(solvers._start_block, prec, diag, None, 5) < 10 * field_mb


def test_quartic_cold_block_is_certified_in_one_round():
    # the Ritz start on the surrogate's modes certifies the non-separable
    # n = 32 quartic block within the guard minimum of 16 iterations
    g = BoxGrid(32, 2.5)
    eig = lowest_eigenpairs(g.zeros(), potential_field(QUARTIC, g), 0.0, 2,
                            solvers._EIG_TOL)
    assert eig.converged
    assert eig.iterations <= 16


def test_double_well_cold_block_is_certified_in_two_rounds():
    # the n = 32 double-well cold block takes 32 iterations; 16 more would
    # add half again to the cost of the eigensolve
    g = BoxGrid(32, 2.5)
    eig = lowest_eigenpairs(g.zeros(), potential_field(DOUBLE_WELL, g), 0.0, 2,
                            solvers._EIG_TOL)
    assert eig.converged
    assert eig.iterations <= 32


def test_eigensolve_ignores_the_global_random_state():
    # no random numbers enter the start: reseeding and drawing from numpy's
    # global generator between two calls changes no bit of the result
    g = BoxGrid(14, 2.5)
    V = potential_field(DOUBLE_WELL, g)
    first = lowest_eigenpairs(g.zeros(), V, 0.0, 2, solvers._EIG_TOL)
    np.random.seed(12345)
    np.random.standard_normal(1000)
    second = lowest_eigenpairs(g.zeros(), V, 0.0, 2, solvers._EIG_TOL)
    assert first.iterations == second.iterations
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.guard_values, second.guard_values)
    for f, s in zip(first.fields, second.fields, strict=True):
        assert np.array_equal(f.values, s.values)


_THREADS_PROBE = """
import hashlib
import numpy as np
from fermivar.grid import BoxGrid, ScalarField, inner, integrate
from fermivar.solvers import TensorPreconditioner
g = BoxGrid(96, 2.2)
rng = np.random.default_rng(2024)
f = ScalarField(g, rng.standard_normal(g.shape))
h = ScalarField(g, rng.standard_normal(g.shape))
prec = TensorPreconditioner(g, rng.random((94, 94, 94)))
core = f.values[1:-1, 1:-1, 1:-1]
print(inner(f, h).hex(), integrate(f).hex(),
      hashlib.sha256(prec.apply_core(core).tobytes()).hexdigest(),
      hashlib.sha256(prec.apply_core(np.stack([core, core], -1)).tobytes()).hexdigest())
"""


def test_kernels_independent_of_blas_threads():
    # "same config, same bytes out" must not depend on how many
    # threads the BLAS behind the quadrature and the preconditioner uses
    src = str(Path(fermivar.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.split())
    assert len(outs[0]) == 4
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# trapped ground state
# ---------------------------------------------------------------------------


def test_ground_state_free_case_matches_harmonic_levels():
    # a = 0 decouples the orbitals: E = lowest two levels of -lap + r^2,
    # which are 3 and 5 in the continuum.
    g = BoxGrid(40, 5.5)
    cfg = SolverConfig(max_iters=150)
    res = minimize_ground_state(0.0, HARMONIC, g, cfg)
    levels = exact_harmonic_levels(2)
    assert res.converged
    assert not res.threshold_breach
    assert res.diag.energy == pytest.approx(sum(levels), rel=0.05)
    assert res.diag.mu1 == pytest.approx(levels[0], rel=0.05)
    assert res.diag.mu2 == pytest.approx(levels[1], rel=0.05)
    # p shell is threefold degenerate: the gap above u2 nearly closes
    assert res.degeneracy_gap is not None
    assert abs(res.degeneracy_gap) < 0.3
    assert res.diag.sum_rule_residual < 1e-9
    assert res.max_pair_defect <= 1e-8
    assert res.pair.defect() <= 1e-10
    # a = 0 harmonic trap: virial fixes T = W = E/2
    assert res.diag.kinetic == pytest.approx(res.diag.potential, rel=0.02)


def test_ground_state_descent_history_monotone():
    g = BoxGrid(32, 5.0)
    cfg = SolverConfig(max_iters=80)
    res = minimize_ground_state(4.0, HARMONIC, g, cfg)
    assert res.stop_reason == "tolerance"  # the history is all descent
    energies = [e for _, e, _ in res.history]
    assert len(energies) >= 2
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)  # Armijo descent never increases E


def test_ground_state_trajectory_is_pinned():
    # the cold n=24 harmonic solve at the default config, iteration for
    # iteration: a change of the descent's step or stop rules moves it
    g = BoxGrid(24, 2.2)
    res = minimize_ground_state(5.0, HARMONIC, g, SolverConfig())
    assert res.stop_reason == "tolerance"
    assert res.iters == 12
    assert res.diag.energy == pytest.approx(5.880145123919772, rel=1e-12)


@pytest.mark.parametrize("trap, half_width", [(HARMONIC, 2.2), (QUARTIC, 2.5)])
def test_descent_reaches_a_tight_tolerance(trap, half_width):
    # a tolerance two decades below the default: the descent reaches it on
    # plain Armijo steps (no search needs more than two trials), without
    # an SCF step
    g = BoxGrid(24, half_width)
    res = minimize_ground_state(5.0, trap, g, SolverConfig(grad_tol=1e-8))
    assert res.stop_reason == "tolerance"
    assert res.scf_outer == 0
    assert res.history[-1][2] <= 1e-8
    assert res.converged


def test_ground_state_is_deterministic():
    g = BoxGrid(28, 5.0)
    cfg = SolverConfig(max_iters=60)
    r1 = minimize_ground_state(3.0, HARMONIC, g, cfg)
    r2 = minimize_ground_state(3.0, HARMONIC, g, cfg)
    assert r1.diag.energy == r2.diag.energy  # bitwise
    assert np.array_equal(r1.pair.u1.values, r2.pair.u1.values)
    assert np.array_equal(r1.pair.u2.values, r2.pair.u2.values)
    assert r1.history == r2.history


def test_ground_state_warm_start_agrees():
    g = BoxGrid(28, 5.0)
    cfg = SolverConfig(max_iters=120)
    cold = minimize_ground_state(3.0, HARMONIC, g, cfg)
    warm = minimize_ground_state(
        3.2, HARMONIC, g, cfg, warm_start=cold.pair)
    cold32 = minimize_ground_state(3.2, HARMONIC, g, cfg)
    assert warm.converged and cold32.converged
    assert warm.diag.energy == pytest.approx(cold32.diag.energy, rel=1e-5)


def test_supercritical_coupling_breaches():
    # far above the threshold the energy dives through zero
    g = BoxGrid(32, 2.2)
    cfg = SolverConfig(max_iters=400)
    res = minimize_ground_state(14.0, HARMONIC, g, cfg)
    assert res.threshold_breach
    assert res.stop_reason == "breach"
    assert not res.converged
    assert res.history[-1][1] < 0.0  # the dive is on record
    assert math.isinf(res.residuals[0])
    assert res.eig_values == () and res.degeneracy_gap is None


def test_second_pass_breach_keeps_the_first_level_check():
    # from the (1s, 2s) pair the quartic n = 16 solve at a = 6.5 fails the
    # aufbau check, takes its SCF step and breaches in the second descent;
    # the result still counts the first pass's level check
    g = BoxGrid(16, 2.5)
    res = minimize_ground_state(6.5, QUARTIC, g, SolverConfig(), warm_start=_one_s_two_s(g))
    assert res.threshold_breach and not res.converged
    assert res.stop_reason == "aufbau+breach"
    assert res.level_eig_iters > 0
    assert res.scf_outer == 1
    assert res.residuals == (math.inf, math.inf)
    assert res.eig_values == () and res.degeneracy_gap is None


def test_scf_polish_converges_after_capped_descent():
    # a descent cut off by max_iters takes one SCF step to the level
    # check's two lowest fields, and the second descent from there settles
    # the double-well pair at its first iterate
    g = BoxGrid(24, 2.5)
    trap = TrapPotential(wells=(Well(center=(-0.8, 0.0, 0.0), power=2.0),
                                Well(center=(0.8, 0.0, 0.0), power=4.0)))
    res = minimize_ground_state(3.0, trap, g, SolverConfig(max_iters=30))
    assert res.stop_reason == "max_iters+scf+tolerance"
    assert res.converged
    assert res.scf_outer == 1
    assert res.iters == 30 + 1 + 1  # one history entry per descent step and SCF step
    assert res.history[30][2] == res.scf_defect  # the SCF step's L1 change
    assert res.diag.energy == pytest.approx(10.664488255420956, rel=1e-12)


def _unoriented_start(trap, g):
    """The a = 0 eigenpair in the eigensolver's own p-shell orientation."""
    eig = lowest_eigenpairs(g.zeros(), potential_field(trap, g), 0.0, 2,
                            solvers._EIG_TOL)
    return loewdin(eig.fields[0], eig.fields[1])


def test_scf_polish_reports_a_stalled_polish():
    # from the eigensolver's own p-shell orientation on the quartic trap at
    # n = 32, both capped passes stop on max_iters, the second one after
    # the SCF step; the solve must not call that converged
    g = BoxGrid(32, 2.5)
    start = _unoriented_start(QUARTIC, g)
    res = minimize_ground_state(3.0, QUARTIC, g, SolverConfig(max_iters=5),
                                warm_start=start)
    assert res.stop_reason == "max_iters+scf+max_iters"
    assert res.scf_outer == 1
    assert res.iters == 5 + 1 + 5
    assert not res.converged


def test_scf_step_keeps_the_capped_budget():
    # a capped descent from the oriented cold start: the second pass gets
    # max_iters iterations of its own after one SCF step, and no more; the
    # pair ends above the cold minimum, unconverged
    g = BoxGrid(24, 2.2)
    cold = minimize_ground_state(6.5, HARMONIC, g, SolverConfig())
    res = minimize_ground_state(6.5, HARMONIC, g, SolverConfig(max_iters=3))
    assert res.stop_reason == "max_iters+scf+max_iters"
    assert res.scf_outer == 1
    assert res.iters <= 2 * 3 + 1
    assert not res.converged
    assert res.diag.energy > cold.diag.energy


def test_unconverged_level_check_is_not_certified(monkeypatch):
    # the aufbau check reads the level check, the eigen block started from
    # the final pair; a solve whose block is uncertified is not converged
    g = BoxGrid(24, 2.2)
    assert minimize_ground_state(5.0, HARMONIC, g, SolverConfig()).converged
    eigs = solvers.lowest_eigenpairs

    def uncertified_gap(rho, V, a, k, *args, **kw):
        res = eigs(rho, V, a, k, *args, **kw)
        return replace(res, converged=False) if "warm" in kw else res

    monkeypatch.setattr(solvers, "lowest_eigenpairs", uncertified_gap)
    res = minimize_ground_state(5.0, HARMONIC, g, SolverConfig())
    assert res.stop_reason == "tolerance"
    assert not res.converged


def _one_s_two_s(g):
    """The (1s, 2s) pair: masked e^{-r^2/2} and (r^2 - 3/2) e^{-r^2/2}."""
    x = g.axis()
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    gauss = np.exp(-r2 / 2)
    return loewdin(ScalarField(g, mask_boundary(gauss)),
                   ScalarField(g, mask_boundary((r2 - 1.5) * gauss)))


@pytest.mark.parametrize("trap, half_width, n, a", [
    pytest.param(HARMONIC, 2.2, 24, 5.0, id="harmonic"),
    pytest.param(QUARTIC, 2.5, 24, 5.0, id="quartic"),
    # a level check that stops as soon as its two levels are within tol
    # certifies this stationary pair, 49 % above the minimum: the guard
    # columns' minimum iterations find the lower p level
    pytest.param(HARMONIC, 2.2, 16, 6.5, id="harmonic_n16_a6.5"),
])
def test_aufbau_failure_reenters_the_descent(trap, half_width, n, a):
    # the descent from the (1s, 2s) pair stops on tolerance at a stationary
    # point whose operator has a p level below mu2; the solve takes one SCF
    # step to the level check's two lowest fields, descends again from
    # there and reaches the cold minimum
    g = BoxGrid(n, half_width)
    cold = minimize_ground_state(a, trap, g, SolverConfig())
    res = minimize_ground_state(a, trap, g, SolverConfig(), warm_start=_one_s_two_s(g))
    assert res.converged
    assert res.stop_reason == "aufbau+tolerance"
    assert res.scf_outer == 1
    assert res.diag.energy == pytest.approx(cold.diag.energy, rel=1e-12)


@pytest.mark.parametrize("trap, half_width", [(HARMONIC, 2.2), (QUARTIC, 2.5)])
def test_symmetric_trap_density_is_inversion_symmetric(trap, half_width):
    # the descent keeps the inversion symmetry of the oriented cold start:
    # the density at its peak node and at the mirror node agree to rounding
    g = BoxGrid(24, half_width)
    res = minimize_ground_state(5.0, trap, g, SolverConfig())
    assert res.stop_reason == "tolerance"
    v = density(res.pair).values
    peak = np.unravel_index(int(np.argmax(v)), v.shape)
    mirror = tuple(23 - i for i in peak)
    assert mirror != peak
    assert abs(v[peak] - v[mirror]) <= 1e-12 * v[peak]


def test_quartic_descent_sees_the_whole_well():
    # the preconditioner averaged over the pair density's marginals: the
    # cold quartic solve at a = 6.5 takes 17 descent iterations (26 with
    # the axis lines through the deepest node)
    g = BoxGrid(24, 2.5)
    res = minimize_ground_state(6.5, QUARTIC, g, SolverConfig())
    assert res.stop_reason == "tolerance"
    assert res.scf_outer == 0
    assert res.iters <= 18
    assert res.diag.energy == pytest.approx(5.467077603894437, rel=1e-12)


def test_warm_start_is_masked_at_entry():
    # a warm start that is not zero on the boundary (a quotient slice's
    # frame, say) solves exactly like its masked, re-orthonormalized copy
    g = BoxGrid(20, 2.2)
    cold = minimize_ground_state(3.0, HARMONIC, g, SolverConfig())
    edge = 0.05 * (1.0 - mask_boundary(np.ones(g.shape)))
    raw = loewdin(ScalarField(g, cold.pair.u1.values + edge),
                  ScalarField(g, cold.pair.u2.values - 0.5 * edge))
    assert boundary_max_abs(raw.u1) > 0.0
    masked = loewdin(*(ScalarField(g, mask_boundary(u.values)) for u in raw))
    cfg = SolverConfig()
    res = minimize_ground_state(3.2, HARMONIC, g, cfg, warm_start=raw)
    ref = minimize_ground_state(3.2, HARMONIC, g, cfg, warm_start=masked)
    assert res.converged and res.stop_reason == "tolerance"
    assert res.history == ref.history
    assert res.diag.energy == ref.diag.energy
    for u, w in zip(res.pair, ref.pair):
        assert boundary_max_abs(u) == 0.0
        assert np.array_equal(u.values, w.values)


def test_ground_state_reports_the_finish_multipliers():
    # solve.json's mu1, mu2 are those of the rotation that produced the pair
    g = BoxGrid(24, 2.2)
    res = minimize_ground_state(5.0, HARMONIC, g, SolverConfig())
    (mu1, mu2), _, _ = multipliers(res.pair, potential_field(HARMONIC, g), 5.0)
    assert res.diag.mu1 == pytest.approx(mu1, rel=1e-12)
    assert res.diag.mu2 == pytest.approx(mu2, rel=1e-12)


# ---------------------------------------------------------------------------
# oriented cold start
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trap, half_width, axis_gap", [
    (HARMONIC, 2.2, 3.463452875e-3),
    (QUARTIC, 2.5, 8.377454501e-4),
])
def test_oriented_cold_start(trap, half_width, axis_gap):
    # the p-shell start of lowest energy reaches the minimum that the
    # eigensolver's own orientation reaches, in at most half the
    # iterations; a start on a four-fold axis stops on tolerance at a
    # higher stationary point, certified converged like the minimum
    g = BoxGrid(24, half_width)
    cfg = SolverConfig()
    cold = minimize_ground_state(5.0, trap, g, cfg)
    ref = minimize_ground_state(5.0, trap, g, cfg, warm_start=_unoriented_start(trap, g))
    assert cold.stop_reason == ref.stop_reason == "tolerance"
    assert cold.converged
    assert cold.diag.energy == pytest.approx(ref.diag.energy, rel=1e-12)
    assert 2 * cold.iters <= ref.iters
    values, fields = solvers._ritz_levels(g, potential_field(trap, g))
    shell = solvers._degenerate_shell(values, fields)
    assert len(shell) == 3  # the p level, two of it from the guard columns
    on_axis = minimize_ground_state(5.0, trap, g, cfg, warm_start=solvers._axis_start(
        fields[0], shell, (1, 0, 0)))
    assert on_axis.stop_reason == "tolerance" and on_axis.converged
    gap = on_axis.diag.energy / cold.diag.energy - 1.0
    assert gap == pytest.approx(axis_gap, rel=1e-6)


@pytest.mark.parametrize("trap, half_width", [(HARMONIC, 2.2), (QUARTIC, 2.5)],
                         ids=["harmonic", "quartic"])
@pytest.mark.parametrize("n", [24, 32])
def test_oriented_start_lies_on_the_first_body_diagonal(trap, half_width, n):
    # the four body diagonals tie to eigensolver noise; the tie rule keeps
    # the first of them in the axis table, (1, 1, 1)
    g = BoxGrid(n, half_width)
    V = potential_field(trap, g)
    start = solvers._oriented_start(*solvers._ritz_levels(g, V), 5.0, V)
    x = g.axis()
    dipole = np.array([
        integrate(ScalarField(g, start.u1.values * start.u2.values * x.reshape(s)))
        for s in ((-1, 1, 1), (1, -1, 1), (1, 1, -1))])
    assert dipole / np.linalg.norm(dipole) == pytest.approx(
        np.full(3, 1 / math.sqrt(3)), abs=1e-6)


def test_ground_state_reports_its_eigensolve_iterations():
    # the cold start runs no eigensolver; the level check, its only
    # eigensolve, certifies within one round (a round of maxiter = 15 runs
    # 16 LOBPCG iterations), after a cold start as after a warm one
    g = BoxGrid(32, 2.2)
    cold = minimize_ground_state(5.0, HARMONIC, g, SolverConfig())
    assert cold.converged
    assert 1 <= cold.level_eig_iters <= 16
    warm = minimize_ground_state(5.0, HARMONIC, g, SolverConfig(), warm_start=cold.pair)
    assert 1 <= warm.level_eig_iters <= 16


def test_warm_level_check_certifies_in_one_round():
    # on the body diagonal of a symmetric trap the third level is one of a
    # degenerate pair; a check that certified it split the pair, and from
    # a warm start (no guard eigenvectors) its residual stayed at 1.5e-5
    # after one round.  n = 16, a = 5 is the cheapest grid and coupling
    # found that showed it (a = 4 did not).  The gap is read uncertified
    # from the first guard column
    g = BoxGrid(16, 2.2)
    cold = minimize_ground_state(5.0, HARMONIC, g, SolverConfig())
    warm = minimize_ground_state(5.0, HARMONIC, g, SolverConfig(), warm_start=cold.pair)
    assert warm.stop_reason == "tolerance" and warm.converged
    assert warm.level_eig_iters <= 16
    assert len(warm.eig_values) == 3
    assert warm.degeneracy_gap == warm.eig_values[2] - warm.eig_values[1]
    assert warm.eig_values[2] == pytest.approx(cold.eig_values[2], rel=1e-8)


@pytest.mark.parametrize("a", [0.0, 3.0])
def test_cold_start_on_a_two_fold_p_shell(a):
    # the z axis projects onto the planar trap's (p_x, p_y) shell with
    # coefficients of norm 4e-15: the oriented start skips it rather than
    # orthonormalizing a null vector, and the solve converges
    g = BoxGrid(16, 2.5)
    V = potential_field(PLANAR, g)
    values, fields = solvers._ritz_levels(g, V)
    shell = solvers._degenerate_shell(values, fields)
    assert len(shell) == 2
    assert solvers._axis_start(fields[0], shell, (0, 0, 1)) is None
    res = minimize_ground_state(a, PLANAR, g, SolverConfig())
    assert res.stop_reason == "tolerance" and res.converged
    if a == 0.0:  # no interaction: the two lowest levels, occupied
        eig = lowest_eigenpairs(g.zeros(), V, 0.0, 2, solvers._EIG_TOL)
        assert res.diag.energy == pytest.approx(eig.values.sum(), abs=1e-10)


def test_nondegenerate_cold_start_is_the_eigenpair():
    # the double well's second level is simple: its start is the two
    # lowest Ritz pairs, bit for bit
    g = BoxGrid(24, 2.5)
    V = potential_field(DOUBLE_WELL, g)
    values, fields = solvers._ritz_levels(g, V)
    assert solvers._degenerate_shell(values, fields) == []
    pair = solvers._oriented_start(values, fields, 5.0, V)
    start = loewdin(fields[0], fields[1])
    assert np.array_equal(pair.u1.values, start.u1.values)
    assert np.array_equal(pair.u2.values, start.u2.values)


_COLD_START_PROBE = """
import numpy as np
from fermivar.grid import BoxGrid, ScalarField, integrate
from fermivar.model import TrapPotential, Well, potential_field
from fermivar.solvers import (SolverConfig, _oriented_start, _ritz_levels,
                              minimize_ground_state)
for power, half_width in ((2.0, 2.2), (4.0, 2.5)):
    g = BoxGrid(24, half_width)
    trap = TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=power),))
    V = potential_field(trap, g)
    start = _oriented_start(*_ritz_levels(g, V), 5.0, V)
    x = g.axis()
    dipole = [integrate(ScalarField(g, start.u1.values * start.u2.values * x.reshape(s)))
              for s in ((-1, 1, 1), (1, -1, 1), (1, 1, -1))]
    res = minimize_ground_state(5.0, trap, g, SolverConfig())
    print(res.stop_reason, res.iters, res.diag.energy.hex(),
          *(abs(d) / np.linalg.norm(dipole) for d in dipole))
"""


def test_cold_solve_independent_of_blas_threads():
    # a p-shell basis may depend on the BLAS thread count; the oriented
    # start must not: same stop and count, a three-fold axis
    src = str(Path(fermivar.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _COLD_START_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append([line.split() for line in run.stdout.splitlines()])
    for one, two in zip(*outs):
        assert one[0] == two[0] == "tolerance"
        assert one[1] == two[1]
        assert float.fromhex(one[2]) == pytest.approx(float.fromhex(two[2]), rel=1e-12)
        for cos in one[3:] + two[3:]:
            assert float(cos) == pytest.approx(1 / math.sqrt(3), abs=1e-6)
    assert len(outs[0]) == len(outs[1]) == 2


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def test_quotient_invariances():
    g = BoxGrid(28, 3.0)
    rng = np.random.default_rng(17)
    for seed in range(3):
        pair = random_pair(g, np.random.default_rng(seed), 0.6)
        q = quotient_value(pair)
        assert q > 0
        # invariant under rotation of the occupied frame
        th = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(th), math.sin(th)
        rot = OrbitalPair(
            ScalarField(g, c * pair.u1.values + s * pair.u2.values),
            ScalarField(g, -s * pair.u1.values + c * pair.u2.values),
        )
        assert quotient_value(rot) == pytest.approx(q, rel=1e-12)
        # rank-1 quotient is invariant under amplitude scaling
        u = pair.u1
        q1 = quotient_value((u,))
        q1s = quotient_value((ScalarField(g, 3.7 * u.values),))
        assert q1s == pytest.approx(q1, rel=1e-12)


def test_orbital_width_is_measured_about_the_centroid():
    # the width pin measures each orbital about its own centre, so an
    # off-centre iterate keeps the width of its shape
    g = BoxGrid(40, 3.0)
    sigma = 0.3  # per-axis deviation of u^2; its radial width is sqrt(3) sigma
    centred, (X, Y, Z) = solvers._gaussian(g, sigma)
    shifted = np.exp(-((X - 0.3) ** 2 + Y ** 2 + Z ** 2) / (4.0 * sigma * sigma))
    w0, w1 = (solvers._orbital_width(density((solvers._unit_orbital(g, v),)), 1.0)
              for v in (centred, shifted))
    assert w0 == pytest.approx(math.sqrt(3.0) * sigma, rel=1e-9)
    assert w1 == pytest.approx(w0, rel=1e-10)


def test_pair_width_is_measured_about_the_centroid():
    # a pair moved by whole nodes, its support kept clear of the walls,
    # keeps its width; a width about the origin grows with the move
    g = BoxGrid(40, 3.0)
    inside = np.abs(g.axis()) <= 1.2
    box = inside[:, None, None] & inside[None, :, None] & inside[None, None, :]
    pair = loewdin(*(ScalarField(g, u.values * box) for u in gaussian_pair(g, 0.3)))
    moved = OrbitalPair(*(ScalarField(g, np.roll(u.values, (4, -3, 2), axis=(0, 1, 2)))
                          for u in pair))
    w0, w1 = (solvers._orbital_width(density(p), 2.0) for p in (pair, moved))
    assert w1 == pytest.approx(w0, rel=1e-12)


def test_rank1_minimizer_matches_shooting_threshold():
    g = BoxGrid(48, 2.2)
    cfg = SolverConfig(pin_fraction=0.3, max_iters=250)
    q, u, *_ = minimize_quotient_rank1(g, cfg)
    # the continuum threshold is 9.578297 (radial shooting); the lattice
    # stencil under-counts kinetic energy so the estimate lands just below
    assert q == pytest.approx(9.578297, rel=0.01)
    assert q < 9.578297
    assert abs(integrate(ScalarField(g, u.values**2)) - 1.0) < 1e-10
    assert u.values.max() > 0  # sign convention: positive core
    # deterministic
    q2, u2, *_ = minimize_quotient_rank1(g, cfg)
    assert q2 == q and np.array_equal(u.values, u2.values)


def test_rank1_minimizer_rejects_unresolvable_pin():
    g = BoxGrid(40, 2.2)  # pin 0.2*2.2 = 0.44 < 6 spacings = 0.677
    with pytest.raises(UnderResolvedError):
        minimize_quotient_rank1(g, SolverConfig())


def _count_iterations(monkeypatch):
    """Count quotient-descent iterations: one gradient evaluation each."""
    calls = []
    grad = solvers._gradient_fields

    def counted(*args):
        calls.append(None)
        return grad(*args)

    monkeypatch.setattr(solvers, "_gradient_fields", counted)
    return calls


def test_rank1_descent_stops_at_its_stall(monkeypatch):
    # the last new residual record falls at iteration 19 and the descent
    # stops 25 iterations later; running on to max_iters reaches the same
    # frame, value 9.636903923974643
    calls = _count_iterations(monkeypatch)
    g = BoxGrid(32, 2.2)
    q, _, _, _, reason, iterations = minimize_quotient_rank1(
        g, SolverConfig(pin_fraction=0.4, max_iters=250))
    assert reason == "stall"
    assert iterations == len(calls) <= 50
    assert q == pytest.approx(9.636903923974643, rel=1e-12)


def test_rank2_threshold_search_iteration_count(monkeypatch):
    # the n=32, pin 0.4 threshold config: three scanned slices collapse
    # early, the rest stall, and the polish returns the same record as a
    # run to max_iters
    calls = _count_iterations(monkeypatch)
    g = BoxGrid(32, 2.2)
    q, _, _, _, scan, polish = minimize_quotient_rank2(
        g, SolverConfig(pin_fraction=0.4, max_iters=250))
    assert len(calls) <= 130
    assert [e["ratio"] for e in scan if "rejected" in e] == pytest.approx(
        [1.0, 2 ** (1 / 6), 2 ** (1 / 3)])
    assert len(polish) == 1 and polish[0]["stop"] == "stall"
    assert q == pytest.approx(9.890449593282888, rel=1e-12)


def test_quotient_slice_is_rejected_at_its_first_guard_failure(monkeypatch):
    # the equal-width slice of the n=32, pin 0.4 threshold scan turns spiky
    # at its third iterate and is rejected there, before a third gradient
    calls = _count_iterations(monkeypatch)
    g = BoxGrid(32, 2.2)
    cfg = SolverConfig(pin_fraction=0.4, grad_tol=1e-4, max_iters=60)
    w = cfg.pin_fraction * g.half_width
    with pytest.raises(UnderResolvedError, match=r"at iteration 3 \(.*spiky=True"):
        _quotient_descent(gaussian_pair(g, w / 2.0), g, cfg, (w, w))
    assert len(calls) <= 2


def test_quotient_multiplier_residuals_structure():
    # the stationarity finish of the minimizers on a k = 2 quotient frame
    g = BoxGrid(40, 2.2)
    pair = gaussian_pair(g, 0.35)
    q = quotient_value(pair)
    frame, (m1, m2), (r1, r2) = solvers._rotate_to_multiplier_basis(pair, g.zeros(), q)
    rotated = OrbitalPair(*frame)
    assert quotient_value(rotated) == pytest.approx(q, rel=1e-12)
    assert m1 <= m2
    assert r1 >= 0 and r2 >= 0
    assert rotated.defect() <= 1e-10
    # multipliers of the quotient system: mu_i = <u_i, H_q u_i> with
    # H_q = -lap - (5q/3) rho^{2/3}; both negative for a bound profile
    assert m1 < 0 and m2 < 0


def test_rank1_minimizer_reports_its_stationarity():
    # the k = 1 finish: the returned multiplier and eigenresidual are those
    # of the returned orbital at the returned value
    g = BoxGrid(32, 2.2)
    q, u, mu, residual, _, _ = minimize_quotient_rank1(
        g, SolverConfig(pin_fraction=0.4, max_iters=250))
    zero = g.zeros()
    (mu_ref,), _, _ = multipliers((u,), zero, q)
    (hu,) = hamiltonian_apply(density((u,)), zero, q, (u,))
    direct = norm(ScalarField(g, hu.values - mu_ref * u.values))
    assert mu == pytest.approx(mu_ref, rel=1e-12)
    assert residual == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# separated-pair continuum bound
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def soliton():
    return shoot_soliton()


def test_separated_pair_quadrature_converged(soliton):
    q2, q1 = _separated_pair_quotients(soliton, 2.5, (80, 40))
    q2f, q1f = _separated_pair_quotients(soliton, 2.5, (160, 80))
    assert abs((q2f / q1f) / (q2 / q1) - 1.0) < 1e-12
    # the k=1 quotient of one lump is the shooting oracle's constant
    assert q1 == pytest.approx(gn_constants(soliton).a1_star, rel=1e-10)


def _full_plane_quotients(profile, d, panels):
    """Reference pair quadrature: every integrand on the full (x, r) plane,
    the right lump read as the left one reversed along x."""
    x, wx = solvers._gauss_panels(-d - solvers._PAIR_REACH, d + solvers._PAIR_REACH,
                                  panels[0])
    x, wx = 0.5 * (x - x[::-1]), 0.5 * (wx + wx[::-1])
    r, wr = solvers._gauss_panels(0.0, solvers._PAIR_REACH, panels[1])
    X, R = x[:, None], r[None, :]
    weight = 2.0 * math.pi * wx[:, None] * (wr * r)[None, :]

    def quad(f):
        return float(np.sum(weight * f))

    dist = np.hypot(X + d, R)
    fl, dfl = profile.read(dist)
    gl = dfl / dist
    fr, gr = fl[::-1], gl[::-1]
    M, K, s = quad(fl * fl), quad(dfl * dfl), quad(fl * fr)
    g = quad(gl * gr * ((X + d) * (X - d) + R * R))
    T = (K + g) / (M + s) + (K - g) / (M - s)
    rho = (fl + fr) ** 2 / (2.0 * (M + s)) + (fl - fr) ** 2 / (2.0 * (M - s))
    q2 = T * (quad(rho) / 2.0) ** (2.0 / 3.0) / quad(np.cbrt(rho) ** 5)
    q1 = K * M ** (2.0 / 3.0) / quad(np.cbrt(fl * fl) ** 5)
    return q2, q1


@pytest.mark.parametrize("panels", [(80, 40), (160, 80)])
def test_streamed_pair_quadrature_equals_the_full_plane_one(soliton, panels):
    for d in (2.0, 2.5, 3.0):
        got = _separated_pair_quotients(soliton, d, panels)
        ref = _full_plane_quotients(soliton, d, panels)
        for v, v_ref in zip(got, ref):
            assert abs(v / v_ref - 1.0) <= 1e-14


def test_pair_quadrature_streams_its_integrands(soliton):
    # a few blocks of 64 x 320 nodes, not eleven 640 x 320 planes (25 MB)
    assert traced_peak_mb(_separated_pair_quotients, soliton, 2.5) < 8.0


def _gauss_nodes(a, b, panels):
    t, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half * (t + 1.0)).ravel(),
            (half * w).ravel())


def test_separated_pair_bound_matches_3d_quadrature(soliton):
    # Independent check without the axisymmetric reduction or the profile's
    # Hermite reader: the even/odd pair of the two lumps, read off a cubic
    # spline of the samples, on a 3-D tensor Gauss-Legendre rule.
    d = 2.5
    spline = CubicSpline(soliton.r, soliton.w, bc_type=((1, 0.0), "not-a-knot"))
    x, wx = _gauss_nodes(-d - 12.0, d + 12.0, 18)
    y, wy = _gauss_nodes(-12.0, 12.0, 12)
    X, Y, Z = np.meshgrid(x, y, y, indexing="ij", sparse=True)
    W = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]

    def lump(c):
        r = np.sqrt((X - c) ** 2 + Y * Y + Z * Z)
        f = np.where(r <= soliton.r[-1], spline(r), 0.0)
        g = np.where(r <= soliton.r[-1], spline(r, 1), 0.0) / r
        return f, (g * (X - c), g * Y, g * Z)

    def quotient(fields, grads):
        # T (m/k)^{2/3} / P of an orthonormal basis of span(fields)
        gram = np.array([[np.sum(W * a * b) for b in fields] for a in fields])
        evals, evecs = np.linalg.eigh(gram)
        coef = evecs / np.sqrt(evals)
        T, rho = 0.0, 0.0
        for c in coef.T:
            u = sum(cj * f for cj, f in zip(c, fields))
            rho = rho + u * u
            for ax in range(3):
                du = sum(cj * g[ax] for cj, g in zip(c, grads))
                T += np.sum(W * du * du)
        k = len(fields)
        return T * (np.sum(W * rho) / k) ** (2.0 / 3.0) / np.sum(W * np.cbrt(rho) ** 5)

    (fl, gl), (fr, gr) = lump(-d), lump(d)
    ratio = quotient([fl, fr], [gl, gr]) / quotient([fl], [gl])
    bound = separated_pair_upper_bound(separations=(d,), profile=soliton)
    a1 = gn_constants(soliton).a1_star
    assert bound["value"] == pytest.approx(ratio * a1, rel=1e-9)
    assert bound["value"] < a1
    assert bound["rel_below_rank1"] > 1e-5
    assert bound["quad_error"] < 1e-9


# ---------------------------------------------------------------------------
# continuation sweep
# ---------------------------------------------------------------------------


def test_sweep_validates_inputs():
    g = BoxGrid(24, 2.2)
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        continuation_sweep(HARMONIC, g, [5.0, 4.0], cfg, a_hat=9.5)
    with pytest.raises(ValueError):
        continuation_sweep(HARMONIC, g, [5.0, 9.6], cfg, a_hat=9.5)


def test_sweep_produces_ordered_records():
    g = BoxGrid(32, 2.2)
    cfg = SolverConfig(max_iters=150)
    # the harmonic densities are inversion-symmetric to rounding, so the
    # peak's two lobes tie
    with pytest.warns(PeakTieWarning):
        out = continuation_sweep(HARMONIC, g, [5.0, 6.0], cfg, a_hat=9.5)
    assert out.aborted_at is None
    assert len(out.records) == 2
    r0, r1 = out.records
    assert r0.a < r1.a
    assert r0.eps > r1.eps  # eps shrinks approaching the threshold
    assert r0.eps == pytest.approx((9.5 - 5.0) ** 0.25, rel=1e-12)
    assert r0.converged and r1.converged
    # each record says why its solve stopped
    for r in out.records:
        assert r.stop_reason.split("+")[0] in ("tolerance", "line_search", "max_iters")
    assert not r0.under_resolved  # eps ~ 1.45 >> 8 spacings
    # concentrates at the well: the paper fixes |peak - x0| = O(eps) only,
    # and the s+p density peaks on the p lobe, off the well centre
    assert np.linalg.norm(r1.peak) < r1.eps
    assert r1.E < r0.E  # energy decreases toward the threshold
    assert r1.P > r0.P
    assert len(out.pairs) == 2 and len(out.widths) == 2
    assert out.widths[1] < out.widths[0]  # state narrows
    assert out.widths == [solvers._orbital_width(density(p), 2.0) for p in out.pairs]
