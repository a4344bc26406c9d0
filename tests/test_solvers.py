"""Ground-state solver, concentration-quotient minimizers, sweep driver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermivar
from fermivar.grid import BoxGrid, ScalarField, inner, integrate, norm
from fermivar.model import TrapPotential, Well, potential_field
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
    pair_width,
    quotient_multiplier_residuals,
    quotient_value,
    quotient_value_rank1,
    separated_pair_upper_bound,
)
from fermivar.radial import gn_constants, profile_spline, shoot_soliton

from helpers import exact_harmonic_levels, random_pair

HARMONIC = TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=2.0),))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    SolverConfig()  # defaults are valid
    with pytest.raises(ValueError):
        SolverConfig(scf_mixing=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError):
        SolverConfig(spike_guard=0.0)
    with pytest.raises(ValueError):
        SolverConfig(pin_fraction=0.5)
    for bad in ({"grad_tol": math.nan}, {"step_init": math.inf},
                {"eig_tol": -1.0}, {"scf_tol": 0.0}, {"scf_tol": -1e-8},
                {"scf_max_outer": 0}):
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


def test_tensor_preconditioner_block_and_dense_solve():
    # A separable diagonal makes the surrogate exact, so apply_core inverts
    # -lap_h + diag + shift, whose 512 x 512 matrix is assembled here from
    # the 1-D tridiagonals.  A block of fields equals field by field.
    g = BoxGrid(10, 1.5)
    m, h = g.n_per_axis - 2, g.spacing
    x = g.axis()[1:-1]
    diag = (x ** 2)[:, None, None] + (0.5 * x + 1.0)[None, :, None] \
        + np.cos(x)[None, None, :]
    shift = 1.0
    prec = TensorPreconditioner(g, diag, shift)
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


_THREADS_PROBE = """
import hashlib
import numpy as np
from fermivar.grid import BoxGrid, ScalarField, inner, integrate
from fermivar.solvers import TensorPreconditioner
g = BoxGrid(96, 2.2)
rng = np.random.default_rng(2024)
f = ScalarField(g, rng.standard_normal(g.shape))
h = ScalarField(g, rng.standard_normal(g.shape))
prec = TensorPreconditioner(g, rng.random((94, 94, 94)), 1.0)
core = f.values[1:-1, 1:-1, 1:-1]
print(inner(f, h).hex(), integrate(f).hex(),
      hashlib.sha256(prec.apply_core(core).tobytes()).hexdigest(),
      hashlib.sha256(prec.apply_core(np.stack([core, core], -1)).tobytes()).hexdigest())
"""


def test_kernels_independent_of_blas_threads():
    # "same config, same seed, same bytes out" must not depend on how many
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
    cfg = SolverConfig(seed=1, max_iters=150)
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
    assert res.diag.orthonormality_defect <= 1e-10
    # a = 0 harmonic trap: virial fixes T = W = E/2
    assert res.diag.kinetic == pytest.approx(res.diag.potential, rel=0.02)


def test_ground_state_descent_history_monotone():
    g = BoxGrid(32, 5.0)
    cfg = SolverConfig(seed=3, max_iters=80, scf_toggle=False)
    res = minimize_ground_state(4.0, HARMONIC, g, cfg)
    energies = [e for _, e, _ in res.history]
    assert len(energies) >= 2
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)  # Armijo descent never increases E


def test_ground_state_is_deterministic():
    g = BoxGrid(28, 5.0)
    cfg = SolverConfig(seed=11, max_iters=60)
    r1 = minimize_ground_state(3.0, HARMONIC, g, cfg)
    r2 = minimize_ground_state(3.0, HARMONIC, g, cfg)
    assert r1.diag.energy == r2.diag.energy  # bitwise
    assert np.array_equal(r1.pair.u1.values, r2.pair.u1.values)
    assert np.array_equal(r1.pair.u2.values, r2.pair.u2.values)
    assert r1.history == r2.history


def test_ground_state_warm_start_agrees():
    g = BoxGrid(28, 5.0)
    cfg = SolverConfig(seed=5, max_iters=120)
    cold = minimize_ground_state(3.0, HARMONIC, g, cfg)
    warm = minimize_ground_state(
        3.2, HARMONIC, g, cfg, warm_start=cold.pair)
    cold32 = minimize_ground_state(3.2, HARMONIC, g, cfg)
    assert warm.converged and cold32.converged
    assert warm.diag.energy == pytest.approx(cold32.diag.energy, rel=1e-5)


def test_supercritical_coupling_breaches():
    # far above the threshold the energy dives through zero
    g = BoxGrid(32, 2.2)
    cfg = SolverConfig(seed=2, max_iters=400)
    res = minimize_ground_state(14.0, HARMONIC, g, cfg)
    assert res.threshold_breach
    assert res.stop_reason == "breach"
    assert not res.converged
    assert res.history[-1][1] < 0.0  # the dive is on record
    assert math.isinf(res.residuals[0])


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
        from fermivar.frames import OrbitalPair
        rot = OrbitalPair(
            ScalarField(g, c * pair.u1.values + s * pair.u2.values),
            ScalarField(g, -s * pair.u1.values + c * pair.u2.values),
        )
        assert quotient_value(rot) == pytest.approx(q, rel=1e-12)
        # rank-1 quotient is invariant under amplitude scaling
        u = pair.u1
        q1 = quotient_value_rank1(u)
        q1s = quotient_value_rank1(ScalarField(g, 3.7 * u.values))
        assert q1s == pytest.approx(q1, rel=1e-12)


def test_rank1_minimizer_matches_shooting_threshold():
    g = BoxGrid(48, 2.2)
    cfg = SolverConfig(seed=7, pin_fraction=0.3, max_iters=250)
    q, u, _, _ = minimize_quotient_rank1(g, cfg)
    # the continuum threshold is 9.578297 (radial shooting); the lattice
    # stencil under-counts kinetic energy so the estimate lands just below
    assert q == pytest.approx(9.578297, rel=0.01)
    assert q < 9.578297
    assert abs(integrate(ScalarField(g, u.values**2)) - 1.0) < 1e-10
    assert u.values.max() > 0  # sign convention: positive core
    # deterministic
    q2, u2, _, _ = minimize_quotient_rank1(g, cfg)
    assert q2 == q and np.array_equal(u.values, u2.values)


def test_rank1_minimizer_rejects_unresolvable_pin():
    g = BoxGrid(40, 2.2)  # pin 0.2*2.2 = 0.44 < 6 spacings = 0.677
    with pytest.raises(UnderResolvedError):
        minimize_quotient_rank1(g, SolverConfig(seed=1))


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
    q, _, reason, iterations = minimize_quotient_rank1(
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
    q, _, scan, polish = minimize_quotient_rank2(
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
    g = BoxGrid(40, 2.2)
    pair = gaussian_pair(g, 0.35)
    rotated, q, (m1, m2), (r1, r2) = quotient_multiplier_residuals(pair)
    assert q == pytest.approx(quotient_value(pair), rel=1e-12)
    assert m1 <= m2
    assert r1 >= 0 and r2 >= 0
    assert rotated.defect() <= 1e-10
    # multipliers of the quotient system: mu_i = <u_i, H_q u_i> with
    # H_q = -lap - (5q/3) rho^{2/3}; both negative for a bound profile
    assert m1 < 0 and m2 < 0


# ---------------------------------------------------------------------------
# separated-pair continuum bound
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def soliton():
    return shoot_soliton()


def test_separated_pair_quadrature_converged(soliton):
    spline = profile_spline(soliton)
    q2, q1 = _separated_pair_quotients(spline, 2.5, (80, 40))
    q2f, q1f = _separated_pair_quotients(spline, 2.5, (160, 80))
    assert abs((q2f / q1f) / (q2 / q1) - 1.0) < 1e-12
    # the k=1 quotient of one lump is the shooting oracle's constant
    assert q1 == pytest.approx(gn_constants(soliton).a1_star, rel=1e-10)


def _gauss_nodes(a, b, panels):
    t, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half * (t + 1.0)).ravel(),
            (half * w).ravel())


def test_separated_pair_bound_matches_3d_quadrature(soliton):
    # Independent check without the axisymmetric reduction: the even/odd
    # pair of the two lumps on a 3-D tensor Gauss-Legendre rule.
    d = 2.5
    spline = profile_spline(soliton)
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
    cfg = SolverConfig(seed=1)
    with pytest.raises(ValueError):
        continuation_sweep(HARMONIC, g, [5.0, 4.0], cfg, a_hat=9.5)
    with pytest.raises(ValueError):
        continuation_sweep(HARMONIC, g, [5.0, 9.6], cfg, a_hat=9.5)


def test_sweep_produces_ordered_records():
    g = BoxGrid(32, 2.2)
    cfg = SolverConfig(seed=4, max_iters=150)
    out = continuation_sweep(HARMONIC, g, [5.0, 6.0], cfg, a_hat=9.5)
    assert out.aborted_at is None
    assert len(out) == 2
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
    assert pair_width(out.pairs[1]) < pair_width(out.pairs[0])
