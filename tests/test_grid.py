"""Grid primitives: quadrature, stencil accuracy, dilation, snapshots."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

import fermivar
from fermivar.grid import (
    BoxGrid,
    GridError,
    GridMismatchError,
    NonFiniteFieldError,
    ScalarField,
    SnapshotFormatError,
    axis_marginals,
    boundary_max_abs,
    dilate,
    dilation_generator,
    inner,
    integrate,
    kinetic_energy,
    laplacian_apply,
    marginal_second_moment,
    mask_boundary,
    neg_laplacian_core,
    norm,
    read_snapshot,
    resample_scaled,
    sample,
    write_snapshot,
)
from fermivar.grid import _SPLINE_PAD, _spline_weights

from helpers import gaussian, p_gaussian, random_smooth_field, traced_peak_mb


def test_grid_validation():
    with pytest.raises(GridError):
        BoxGrid(4, 1.0)
    with pytest.raises(GridError):
        BoxGrid(16, -1.0)
    with pytest.raises(GridError):
        BoxGrid(16, float("nan"))


def test_spacing_and_axis():
    g = BoxGrid(11, 2.0)
    assert g.spacing == pytest.approx(0.4)
    ax = g.axis()
    assert ax[0] == -2.0 and ax[-1] == 2.0
    assert np.allclose(np.diff(ax), 0.4)


def test_quadrature_exact_for_trilinear_products():
    # trapezoid weights: boundary nodes carry half weight per axis
    g = BoxGrid(9, 1.0)
    w = g.quad_weights_1d()
    assert w[0] == pytest.approx(0.5 * g.spacing)
    assert w[-1] == pytest.approx(0.5 * g.spacing)
    assert np.allclose(w[1:-1], g.spacing)
    # volume of the box
    one = ScalarField(g, np.ones(g.shape))
    assert integrate(one) == pytest.approx(8.0, rel=1e-12)
    # the rule is exact for trilinear integrands, which pins the half-weight
    # boundary rows on a field that does not vanish there: over [-L, L]^3,
    # (1 + x)(2 - y)(z + 1/2) integrates to 2L * 4L * L
    L = 1.3
    g = BoxGrid(11, L)
    X, Y, Z = g.meshgrid()
    exact = 8.0 * L ** 3
    tri = ScalarField(g, (1.0 + X) * (2.0 - Y) * (Z + 0.5))
    assert integrate(tri) == pytest.approx(exact, rel=1e-13)
    f = ScalarField(g, (1.0 + X) * (2.0 - Y))
    h = ScalarField(g, Z + 0.5)
    assert inner(f, h) == pytest.approx(exact, rel=1e-13)


def test_integrate_converges_second_order():
    # trapezoid error on a smooth profile is O(h^2).  The reference is the
    # integral over the box itself: the tail outside [-4, 4]^3 (1.9e-7)
    # would swamp the quadrature error at n = 48.
    exact = (math.pi * 0.98) ** 1.5 * math.erf(4.0 / math.sqrt(0.98)) ** 3

    def raw_err(n):
        g = BoxGrid(n, 4.0)
        X, Y, Z = g.meshgrid()
        v = np.exp(-(X * X + Y * Y + Z * Z) / 0.98)
        return abs(integrate(ScalarField(g, v)) - exact)

    e1, e2 = raw_err(24), raw_err(48)
    assert e2 < e1 / 3.0  # better than ~h^2 already


def test_inner_and_norm_consistency():
    g = BoxGrid(16, 1.5)
    rng = np.random.default_rng(7)
    f = random_smooth_field(g, rng, 0.5)
    h = random_smooth_field(g, rng, 0.5)
    assert inner(f, h) == pytest.approx(inner(h, f), rel=1e-14)
    assert norm(f) == pytest.approx(math.sqrt(inner(f, f)), rel=1e-14)


@pytest.mark.parametrize("n", [32, 51, 96])
def test_inner_by_slabs_equals_the_whole_array_form(n):
    # n = 32 is one x-slab; 51 and 96 are two and seven
    g = BoxGrid(n, 2.2)
    rng = np.random.default_rng(n)
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    w = g.quad_weights_1d()
    assert inner(f, h) == float((((f.values * h.values) @ w) @ w) @ w)
    # the product is held one slab (at most 1 MiB) at a time: at n = 96 a
    # whole product field is 7.1 MB
    assert traced_peak_mb(inner, f, h) < 1.5


def test_grid_mismatch_raises():
    f = ScalarField(BoxGrid(16, 1.0), np.ones((16, 16, 16)))
    h = ScalarField(BoxGrid(16, 2.0), np.ones((16, 16, 16)))
    with pytest.raises(GridMismatchError):
        inner(f, h)


def test_sample_rejects_nonfinite_with_location():
    g = BoxGrid(16, 1.0)
    with pytest.raises(NonFiniteFieldError):
        sample(g, lambda X, Y, Z: np.where(X == X, np.nan, 0.0))


def test_mask_boundary_zeroes_faces():
    g = BoxGrid(12, 1.0)
    v = mask_boundary(np.ones(g.shape))
    assert v[0].max() == 0.0 and v[-1].max() == 0.0
    assert v[:, 0].max() == 0.0 and v[:, :, -1].max() == 0.0
    assert v[1:-1, 1:-1, 1:-1].min() == 1.0
    f = ScalarField(g, v)
    assert boundary_max_abs(f) == 0.0


def test_laplacian_second_order_convergence():
    # -lap e^{-r^2/2s^2} has a known closed form; interior error ~ h^2
    s = 0.8

    def stencil_err(n):
        g = BoxGrid(n, 4.0)
        X, Y, Z = g.meshgrid()
        r2 = X * X + Y * Y + Z * Z
        u = np.exp(-r2 / (2 * s * s))
        f = ScalarField(g, mask_boundary(u))
        lap = laplacian_apply(f)  # returns -lap f
        exact = -(r2 / s ** 4 - 3.0 / s ** 2) * u
        core = (slice(6, -6),) * 3
        return float(np.max(np.abs(lap.values[core] - exact[core])))

    e1, e2 = stencil_err(32), stencil_err(64)
    ratio = e1 / e2
    assert 3.0 < ratio < 5.5, f"expected ~4x error drop per halving, got {ratio}"


def _padded_stencil(field):
    """Reference -lap_h: the 7-point stencil on the boundary-masked field."""
    m = mask_boundary(field.values)
    out = np.zeros_like(m)
    core = 6.0 * m[1:-1, 1:-1, 1:-1]
    core -= m[:-2, 1:-1, 1:-1]
    core -= m[2:, 1:-1, 1:-1]
    core -= m[1:-1, :-2, 1:-1]
    core -= m[1:-1, 2:, 1:-1]
    core -= m[1:-1, 1:-1, :-2]
    core -= m[1:-1, 1:-1, 2:]
    out[1:-1, 1:-1, 1:-1] = core / field.grid.spacing ** 2
    return out


def test_neg_laplacian_core_batches_fields():
    # the interior operator on a block of fields (trailing batch axis) and
    # laplacian_apply on each field (non-zero boundary values, read as zero)
    # both match the padded reference stencil, bit for bit
    g = BoxGrid(14, 1.5)
    rng = np.random.default_rng(5)
    fields = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(3)]
    block = np.stack([f.values[1:-1, 1:-1, 1:-1] for f in fields], axis=-1)
    out = neg_laplacian_core(block, g.spacing)
    for j, f in enumerate(fields):
        ref = _padded_stencil(f)
        assert np.array_equal(laplacian_apply(f).values, ref)
        assert np.array_equal(neg_laplacian_core(block[..., j], g.spacing),
                              ref[1:-1, 1:-1, 1:-1])
        assert np.array_equal(out[..., j], ref[1:-1, 1:-1, 1:-1])


def test_kinetic_energy_matches_quadratic_form():
    g = BoxGrid(24, 3.0)
    f = gaussian(g, 0.7)
    T_form = inner(f, laplacian_apply(f))
    assert kinetic_energy(f) == pytest.approx(T_form, rel=1e-12)
    # T(tau u) = tau^2 T holds in the continuum; the lattice form of a
    # sampled gaussian e^{-r^2/2s^2} is (6/h^2)(1 - e^{-x}), x = h^2/(4 s^2),
    # biased low (see the README), so dilating by 2 (x -> 4x) multiplies it
    # by (1 - e^{-4x})/(1 - e^{-x}) = 3.80 here, not 4
    x = g.spacing ** 2 / (4.0 * 0.7 ** 2)
    ratio = (1.0 - math.exp(-4.0 * x)) / (1.0 - math.exp(-x))
    f2 = dilate(f, 2.0)
    assert kinetic_energy(f2) == pytest.approx(ratio * kinetic_energy(f), rel=0.02)


def test_dilate_preserves_mass():
    g = BoxGrid(48, 4.0)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        f = random_smooth_field(g, rng, 0.6)
        for tau in (0.8, 1.25):
            d = dilate(f, tau)
            m = integrate(ScalarField(g, d.values ** 2))
            assert m == pytest.approx(1.0, abs=5e-3), f"seed={100 + seed} tau={tau}"


def test_dilation_generator_is_tangent_to_dilation():
    # d/dtau dilate(f, tau)|_{tau=1} matches the generator field
    g = BoxGrid(40, 3.0)
    f = gaussian(g, 0.6)
    gen = dilation_generator(f)
    eps = 1e-4
    fd = (dilate(f, 1.0 + eps).values - dilate(f, 1.0 - eps).values) / (2 * eps)
    core = (slice(8, -8),) * 3
    scale = float(np.max(np.abs(gen.values[core])))
    err = float(np.max(np.abs(fd[core] - gen.values[core])))
    assert err < 5e-3 * scale


def _dilation_generator_reference(field):
    """The generator's defining formula, evaluated on the whole padded box."""
    g = field.grid
    h, n = g.spacing, g.n_per_axis
    v = mask_boundary(field.values)
    p = np.pad(v, 2)
    ax = g.axis()

    def shifted(d, k):
        idx = [slice(2, n + 2)] * 3
        idx[d] = slice(2 + k, n + 2 + k)
        return p[tuple(idx)]

    out = 1.5 * v
    for d in range(3):
        df = (8.0 * (shifted(d, 1) - shifted(d, -1))
              - (shifted(d, 2) - shifted(d, -2))) / (12.0 * h)
        shape = [1, 1, 1]
        shape[d] = n
        out += ax.reshape(shape) * df
    return mask_boundary(out)


@pytest.mark.parametrize("n", [8, 9, 32])
def test_dilation_generator_matches_reference(n):
    # a field with nonzero boundary planes: they must read as zero; the
    # axis products sum in another order than the stencil, so to roundoff
    rng = np.random.default_rng(n)
    f = ScalarField(BoxGrid(n, 2.2), rng.standard_normal((n, n, n)))
    got = dilation_generator(f).values
    ref = _dilation_generator_reference(f)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert boundary_max_abs(ScalarField(f.grid, got)) == 0.0


_DILATION_THREADS_PROBE = """
import hashlib
import numpy as np
from fermivar.grid import BoxGrid, ScalarField, dilation_generator
for n in (32, 96):
    rng = np.random.default_rng(n)
    f = ScalarField(BoxGrid(n, 2.2), rng.standard_normal((n, n, n)))
    print(hashlib.sha256(dilation_generator(f).values.tobytes()).hexdigest())
"""


def test_dilation_generator_independent_of_blas_threads():
    src = str(Path(fermivar.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _DILATION_THREADS_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.split())
    assert len(outs[0]) == 2
    assert outs[0] == outs[1]


def _second_moment_reference(rho, center):
    """The defining formula: the quadrature of the r^2-weighted field."""
    X, Y, Z = rho.grid.meshgrid()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2
    return integrate(ScalarField(rho.grid, rho.values * r2))


@pytest.mark.parametrize("center, mass", [
    ((0.0, 0.0, 0.0), 1.0),
    ((0.5, -0.3, 0.2), 1.0),
    ((0.0, 0.0, 0.0), 3.7),
    ((-0.4, 0.1, 0.6), 0.02),
])
def test_second_moment_matches_the_r2_field(center, mass):
    g = BoxGrid(33, 2.5)
    rng = np.random.default_rng(71)
    # a noise floor puts mass on the boundary planes too
    v = random_smooth_field(g, rng, 0.6).values ** 2 + 0.05 * rng.random(g.shape)
    rho = ScalarField(g, mass * v / integrate(ScalarField(g, v)))
    got = marginal_second_moment(g, axis_marginals(rho),
                                 None if not any(center) else np.array(center))
    ref = _second_moment_reference(rho, center)
    assert got == pytest.approx(ref, rel=1e-13)


def test_second_moment_of_gaussian():
    g = BoxGrid(48, 5.0)
    s = 0.9
    f = gaussian(g, s)
    rho = ScalarField(g, f.values ** 2)
    # u^2 ~ e^{-r^2/s^2}: per-axis variance s^2/2, trace 3 s^2/2
    ps = axis_marginals(rho)
    assert marginal_second_moment(g, ps) == pytest.approx(1.5 * s * s, rel=1e-3)
    off = marginal_second_moment(g, ps, center=np.array([0.5, 0.0, 0.0]))
    assert off == pytest.approx(1.5 * s * s + 0.25, rel=1e-3)


def test_resample_scaled_recovers_dilation():
    g = BoxGrid(32, 3.0)
    f = gaussian(g, 0.8)
    v = resample_scaled(f, 1.0, center=np.zeros(3))
    assert np.allclose(v, f.values, atol=1e-9)


def _map_coordinates_weights(x, n, order):
    eye = np.eye(n)
    return np.stack([map_coordinates(eye[k], x[None, :], order=order,
                                     mode="grid-constant", cval=0.0, prefilter=True)
                     for k in range(n)], axis=1)


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("n", [12, 32, 48])
def test_spline_weights_equal_map_coordinates(order, n):
    # resample_scaled's fractional node positions: a box scaled by 0.3-3.0
    # and shifted, so the larger scales reach past the box
    for scale in (0.3, 0.8, 1.0, 1.9, 3.0):
        for shift in (0.0, 0.21, -0.47):
            x = (scale * np.linspace(-1.0, 1.0, 37) + shift + 1.0) * (n - 1) / 2
            err = np.abs(_spline_weights(x, n, order)
                         - _map_coordinates_weights(x, n, order)).max()
            assert err <= 1e-14, (scale, shift)
    # outside the box the interpolant lives on the padded coefficients:
    # small but not zero up to the end of the pad, zero past it (folding
    # the coefficients about the box ends instead misses by up to 1e-4 here)
    reach = _SPLINE_PAD + order // 2 + 1
    x = np.concatenate([np.linspace(-reach - 6.0, -0.5, 61),
                        np.linspace(n - 0.5, n - 1 + reach + 6.0, 61)])
    ref = _map_coordinates_weights(x, n, order)
    assert np.abs(_spline_weights(x, n, order) - ref).max() <= 1e-14
    outside = (x < -1.0) | (x > n)
    past_pad = (x <= -reach) | (x >= n - 1 + reach)
    assert np.abs(ref[outside & ~past_pad]).max() > 1e-6
    assert not _spline_weights(x[past_pad], n, order).any()


def test_spline_weights_reject_other_orders():
    with pytest.raises(ValueError):
        _spline_weights(np.linspace(0.0, 11.0, 5), 12, 4)


def test_snapshot_roundtrip_bitwise(tmp_path):
    g = BoxGrid(20, 1.7)
    rng = np.random.default_rng(3)
    f = random_smooth_field(g, rng, 0.5)
    path = tmp_path / "f.snap"
    write_snapshot(f, path)
    f2 = read_snapshot(path)
    assert f2.grid == g
    assert f2.values.tobytes() == f.values.tobytes()
    # byte-identical on rewrite
    write_snapshot(f2, tmp_path / "f2.snap")
    assert (tmp_path / "f.snap").read_bytes() == (tmp_path / "f2.snap").read_bytes()


def test_snapshot_rejects_corruption(tmp_path):
    g = BoxGrid(12, 1.0)
    f = gaussian(g, 0.4)
    path = tmp_path / "f.snap"
    write_snapshot(f, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    (tmp_path / "bad_magic.snap").write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(tmp_path / "bad_magic.snap")
    (tmp_path / "truncated.snap").write_bytes(path.read_bytes()[:-16])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(tmp_path / "truncated.snap")


def test_snapshot_cut_inside_its_header_is_a_format_error(tmp_path):
    path = tmp_path / "f.snap"
    write_snapshot(gaussian(BoxGrid(12, 1.0), 0.4), path)
    (tmp_path / "cut.snap").write_bytes(path.read_bytes()[:10])
    with pytest.raises(SnapshotFormatError, match="header"):
        read_snapshot(tmp_path / "cut.snap")


def test_snapshot_write_is_atomic(tmp_path):
    g = BoxGrid(12, 1.0)
    path = tmp_path / "f.snap"
    write_snapshot(gaussian(g, 0.4), path)
    before = path.read_bytes()

    class FailingField:  # its values fail after the header is written
        grid = g

        @property
        def values(self):
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_snapshot(FailingField(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.snap"]
