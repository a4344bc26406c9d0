"""Uniform cubic grids and real scalar fields.

A :class:`BoxGrid` covers the cube [-L, L]^3 with ``n`` nodes per axis at
x_i = -L + i*h, h = 2L/(n-1), so the faces of the cube carry nodes.  The
boundary condition is homogeneous Dirichlet: differential operators read the
boundary planes as zero and write zeros there, which keeps the discrete
Laplacian exactly symmetric under the quadrature inner product for *any*
field, conforming or not.

Quadrature convention (the "boundary-row convention" referred to in tests):
tensor-product trapezoid weights, i.e. weight h per interior node and h/2 on
the first/last node of each axis.  Constants therefore integrate to exactly
(2L)^3, and for fields that vanish on the boundary the rule coincides with
plain h^3 * sum.  The weights are separable, so a quadrature is three
successive contractions with the 1-D weight vector, ((v @ w) @ w) @ w:
first over z, then y, then x, each one BLAS matrix-vector product.  The
result is fixed by the shape and the numpy/BLAS build; it does not depend
on the BLAS thread count (identical under 1 and 2 OpenBLAS threads for
n = 8..197; a test pins n = 96).

Fields are bare float64 arrays wrapped with their grid; operations live at
module level and return new fields.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = b"FVF1"

# the largest x-slab, in bytes of float64, that a quadrature of a product
# field forms at once; grids up to n = 50 are one slab
_SLAB_BYTES = 1 << 20

# zero nodes that scipy.ndimage's "grid-constant" mode pads per side before
# its spline prefilter; the resampling weights reproduce that mode
_SPLINE_PAD = 12


class GridError(ValueError):
    pass


class GridMismatchError(GridError):
    pass


class NonFiniteFieldError(ValueError):
    pass


@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid on [-L, L]^3 with homogeneous Dirichlet boundary."""

    n_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.n_per_axis < 8:
            raise GridError(f"n_per_axis must be >= 8, got {self.n_per_axis}")
        if not (self.half_width > 0.0 and np.isfinite(self.half_width)):
            raise GridError(f"half_width must be positive, got {self.half_width}")
        # built once: every quadrature reads it (read-only, shared by callers)
        w = np.full(self.n_per_axis, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        object.__setattr__(self, "_quad_weights", w)
        n = self.n_per_axis
        rows = max(1, _SLAB_BYTES // (8 * n * n))
        object.__setattr__(self, "_x_slabs",
                           tuple(slice(i, i + rows) for i in range(0, n, rows)))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_per_axis - 1)

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.n_per_axis
        return (n, n, n)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_per_axis)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def quad_weights_1d(self) -> np.ndarray:
        """Trapezoid weights of one axis (a read-only array)."""
        return self._quad_weights

    def x_slabs(self) -> tuple[slice, ...]:
        """Consecutive blocks of x-planes of at most 1 MiB of float64 each
        (one plane when a plane is larger)."""
        return self._x_slabs

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.shape))


@dataclass
class ScalarField:
    """Real scalar field sampled on a :class:`BoxGrid`."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise GridError(f"field shape {v.shape} != grid shape {self.grid.shape}")
        self.values = v

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def _require_same_grid(a: ScalarField, b: ScalarField) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def _check_finite(values: np.ndarray, grid: BoxGrid, what: str) -> None:
    if np.all(np.isfinite(values)):
        return
    bad = np.argwhere(~np.isfinite(values))[0]
    ax = grid.axis()
    xyz = (ax[bad[0]], ax[bad[1]], ax[bad[2]])
    raise NonFiniteFieldError(
        f"{what} produced a non-finite value at node {tuple(int(i) for i in bad)}"
        f" = {xyz}"
    )


def mask_boundary(values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with the six boundary planes zeroed."""
    m = values.copy()
    m[0, :, :] = 0.0
    m[-1, :, :] = 0.0
    m[:, 0, :] = 0.0
    m[:, -1, :] = 0.0
    m[:, :, 0] = 0.0
    m[:, :, -1] = 0.0
    return m


def boundary_max_abs(field: ScalarField) -> float:
    v = field.values
    return max(
        float(np.abs(v[0]).max()),
        float(np.abs(v[-1]).max()),
        float(np.abs(v[:, 0]).max()),
        float(np.abs(v[:, -1]).max()),
        float(np.abs(v[:, :, 0]).max()),
        float(np.abs(v[:, :, -1]).max()),
    )


def sample(grid: BoxGrid, f, clamp_boundary: bool = False) -> ScalarField:
    """Sample ``f(x, y, z)`` at the grid nodes.

    ``f`` must accept numpy coordinate arrays (every sampled function in this
    package is a vectorized expression).  Non-finite results are rejected with
    the offending node location.
    """
    X, Y, Z = grid.meshgrid()
    vals = np.asarray(f(X, Y, Z), dtype=np.float64)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(np.float64)
    _check_finite(vals, grid, "sample")
    if clamp_boundary:
        vals = mask_boundary(vals)
    return ScalarField(grid, vals)


def integrate(field: ScalarField) -> float:
    """Trapezoid quadrature of the field over the box."""
    w = field.grid.quad_weights_1d()
    return float(((field.values @ w) @ w) @ w)


def inner(f: ScalarField, g: ScalarField) -> float:
    """L2 inner product under the same trapezoid weights as :func:`integrate`.

    The product f*g is formed one x-slab at a time (:meth:`BoxGrid.x_slabs`),
    so the working set is one slab and an (n, n) array of z-contractions,
    not a third field.  Each x-plane is contracted by the same matrix-vector
    product as in the whole-array form, so the value equals
    (((f*g) @ w) @ w) @ w bit for bit.
    """
    _require_same_grid(f, g)
    w = f.grid.quad_weights_1d()
    a, b = f.values, g.values
    planes = np.empty(a.shape[:2])
    for s in f.grid.x_slabs():
        np.matmul(a[s] * b[s], w, out=planes[s])
    return float((planes @ w) @ w)


def norm(f: ScalarField) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def laplacian_apply(field: ScalarField) -> ScalarField:
    """Apply the negated 7-point Laplacian -lap_h under Dirichlet zero.

    The operator is :func:`neg_laplacian_core` on the interior, padded with
    zeros: boundary values of the input are read as zero and the output
    boundary planes are zero.  With the uniform interior quadrature weight
    this makes the operator exactly symmetric: inner(-lap f, g) ==
    inner(f, -lap g) up to roundoff for all fields.
    """
    g = field.grid
    out = np.zeros(g.shape)
    out[1:-1, 1:-1, 1:-1] = neg_laplacian_core(
        field.values[1:-1, 1:-1, 1:-1], g.spacing)
    return ScalarField(g, out)


def neg_laplacian_core(core: np.ndarray, h: float) -> np.ndarray:
    """-lap_h on interior degrees of freedom, shape (n-2,)^3 plus batch axes.

    The first three axes are the interior nodes; any trailing axes index
    independent fields, so a block of fields is one call.  Neighbours
    beyond the interior are the Dirichlet zeros, so each node subtracts only
    the neighbours it has.
    """
    out = 6.0 * core
    out[1:] -= core[:-1]
    out[:-1] -= core[1:]
    out[:, 1:] -= core[:, :-1]
    out[:, :-1] -= core[:, 1:]
    out[:, :, 1:] -= core[:, :, :-1]
    out[:, :, :-1] -= core[:, :, 1:]
    out /= h * h
    return out


def kinetic_energy(field: ScalarField) -> float:
    """Forward-difference gradient form; equals inner(f, -lap_h f) exactly.

    Computed as h * sum over faces of the squared forward difference of the
    boundary-masked field, which is nonnegative by construction.
    """
    m = mask_boundary(field.values)
    h = field.grid.spacing
    acc = 0.0
    for ax in range(3):
        d = np.diff(m, axis=ax)
        acc += float((d * d).sum())
    return acc * h


def _bspline(t: np.ndarray, order: int) -> np.ndarray:
    """Centred cardinal B-spline of order 3 or 5, in closed form."""
    a = np.abs(t)
    if order == 3:
        z = np.maximum(2.0 - a, 0.0)
        return np.where(a < 1.0, (a * a * (a - 2.0) * 3.0 + 4.0) / 6.0,
                        z * z * z / 6.0)
    t2 = a * a
    z = np.maximum(3.0 - a, 0.0)
    return np.select(
        [a < 1.0, a < 2.0],
        [t2 * (t2 * (0.25 - a / 12.0) - 0.5) + 0.55,
         a * (a * (a * (a * (a / 24.0 - 0.375) + 1.25) - 1.75) + 0.625) + 0.425],
        z * z * z * z * z / 120.0)


def _spline_weights(x: np.ndarray, n_src: int, order: int) -> np.ndarray:
    """Matrix taking n_src node values to their spline interpolant at ``x``.

    ``x`` is in fractional node units; column k is the interpolant of the
    k-th unit vector, with zero extension beyond the nodes.  This is
    ``scipy.ndimage.map_coordinates(..., mode="grid-constant",
    prefilter=True)`` built in numpy: the nodes are padded with
    ``_SPLINE_PAD`` zeros per side, the B-spline coefficients solve the
    collocation system on the padded length with mirror-symmetric rows, and
    coefficients past the padded array read as zero.  Only orders 3 and 5
    are built.  The working set is three small matrices, (N, N), (N, n_src)
    and (x.size, N) with N = n_src + 2 * _SPLINE_PAD.
    """
    if order not in (3, 5):
        raise ValueError(f"spline order must be 3 or 5, got {order}")
    N = n_src + 2 * _SPLINE_PAD
    d = np.arange(-(order // 2), order // 2 + 1)  # the nonzero integer samples
    rows = np.repeat(np.arange(N), d.size)
    cols = np.tile(d, N) + rows
    cols = (N - 1) - np.abs((N - 1) - np.abs(cols))  # mirror about both ends
    A = np.zeros((N, N))
    np.add.at(A, (rows, cols), np.tile(_bspline(d.astype(float), order), N))
    coef = np.linalg.solve(A, np.eye(N)[:, _SPLINE_PAD:_SPLINE_PAD + n_src])
    return _bspline(x[:, None] + _SPLINE_PAD - np.arange(N), order) @ coef


def resample_scaled(
    field: ScalarField,
    scale: float,
    center: np.ndarray | None = None,
    out_grid: BoxGrid | None = None,
    order: int = 3,
) -> np.ndarray:
    """Values of ``field(scale * x + center)`` on ``out_grid`` nodes.

    Spline interpolation of order 3 (the default) or 5 with zero extension
    outside the box.  The map acts on each axis alone and tensor spline
    interpolation is separable, so it is applied as one small weight matrix
    per axis (:func:`_spline_weights`, built in numpy).  The values equal
    ``scipy.ndimage.map_coordinates(..., mode="grid-constant")`` on the
    full node set to roundoff (the weights agree to 1e-14, a test pins
    it), without its (3, n, n, n) coordinate array.  Besides the returned
    array, the last contraction holds two arrays of n_out^2 * n_src values.
    This is the shared backend of :func:`dilate` and the profile
    extraction.
    """
    src = field.grid
    dst = src if out_grid is None else out_grid
    if center is None:
        center = np.zeros(3)
    ax = dst.axis()
    out = field.values
    # contracting the last axis and prepending the new one, z then y then
    # x, leaves the result in (x, y, z) order with no transposed copy
    for d in (2, 1, 0):
        x = (scale * ax + center[d] + src.half_width) / src.spacing
        W = _spline_weights(x, src.n_per_axis, order)
        out = np.tensordot(W, out, axes=([1], [2]))
    return out


def dilate(field: ScalarField, tau: float) -> ScalarField:
    """Mass-preserving dilation g(x) = tau^{3/2} f(tau x).

    Exact continuum dilation is unrepresentable on a fixed grid, so after
    cubic resampling the result is rescaled to restore integrate(f^2) exactly.
    tau = 1 is an exact identity fast path.
    """
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"dilation factor must be positive, got {tau}")
    if tau == 1.0:
        return field.copy()
    vals = tau ** 1.5 * resample_scaled(field, tau)
    out = ScalarField(field.grid, vals)
    m_in = integrate(ScalarField(field.grid, field.values * field.values))
    m_out = integrate(ScalarField(field.grid, vals * vals))
    if m_out > 0.0 and m_in > 0.0:
        out.values *= np.sqrt(m_in / m_out)
    _check_finite(out.values, field.grid, "dilate")
    return out


def dilation_generator(field: ScalarField) -> ScalarField:
    """Infinitesimal mass-preserving dilation, d/dtau dilate(f, tau) at tau=1.

    Evaluates (3/2) f + x . grad f with fourth-order centred differences
    (values beyond the box read as zero, as in :func:`dilate`) and a zero
    boundary.  Fourth order matches the cubic spline behind :func:`dilate`;
    second-order differences miss its derivative by ~1% of scale at
    h/sigma = 0.26.  Subtracting its component from a search direction pins
    the scale of otherwise dilation-invariant functionals.

    The operator is a sum of three 1-D operators on the core, one per axis,
    each the m x m matrix 1/2 I + diag(x) D/(12 h) with D the banded
    difference (8, -1 at distance one, two) truncated at the core's edge:
    the masked boundary plane and the plane beyond the box both read as
    zero.  Each is one matrix product with m^2 rows and m columns in the
    result, as in :meth:`solvers.TensorPreconditioner.apply_core`, so the
    value does not depend on the BLAS thread count (a test pins n = 32 and
    96); the three results are summed in the core's axis order.  It agrees
    with the stencil to roundoff (3e-16 of max |result| at n = 32 and 96).
    """
    g = field.grid
    n = g.n_per_axis
    m = n - 2
    D = 8.0 * (np.eye(m, k=1) - np.eye(m, k=-1)) - (np.eye(m, k=2) - np.eye(m, k=-2))
    At = (0.5 * np.eye(m) + g.axis()[1:-1, None] * D / (12.0 * g.spacing)).T
    core = field.values[1:-1, 1:-1, 1:-1]
    c = np.ascontiguousarray(core)  # (i, j, k)
    cy = np.ascontiguousarray(core.transpose(0, 2, 1))  # (i, k, j)
    along_z = (c.reshape(m * m, m) @ At).reshape(m, m, m)
    along_x = (c.reshape(m, m * m).T @ At).reshape(m, m, m)  # (j, k, i)
    along_y = (cy.reshape(m * m, m) @ At).reshape(m, m, m)  # (i, k, j)
    out = np.zeros((n, n, n))
    out_core = out[1:-1, 1:-1, 1:-1]
    np.add(along_z, along_x.transpose(2, 0, 1), out=out_core)
    out_core += along_y.transpose(0, 2, 1)
    return ScalarField(g, out)


def axis_marginals(field_sq: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z marginals of a density: the trapezoid quadrature over
    the other two axes, z then y summed out first."""
    w = field_sq.grid.quad_weights_1d()
    v = field_sq.values
    pxy, pxz = v @ w, w @ v
    return pxy @ w, w @ pxy, w @ pxz


def marginal_second_moment(grid: BoxGrid, marginals, center=None) -> float:
    """integrate(|x - center|^2 * rho), about the origin by default, of a
    density rho from its :func:`axis_marginals`.

    The weight |x - c|^2 is a sum of one term per axis, so the integral is
    the sum of the 1-D quadratures of the marginals; no r^2 field is
    formed.  It agrees with the quadrature of the product field to
    roundoff.
    """
    ax, w = grid.axis(), grid.quad_weights_1d()
    c = np.zeros(3) if center is None else center
    return float(sum(p @ ((ax - c[d]) ** 2 * w) for d, p in enumerate(marginals)))


# ---------------------------------------------------------------------------
# field snapshots: magic "FVF1", n (uint32 LE), half_width (float64 LE),
# then n^3 float64 LE in C (i,j,k) order.
# ---------------------------------------------------------------------------

class SnapshotFormatError(ValueError):
    pass


@contextlib.contextmanager
def atomic_open(path, mode: str, newline: str | None = None):
    """Open a temporary file beside ``path`` that replaces it only on success."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_snapshot(field: ScalarField, path) -> None:
    g = field.grid
    with atomic_open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", g.n_per_axis))
        fh.write(struct.pack("<d", g.half_width))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path) -> ScalarField:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise SnapshotFormatError(f"snapshot {path} cut inside its 16-byte header")
        magic = header[:4]
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r} in {path}")
        n, L = struct.unpack("<Id", header[4:])
        data = fh.read(n * n * n * 8)
        if len(data) != n * n * n * 8:
            raise SnapshotFormatError(f"truncated snapshot {path}")
        vals = np.frombuffer(data, dtype="<f8").reshape(n, n, n).copy()
    grid = BoxGrid(n_per_axis=int(n), half_width=float(L))
    _check_finite(vals, grid, f"snapshot {path}")
    return ScalarField(grid, vals)
