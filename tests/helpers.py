"""Shared builders for the test suite: smooth fields, pairs, small grids."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from fermivar.grid import BoxGrid, ScalarField, inner, integrate, mask_boundary, norm
from fermivar.frames import OrbitalPair, loewdin


def normalize(field: ScalarField) -> ScalarField:
    return ScalarField(field.grid, field.values / norm(field))


def gaussian(grid: BoxGrid, sigma: float, center=(0.0, 0.0, 0.0)) -> ScalarField:
    """Normalized s-type Gaussian, boundary-masked."""
    X, Y, Z = grid.meshgrid()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2
    vals = np.exp(-r2 / (2.0 * sigma * sigma))
    return normalize(ScalarField(grid, mask_boundary(vals)))


def p_gaussian(grid: BoxGrid, sigma: float, axis: int = 0,
               center=(0.0, 0.0, 0.0)) -> ScalarField:
    """Normalized p-type Gaussian (one sign node through the center)."""
    X, Y, Z = grid.meshgrid()
    coords = (X - center[0], Y - center[1], Z - center[2])
    r2 = sum(c * c for c in coords)
    vals = coords[axis] * np.exp(-r2 / (2.0 * sigma * sigma))
    return normalize(ScalarField(grid, mask_boundary(vals)))


def sp_pair(grid: BoxGrid, sigma: float) -> OrbitalPair:
    """Orthonormal (s, p) Gaussian pair at a common scale."""
    return loewdin(gaussian(grid, sigma), p_gaussian(grid, sigma))


def random_smooth_field(grid: BoxGrid, rng: np.random.Generator,
                        sigma: float, lumps: int = 3) -> ScalarField:
    """Random superposition of a few off-center Gaussians, normalized."""
    X, Y, Z = grid.meshgrid()
    acc = np.zeros(grid.shape)
    for _ in range(lumps):
        c = rng.uniform(-0.25, 0.25, size=3) * grid.half_width
        s = sigma * rng.uniform(0.7, 1.4)
        amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        r2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
        acc += amp * np.exp(-r2 / (2.0 * s * s))
    return normalize(ScalarField(grid, mask_boundary(acc)))


def random_pair(grid: BoxGrid, rng: np.random.Generator,
                sigma: float) -> OrbitalPair:
    f = random_smooth_field(grid, rng, sigma)
    g = random_smooth_field(grid, rng, sigma)
    if abs(inner(f, g)) > 0.98:  # nearly parallel draw; perturb
        g = normalize(ScalarField(grid, g.values + 0.3 * p_gaussian(
            grid, sigma).values))
    return loewdin(f, g)


def pair_mass(pair: OrbitalPair) -> float:
    g = pair.grid
    rho = pair.u1.values ** 2 + pair.u2.values ** 2
    return integrate(ScalarField(g, rho))


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def exact_harmonic_levels(k: int = 2) -> list[float]:
    """Lowest eigenvalues of -lap + |x|^2 (unit prefactor): 3, 5, 5, 5, 7..."""
    out = []
    n = 0
    while len(out) < k:
        level = 2.0 * n + 3.0
        degeneracy = (n + 1) * (n + 2) // 2
        out.extend([level] * degeneracy)
        n += 1
    return out[:k]


def central_second_derivative(f, x0: float, h: float = 1e-4) -> float:
    return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h)


def finite_diff_slope(f, x0: float, h: float = 1e-5) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def make_sigma(grid: BoxGrid, nodes: float = 9.5) -> float:
    """A scale spanning the requested number of spacings (well resolved)."""
    return nodes * grid.spacing / math.sqrt(3.0)


def traced_peak_mb(fn, *args) -> float:
    """Peak memory, in MB, that ``fn(*args)`` allocates above what it starts with.

    Taken by ``tracemalloc``, which sees numpy's array buffers as well as
    Python objects; the arguments are built before tracing starts, so
    they do not count.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()
