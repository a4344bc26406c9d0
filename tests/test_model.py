"""Traps, energies, mean-field operator, diagnostics identities."""

import math

import numpy as np
import pytest

from fermivar.grid import (
    BoxGrid,
    ScalarField,
    inner,
    integrate,
    kinetic_energy,
)
from fermivar.model import (
    FIVE_THIRDS,
    TrapError,
    TrapPotential,
    Well,
    concentration_energies,
    density,
    diagnose,
    energy,
    five_thirds_power,
    hamiltonian_apply,
    lower_bound_gap,
    multipliers,
    potential_field,
    sum_rule_residual,
    virial_residual,
)

from helpers import gaussian, p_gaussian, random_pair, sp_pair


def harmonic() -> TrapPotential:
    return TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=2.0),))


def test_well_validation():
    with pytest.raises(TrapError):
        Well(center=(0.0, 0.0, 0.0), power=0.0)
    with pytest.raises(TrapError):
        TrapPotential(wells=())
    with pytest.raises(TrapError):
        TrapPotential(
            wells=(
                Well(center=(0.0, 0.0, 0.0), power=2.0),
                Well(center=(0.0, 0.0, 0.0), power=4.0),
            )
        )


def test_metadata_single_well():
    meta = harmonic().metadata()
    assert meta.p == 2.0
    assert meta.alpha == pytest.approx(1.0)
    assert meta.flattest == ((0.0, 0.0, 0.0),)


def test_metadata_flattest_well_has_largest_power():
    trap = TrapPotential(
        wells=(
            Well(center=(-0.8, 0.0, 0.0), power=2.0),
            Well(center=(0.8, 0.0, 0.0), power=4.0),
        )
    )
    meta = trap.metadata()
    assert meta.p == 4.0
    assert meta.flattest == ((0.8, 0.0, 0.0),)
    # near the flat well the potential is alpha |x - x2|^4 with the
    # cross-factor |x2 - x1|^2 = 1.6^2 from the steeper well
    assert meta.alpha == pytest.approx(2.56, rel=1e-12)
    assert meta.alphas[0] == math.inf  # steeper well: vanishing faster order


def test_potential_field_matches_formula():
    trap = TrapPotential(
        wells=(
            Well(center=(-0.8, 0.0, 0.0), power=2.0),
            Well(center=(0.8, 0.0, 0.0), power=4.0),
        ),
        prefactor=1.5,
    )
    g = BoxGrid(16, 2.0)
    V = potential_field(trap, g)
    X, Y, Z = g.meshgrid()
    r1 = np.sqrt((X + 0.8) ** 2 + Y ** 2 + Z ** 2)
    r2 = np.sqrt((X - 0.8) ** 2 + Y ** 2 + Z ** 2)
    assert np.allclose(V.values, 1.5 * r1 ** 2 * r2 ** 4, rtol=1e-12)
    # vanishes exactly at the well centers only
    assert V.values.min() >= 0.0


def test_potential_field_rejects_outside_center():
    trap = TrapPotential(wells=(Well(center=(3.0, 0.0, 0.0), power=2.0),))
    with pytest.raises(TrapError):
        potential_field(trap, BoxGrid(16, 2.0))


def test_density_mass_is_two():
    g = BoxGrid(32, 3.0)
    pair = sp_pair(g, 0.6)
    rho = density(pair)
    assert integrate(rho) == pytest.approx(2.0, abs=1e-10)
    assert rho.values.min() >= 0.0


def test_energy_decomposition_consistency():
    g = BoxGrid(32, 3.0)
    trap = harmonic()
    V = potential_field(trap, g)
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        pair = random_pair(g, rng, 0.6)
        a = float(rng.uniform(0.0, 5.0))
        d = energy(pair, a, V)
        T = kinetic_energy(pair.u1) + kinetic_energy(pair.u2)
        rho = density(pair)
        W = integrate(ScalarField(g, V.values * rho.values))
        P = integrate(ScalarField(g, np.cbrt(rho.values) ** 5))
        assert d.kinetic == pytest.approx(T, rel=1e-12), f"seed={500 + seed}"
        assert d.potential == pytest.approx(W, rel=1e-12)
        assert d.p_norm == pytest.approx(P, rel=1e-12)
        assert d.energy == pytest.approx(T + W - a * P, rel=1e-12)


def test_p_norm_five_thirds_power():
    # int rho^{5/3} for a known gaussian profile against closed form
    g = BoxGrid(64, 5.0)
    s = 0.9
    u = gaussian(g, s)
    rho = ScalarField(g, u.values ** 2)
    # rho(x) = (pi s^2)^{-3/2} e^{-r^2/s^2}; int rho^{5/3} =
    # (pi s^2)^{-5/2} * (3/5)^{3/2} * (pi s^2)^{3/2} ... compute directly:
    # int e^{-5 r^2 / (3 s^2)} = (3 pi s^2 / 5)^{3/2}
    amp = (math.pi * s * s) ** -1.5
    exact = amp ** FIVE_THIRDS * (3.0 * math.pi * s * s / 5.0) ** 1.5
    got = integrate(ScalarField(g, np.cbrt(rho.values) ** 5))
    assert got == pytest.approx(exact, rel=1e-3)


def test_five_thirds_power_matches_the_general_pow():
    # products of the cube root, against numpy's pow, over 60 decades
    rng = np.random.default_rng(53)
    x = np.concatenate([10.0 ** rng.uniform(-30.0, 30.0, 20_000),
                        rng.random(20_000), [1.0, 8.0, 0.125]])
    ref = np.cbrt(x) ** 5
    got = five_thirds_power(x)
    assert np.max(np.abs(got - ref) / ref) <= 1e-15
    zero = five_thirds_power(np.zeros(3))
    assert np.all(zero == 0.0)


def test_hamiltonian_symmetry():
    g = BoxGrid(24, 2.5)
    V = potential_field(harmonic(), g)
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        pair = random_pair(g, rng, 0.5)
        rho = density(pair)
        f, h = pair.u1, pair.u2
        hf, hh = hamiltonian_apply(rho, V, 2.0, (f, h))
        lhs = inner(hf, h)
        rhs = inner(f, hh)
        assert lhs == pytest.approx(rhs, rel=1e-11), f"seed={900 + seed}"


def test_multipliers_sorted_and_rotation_invariant():
    g = BoxGrid(28, 3.0)
    V = potential_field(harmonic(), g)
    rng = np.random.default_rng(42)
    pair = sp_pair(g, 0.7)
    (mu1, mu2), R, _ = multipliers(pair, V, 1.0)
    assert mu1 <= mu2
    # rotating the pair leaves the multiplier spectrum invariant
    th = rng.uniform(0.3, 1.2)
    c, s = math.cos(th), math.sin(th)
    ru1 = ScalarField(g, c * pair.u1.values + s * pair.u2.values)
    ru2 = ScalarField(g, -s * pair.u1.values + c * pair.u2.values)
    from fermivar.frames import OrbitalPair

    rot = OrbitalPair(ru1, ru2)
    (nu1, nu2), _, _ = multipliers(rot, V, 1.0)
    assert nu1 == pytest.approx(mu1, rel=1e-10)
    assert nu2 == pytest.approx(mu2, rel=1e-10)


def test_sum_rule_is_algebraic_identity():
    # mu1 + mu2 = E - (2a/3) P holds for any orthonormal pair, not just
    # minimizers: it follows from tracing the mean-field operator
    g = BoxGrid(28, 3.0)
    V = potential_field(harmonic(), g)
    for seed in range(8):
        rng = np.random.default_rng(1300 + seed)
        pair = random_pair(g, rng, 0.55)
        a = float(rng.uniform(0.0, 4.0))
        d = diagnose(pair, a, V)
        assert sum_rule_residual(d) < 1e-12, f"seed={1300 + seed}"


def test_virial_residual_zero_at_scale_optimum():
    # for a single power well, optimizing the energy over dilations of a
    # fixed shape zeroes 2(T - aP) - pW
    g = BoxGrid(48, 6.0)
    trap = harmonic()
    V = potential_field(trap, g)
    from fermivar.grid import dilate
    from fermivar.frames import OrbitalPair

    base = sp_pair(g, 0.9)
    a = 2.0

    def at_scale(tau):
        p = OrbitalPair(dilate(base.u1, tau), dilate(base.u2, tau))
        return energy(p, a, V)

    taus = np.linspace(0.85, 1.3, 19)
    es = [at_scale(t).energy for t in taus]
    best = taus[int(np.argmin(es))]
    d = diagnose(
        OrbitalPair(dilate(base.u1, best), dilate(base.u2, best)), a, V,
        trap=trap,
    )
    assert d.virial_residual is not None
    assert d.virial_residual < 0.05


def test_virial_none_for_multiwell():
    trap = TrapPotential(
        wells=(
            Well(center=(-0.5, 0.0, 0.0), power=2.0),
            Well(center=(0.5, 0.0, 0.0), power=2.0),
        )
    )
    g = BoxGrid(20, 2.0)
    d = diagnose(sp_pair(g, 0.5), 1.0, potential_field(trap, g))
    assert virial_residual(d, trap) is None


def test_lower_bound_gap_sign():
    # E >= (1 - a/a_star) T when a_star dominates the pair's quotient
    g = BoxGrid(32, 3.0)
    V = potential_field(harmonic(), g)
    pair = sp_pair(g, 0.6)
    d = energy(pair, 1.0, V)
    q_pair = d.kinetic / d.p_norm
    assert lower_bound_gap(d, 1.0, q_pair) >= 0.0


def test_concentration_energies_scaling_identity():
    # against direct evaluation of the dilated pair at a representable tau
    g = BoxGrid(48, 4.0)
    trap = harmonic()
    V = potential_field(trap, g)
    from fermivar.grid import dilate
    from fermivar.frames import OrbitalPair

    base = sp_pair(g, 0.8)
    a = 3.0
    tau = 1.25
    direct_pair = OrbitalPair(dilate(base.u1, tau), dilate(base.u2, tau))
    direct = energy(direct_pair, a, V).energy
    [predicted] = concentration_energies(base, a, trap, (0.0, 0.0, 0.0), [tau])
    assert predicted == pytest.approx(direct, rel=2e-2)


def test_concentration_energies_at_tau_one_is_the_energy():
    # tau = 1 about the origin is the pair itself, on a two-well trap
    g = BoxGrid(24, 3.0)
    trap = TrapPotential(wells=(Well(center=(-0.8, 0.0, 0.0), power=2.0),
                                Well(center=(0.8, 0.0, 0.0), power=4.0)))
    pair = sp_pair(g, 0.6)
    [e] = concentration_energies(pair, 3.0, trap, (0.0, 0.0, 0.0), [1.0])
    direct = energy(pair, 3.0, potential_field(trap, g)).energy
    assert e == pytest.approx(direct, rel=1e-13)


def test_concentration_energies_supercritical_dive():
    g = BoxGrid(40, 4.0)
    trap = harmonic()
    base = sp_pair(g, 0.8)
    d = energy(base, 0.0, potential_field(trap, g))
    q = d.kinetic / d.p_norm
    sup = concentration_energies(base, 1.1 * q, trap, (0.4, 0.0, 0.0), [2, 4, 8])
    assert sup[0] > sup[1] > sup[2]
    assert sup[2] < 0.0
    sub = concentration_energies(base, 0.9 * q, trap, (0.4, 0.0, 0.0), [2, 4, 8])
    assert all(e > 0.0 for e in sub)
    assert sub[2] > sub[1] > sub[0]
