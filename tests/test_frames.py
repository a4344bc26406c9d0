"""Orthonormal-frame machinery: the frame x matrix kernel, Loewdin, tangent
projection, retraction."""

import numpy as np
import pytest

from fermivar.frames import (
    NearSingularGramError,
    OrbitalPair,
    PairDefectError,
    combine,
    gram,
    loewdin,
    loewdin_frame,
    project_tangent,
    retract,
)
from fermivar.grid import (
    BoxGrid,
    ScalarField,
    inner,
    norm,
)

from helpers import (
    gaussian,
    normalize,
    p_gaussian,
    random_smooth_field,
    sp_pair,
)


def _unit_pair_with_overlap(grid, s, rng):
    """Two exactly unit fields whose inner product is s (up to roundoff)."""
    e1 = normalize(gaussian(grid, 0.5))
    raw = p_gaussian(grid, 0.55, axis=rng.integers(0, 3))
    raw = ScalarField(grid, raw.values - inner(e1, raw) * e1.values)
    e2 = normalize(raw)
    f2 = ScalarField(grid, s * e1.values + np.sqrt(1.0 - s * s) * e2.values)
    return e1, f2


def _random_frame(grid, k, rng):
    """k orthonormalized random smooth fields (the k-field code path)."""
    return loewdin_frame(random_smooth_field(grid, rng, 0.6) for _ in range(k))


def _frame_defect(frame):
    return float(np.abs(gram(*frame) - np.eye(len(frame))).max())


def test_gram_matrix_entries():
    g = BoxGrid(24, 3.0)
    f1 = normalize(gaussian(g, 0.6))
    f2 = normalize(p_gaussian(g, 0.6, axis=0))
    G = gram(f1, f2)
    assert G.shape == (2, 2)
    assert G[0, 1] == G[1, 0]
    assert abs(G[0, 0] - 1.0) < 1e-12
    assert abs(G[1, 1] - 1.0) < 1e-12
    assert abs(G[0, 1] - inner(f1, f2)) < 1e-14
    # the same matrix for k = 1 and k = 3 fields
    f3 = ScalarField(g, 2.0 * normalize(p_gaussian(g, 0.6, axis=1)).values)
    G1 = gram(f3)
    assert G1.shape == (1, 1)
    assert abs(G1[0, 0] - 4.0) < 1e-12
    G3 = gram(f1, f2, f3)
    assert G3.shape == (3, 3)
    assert np.array_equal(G3, G3.T)
    assert np.array_equal(G3[:2, :2], G)
    for i, fi in enumerate((f1, f2, f3)):
        for j, fj in enumerate((f1, f2, f3)):
            assert abs(G3[i, j] - inner(fi, fj)) < 1e-14


def test_loewdin_defect_at_roundoff():
    g = BoxGrid(28, 3.0)
    rng = np.random.default_rng(11)
    for _ in range(6):
        s = rng.uniform(-0.4, 0.4)
        f1, f2 = _unit_pair_with_overlap(g, s, rng)
        pair = loewdin(f1, f2)
        assert pair.defect() <= 1e-10
    for k in (1, 3):
        for _ in range(3):
            raw = [ScalarField(g, rng.uniform(0.5, 2.0) * f.values)
                   for f in _random_frame(g, k, rng)]
            if k == 3:  # overlapping inputs: mix the orthonormal fields
                raw = [ScalarField(g, raw[i].values + 0.3 * raw[(i + 1) % 3].values)
                       for i in range(3)]
            assert _frame_defect(loewdin_frame(raw)) <= 1e-10


def test_loewdin_first_order_expansion_bound():
    # For unit inputs with overlap s <= 0.1 the Loewdin output satisfies
    # || Q~_i - (Q_i - (s/2) Q_j) || <= 2 s^2.
    g = BoxGrid(28, 3.0)
    rng = np.random.default_rng(7)
    for s in (0.01, 0.02, 0.05, 0.1):
        for _ in range(3):
            f1, f2 = _unit_pair_with_overlap(g, s, rng)
            pair = loewdin(f1, f2)
            err1 = norm(ScalarField(
                g, pair.u1.values - (f1.values - 0.5 * s * f2.values)))
            err2 = norm(ScalarField(
                g, pair.u2.values - (f2.values - 0.5 * s * f1.values)))
            assert max(err1, err2) <= 2.0 * s * s


def test_loewdin_symmetric_under_swap():
    g = BoxGrid(24, 3.0)
    rng = np.random.default_rng(3)
    f1, f2 = _unit_pair_with_overlap(g, 0.3, rng)
    p = loewdin(f1, f2)
    q = loewdin(f2, f1)
    assert np.allclose(p.u1.values, q.u2.values, atol=1e-13)
    assert np.allclose(p.u2.values, q.u1.values, atol=1e-13)


def test_loewdin_rejects_dependent_fields():
    g = BoxGrid(24, 3.0)
    f = normalize(gaussian(g, 0.6))
    f2 = ScalarField(g, 0.9999999 * f.values)
    with pytest.raises(NearSingularGramError):
        loewdin(f, f2)


def test_pair_validation():
    g = BoxGrid(24, 3.0)
    f1 = normalize(gaussian(g, 0.6))
    f2 = normalize(p_gaussian(g, 0.6, axis=0))
    with pytest.raises(PairDefectError):
        OrbitalPair(f1, normalize(gaussian(g, 0.7)))  # not orthogonal
    other = BoxGrid(24, 2.5)
    with pytest.raises(PairDefectError):
        OrbitalPair(f1, normalize(p_gaussian(other, 0.6, axis=0)))
    pair = OrbitalPair(f1, f2)  # odd p-field is exactly orthogonal to even s
    assert pair.defect() <= 1e-12


def test_pair_copy_is_independent():
    g = BoxGrid(24, 3.0)
    pair = sp_pair(g, 0.6)
    cp = pair.copy()
    cp.u1.values[5, 5, 5] += 1.0
    assert pair.u1.values[5, 5, 5] != cp.u1.values[5, 5, 5]


@pytest.mark.parametrize("n, slabs", [(32, 1), (51, 2), (96, 7)])
def test_combine_matches_whole_array_forms_bit_for_bit(n, slabs):
    g = BoxGrid(n, 2.0)
    assert len(g.x_slabs()) == slabs
    rng = np.random.default_rng(n)
    k = 3
    fs = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(k)]
    base = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(k)]
    M = rng.standard_normal((k, k))
    for j, (acc, sub) in enumerate(zip(combine(fs, M), combine(fs, M, base=base))):
        want_acc = fs[0].values * M[0, j]
        want_sub = base[j].values - fs[0].values * M[0, j]
        for i in range(1, k):
            want_acc += fs[i].values * M[i, j]
            want_sub -= fs[i].values * M[i, j]
        assert acc.values.tobytes() == want_acc.tobytes()
        assert sub.values.tobytes() == want_sub.tobytes()
    # a k x 1 matrix gives one column
    col, = combine(fs, M[:, :1])
    assert col.values.tobytes() == combine(fs, M)[0].values.tobytes()
    # writing into the input arrays gives the bits of a fresh output
    for b in (None, base):
        fresh = combine(fs, M, base=b)
        own = [f.copy() for f in fs]
        inplace = combine(own, M, base=b, out=[f.values for f in own])
        for x, y, o in zip(fresh, inplace, own):
            assert y.values is o.values
            assert x.values.tobytes() == y.values.tobytes()


def test_project_tangent_antisymmetry_and_idempotence():
    g = BoxGrid(24, 3.0)
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        for seed in range(2):
            frame = _random_frame(g, k, np.random.default_rng(10 * k + seed))
            d = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(k)]
            t = project_tangent(frame, d)
            for i in range(k):
                for j in range(k):
                    assert abs(inner(frame[i], t[j]) + inner(frame[j], t[i])) < 1e-10
            r = project_tangent(frame, t)
            for ri, ti in zip(r, t):
                assert np.allclose(ri.values, ti.values, atol=1e-12)


def test_retract_restores_constraint_and_is_first_order():
    g = BoxGrid(24, 3.0)
    rng = np.random.default_rng(9)
    for k in (1, 2, 3):
        frame = tuple(sp_pair(g, 0.6)) if k == 2 else _random_frame(
            g, k, np.random.default_rng(30 + k))
        t = project_tangent(
            frame, [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(k)])
        errs = []
        for step in (1e-2, 5e-3, 2.5e-3):
            stepped = retract(frame, t, step)
            assert _frame_defect(stepped) <= 1e-12
            errs.append(max(
                norm(ScalarField(g, s.values - u.values - step * ti.values))
                for s, u, ti in zip(stepped, frame, t)
            ))
        # dominated by the second-order Loewdin correction: O(step^2)
        assert errs[1] < 0.35 * errs[0]
        assert errs[2] < 0.35 * errs[1]
