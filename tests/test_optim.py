"""The descent loop on elements that are not fields: a frame of one plain
vector with only ``values`` and ``copy()``, no grid."""

import numpy as np

from fermivar.optim import riemannian_lbfgs


class Vec:
    def __init__(self, values):
        self.values = values

    def copy(self):
        return Vec(self.values.copy())


class DiagonalQuadratic:
    """q(x) = (1/2) sum_i lam_i (x_i - c_i)^2 in the plain dot product, with
    the exact inverse diagonal as preconditioner and x + t d as move."""

    def __init__(self, n):
        self.lam = 1.0 + np.arange(n, dtype=float)
        self.c = np.cos(np.arange(n, dtype=float))

    @staticmethod
    def dot(x, y):
        return sum(float(a.values @ b.values) for a, b in zip(x, y))

    def value(self, x):
        r = x[0].values - self.c
        return 0.5 * float(r @ (self.lam * r))

    def gradient(self, x):
        return (Vec(self.lam * (x[0].values - self.c)),)

    def examine(self, it, x, value):
        return x, value, self.gradient(x), None, False

    def project(self, v):
        return tuple(f.copy() for f in v)

    def precondition(self, v):
        return tuple(Vec(f.values / self.lam) for f in v)

    def move(self, x, d, step):
        cand = (Vec(x[0].values + step * d[0].values),)
        return cand, self.value(cand)


def _run(max_iters):
    problem = DiagonalQuadratic(50)
    x = (Vec(np.zeros(50)),)
    log = []
    out = riemannian_lbfgs(problem, x, problem.value(x), memory=8,
                           max_iters=max_iters, grad_tol=1e-10, log=log)
    return problem, out, log


def test_lbfgs_reaches_the_minimizer_of_a_plain_vector_problem():
    problem, (x, value, reason, it), log = _run(50)
    assert reason == "tolerance"
    assert it == len(log) <= 5
    assert np.abs(x[0].values - problem.c).max() < 1e-12
    assert value < 1e-24
    assert all(b[1] <= a[1] for a, b in zip(log, log[1:]))


def test_lbfgs_stops_on_max_iters():
    _, (_, _, reason, it), log = _run(2)
    assert reason == "max_iters"
    assert it == len(log) == 2
