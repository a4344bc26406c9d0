"""The descent loop on elements that are not fields: a frame of one plain
vector with only ``values`` and ``copy()``, no grid."""

import numpy as np

from fermivar.optim import _HALVINGS, riemannian_lbfgs


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


class OffsetQuadratic(DiagonalQuadratic):
    """1 + q(x) at each iterate, but every trial value 1e-13 higher, with the
    identity as preconditioner: near the minimizer no trial can meet the
    Armijo test, while the value stays within the Wolfe test's slack."""

    def __init__(self, n):
        super().__init__(n)
        self.moves = []  # trial count of each line search

    def examine(self, it, x, value):
        self.moves.append(0)
        return x, 1.0 + self.value(x), self.gradient(x), None, False

    def precondition(self, v):
        return tuple(f.copy() for f in v)

    def move(self, x, d, step):
        self.moves[-1] += 1
        cand, value = super().move(x, d, step)
        return cand, 1.0 + value + 1e-13


def test_wolfe_retry_accepts_a_step_that_armijo_cannot():
    problem = OffsetQuadratic(20)
    x = (Vec(np.zeros(20)),)
    _, _, reason, it = riemannian_lbfgs(problem, x, 1.0 + problem.value(x), memory=8,
                                        max_iters=200, grad_tol=1e-8)
    assert reason == "tolerance"
    assert it == 33
    # a search that ran all Armijo trials and still took a step went on to
    # the Wolfe test; six searches did
    assert sum(m > _HALVINGS for m in problem.moves) == 6


class WrongSignGradient(DiagonalQuadratic):
    def gradient(self, x):
        g, = super().gradient(x)
        return (Vec(-g.values),)


def test_an_ascent_direction_stops_on_line_search():
    problem = WrongSignGradient(20)
    x = (Vec(np.zeros(20)),)
    _, _, reason, it = riemannian_lbfgs(problem, x, problem.value(x), memory=8,
                                        max_iters=50, grad_tol=1e-8)
    assert reason == "line_search"
    assert it == 1
