"""One preconditioned Riemannian L-BFGS descent over orthonormal frames.

:func:`riemannian_lbfgs` owns the curvature memory, the two-loop recursion,
the line search and its own stop reasons.  The problem supplies the rest,
on frames (tuples of elements with a ``values`` array and a ``copy()``
method, such as fields): ``dot(x, y)`` is the inner product of two frames,
which every norm, slope and curvature pair of the descent is taken in;
``examine(it, x, value)`` returns ``(x, value, grad, stop, restart)`` at
each iterate -- the iterate, which the problem may replace, its value and
tangent gradient, a stop reason of its own or None, and whether memory and
step start afresh; ``project(v)`` and ``precondition(v)`` act at the last
examined iterate and return new frames; ``move(x, d, step)`` returns the
retracted candidate and its value; ``gradient(x)`` the tangent gradient at
a candidate.  The loop itself forms new frames only by ``copy()`` and
in-place updates of ``values``, so it never learns the element type.
"""

from __future__ import annotations

import math

# Line search: Armijo constant, step factor and trial count; then the
# approximate-Wolfe test of Hager & Zhang (SIAM J. Optim. 16, 2005),
# (2 delta - 1) phi'(0) >= phi'(step) >= sigma phi'(0), with the value
# allowed to rise by slack * |value|.  First trial step without pairs.
_ARMIJO_C, _BACKTRACK, _HALVINGS = 1e-4, 0.5, 40
_WOLFE_DELTA, _WOLFE_SIGMA, _WOLFE_SLACK = 0.1, 0.9, 1e-12
_STEP_INIT = 0.25


def _scaled(x, c):
    """A copy of frame ``x`` with every element's values multiplied by ``c``."""
    out = tuple(f.copy() for f in x)
    for f in out:
        f.values *= c
    return out


def _two_loop(grad, pairs, precondition, dot):
    """L-BFGS product H grad, H_0 = ``precondition`` scaled by the last pair.

    The recursion updates a copy of ``grad`` and the preconditioned field in
    place; without pairs it is ``precondition(grad)``.
    """
    if not pairs:
        return precondition(grad)
    q, alphas = tuple(f.copy() for f in grad), []
    for sv, yv, r in reversed(pairs):
        al = r * dot(sv, q)
        alphas.append(al)
        for f, y in zip(q, yv):
            f.values -= al * y.values
    z = precondition(q)
    _, yv, r = pairs[-1]
    scale = r * dot(yv, precondition(yv))
    for f in z:
        f.values /= scale
    for (sv, yv, r), al in zip(pairs, reversed(alphas)):
        be = r * dot(yv, z)
        for f, s in zip(z, sv):
            f.values += (al - be) * s.values
    return z


def _line_search(problem, x, value, d, slope, first):
    """(candidate, value, step) accepted along ``d``, or None.

    Near a minimizer the value changes by rounding alone, and every Armijo
    trial can fail above the gradient tolerance.  Only then are the same
    steps retried on the Wolfe test, which compares directional derivatives;
    it gives up at a step too short for its curvature condition.
    """
    steps = [first * _BACKTRACK ** k for k in range(_HALVINGS)]
    for step in steps:
        cand, vc = problem.move(x, d, step)
        if vc <= value + _ARMIJO_C * step * slope:
            return cand, vc, step
    for step in steps:
        cand, vc = problem.move(x, d, step)
        if vc <= value + _WOLFE_SLACK * abs(value):
            dc = problem.dot(problem.gradient(cand), d)
            if dc < _WOLFE_SIGMA * slope:
                return None
            if dc <= (2.0 * _WOLFE_DELTA - 1.0) * slope:
                return cand, vc, step
    return None


def riemannian_lbfgs(problem, x, value, *, memory, max_iters, grad_tol, log=None):
    """Minimize from ``x`` (value ``value``) with ``memory`` curvature pairs.

    Pairs are carried to each new iterate by ``problem.project``; memory 0
    is preconditioned steepest descent.  The first trial step is 1 while the
    memory holds pairs, else twice the last accepted one, at most (and after
    a restart exactly) ``_STEP_INIT``.  A direction that does not descend
    clears the memory; without memory the fallback is the negative gradient.
    ``log`` receives (iteration, value, gradient norm).  Returns (last
    iterate, value, stop reason, iterations); the reason is ``"tolerance"``
    (tested before the problem's own), ``"line_search"``, ``"max_iters"`` or
    the problem's.
    """
    dot = problem.dot
    pairs: list[tuple[tuple, tuple, float]] = []  # (s, y, 1/<s, y>)
    last = None  # (accepted step vector, gradient) of the previous iterate
    step0, reason = _STEP_INIT, "max_iters"
    for it in range(1, max_iters + 1):
        x, value, grad, stop, restart = problem.examine(it, x, value)
        if restart:
            pairs, last, step0 = [], None, _STEP_INIT
        gnorm = math.sqrt(dot(grad, grad))
        if log is not None:
            log.append((it, value, gnorm))
        if gnorm <= grad_tol or stop is not None:
            reason = "tolerance" if gnorm <= grad_tol else stop
            break
        if memory and last is not None:
            sv, g_prev = (problem.project(v) for v in last)
            yv = tuple(f.copy() for f in grad)
            for f, p in zip(yv, g_prev):
                f.values -= p.values
            sy = dot(sv, yv)
            if sy > 1e-12 * math.sqrt(dot(sv, sv) * dot(yv, yv)):
                pairs = (pairs + [(sv, yv, 1.0 / sy)])[-memory:]
        d = _scaled(problem.project(_two_loop(grad, pairs, problem.precondition, dot)), -1.0)
        slope = dot(grad, d)
        if slope >= 0.0 and pairs:  # curvature memory lost descent: start afresh
            pairs, step0 = [], _STEP_INIT
            d = _scaled(problem.project(problem.precondition(grad)), -1.0)
            slope = dot(grad, d)
        if slope >= 0.0:
            d, slope = _scaled(grad, -1.0), -gnorm * gnorm
        found = _line_search(problem, x, value, d, slope, 1.0 if pairs else step0)
        if found is None:
            reason = "line_search"
            break
        x, value, step = found
        last = (_scaled(d, step), grad)
        step0 = min(_STEP_INIT, 2.0 * step)
    return x, value, reason, it
