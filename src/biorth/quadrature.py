"""Tanh-sinh quadrature and moment-quotient verification.

x = (a+b)/2 + (b-a)/2 tanh(s), s = (pi/2) sinh t, makes the integrand
decay double-exponentially in t even at an integrable endpoint
singularity such as x^e, e > -1 (Takahasi & Mori 1974; Bailey, Jeyabalan
& Li 2005).  The trapezoid step h = 2^-k is halved, each level adding
the odd multiples of h, until two successive estimates agree.  Node
distances to the nearer end, (b-a) q/(1+q) with q = exp(-2s), reach the
smallest normal float without cancelling.  QuadratureFailure is raised,
never a truncated value returned, when the integrand overflows or is
not finite, when the evaluation budget or the level cap runs out, or
when the mass beyond the nearest nodes is above rel_tol of the integral.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import QuadratureFailure
from .families import MqfFamily
from .hyper import weight_from_config
from .scalars import to_float

DEFAULT_REL_TOL = 1e-11
DEFAULT_BUDGET = 2 ** 16
MAX_LEVEL = 12


@lru_cache(maxsize=None)
def _level_nodes(level: int):
    """(d, w) per unit of b - a at each node t = j 2^-level > 0 the level
    adds (odd j above level 0): distance d = q/(1+q) to the nearer end and
    weight w = dx/dt = pi cosh(t) q/(1+q)^2, while d is a normal float."""
    nodes = []
    for j in itertools.count(1, 1 if level == 0 else 2):
        t = j * 2.0 ** -level
        q = math.exp(-math.pi * math.sinh(t))
        d = q / (1.0 + q)
        if d < 2.0 ** -1022:   # below the smallest normal float
            return tuple(nodes)
        nodes.append((d, math.pi * math.cosh(t) * d / (1.0 + q)))


def _tail_mass(near) -> float:
    """Integral of |f| between the end and the nearest node, from the two
    nearest (distance, |f|) pairs: with f ~ x^e fitted through them it is
    d |f| / (e + 1), and infinite for e <= -1 or fewer than two nodes."""
    if len(near) < 2:
        return math.inf
    (d1, f1), (d2, f2) = near
    if f1 == 0.0 or f2 == 0.0:
        return d1 * f1
    power = 1.0 + math.log(f1 / f2) / math.log(d1 / d2)
    return d1 * f1 / power if power > 0.0 else math.inf


def adaptive_integrate(f, a: float, b: float, rel_tol: float = DEFAULT_REL_TOL,
                       budget: int = DEFAULT_BUDGET) -> float:
    """Integral of f over (a, b), evaluating f only strictly inside.
    The tail guard raises once the mass beyond the nearest nodes exceeds
    both rel_tol times the estimate and the change from the previous
    level, which bounds what further halving could still correct."""
    if not b > a:
        raise ValueError("need b > a")
    width = b - a
    # per side, the two nearest nodes as (distance to the end, |f|) pairs
    total, evals, estimate, near = 0.0, 0, math.inf, [[], []]
    for level in range(MAX_LEVEL + 1):
        nodes = [(w, x, side) for d, w in _level_nodes(level)
                 for side, x in enumerate((a + width * d, b - width * d))
                 if a < x < b]
        if level == 0:
            nodes.append((math.pi / 4.0, a + width / 2.0, 0))
        evals += len(nodes)
        if evals > budget:
            raise QuadratureFailure(
                f"evaluation budget {budget} exhausted at level {level}")
        try:
            values = [f(x) for _, x, _ in nodes]
        except OverflowError as exc:
            raise QuadratureFailure(f"overflow at level {level}") from exc
        total += sum(w * v for (w, _, _), v in zip(nodes, values))
        if not math.isfinite(total):
            raise QuadratureFailure(f"non-finite value at level {level}")
        for (_, x, side), v in zip(nodes, values):
            near[side].append((b - x if side else x - a, abs(v)))
        near = [sorted(set(pairs))[:2] for pairs in near]
        previous, estimate = estimate, width * total * 2.0 ** -level
        change, tail = abs(estimate - previous), max(map(_tail_mass, near))
        if tail > max(rel_tol * abs(estimate), change):
            raise QuadratureFailure(
                f"tail truncated: about {tail:.3g} lies beyond the nearest "
                f"nodes, above rel_tol times the integral {estimate:.6g}")
        if change <= rel_tol * abs(estimate):
            return estimate
    raise QuadratureFailure(f"no convergence within {MAX_LEVEL} levels")


def integrate_support(f, support: str, rel_tol: float = DEFAULT_REL_TOL,
                      budget: int = DEFAULT_BUDGET) -> float:
    """Integral of f over the family support; "(0,inf)" folds to (0,1) by
    x = t/(1-t), dx = dt/(1-t)^2, so a divergent tail overflows near t = 1
    or fails the tail guard and raises QuadratureFailure."""
    if support == "(0,1)":
        return adaptive_integrate(f, 0.0, 1.0, rel_tol, budget)
    if support == "(0,inf)":
        return adaptive_integrate(lambda t: f(t / (1.0 - t)) / (
            (1.0 - t) * (1.0 - t)), 0.0, 1.0, rel_tol, budget)
    raise ValueError(f"unknown support: {support!r}")


def verify_moment_quotient(weight, family: MqfFamily, n_max: int, mu,
                           rel_tol: float = DEFAULT_REL_TOL,
                           budget: int = DEFAULT_BUDGET):
    """Relative errors, one per n < n_max, between the quadrature quotient
    int x^{n+1} omega / int x^n omega and the family's Moebius quotient
    (alpha_n + beta_n mu)/(gamma_n + delta_n mu).  weight is a callable
    omega(x) or a weight_form config dict, then instantiated at mu."""
    if isinstance(weight, dict):
        weight = weight_from_config(weight, mu)
    mu_f = to_float(mu)
    integrals = [integrate_support(lambda x, _n=n: (x ** _n) * weight(x),
                                   family.support, rel_tol, budget)
                 for n in range(n_max + 1)]
    errors = []
    for n in range(n_max):
        alpha, beta, gamma, delta = map(to_float, family.quadruple(n))
        expected = (alpha + mu_f * beta) / (gamma + mu_f * delta)
        if integrals[n] == 0.0:
            raise QuadratureFailure(
                f"moment integral of order {n} evaluated to zero")
        actual = integrals[n + 1] / integrals[n]
        errors.append(abs(actual - expected) / max(abs(expected), 1e-300))
    return errors
