"""Biorthogonal polynomial construction, three independent ways.

Given a family and parameter values mu_1..mu_n, the degree-n polynomial
p(x) = sum f_k x^k is pinned down (up to scale) by the orthogonality
sums sum_k f_k m_k(mu_l) = 0.  This module computes f by

  1. mixed-basis expansion: solve prod (x - mu_k) = sum f_k B_k(x) in
     the basis B_k = prod_{j<k} g_j * prod_{j>=k} h_j,
  2. generalized divided differences: forward substitution on the
     triangular node system qtilde_l = sum_{k<=l} f_k m_k(lambda_l),
  3. a brute-force oracle: the null space of the moment matrix
     [m_k(mu_l)].

All three agree where their hypotheses hold; the auto path degrades
from 2 to 1 to 3 and records which one produced the answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    BetaZero,
    BiorthError,
    ConfigError,
    DegenerateMu,
    NoExistence,
    NullSpaceDimension,
    PoleAt,
    SingularBasis,
    SingularNode,
    SingularPivot,
)
from .families import (
    MqfFamily,
    existence_determinant,
    gh_factors,
    lambda_node,
    moment_row,
    pole_screen,
)
from .linalg import nullspace, solve_linear
from .polynomials import Polynomial
from .roots import RootSet, poly_roots
from .scalars import all_exact, is_exact

PATH_MIXED = "mixed-basis"
PATH_DIVIDED = "divided-difference"
PATH_ORACLE = "oracle"

NORM_EXPANSION = "expansion"
NORM_LEADING_ONE = "leading-one"


@dataclass(frozen=True)
class MixedBasis:
    n: int
    basis_polys: tuple

    def __iter__(self):
        return iter(self.basis_polys)


@dataclass(frozen=True)
class BiorthResult:
    f: tuple
    p: Polynomial
    qtilde: Optional[tuple]
    lambda_nodes: Optional[tuple]
    path: str


def mixed_basis(family: MqfFamily, n: int) -> MixedBasis:
    """The n+1 basis polynomials B_k = prod_{j<k} g_j * prod_{j=k}^{n-1} h_j."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    gs = []
    hs = []
    for j in range(n):
        g, h = gh_factors(family, j)
        gs.append(g)
        hs.append(h)
    prefix_g = [Polynomial((1,))]
    for g in gs:
        prefix_g.append(prefix_g[-1] * g)
    suffix_h = [Polynomial((1,))] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_h[k] = hs[k] * suffix_h[k + 1]
    polys = tuple(prefix_g[k] * suffix_h[k] for k in range(n + 1))
    return MixedBasis(n, polys)


def _monic_target(mu_list) -> Polynomial:
    vals = [Fraction(m) if is_exact(m) else m for m in mu_list]
    return Polynomial.from_roots(vals)


def expand_in_mixed_basis(family: MqfFamily, mu_list) -> BiorthResult:
    """Solve prod_k (x - mu_k) = sum_k f_k B_k(x) for f by coefficient match.

    Raises SingularBasis when the B_k are linearly dependent.  Their
    coefficient matrix has determinant +-prod_{i<=j<n} (alpha_i delta_j -
    beta_i gamma_j).  A float elimination of a singular matrix can leave
    rounding-sized pivots where an exact one finds none, so for inexact
    input dependence is read exactly off those factors, and the exact
    elimination then names the column exact mode names.
    """
    n = len(mu_list)
    basis = mixed_basis(family, n)
    target = _monic_target(mu_list)
    matrix = [[basis.basis_polys[k].coeff(i) for k in range(n + 1)]
              for i in range(n + 1)]
    rhs = [target.coeff(i) for i in range(n + 1)]
    quads = list(family.quadruples(n))
    if not (all_exact(mu_list) and all(map(all_exact, quads))):
        quads = [tuple(map(Fraction, quad)) for quad in quads]
        if any(alpha * delta == beta * gamma
               for j, (_, _, gamma, delta) in enumerate(quads)
               for alpha, beta, _, _ in quads[:j + 1]):
            solve_linear([list(map(Fraction, row)) for row in matrix],
                         [0] * (n + 1))
            raise SingularBasis("mixed basis is dependent")
    f = solve_linear(matrix, rhs)
    return BiorthResult(tuple(f), Polynomial(f), None, None, PATH_MIXED)


def qtilde_values(family: MqfFamily, mu_list):
    """Node values qtilde_l, l = 0..n, by the closed product form

        prod_{k=1}^{n} (alpha_l + beta_l mu_k)
        / prod_{k=0}^{n-1} (alpha_l delta_k - beta_l gamma_k).

    Each equals the quotient prod (x - mu_k) / prod h_k(x) evaluated at
    the node lambda_l; the 1/beta_l powers from that substitution cancel
    between numerator and denominator, so no sign factor survives.
    """
    n = len(mu_list)
    quads = list(family.quadruples(n + 1))
    values = []
    for ell, (alpha_l, beta_l, _, _) in enumerate(quads):
        if beta_l == 0:
            raise BetaZero(ell)
        num = 1
        for mu in mu_list:
            num = num * (alpha_l + beta_l * mu)
        den = 1
        for k, (_, _, gamma_k, delta_k) in enumerate(quads[:n]):
            factor = alpha_l * delta_k - beta_l * gamma_k
            if factor == 0:
                raise SingularNode(ell, k)
            den = den * factor
        values.append(Fraction(num, den) if is_exact(num) and is_exact(den)
                      else num / den)
    return values


def divided_difference_solve(family: MqfFamily, qtilde, n: int):
    """Forward substitution on qtilde_l = sum_{k<=l} f_k m_k(lambda_l).

    The system is lower triangular because m_k vanishes at the nodes
    lambda_l with l < k, so f_k is the generalized divided difference of
    the first k+1 node values.  Row l of the triangle is the moment
    table row at lambda_l.  Raises SingularPivot(l) when the diagonal
    value m_l(lambda_l) is zero, or when a denominator factor of row l
    vanishes at lambda_l.
    """
    if len(qtilde) != n + 1:
        raise ValueError("qtilde must have n+1 entries")
    nodes = [lambda_node(family, ell) for ell in range(n + 1)]
    f = []
    for ell in range(n + 1):
        try:
            row = moment_row(family, ell, nodes[ell])
        except PoleAt as exc:
            raise SingularPivot(ell, detail=str(exc)) from exc
        acc = qtilde[ell]
        for k in range(ell):
            acc = acc - f[k] * row[k]
        pivot = row[ell]
        if pivot == 0:
            raise SingularPivot(ell, detail="diagonal moment value is zero")
        f.append(acc / pivot)
    return f


def _rescale(f, mode):
    if mode == NORM_EXPANSION:
        return list(f)
    if mode == NORM_LEADING_ONE:
        lead_idx = max(i for i, v in enumerate(f) if v != 0)
        lead = f[lead_idx]
        return [v / lead for v in f]
    raise ValueError(f"unknown normalization: {mode!r}")


def oracle_nullspace(family: MqfFamily, mu_list,
                     normalization=NORM_LEADING_ONE) -> BiorthResult:
    """Brute force: f spans the null space of the n x (n+1) moment matrix
    M[l, k] = m_k(mu_l).

    Raises NullSpaceDimension when the null space is not a line.  The
    "expansion" normalization rescales the null vector so the mixed
    basis combination sum f_k B_k is monic, matching the other paths
    without running them.  The null space is solved exactly even for
    float mu: Fraction(mu) converts exactly, and f is rounded to float
    on the way out, so close mu cost no digits.
    """
    n = len(mu_list)
    if n == 0:
        return BiorthResult((1,), Polynomial((1,)), None, None, PATH_ORACLE)
    matrix = [moment_row(family, n, Fraction(mu)) for mu in mu_list]
    exact = all_exact(mu_list) and all(map(all_exact, matrix))
    basis_vectors = nullspace(matrix)
    if len(basis_vectors) != 1:
        raise NullSpaceDimension(len(basis_vectors))
    v = basis_vectors[0]
    if normalization == NORM_EXPANSION:
        top = mixed_basis(family, n).basis_polys
        scale = sum(vk * bk.coeff(n) for vk, bk in zip(v, top))
        if scale == 0:
            raise SingularBasis(
                "null vector has no component along the monic target")
        f = [vk / scale for vk in v]
    else:
        f = _rescale(v, normalization)
    if not exact:
        f = [float(v) for v in f]
    return BiorthResult(tuple(f), Polynomial(f), None, None, PATH_ORACLE)


def orthogonality_residuals(family: MqfFamily, f, mu_list):
    """The sums sum_k f_k m_k(mu_l) for each mu_l; all zero when f is
    a genuine biorthogonal coefficient vector."""
    n = len(mu_list)
    out = []
    for mu in mu_list:
        row = moment_row(family, n, mu)
        acc = 0
        for k in range(n + 1):
            acc = acc + f[k] * row[k]
        out.append(acc)
    return out


def _exact_distinct(mu_list) -> bool:
    return len(set(mu_list)) == len(mu_list)


def _route(family: MqfFamily, mu_list, path: str,
           normalization: str) -> BiorthResult:
    """Run the requested route, with the auto path's fallbacks."""
    if path == PATH_MIXED:
        return expand_in_mixed_basis(family, mu_list)
    if path == PATH_ORACLE:
        return oracle_nullspace(family, mu_list, normalization)
    if path not in ("auto", PATH_DIVIDED):
        raise ValueError(f"unknown path: {path!r}")
    if path == PATH_DIVIDED or all_exact(mu_list):
        node_failures = (BetaZero, SingularNode, SingularPivot, PoleAt)
        if path == "auto":
            # A family with no quadruple n has no node lambda_n: one more
            # broken node hypothesis, while the mixed basis needs only
            # the quadruples below n.
            node_failures += (ConfigError,)
        n = len(mu_list)
        try:
            qt = qtilde_values(family, mu_list)
            nodes = [lambda_node(family, ell) for ell in range(n + 1)]
            f = divided_difference_solve(family, qt, n)
            return BiorthResult(tuple(f), Polynomial(f), tuple(qt),
                                tuple(nodes), PATH_DIVIDED)
        except node_failures:
            pass
    try:
        return expand_in_mixed_basis(family, mu_list)
    except SingularBasis:
        # A dependent mixed basis leaves the expansion normalization with
        # no solution even though the null-space direction exists, so the
        # oracle fallback honors the caller's normalization.
        return oracle_nullspace(family, mu_list, normalization)


def biorthogonal_poly(family: MqfFamily, mu_list, path: str = "auto",
                      normalization: str = NORM_EXPANSION) -> BiorthResult:
    """Construct the degree-n biorthogonal polynomial for the given mu.

    path is one of "auto", "mixed-basis", "divided-difference", or
    "oracle".  The auto path tries divided differences for exact inputs,
    falls back to the mixed basis on any zero beta, singular node or
    pivot, pole, or missing quadruple n (the route fails exactly when
    validity_check finds a hypothesis broken), and to the oracle if the
    basis itself is singular; the returned result records which path
    produced it.  Inexact inputs go straight to the expansion paths: the
    node system's diagonal decays geometrically, so its float solutions
    lose digits the other routes keep.

    Existence is certified from the route's own answer, with no O(n^3)
    determinant on the way.  pole_screen first raises the PoleAt that
    existence_determinant would.  Past it, each moment row is
    m_k(mu_l) = B_k(mu_l) / prod_{j<n} h_j(mu_l) with the mixed basis
    B_k, so a route that succeeds (independent B_k, a nonsingular node
    triangle, or a one-line null space) leaves the null space a line,
    and by Cramer's rule its last entry f_n vanishes exactly when the
    existence determinant does: f_n = 0 raises NoExistence.  When the
    route raises, the determinant decides: NoExistence if it vanishes,
    the route's own error otherwise.
    """
    mu_list = list(mu_list)
    if not _exact_distinct(mu_list):
        raise DegenerateMu(f"repeated mu values in {mu_list}")
    pole_screen(family, mu_list)
    try:
        result = _route(family, mu_list, path, normalization)
    except BiorthError:
        if existence_determinant(family, mu_list) != 0:
            raise
        result = None
    if result is None or result.f[-1] == 0:
        raise NoExistence(
            f"existence determinant vanishes for mu = {mu_list}")
    if normalization != NORM_EXPANSION:
        f = _rescale(result.f, normalization)
        result = BiorthResult(tuple(f), Polynomial(f), result.qtilde,
                              result.lambda_nodes, result.path)
    return result


@dataclass(frozen=True)
class ZeroLocationReport:
    passed: bool
    all_real: bool
    all_simple: bool
    all_inside: bool
    roots: Optional[RootSet]


def zero_location_check(p: Polynomial, support: str,
                        tol: float = 1e-10) -> ZeroLocationReport:
    """Check that every root of p is real, simple, and strictly inside
    the support interval ("(0,1)" or "(0,inf)")."""
    if p.is_zero:
        raise ValueError("zero polynomial has no zero locations")
    if p.degree < 1:
        return ZeroLocationReport(True, True, True, True, None)
    roots = poly_roots(p)
    reals = []
    all_real = True
    for r in roots.roots:
        if isinstance(r, complex):
            if abs(r.imag) > tol * max(1.0, abs(r)):
                all_real = False
                continue
            reals.append(r.real)
        else:
            reals.append(r)
    all_simple = all(m == 1 for m in roots.multiplicities)
    if support == "(0,1)":
        inside = [0 < r < 1 for r in reals]
    elif support == "(0,inf)":
        inside = [r > 0 for r in reals]
    else:
        raise ValueError(f"unknown support: {support!r}")
    all_inside = all_real and all(inside)
    passed = all_real and all_simple and all_inside
    return ZeroLocationReport(passed, all_real, all_simple, all_inside, roots)
