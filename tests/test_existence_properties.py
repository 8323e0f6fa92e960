"""Existence certified from the route's answer equals the determinant rule.

biorthogonal_poly screens poles, runs the route, and raises NoExistence
when the route's f_n vanishes, computing the existence determinant only
when the route fails.  Here each outcome is compared with a reference
that follows the older rule, written out below: the existence
determinant first, then the route.  Random small families vary with mu:
polynomial coefficient lists of length 0-2 with entries -3..3 and
explicit tables of 1-6 rows (shorter than n included), at n <= 6, exact
and float mu, every path and both normalizations.
"""
from fractions import Fraction

import pytest

from biorth.construction import (
    NORM_EXPANSION,
    NORM_LEADING_ONE,
    PATH_DIVIDED,
    PATH_MIXED,
    PATH_ORACLE,
    BiorthResult,
    biorthogonal_poly,
    divided_difference_solve,
    expand_in_mixed_basis,
    oracle_nullspace,
    qtilde_values,
)
from biorth.errors import (
    BetaZero,
    BiorthError,
    ConfigError,
    DegenerateMu,
    NoExistence,
    PoleAt,
    SingularBasis,
    SingularNode,
    SingularPivot,
)
from biorth.families import existence_determinant, family_from_config
from biorth.polynomials import Polynomial
from biorth.scalars import all_exact

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PATHS = ("auto", PATH_MIXED, PATH_DIVIDED, PATH_ORACLE)


def determinant_first(family, mu, path, normalization):
    """The construction with the existence determinant first, as it once
    ran, over today's routes: the auto path falls back when the family
    has no quadruple n, and expand_in_mixed_basis refuses a dependent
    basis at float mu."""
    if len(set(mu)) != len(mu):
        raise DegenerateMu(f"repeated mu values in {mu}")
    n = len(mu)
    if existence_determinant(family, mu) == 0:
        raise NoExistence(f"existence determinant vanishes for mu = {mu}")
    result = None
    if path in ("auto", PATH_DIVIDED) and (path == PATH_DIVIDED
                                           or all_exact(mu)):
        failures = (BetaZero, SingularNode, SingularPivot, PoleAt)
        if path == "auto":
            failures += (ConfigError,)
        try:
            qt = qtilde_values(family, mu)
            f = divided_difference_solve(family, qt, n)
            result = BiorthResult(tuple(f), Polynomial(f), None, None,
                                  PATH_DIVIDED)
        except failures:
            pass
    if result is None and path in ("auto", PATH_DIVIDED):
        try:
            result = expand_in_mixed_basis(family, mu)
        except SingularBasis:
            result = oracle_nullspace(family, mu, normalization)
    elif path == PATH_MIXED:
        result = expand_in_mixed_basis(family, mu)
    elif path == PATH_ORACLE:
        result = oracle_nullspace(family, mu, normalization)
    if result.p.is_zero:
        raise NoExistence("construction produced the zero polynomial")
    f = list(result.f)
    if normalization == NORM_LEADING_ONE:
        lead = next(v for v in reversed(f) if v != 0)
        f = [v / lead for v in f]
    return BiorthResult(tuple(f), Polynomial(f), None, None, result.path)


def outcome(construct):
    """("ok", f as reprs, path) or (error class, message)."""
    try:
        result = construct()
    except BiorthError as exc:
        return type(exc).__name__, str(exc)
    return "ok", tuple(map(repr, result.f)), result.path


entries = st.integers(-3, 3).map(str)
coeff_lists = st.lists(entries, max_size=2)
polynomial_configs = st.fixed_dictionaries({
    "kind": st.just("polynomial"), "basis": st.just("pochhammer-3"),
    "a": coeff_lists, "b": coeff_lists, "c": coeff_lists, "d": coeff_lists})
table_configs = st.fixed_dictionaries({
    "kind": st.just("explicit-table"),
    "table": st.lists(st.lists(entries, min_size=4, max_size=4),
                      min_size=1, max_size=6)})
configs = st.one_of(polynomial_configs, table_configs)
exact_points = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
mu_lists = st.integers(0, 6).flatmap(
    lambda n: st.lists(exact_points, min_size=n, max_size=n, unique=True))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(config=configs, mu=mu_lists, in_float=st.booleans(),
                  path=st.sampled_from(PATHS),
                  normalization=st.sampled_from((NORM_EXPANSION,
                                                 NORM_LEADING_ONE)))
def test_outcome_matches_determinant_first_rule(config, mu, in_float, path,
                                                normalization):
    family = family_from_config(config)
    if in_float:
        mu = [float(x) for x in mu]
    got = outcome(lambda: biorthogonal_poly(family, mu, path, normalization))
    want = outcome(lambda: determinant_first(family, mu, path,
                                             normalization))
    if got == want or not in_float:
        assert got == want
        return
    # Float mode no longer evaluates the float determinant up front.  It
    # answers where that determinant read 0.0 only when the polynomial
    # exists: the determinant at the exact values of the float mu is
    # nonzero, so the float one underflowed or cancelled.  It refuses
    # where the route's float f_n is exactly 0.0, which used to return a
    # polynomial of lower degree.
    exists = existence_determinant(family, [Fraction(x) for x in mu]) != 0
    if got[0] == "ok":
        assert want[0] == "NoExistence" and exists
    else:
        assert got[0] == "NoExistence" and want[0] == "ok"
        assert float(want[1][-1]) == 0


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(config=configs, mu=mu_lists,
                  normalization=st.sampled_from((NORM_EXPANSION,
                                                 NORM_LEADING_ONE)))
def test_auto_succeeds_exactly_when_determinant_is_nonzero(config, mu,
                                                           normalization):
    family = family_from_config(config)
    try:
        exists = existence_determinant(family, mu) != 0
    except BiorthError:
        exists = False  # a pole, or a table too short for degree n
    try:
        biorthogonal_poly(family, mu, normalization=normalization)
    except SingularBasis as exc:
        # the expansion scale needs sum f_k B_k to reach degree n, which
        # a dependent mixed basis can miss while the polynomial exists
        assert exists and normalization == NORM_EXPANSION
        assert "no component along the monic target" in str(exc)
    except BiorthError:
        assert not exists
    else:
        assert exists
