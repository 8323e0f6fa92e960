"""Randomized checks of the moment table against independent definitions.

Random small families (integer coefficients in [-3, 3], up to two per
sequence, degree n <= 6) at random exact and float points: every
moment_row entry equals a per-entry product written here, bit for bit
in float mode, and poles are reported at the same factor index;
validity_check's applicability verdict equals the one built from the
cancelled rational moments moment_rational + rf_eval, and at exact mu
the divided-difference route succeeds, and the auto path takes it,
exactly when that verdict is true.
"""
from fractions import Fraction

import pytest

from biorth.construction import (
    PATH_DIVIDED,
    biorthogonal_poly,
    divided_difference_solve,
    qtilde_values,
)
from biorth.errors import (
    BetaZero,
    BiorthError,
    PoleAt,
    RemovableSingularity,
    SingularNode,
    SingularPivot,
)
from biorth.families import (
    family_from_config,
    moment,
    moment_rational,
    moment_row,
    validity_check,
)
from biorth.polynomials import rf_eval

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

F = Fraction


def per_entry(quads, k, x):
    """m_k(x) from scratch; returns (value, None) or (None, pole index)."""
    value = 1
    for ell, (alpha, beta, gamma, delta) in enumerate(quads[:k]):
        den = gamma + x * delta
        if den == 0:
            return None, ell
        value = value * (alpha + x * beta) / den
    return value, None


def config_quads(config, count):
    """The quadruples of a degree <= 1 config, alpha_l = a_0 - a_1 l."""
    def seq(coeffs, ell):
        coeffs = [F(c) for c in coeffs] + [F(0), F(0)]
        return coeffs[0] - coeffs[1] * ell
    return [tuple(seq(config[f], ell) for f in "abcd")
            for ell in range(count)]


def old_applicable(family, n):
    """theorem3_applicable as defined before the moment table: every
    beta nonzero, distinct nodes, every cross product nonzero, and
    every cancelled m_j(lambda_l), l > j, finite and nonzero."""
    quads = [family.quadruple(ell) for ell in range(n + 1)]
    if any(beta == 0 for _, beta, _, _ in quads):
        return False
    nodes = [-F(alpha) / F(beta) for alpha, beta, _, _ in quads]
    if len(set(nodes)) != len(nodes):
        return False
    for alpha_l, beta_l, _, _ in quads:
        for _, _, gamma_k, delta_k in quads[:n]:
            if alpha_l * delta_k - beta_l * gamma_k == 0:
                return False
    for j in range(n):
        mj = moment_rational(family, j)
        for ell in range(j + 1, n + 1):
            try:
                if rf_eval(mj, nodes[ell]) == 0:
                    return False
            except (PoleAt, RemovableSingularity):
                return False
    return True



coeff_lists = st.lists(st.integers(-3, 3), max_size=2).map(
    lambda xs: [str(x) for x in xs])
configs = st.fixed_dictionaries({
    "kind": st.just("polynomial"), "basis": st.just("pochhammer-3"),
    "a": coeff_lists, "b": coeff_lists, "c": coeff_lists, "d": coeff_lists})
exact_points = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
points = st.one_of(exact_points, exact_points.map(float),
                   st.floats(-6, 6, allow_nan=False), st.integers(-4, 4))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(config=configs, n=st.integers(0, 6),
                  xs=st.lists(points, min_size=1, max_size=3))
def test_table_matches_per_entry_products(config, n, xs):
    fam = family_from_config(config)
    quads = config_quads(config, n)
    for x in xs:
        entries = [per_entry(quads, k, x) for k in range(n + 1)]
        poles = [ell for _, ell in entries if ell is not None]
        if poles:
            with pytest.raises(PoleAt) as info:
                moment_row(fam, n, x)
            assert f"denominator factor {poles[0]} vanishes" \
                in str(info.value)
            continue
        row = moment_row(fam, n, x)
        want = [value for value, _ in entries]
        assert [repr(v) for v in row] == [repr(v) for v in want]
        assert row[-1] == moment(fam, n, x)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(config=configs, n=st.integers(0, 6))
def test_applicability_matches_cancelled_definition(config, n):
    fam = family_from_config(config)
    assert validity_check(fam, n).theorem3_applicable \
        == old_applicable(fam, n)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(config=configs, mu=st.integers(0, 5).flatmap(
    lambda n: st.lists(exact_points, min_size=n, max_size=n, unique=True)))
def test_auto_takes_divided_differences_exactly_when_applicable(config, mu):
    fam = family_from_config(config)
    n = len(mu)
    applicable = validity_check(fam, n).theorem3_applicable
    try:
        divided_difference_solve(fam, qtilde_values(fam, mu), n)
        succeeded = True
    except (BetaZero, SingularNode, SingularPivot, PoleAt):
        succeeded = False
    assert succeeded == applicable
    try:
        result = biorthogonal_poly(fam, mu)
    except BiorthError:
        return  # no polynomial exists here, so no route is taken
    assert (result.path == PATH_DIVIDED) == applicable
