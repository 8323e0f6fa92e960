"""Randomized check of the integer rational-root screen.

For random integer polynomials and candidates num/den, the scaled value
den**deg * p(num/den) computed in integers is zero exactly when the
Fraction evaluation p(num/den) is.  Half of the draws plant a factor
(den x - num) so that hits are as common as misses.
"""
from fractions import Fraction

import pytest

from biorth.polynomials import Polynomial
from biorth.roots import _scaled_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(
    cofactor=st.lists(st.integers(-40, 40), min_size=1, max_size=6).filter(
        lambda c: c[-1] != 0),
    num=st.integers(-30, 30),
    den=st.integers(1, 30),
    planted=st.booleans(),
)
def test_scaled_value_vanishes_exactly_at_roots(cofactor, num, den, planted):
    p = Polynomial(cofactor)
    if planted:
        p = p * Polynomial((-num, den))
    ints = list(p.coeffs)
    expect_zero = p(Fraction(num, den)) == 0
    assert (_scaled_value(ints, num, den) == 0) == expect_zero
    assert _scaled_value(ints, num, den) \
        == den ** (len(ints) - 1) * p(Fraction(num, den))
