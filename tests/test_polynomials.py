"""Polynomial and rational-function algebra."""
import random
from fractions import Fraction

import pytest

from biorth.errors import PoleAt, RemovableSingularity
from biorth.polynomials import (
    ONE,
    X,
    ZERO,
    Polynomial,
    RationalFunction,
    poly_gcd,
    rf_eval,
)


def test_trailing_zeros_stripped():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial((0, 0)).is_zero
    assert ZERO.degree == -1


def test_leading_and_coeff():
    p = Polynomial((3, 0, 5))
    assert p.leading == 5
    assert p.coeff(0) == 3
    assert p.coeff(1) == 0
    assert p.coeff(99) == 0
    with pytest.raises(ValueError):
        ZERO.leading


def test_evaluation_horner():
    p = Polynomial((1, -6, 6))
    assert p(0) == 1
    assert p(1) == 1
    assert p(Fraction(1, 2)) == Fraction(-1, 2)


def test_ring_operations():
    p = Polynomial((1, 1))
    q = Polynomial((-1, 1))
    assert p * q == Polynomial((-1, 0, 1))
    assert p + q == Polynomial((0, 2))
    assert p - p == ZERO
    assert 2 * p == Polynomial((2, 2))
    assert (p + 1) == Polynomial((2, 1))
    assert (1 - p) == Polynomial((0, -1))


def test_division_with_remainder():
    num = Polynomial((Fraction(-1), Fraction(0), Fraction(1)))
    q, r = divmod(num, Polynomial((Fraction(1), Fraction(1))))
    assert q == Polynomial((-1, 1))
    assert r == ZERO
    q, r = divmod(num, Polynomial((Fraction(2), Fraction(1))))
    assert q == Polynomial((-2, 1))
    assert r == Polynomial((Fraction(3),))
    with pytest.raises(ZeroDivisionError):
        divmod(num, ZERO)


def test_from_roots_and_monic():
    p = Polynomial.from_roots((1, 2), lead=3)
    assert p == Polynomial((6, -9, 3))
    assert p.monic() == Polynomial((2, -3, 1))
    assert p.monic().leading == 1


def test_derivative_and_scale():
    p = Polynomial((5, 3, 0, 2))
    assert p.derivative() == Polynomial((3, 0, 6))


def test_poly_gcd():
    a = Polynomial.from_roots((Fraction(1), Fraction(2)))
    b = Polynomial.from_roots((Fraction(2), Fraction(3)))
    assert poly_gcd(a, b) == Polynomial.from_roots((Fraction(2),))
    assert poly_gcd(a, ONE) == ONE
    assert poly_gcd(ZERO, ZERO) == ZERO


def test_rf_canonical_form():
    # (x^2 - 1)/(x - 1) cancels to x + 1
    r = RationalFunction([Fraction(-1), Fraction(0), Fraction(1)],
                         [Fraction(-1), Fraction(1)])
    assert r.num == Polynomial((1, 1))
    assert r.den == ONE
    # denominator normalized monic
    r2 = RationalFunction([Fraction(1)], [Fraction(0), Fraction(2)])
    assert r2.den == X
    assert r2.num == Polynomial((Fraction(1, 2),))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, ZERO)


def test_rf_equality_cross_multiplication():
    a = RationalFunction([Fraction(1)], [Fraction(2)])
    b = RationalFunction([Fraction(2)], [Fraction(4)])
    assert a == b
    assert a == Fraction(1, 2)
    assert a != Fraction(1, 3)


def test_rf_field_operations():
    x = RationalFunction.variable()
    r = (x + 1) / (x - 1)
    assert rf_eval(r, Fraction(3)) == Fraction(2)
    s = r - 1
    assert rf_eval(s, Fraction(3)) == Fraction(1)
    assert rf_eval(r * r, Fraction(3)) == Fraction(4)
    assert rf_eval(r ** -1, Fraction(3)) == Fraction(1, 2)
    assert rf_eval(2 / r, Fraction(3)) == Fraction(1)


def test_rf_eval_singularities():
    r = RationalFunction(X, Polynomial((Fraction(1), Fraction(1))))
    assert rf_eval(r, Fraction(1)) == Fraction(1, 2)
    with pytest.raises(PoleAt):
        rf_eval(r, Fraction(-1))
    # uncancelled x/x: both parts vanish at 0
    raw = RationalFunction(X, X, cancel=False)
    with pytest.raises(RemovableSingularity):
        rf_eval(raw, 0)


def test_rf_normalization_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        num = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        den = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if all(d == 0 for d in den):
            den[0] = Fraction(1)
        r = RationalFunction(num, den)
        again = RationalFunction(r.num, r.den)
        assert again.num == r.num
        assert again.den == r.den


def test_symbolic_threading():
    # a polynomial formula evaluated at the identity rational function
    # reproduces itself as a rational function
    mu = RationalFunction.variable()
    expr = (mu * mu - 1) / (mu + 1)
    assert expr == mu - 1
    assert rf_eval(expr, Fraction(5)) == Fraction(4)
