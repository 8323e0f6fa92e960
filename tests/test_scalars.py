"""Scalar helpers: classification, products, parsing, formatting."""
import random
from fractions import Fraction

import pytest

from biorth.scalars import (
    all_exact,
    falling_factorial,
    format_scalar,
    is_exact,
    parse_rational,
    pochhammer,
    to_float,
)


def test_is_exact_classification():
    assert is_exact(3)
    assert is_exact(Fraction(1, 2))
    assert not is_exact(0.5)
    assert not is_exact(True)
    assert not is_exact(1 + 0j)
    assert all_exact([1, Fraction(2), -7])
    assert not all_exact([1, 0.5])


def test_conversions():
    assert to_float(Fraction(1, 2)) == 0.5
    z = 1.0 + 2.0j
    assert to_float(z) is z


def test_pochhammer_values():
    assert pochhammer(1, 4) == 24
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(-3, 5) == 0
    assert pochhammer(7, 0) == 1
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_pochhammer_split_identity():
    # (a)_{m+n} = (a)_m (a+m)_n
    rng = random.Random(5)
    for _ in range(40):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(2, 0) == 1
    # ff(a, n) = (-1)^n (-a)_n
    for a in (Fraction(3), Fraction(-5, 2)):
        for n in range(5):
            assert falling_factorial(a, n) == (-1) ** n * pochhammer(-a, n)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -2 ") == Fraction(-2)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("pi")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_scalar():
    assert format_scalar(6) == "6"
    assert format_scalar(Fraction(-85, 21)) == "-85/21"
    assert format_scalar(Fraction(6, 2)) == "3"
    assert format_scalar(0.5) == "0.5"
    assert format_scalar(1.0 + 2.0j) == "1.0+2.0j"
    assert format_scalar(1.0 + 0j) == "1.0"
    with pytest.raises(TypeError):
        format_scalar(True)


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        assert parse_rational(format_scalar(x)) == x

