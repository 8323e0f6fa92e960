"""Scalar helpers shared by every layer of the package.

Two arithmetic modes coexist: exact mode, where every quantity is an int
or a fractions.Fraction, and float mode.  A computation runs entirely in
one mode.  These helpers classify values, convert them explicitly, and
supply the product primitives (Pochhammer and falling factorials) used
throughout.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float, complex]


def is_exact(x) -> bool:
    """True when x belongs to the exact (rational) mode."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def to_float(x):
    """Explicit conversion into float mode, leaving complex values alone."""
    if isinstance(x, complex):
        return x
    return float(x)


def pochhammer(a, n: int):
    """Rising factorial a(a+1)...(a+n-1); the empty product is 1.

    Works over any scalar with + and *, so exact inputs give exact
    results.  A negative-integer base simply picks up a zero factor.
    """
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    result = 1
    for k in range(n):
        result = result * (a + k)
    return result


def falling_factorial(a, n: int):
    """a(a-1)...(a-n+1); the empty product is 1."""
    if n < 0:
        raise ValueError("falling factorial order must be nonnegative")
    result = 1
    for k in range(n):
        result = result * (a - k)
    return result


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or exact decimal strings into a Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_scalar(x) -> str:
    """Serialize a scalar deterministically; exact values as "p/q"."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j" if x.imag else repr(x.real)
    return repr(float(x))

