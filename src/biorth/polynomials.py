"""Dense univariate polynomials and rational functions.

Coefficients are stored lowest degree first with trailing zeros stripped,
so the zero polynomial is the empty tuple and the degree is implied by
the last entry.  All algebra is generic over the scalar field: exact
rationals, floats, and complex values all work, as do rational functions
themselves when a symbolic variable is threaded through a formula.

RationalFunction is a full field element.  In exact mode construction
cancels the polynomial gcd and makes the denominator monic, so equality
tests on canonical forms are honest identity tests.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import PoleAt, RemovableSingularity
from .scalars import is_exact


class Polynomial:
    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self):
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self._c)

    def coeff(self, k: int):
        """Coefficient of x**k, zero beyond the stored length."""
        return self._c[k] if 0 <= k < len(self._c) else 0

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots, lead=1) -> "Polynomial":
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-r, 1))
        return p

    def __call__(self, x):
        result = 0
        for c in reversed(self._c):
            result = result * x + c
        return result

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return bool(self._c)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self._c))

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        a, b = self._c, other._c
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        dlead = other.leading
        dd = other.degree
        quot = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if rem[k] == 0:
                continue
            factor = rem[k] / dlead
            quot[k - dd] = factor
            for i, c in enumerate(other._c):
                rem[k - dd + i] = rem[k - dd + i] - factor * c
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, scalar):
        if isinstance(scalar, (Polynomial, RationalFunction)):
            return NotImplemented
        return Polynomial(tuple(c / scalar for c in self._c))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self._c) if k))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self._c))

    def map_coeffs(self, fn) -> "Polynomial":
        return Polynomial(tuple(fn(c) for c in self._c))

    def __repr__(self):
        return f"Polynomial({self._c!r})"


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, RationalFunction):
        return NotImplemented
    if isinstance(value, (int, float, complex, Fraction)):
        return Polynomial((value,))
    return NotImplemented


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over an exact coefficient field (Euclid)."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    Exact mode cancels common factors and normalizes the denominator to
    be monic; float mode only does the monic normalization, since float
    gcd computations are not reliable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=ONE, cancel=True):
        num = num if isinstance(num, Polynomial) else Polynomial((num,)) if not _is_listlike(num) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial((den,)) if not _is_listlike(den) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self._num = ZERO
            self._den = ONE
            return
        if cancel and num.is_exact and den.is_exact:
            num = num.map_coeffs(Fraction)
            den = den.map_coeffs(Fraction)
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.leading
        if lead != 1:
            num = num / lead
            den = den / lead
        self._num = num
        self._den = den

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_exact(self) -> bool:
        return self._num.is_exact and self._den.is_exact

    @classmethod
    def variable(cls) -> "RationalFunction":
        """The identity function of mu, for symbolic evaluation."""
        return cls(Polynomial((Fraction(0), Fraction(1))))

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls(Polynomial((value,)))

    def __call__(self, x):
        return rf_eval(self, x)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num * other._den == other._num * self._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return RationalFunction(-self._num, self._den, cancel=False)

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(self._den, self._num) ** (-k)
        out = RationalFunction(ONE)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"RationalFunction({self._num.coeffs!r}, {self._den.coeffs!r})"


def _is_listlike(v):
    return isinstance(v, (list, tuple))


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value, cancel=False)
    if isinstance(value, (int, float, complex, Fraction)):
        return RationalFunction(Polynomial((value,)), cancel=False)
    return NotImplemented


def rf_eval(r: RationalFunction, x):
    """Evaluate a rational function, reporting poles honestly.

    Raises PoleAt when only the denominator vanishes at x, and
    RemovableSingularity when numerator and denominator both vanish
    (possible for uncancelled or float-mode quotients).
    """
    dv = r.den(x)
    nv = r.num(x)
    if dv == 0:
        if nv == 0:
            raise RemovableSingularity(x)
        raise PoleAt(x)
    return nv / dv
