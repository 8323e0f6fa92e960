"""Hypergeometric classification and series evaluation.

The Frobenius recurrence P(n) y_n = Q(n-1) y_{n-1} factorizes: with
P(x) = p_* prod (x - eta_j) and Q(x) = q_* prod (x - zeta_j), the
solution is x^theta sum_n y_n x^n with

    y_n = nu^n prod_j (-zeta_j)_n / prod_j (1 - eta_j)_n,  nu = q_*/p_*,

a generalized hypergeometric series once the forced root eta = 0 (the
indicial condition P(0) = 0) is split off as the n! of the pFq term.
This module extracts that form, evaluates pFq series with truncation
reporting, and provides the modified-Bessel weight built on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    Divergence,
    InvalidLowerParameter,
    NonpositiveLowerParameter,
    ThetaNotIndicial,
)
from .odes import FrobeniusOde, recurrence_polys
from .polynomials import RationalFunction, rf_eval
from .roots import poly_roots
from .scalars import is_exact, parse_rational, pochhammer, to_float


@dataclass(frozen=True)
class HypergeometricForm:
    """The data of y(x) = x^theta pFq(upper; lower; nu x)."""

    theta: object
    upper: tuple
    lower: tuple
    nu: object
    s1: int
    s2: int


def _mag(value) -> float:
    return abs(value) if isinstance(value, complex) else abs(to_float(value))


def _is_nonpositive_int(value) -> bool:
    if is_exact(value):
        f = Fraction(value)
        return f.denominator == 1 and f <= 0
    if isinstance(value, complex):
        if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
            return False
        value = value.real
    return value <= 1e-12 and abs(value - round(value)) <= 1e-12 * max(
        1.0, abs(value))


def hypergeometric_form(ode: FrobeniusOde, theta) -> HypergeometricForm:
    """Classify the Frobenius solution at exponent theta as a pFq.

    Requires P(0) = 0 (theta indicial), else ThetaNotIndicial; for an
    inexact theta, |P(0)| <= 1e-12 max|coeff(P)| counts as zero.  One
    zero root of P is split off as the factorial; the remaining roots
    give lower parameters 1 - eta_j (raising NonpositiveLowerParameter
    when one is a nonpositive integer) and the roots of Q give upper
    parameters -zeta_j.  Degenerate degrees (deg P or deg Q below s)
    simply shrink s2 or s1.
    """
    P, Q = recurrence_polys(ode, theta)
    if P.is_zero:
        raise ThetaNotIndicial("P vanishes identically")
    residue = P(0)
    if is_exact(theta):
        indicial = residue == 0
    else:
        indicial = abs(residue) <= 1e-12 * max(abs(c) for c in P.coeffs)
    if not indicial:
        raise ThetaNotIndicial(
            f"P(0) = {residue} is nonzero, so theta = {theta} is not an "
            "indicial root")
    s2 = P.degree
    p_star = P.leading

    eta = poly_roots(P).with_multiplicity()
    for i, root in enumerate(eta):
        if root == 0:
            del eta[i]
            break
    else:
        # P(0) = 0 within rounding but no extracted root is exactly
        # zero: the float path landed off the origin; drop the smallest.
        eta.remove(min(eta, key=lambda r: abs(r)))
    lower = []
    for root in eta:
        param = 1 - root
        if _is_nonpositive_int(param):
            raise NonpositiveLowerParameter(param)
        lower.append(param)

    if Q.is_zero:
        return HypergeometricForm(theta, (), tuple(lower), 0, 0, s2)
    s1 = Q.degree
    q_star = Q.leading
    if s1 >= 1:
        zeta = poly_roots(Q).with_multiplicity()
        upper = tuple(-z for z in zeta)
    else:
        upper = ()
    nu = Fraction(q_star) / Fraction(p_star) \
        if is_exact(q_star) and is_exact(p_star) else q_star / p_star
    return HypergeometricForm(theta, upper, tuple(lower), nu, s1, s2)


def series_from_form(form: HypergeometricForm, N: int):
    """Series coefficients y_0..y_N implied by the pFq data:
    y_n = nu^n prod (upper)_n / (n! prod (lower)_n)."""
    out = []
    for n in range(N + 1):
        num = form.nu ** n
        for u in form.upper:
            num = num * pochhammer(u, n)
        den = math.factorial(n)
        for l in form.lower:
            den = den * pochhammer(l, n)
        out.append(Fraction(num, den) if is_exact(num) and is_exact(den)
                   else num / den)
    return out


@dataclass(frozen=True)
class PFQ:
    """A truncated pFq evaluation: the partial sum, the number of terms
    taken, and the magnitude of the last term as a truncation bound."""

    value: object
    terms: int
    last_term: float


def eval_pFq(upper, lower, z, N=None, tol: float = 1e-16,
             cap: int = 512) -> PFQ:
    """Partial sum of pFq(upper; lower; z) = sum_n prod (u_i)_n /
    prod (l_i)_n * z^n / n!.

    Stops after N terms when N is given, otherwise when the last term
    drops below tol relative to the running sum (never beyond cap).
    Raises InvalidLowerParameter for nonpositive-integer lower
    parameters and Divergence when the series is of the p > q+1 type
    and its terms are observed growing.
    """
    for l in lower:
        if _is_nonpositive_int(l):
            raise InvalidLowerParameter(l)
    asymptotic = len(upper) > len(lower) + 1
    limit = N if N is not None else cap
    term = 1
    total = term
    growth = 0
    n = 0
    while n < limit:
        factor_num = 1
        for u in upper:
            factor_num = factor_num * (u + n)
        factor_den = 1
        for l in lower:
            factor_den = factor_den * (l + n)
        factor_den = factor_den * (n + 1)
        prev_mag = _mag(term)
        if is_exact(term) and is_exact(z) and is_exact(factor_num) \
                and is_exact(factor_den):
            term = Fraction(term * z * factor_num, factor_den)
        else:
            term = term * z * factor_num / factor_den
        total = total + term
        n += 1
        mag = _mag(term)
        if asymptotic and z != 0:
            growth = growth + 1 if mag > prev_mag else 0
            if growth >= 3:
                raise Divergence(
                    f"terms of a {len(upper)}F{len(lower)} series grow "
                    f"at |z| = {_mag(z):g}")
        if N is None and mag <= tol * max(1.0, _mag(total)):
            break
        if mag == 0:
            break
    return PFQ(total, n, _mag(term))


def bessel_i(tau, z) -> float:
    """Modified Bessel function of the first kind by its series
    representation I_tau(z) = (z/2)^tau / Gamma(tau+1) * 0F1(; tau+1;
    z^2/4)."""
    tau = to_float(tau)
    z = to_float(z)
    front = (z / 2.0) ** tau / math.gamma(tau + 1.0)
    body = eval_pFq((), (tau + 1.0,), z * z / 4.0)
    return front * body.value


def bessel_weight(x, mu_tilde) -> float:
    """The weight x^{mu_tilde} I_{mu_tilde + 1}(x) for x >= 0 and
    mu_tilde > 0; zero at x = 0."""
    x = to_float(x)
    mu_tilde = to_float(mu_tilde)
    if x < 0:
        raise ValueError("bessel weight needs x >= 0")
    if mu_tilde <= 0:
        raise ValueError("bessel weight needs mu_tilde > 0")
    if x == 0.0:
        return 0.0
    return x ** mu_tilde * bessel_i(mu_tilde + 1.0, x)


@dataclass(frozen=True)
class PowerWeight:
    """omega(x) = x^exponent on the family support, as a float for an
    int, Fraction or float x > 0.

    The exponent is converted to float once, at construction, because
    quadrature calls the weight thousands of times; equality, hash and
    repr still use the exponent as given."""

    exponent: object
    _exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_exponent", to_float(self.exponent))

    def __call__(self, x):
        return x ** self._exponent


@dataclass(frozen=True)
class BesselWeight:
    """omega(x) = bessel_weight(x, mu_tilde); integrable at 0, but its
    e^x growth makes the (0, inf) moments divergent, so quadrature-based
    checks must refuse it rather than truncate the tail.  mu_tilde is
    converted to float once, at construction, as in PowerWeight."""

    mu_tilde: object
    _mu_tilde: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mu_tilde", to_float(self.mu_tilde))

    def __call__(self, x):
        return bessel_weight(x, self._mu_tilde)


def weight_from_config(weight_form: dict, mu):
    """Instantiate the weight_form descriptor of a family config at mu.

    {"form": "power", "exponent_num": [..], "exponent_den": [..]}
    gives PowerWeight with exponent = the rational function num/den
    evaluated at mu.  {"form": "bessel", "mu_tilde_num"/"_den": [..]}
    gives BesselWeight the same way.
    """
    def coeff_list(key, default):
        raw = weight_form.get(key, default)
        return [parse_rational(v) if isinstance(v, str) else Fraction(v)
                for v in raw]

    form = weight_form.get("form")
    if form == "power":
        num = coeff_list("exponent_num", [0])
        den = coeff_list("exponent_den", [1])
        exponent = rf_eval(RationalFunction(num, den), mu)
        return PowerWeight(exponent)
    if form == "bessel":
        num = coeff_list("mu_tilde_num", [0])
        den = coeff_list("mu_tilde_den", [1])
        mu_tilde = rf_eval(RationalFunction(num, den), mu)
        return BesselWeight(mu_tilde)
    raise ValueError(f"unknown weight form: {form!r}")
