"""Polynomial root finding with an exact-first policy.

Exact polynomials are mined for rational roots (and exact quadratic
roots when the discriminant is a rational square) before anything is
handed to the float path.  The float path is companion-matrix
eigenvalues followed by Newton polishing, with conjugate pairing for
real inputs and residual verification against the coefficient scale.
The float path imports numpy when it first runs, not at package import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonConvergence
from .polynomials import Polynomial
from .scalars import to_float

NEWTON_CAP = 500


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities; residual is max |p(r)| over the set."""

    roots: tuple
    multiplicities: tuple
    residual: float

    def __iter__(self):
        return iter(self.roots)

    def with_multiplicity(self):
        """Flat list repeating each root by its multiplicity."""
        out = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return out


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _scaled_value(ints, num: int, den: int) -> int:
    """den**deg * p(num/den) for the integer coefficients ints of p
    (lowest degree first, deg = len(ints) - 1), by homogeneous Horner.

    Zero exactly when p(num/den) is, for any den > 0, and computed
    without building a Fraction.
    """
    value = ints[-1]
    power = 1
    for c in reversed(ints[:-1]):
        power *= den
        value = value * num + c * power
    return value


def _horner(coeffs, x):
    """p(x) from a coefficient list, lowest degree first, in the same
    order of operations as Polynomial.__call__."""
    result = 0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _rational_roots(p: Polynomial):
    """Extract rational roots exactly, returning (roots, remaining factor).

    The roots list repeats a root once per multiplicity.  Zero roots are
    peeled off first so the rational-root candidates stay finite.  Each
    candidate +-num/den is screened in integers (_scaled_value); a
    Fraction is built only for a hit.
    """
    found = []
    coeffs = [Fraction(c) for c in p.coeffs]
    while coeffs and coeffs[0] == 0:
        found.append(Fraction(0))
        coeffs.pop(0)
    p = Polynomial(coeffs)
    while p.degree >= 1:
        scale = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * scale) for c in p.coeffs]
        content = math.gcd(*ints)
        if content > 1:
            ints = [c // content for c in ints]
        hit = None
        dens = _divisors(ints[-1])
        for num in _divisors(ints[0]):
            for den in dens:
                if math.gcd(num, den) != 1:
                    continue
                for signed in (num, -num):
                    if _scaled_value(ints, signed, den) == 0:
                        hit = Fraction(signed, den)
                        break
                if hit is not None:
                    break
            if hit is not None:
                break
        if hit is None:
            break
        while p(hit) == 0 and p.degree >= 1:
            found.append(hit)
            p = p // Polynomial((-hit, Fraction(1)))
    return found, p


def _exact_sqrt(q: Fraction):
    """Square root of a nonnegative rational if it is rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _float_roots(p: Polynomial, tol: float):
    # Newton evaluates p and p' from coefficients converted once.  Mixed
    # Fraction/float arithmetic converts each coefficient the same way,
    # and a coefficient enters Horner only through addition, so every
    # iterate is bit-identical to evaluating p itself.  The lists are not
    # trimmed: a coefficient that rounds to 0.0 keeps its place.
    import numpy as np
    coeffs = [to_float(c) for c in p.coeffs]
    arr = np.array(coeffs[::-1])
    raw = np.roots(arr)
    dcoeffs = [to_float(c) for c in p.derivative().coeffs]
    polished = []
    for r in raw:
        r = complex(r)
        for _ in range(NEWTON_CAP):
            pv = _horner(coeffs, r)
            if abs(pv) == 0.0:
                break
            dv = _horner(dcoeffs, r)
            if dv == 0:
                break
            step = pv / dv
            r = r - step
            if abs(step) <= 1e-16 * (1.0 + abs(r)):
                break
        polished.append(r)
    real_input = all(not isinstance(c, complex) or c.imag == 0 for c in coeffs)
    if real_input:
        polished = _pair_conjugates(polished, tol)
    return polished


def _pair_conjugates(roots, tol: float):
    scale = 1.0 + max((abs(r) for r in roots), default=0.0)
    snap = 1e-8 * scale
    real = [r.real for r in roots if abs(r.imag) <= snap]
    complexes = sorted(
        (r for r in roots if abs(r.imag) > snap),
        key=lambda z: (z.real, abs(z.imag)),
    )
    upper = [z for z in complexes if z.imag > 0]
    lower = [z for z in complexes if z.imag < 0]
    out = list(real)
    for z in upper:
        if lower:
            mate = min(lower, key=lambda w: abs(w.conjugate() - z))
            lower.remove(mate)
            re = (z.real + mate.real) / 2
            im = (z.imag - mate.imag) / 2
            out.extend([complex(re, im), complex(re, -im)])
        else:
            out.append(z)
    out.extend(lower)
    return out


def _cluster(roots, scale: float):
    """Group nearby float roots into (representative, multiplicity) pairs."""
    radius = 1e-6 * (1.0 + scale)
    groups = []
    for r in roots:
        for g in groups:
            if abs(r - g[0][0]) <= radius:
                g[0].append(r)
                break
        else:
            groups.append([[r]])
    out = []
    for (members,) in groups:
        rep = sum(members) / len(members)
        if abs(rep.imag) == 0.0:
            rep = complex(rep.real, 0.0)
        out.append((rep, len(members)))
    return out


def poly_roots(p: Polynomial, tol: float = 1e-12) -> RootSet:
    """All roots of p with multiplicities.

    Exact rational roots are extracted exactly when the coefficients are
    exact; whatever factor remains goes through the float companion
    path.  Raises NonConvergence when the float residual exceeds
    tol times the largest coefficient magnitude.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    exact_roots = []
    remainder = p
    if p.is_exact:
        exact_roots, remainder = _rational_roots(p)
        if remainder.degree == 2:
            a, b, c = remainder.coeff(2), remainder.coeff(1), remainder.coeff(0)
            disc = Fraction(b) ** 2 - 4 * Fraction(a) * Fraction(c)
            root_disc = _exact_sqrt(disc)
            if root_disc is not None:
                exact_roots.extend([
                    (-b - root_disc) / (2 * a),
                    (-b + root_disc) / (2 * a),
                ])
                remainder = Polynomial((Fraction(1),))
    float_roots = []
    if remainder.degree >= 1:
        float_roots = _float_roots(remainder, tol)

    roots = []
    mults = []
    for r in sorted(set(exact_roots)):
        roots.append(r)
        mults.append(exact_roots.count(r))
    if float_roots:
        scale = max(abs(r) for r in float_roots)
        for rep, m in _cluster(float_roots, scale):
            value = rep.real if rep.imag == 0 else rep
            roots.append(value)
            mults.append(m)

    coeffs = [to_float(c) for c in p.coeffs]
    coeff_scale = max(abs(c) for c in coeffs)
    residual = 0.0
    for r in roots:
        if isinstance(r, Fraction) or isinstance(r, int):
            continue
        residual = max(residual, abs(complex(_horner(coeffs, r))))
    if residual > tol * coeff_scale:
        raise NonConvergence(
            f"root residual {residual:g} exceeds {tol:g} * {coeff_scale:g}")
    return RootSet(tuple(roots), tuple(mults), residual)
