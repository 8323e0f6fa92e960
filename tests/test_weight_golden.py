"""Byte-for-byte goldens for the weight side: root finding, zero
location and quadrature moment quotients.

tests/golden/weight_side.txt holds the repr of every output listed by
weight_side_lines(), captured before the weight objects and the root
finder moved their float conversions out of the inner loops.  Those
conversions must not change a single bit, so the lines are compared as
text.  To recapture (only when a documented fix changes an output):

    PYTHONPATH=src:tests python -c "import test_weight_golden as t; \\
        print('\\n'.join(t.weight_side_lines()))" > tests/golden/weight_side.txt
"""
import random
from fractions import Fraction
from pathlib import Path

from biorth.construction import biorthogonal_poly, zero_location_check
from biorth.polynomials import Polynomial
from biorth.quadrature import verify_moment_quotient
from biorth.roots import poly_roots

from conftest import jacobi_family, power_weight_family

GOLDEN = Path(__file__).resolve().parent / "golden" / "weight_side.txt"

F = Fraction


def _root_polys(rng):
    """Seeded exact polynomials: rational roots with multiplicities,
    times irrational quadratics (non-square discriminant) and complex
    pairs, so every branch of poly_roots is reached."""
    polys = []
    for _ in range(30):
        roots = [F(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))]
        if roots and rng.random() < 0.4:
            roots.append(roots[0])
        p = Polynomial.from_roots(roots, lead=F(rng.randint(1, 4)))
        extra = rng.randint(0, 2)
        for _ in range(extra):
            b = F(rng.randint(-4, 4), rng.randint(1, 2))
            if rng.random() < 0.5:
                c = F(rng.choice((2, 3, 5, 6, 7)), rng.randint(1, 3))
                quad = Polynomial((-c, b, F(1)))       # real, irrational
            else:
                c = b * b / 4 + F(rng.randint(1, 9), rng.randint(1, 4))
                quad = Polynomial((c, b, F(1)))        # complex pair
            p = p * quad
        if p.degree >= 1:
            polys.append(p)
    return polys


def weight_side_lines():
    rng = random.Random(5150)
    lines = []
    for p in _root_polys(rng):
        lines.append(f"poly_roots exact {p.coeffs!r}: {poly_roots(p)!r}")
        floated = Polynomial([float(c) for c in p.coeffs])
        lines.append(f"poly_roots float {floated.coeffs!r}: "
                     f"{poly_roots(floated)!r}")
    for _ in range(20):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 7))]
        p = Polynomial(coeffs)
        lines.append(f"poly_roots float {p.coeffs!r}: {poly_roots(p)!r}")

    families = {"jacobi": jacobi_family(), "power-weight": power_weight_family()}
    for i in range(40):
        name = ("jacobi", "power-weight")[i % 2]
        fam = families[name]
        degree = 1 + i % 5
        mu = set()
        while len(mu) < degree:
            mu.add(F(rng.randint(1, 16), rng.randint(1, 4)))
        mu = sorted(mu)
        if i % 4 >= 2:
            mu = [float(m) for m in mu]
        report = zero_location_check(biorthogonal_poly(fam, mu).p, fam.support)
        lines.append(f"zero_location_check {name} {mu!r}: {report!r}")

    for i in range(40):
        name = ("jacobi", "power-weight")[i % 2]
        fam = families[name]
        exponent = -F(rng.randint(20, 80), 100)
        mu = 1 + exponent if name == "jacobi" else 1 / (1 + exponent)
        if i % 4 >= 2:
            mu = float(mu)
        errors = verify_moment_quotient(fam.weight_form, fam, 3, mu)
        lines.append(f"verify_moment_quotient {name} {mu!r}: {errors!r}")
    return lines


def test_weight_side_golden():
    got = "\n".join(weight_side_lines()) + "\n"
    assert got == GOLDEN.read_text()
