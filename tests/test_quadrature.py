"""Tanh-sinh quadrature and quadrature-vs-moments verification."""
import math
from fractions import Fraction

import pytest

from biorth.errors import QuadratureFailure
from biorth.quadrature import (
    adaptive_integrate,
    integrate_support,
    verify_moment_quotient,
)

from conftest import bessel_case_family, jacobi_family, power_weight_family

F = Fraction


def test_smooth_integrals():
    assert adaptive_integrate(lambda x: x * x, 0.0, 1.0) \
        == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert adaptive_integrate(math.exp, 0.0, 1.0) \
        == pytest.approx(math.e - 1.0, rel=1e-13)
    # int_0^{pi/2} sin(10x) = (1 - cos(5 pi))/10 = 1/5
    assert adaptive_integrate(lambda x: math.sin(10.0 * x), 0.0, math.pi / 2) \
        == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(ValueError):
        adaptive_integrate(math.exp, 1.0, 0.0)


def test_integrands_large_at_the_right_end():
    # f(b) / I from 1 to 34: the nodes cannot come closer to b than one
    # ulp, but the mass left beyond them is far below rel_tol * I
    assert adaptive_integrate(lambda x: x ** 20, 0.0, 1.0) \
        == pytest.approx(1.0 / 21.0, rel=1e-13)
    fam = jacobi_family()
    errors = verify_moment_quotient(fam.weight_form, fam, 4, F(30))
    assert max(errors) <= 1e-11
    assert adaptive_integrate(lambda x: 1.0, 0.0, 1.0, 1e-13) \
        == pytest.approx(1.0, rel=1e-15)
    assert adaptive_integrate(lambda x: x ** 20, 2.0, 3.0) \
        == pytest.approx((3.0 ** 21 - 2.0 ** 21) / 21.0, rel=1e-13)


def test_which_endpoint_singularities_are_supported():
    # At a = 0 nodes reach the smallest normal float, so x^e works down to
    # e of about -0.96.  At b, or at a != 0, they stop one ulp short of the
    # end, which leaves about ulp^(e+1) / (e+1) of (b-x)^e out: below
    # rel_tol = 1e-11 only for e above about -0.3.
    for e in (-0.5, -0.9, -0.95):
        assert adaptive_integrate(lambda x: x ** e, 0.0, 1.0) \
            == pytest.approx(1.0 / (1.0 + e), rel=1e-13)
    for e in (-0.1, -0.2):
        assert adaptive_integrate(lambda x: (1.0 - x) ** e, 0.0, 1.0) \
            == pytest.approx(1.0 / (1.0 + e), rel=1e-12)
        assert adaptive_integrate(lambda x: (x - 2.0) ** e, 2.0, 3.0) \
            == pytest.approx(1.0 / (1.0 + e), rel=1e-12)
    for f, a, b in ((lambda x: x ** -0.99, 0.0, 1.0),
                    (lambda x: (1.0 - x) ** -0.5, 0.0, 1.0),
                    (lambda x: (x - 2.0) ** -0.5, 2.0, 3.0)):
        with pytest.raises(QuadratureFailure, match="tail truncated"):
            adaptive_integrate(f, a, b)


def test_endpoint_singular_integrals():
    # int_0^1 x^{-1/2} = 2, x^{-2/3} = 3: the double-exponential map
    # absorbs the endpoint singularity without refinement
    assert integrate_support(lambda x: x ** -0.5, "(0,1)", 1e-10) \
        == pytest.approx(2.0, rel=1e-13)
    assert integrate_support(lambda x: x ** (-2.0 / 3.0), "(0,1)", 1e-10) \
        == pytest.approx(3.0, rel=1e-13)
    assert integrate_support(lambda x: x ** 0.5, "(0,1)") \
        == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_half_line_fold():
    assert integrate_support(lambda x: math.exp(-x), "(0,inf)") \
        == pytest.approx(1.0, rel=1e-13)
    assert integrate_support(lambda x: x * x * math.exp(-x), "(0,inf)") \
        == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(ValueError):
        integrate_support(math.exp, "(-1,1)")


def test_divergent_integrand_fails_honestly():
    # e^x on (0, inf) must refuse, not truncate
    with pytest.raises(QuadratureFailure):
        integrate_support(math.exp, "(0,inf)")


def test_tiny_budget_fails():
    with pytest.raises(QuadratureFailure):
        integrate_support(lambda x: x ** -0.5, "(0,1)", 1e-10, budget=64)


def test_moment_quotients_jacobi():
    fam = jacobi_family()
    errors = verify_moment_quotient(fam.weight_form, fam, 5, F(3, 2))
    assert len(errors) == 5
    assert max(errors) < 1e-13
    # n = 0 quotient at mu = 2 is m_1(2) = 2/3
    errors = verify_moment_quotient(fam.weight_form, fam, 1, F(2))
    assert errors[0] < 1e-13


def test_moment_quotients_power_weight_singular():
    # mu = 2 gives the endpoint-singular weight x^{-1/2}
    fam = power_weight_family()
    for mu in (F(3, 2), F(2)):
        errors = verify_moment_quotient(fam.weight_form, fam, 4, mu)
        assert max(errors) < 1e-13


def test_moment_quotients_meet_tolerance_near_nonintegrable():
    # mu = 10, 20 give x^{-0.9}, x^{-0.95}: the default rel_tol of 1e-11
    # holds although nearly all the mass sits next to x = 0
    fam = power_weight_family()
    for mu in (F(10), F(20)):
        errors = verify_moment_quotient(fam.weight_form, fam, 4, mu)
        assert max(errors) <= 1e-11


def test_mass_below_smallest_double_refuses():
    # mu = 100 gives x^{-0.99}: about 0.1% of int_0^1 lies below the
    # smallest normal double, so no sampled rule can meet rel_tol
    fam = power_weight_family()
    with pytest.raises(QuadratureFailure, match="tail truncated"):
        verify_moment_quotient(fam.weight_form, fam, 4, F(100))


def test_weight_calls_for_singular_moments():
    # the five integrals int_0^1 x^{n-1/2}, n = 0..4, in at most 1000
    # weight calls (the heap-refined Gauss-Legendre rule took 5680)
    calls = [0]

    def weight(x):
        calls[0] += 1
        return x ** -0.5

    errors = verify_moment_quotient(weight, power_weight_family(), 4, F(2))
    assert max(errors) < 1e-13
    assert calls[0] <= 1000


def test_moment_quotients_callable_weight():
    fam = jacobi_family()
    errors = verify_moment_quotient(lambda x: x, fam, 3, F(2))
    assert max(errors) < 1e-13


def test_bessel_weight_moments_diverge():
    # the half-line Bessel weight grows like e^x: no finite moments
    fam = bessel_case_family()
    with pytest.raises(QuadratureFailure):
        verify_moment_quotient(
            {"form": "bessel", "mu_tilde_num": ["2"]}, fam, 1, F(1))
