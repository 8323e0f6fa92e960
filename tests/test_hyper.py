"""Hypergeometric classification, pFq evaluation, Bessel weights."""
import json
import math
from fractions import Fraction

import pytest

from biorth.errors import (
    Divergence,
    InvalidLowerParameter,
    NonpositiveLowerParameter,
    ThetaNotIndicial,
)
from biorth.hyper import (
    BesselWeight,
    PowerWeight,
    bessel_i,
    bessel_weight,
    eval_pFq,
    hypergeometric_form,
    series_from_form,
    weight_from_config,
)
from biorth.cli import main
from biorth.families import family_from_config
from biorth.odes import (
    frobenius_ode,
    indicial_roots,
    select_theta,
    series_coefficients,
)

from conftest import bessel_case_family, jacobi_family, power_weight_family

F = Fraction


def test_bessel_form_classification():
    ode = frobenius_ode(bessel_case_family(), F(1))
    form = hypergeometric_form(ode, F(2))
    assert form.theta == 2
    assert form.upper == ()
    assert form.lower == (4,)
    assert form.nu == 4
    assert (form.s1, form.s2) == (0, 2)


def test_form_reproduces_recurrence_series():
    ode = frobenius_ode(bessel_case_family(), F(1))
    form = hypergeometric_form(ode, F(2))
    assert series_from_form(form, 9) == series_coefficients(ode, F(2), 9)


def test_jacobi_form_is_terminating():
    # upper parameter 0 makes every term beyond the first vanish
    ode = frobenius_ode(jacobi_family(), F(3))
    form = hypergeometric_form(ode, F(2))
    assert form.upper == (0,)
    assert form.lower == ()
    assert form.nu == 1
    assert series_from_form(form, 4) == [1, 0, 0, 0, 0]


def test_theta_not_indicial():
    ode = frobenius_ode(bessel_case_family(), F(1))
    with pytest.raises(ThetaNotIndicial):
        hypergeometric_form(ode, F(1))


# a = 0,0,0,1; b = 0,-1; c = 1: at mu = 1/2 the admissible indicial
# root is irrational, so theta is a float and P(0) vanishes only up to
# rounding.
CUBIC = {"name": "cubic", "kind": "polynomial", "basis": "pochhammer-3",
         "a": ["0", "0", "0", "1"], "b": ["0", "-1"], "c": ["1"],
         "support": "(0,inf)"}


def test_irrational_theta_is_indicial(tmp_path, capsys):
    ode = frobenius_ode(family_from_config(CUBIC), F(1, 2))
    theta = select_theta(indicial_roots(ode), ode.s)
    assert isinstance(theta, float)
    form = hypergeometric_form(ode, theta)
    want = series_coefficients(ode, theta, 9)
    for got, ref in zip(series_from_form(form, 9), want):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    # a float theta that is not a root is still refused
    with pytest.raises(ThetaNotIndicial):
        hypergeometric_form(ode, theta + 1e-3)
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC))
    assert main(["hyper", "--family", str(path), "--mu", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["s2"] == 3


def test_nonpositive_lower_parameter():
    # at theta = -1 the shifted P has roots {0, 3}, so a lower
    # parameter 1 - 3 = -2 appears: the resonance seen from the form
    ode = frobenius_ode(bessel_case_family(), F(1))
    with pytest.raises(NonpositiveLowerParameter):
        hypergeometric_form(ode, F(-1))


def test_eval_pfq_basics():
    assert eval_pFq((), (F(4),), F(0)).value == 1
    # 1F0(1;;z) is the geometric series
    got = eval_pFq((F(1),), (), 0.5)
    assert got.value == pytest.approx(2.0, rel=1e-15)
    # exact partial sum with explicit N
    got = eval_pFq((), (F(4),), F(4), N=3)
    assert got.value == F(112, 45)
    assert got.terms == 3


def test_eval_pfq_guards():
    with pytest.raises(InvalidLowerParameter):
        eval_pFq((F(1),), (F(0),), F(1, 2))
    with pytest.raises(InvalidLowerParameter):
        eval_pFq((F(1),), (F(-2),), F(1, 2))
    # 2F0 is asymptotic: terms eventually grow
    with pytest.raises(Divergence):
        eval_pFq((F(1), F(1)), (), F(1, 2))


def test_bessel_i_half_order():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    assert bessel_i(0.5, 1.0) == pytest.approx(want, rel=1e-13)


def test_bessel_i_independent_series():
    # I_tau(z) = sum_k (z/2)^{tau + 2k} / (k! Gamma(tau + k + 1))
    def reference(tau, z, terms=30):
        total = 0.0
        for k in range(terms):
            total += (z / 2.0) ** (tau + 2 * k) / (
                math.factorial(k) * math.gamma(tau + k + 1.0))
        return total

    for tau, z in ((1.5, 1.0), (2.0, 3.0), (0.5, 0.4), (3.0, 2.5)):
        assert bessel_i(tau, z) == pytest.approx(reference(tau, z),
                                                 rel=1e-12)


def test_bessel_weight_values():
    assert bessel_weight(0.0, 2.0) == 0.0
    want = 1.0 ** 0.5 * bessel_i(1.5, 1.0)
    assert bessel_weight(1.0, 0.5) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        bessel_weight(-1.0, 2.0)
    with pytest.raises(ValueError):
        bessel_weight(1.0, 0.0)


def test_corrected_bessel_variable_change():
    # the s = 2 Frobenius weight x^2 0F1(; 4; 4x) at lam = 1 equals
    # bessel_weight(xt, 4 lam - 2)/xt with xt = 4 sqrt(x), up to the
    # constant 16/3
    for x in (0.07, 0.31, 0.9, 2.4, 5.5):
        frob = x ** 2 * eval_pFq((), (F(4),), 4.0 * x).value
        xt = 4.0 * math.sqrt(x)
        lhs = bessel_weight(xt, 2.0) / xt
        assert lhs / frob == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_weight_from_config_power():
    fam = power_weight_family()
    weight = weight_from_config(fam.weight_form, F(2))
    assert isinstance(weight, PowerWeight)
    assert weight.exponent == F(-1, 2)
    assert weight(0.25) == pytest.approx(2.0, rel=1e-15)
    jac = weight_from_config(jacobi_family().weight_form, F(3))
    assert jac.exponent == 2
    assert jac(0.5) == pytest.approx(0.25, rel=1e-15)


def test_weight_from_config_bessel():
    weight = weight_from_config(
        {"form": "bessel", "mu_tilde_num": ["2"], "mu_tilde_den": ["1"]},
        F(1))
    assert isinstance(weight, BesselWeight)
    assert weight.mu_tilde == 2
    assert weight(1.0) == pytest.approx(bessel_weight(1.0, 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        weight_from_config({"form": "mystery"}, F(1))


def test_weight_objects_compare_and_print_by_their_parameter():
    # the float copy made at construction stays out of ==, hash and repr
    w = PowerWeight(F(-1, 2))
    assert repr(w) == "PowerWeight(exponent=Fraction(-1, 2))"
    assert w == PowerWeight(F(-1, 2)) == PowerWeight(-0.5)
    assert hash(w) == hash(PowerWeight(F(-1, 2))) == hash(PowerWeight(-0.5))
    assert w != PowerWeight(F(-1, 3))
    assert w(0.25) == 0.25 ** -0.5
    b = BesselWeight(F(2))
    assert repr(b) == "BesselWeight(mu_tilde=Fraction(2, 1))"
    assert b == BesselWeight(2) and hash(b) == hash(BesselWeight(2))
    assert b != BesselWeight(F(5, 2))
    assert b(1.0) == bessel_weight(1.0, 2.0)
    with pytest.raises(ValueError):
        BesselWeight(F(0))(1.0)
