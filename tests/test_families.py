"""Family interface: moments, nodes, validity predicates, config I/O."""
import json
import random
from fractions import Fraction

import pytest

from biorth.errors import BetaZero, ConfigError, PoleAt
from biorth.families import (
    MqfFamily,
    existence_determinant,
    family_from_config,
    gh_factors,
    lambda_node,
    load_family,
    moment,
    moment_rational,
    validity_check,
)
from biorth.polynomials import Polynomial, RationalFunction, rf_eval

from conftest import bessel_case_family, jacobi_family, power_weight_family, \
    skew_family, steps_family

F = Fraction


def test_jacobi_sequences():
    fam = jacobi_family()
    # alpha_n = n, beta_n = 1, gamma_n = 1 + n, delta_n = 1
    for n in range(5):
        assert fam.quadruple(n) == (n, 1, 1 + n, 1)
    assert fam.degree_s == 1
    assert fam.support == "(0,1)"


def test_jacobi_moments():
    fam = jacobi_family()
    # m_n(mu) telescopes to mu/(mu + n)
    assert moment(fam, 0, F(1)) == 1
    assert moment(fam, 1, F(1)) == F(1, 2)
    assert moment(fam, 2, F(1)) == F(1, 3)
    assert moment(fam, 3, F(3, 2)) == F(1, 3)
    mu = RationalFunction.variable()
    assert moment_rational(fam, 3) == mu / (mu + 3)
    assert moment_rational(fam, 1) == mu / (mu + 1)


def test_moment_pole():
    fam = jacobi_family()
    # gamma_0 + mu delta_0 = 1 + mu vanishes at mu = -1
    with pytest.raises(PoleAt):
        moment(fam, 1, F(-1))


def test_gh_factors():
    fam = jacobi_family()
    g0, h0 = gh_factors(fam, 0)
    assert g0 == Polynomial((0, 1))
    assert h0 == Polynomial((1, 1))
    g1, h1 = gh_factors(fam, 1)
    assert g1 == Polynomial((1, 1))
    assert h1 == Polynomial((2, 1))


def test_lambda_nodes():
    fam = jacobi_family()
    assert [lambda_node(fam, j) for j in range(3)] == [0, -1, -2]
    pw = power_weight_family()
    # beta_0 = 0 for the power family
    with pytest.raises(BetaZero) as info:
        lambda_node(pw, 0)
    assert info.value.index == 0
    steps = steps_family()
    assert [lambda_node(steps, j) for j in range(4)] == [-1, -2, -3, -4]


def test_validity_jacobi_cross_fails():
    rep = validity_check(jacobi_family(), 2)
    assert not rep.theorem3_applicable
    # alpha_1 delta_0 - beta_1 gamma_0 = 1 - 1 = 0
    assert rep.cross_condition[1][0] is False
    assert rep.beta_nonzero == (True, True, True)
    assert rep.lambda_distinct


def test_validity_steps_applicable():
    rep = validity_check(steps_family(), 3)
    assert rep.theorem3_applicable
    assert all(rep.beta_nonzero)
    assert all(all(row) for row in rep.cross_condition)
    for ell, row in enumerate(rep.moment_nonzero):
        for j, entry in enumerate(row):
            assert entry is None if ell <= j else entry is True


def test_validity_vacuous_at_zero():
    rep = validity_check(jacobi_family(), 0)
    assert rep.theorem3_applicable
    assert rep.cross_condition == ((),)


def test_validity_skew_cross_zero_detected():
    # (2 + l)(1 + k) - (5 + 2k) vanishes at l = 3, k = 0
    rep = validity_check(skew_family(), 3)
    assert not rep.theorem3_applicable
    assert rep.cross_condition[3][0] is False
    assert validity_check(skew_family(), 2).theorem3_applicable


def test_existence_determinant():
    fam = jacobi_family()
    # [[m_0(1), m_1(1)], [m_0(2), m_1(2)]] = [[1, 1/2], [1, 2/3]]
    assert existence_determinant(fam, [F(1), F(2)]) == F(1, 6)
    assert existence_determinant(fam, []) == 1


def test_existence_determinant_refuses_last_factor_pole():
    # h_1(mu) = mu + 2 vanishes at mu = -2: the entries m_0, m_1 are finite
    # there, but m_2 has a pole, so no degree-2 polynomial exists
    fam = jacobi_family()
    with pytest.raises(PoleAt, match="denominator factor 1 vanishes"):
        existence_determinant(fam, [F(1), F(-2)])


def test_moment_triangularity_at_nodes():
    # m_k(lambda_l) = 0 for l < k whenever the hypotheses hold
    fam = steps_family()
    for k in range(1, 5):
        mk = moment_rational(fam, k)
        for ell in range(k):
            assert rf_eval(mk, lambda_node(fam, ell)) == 0


def test_moment_telescoping_sweep():
    rng = random.Random(23)
    for fam in (jacobi_family(), steps_family(), bessel_case_family()):
        for _ in range(15):
            mu = F(rng.randint(1, 30), rng.randint(1, 8))
            m = rng.randint(0, 4)
            n = rng.randint(0, 4)
            lhs = moment(fam, m + n, mu)
            rhs = moment(fam, m, mu)
            for ell in range(m, m + n):
                alpha, beta, gamma, delta = fam.quadruple(ell)
                rhs = rhs * (alpha + mu * beta) / (gamma + mu * delta)
            assert lhs == rhs


def test_pochhammer_basis_evaluation():
    # a = [0, 0, 1] encodes (-n)_2 = n(n-1) = n^2 - n
    fam = bessel_case_family()
    assert [fam.alpha(n) for n in range(5)] == [0, 0, 2, 6, 12]
    assert [fam.beta(n) for n in range(4)] == [0, 1, 2, 3]
    assert [fam.gamma(n) for n in range(3)] == [1, 1, 1]
    assert [fam.delta(n) for n in range(3)] == [0, 0, 0]
    assert fam.degree_s == 2


def test_explicit_table_kind():
    fam = family_from_config({
        "name": "tab",
        "kind": "explicit-table",
        "table": [["1", "2", "3", "4"], ["5", "6", "7", "8"]],
    })
    assert fam.quadruple(0) == (1, 2, 3, 4)
    assert fam.quadruple(1) == (5, 6, 7, 8)
    with pytest.raises(ConfigError):
        fam.quadruple(2)
    with pytest.raises(ConfigError):
        fam.degree_s


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        family_from_config({"kind": "nope"})
    with pytest.raises(ConfigError):
        family_from_config({"kind": "polynomial", "basis": "cubic"})
    with pytest.raises(ConfigError):
        family_from_config({"kind": "polynomial", "a": ["x"]})
    with pytest.raises(ConfigError):
        family_from_config({"kind": "polynomial", "a": [True]})
    with pytest.raises(ConfigError):
        family_from_config({"kind": "explicit-table", "table": []})
    with pytest.raises(ConfigError):
        family_from_config({"kind": "explicit-table", "table": [["1", "2"]]})
    with pytest.raises(ConfigError):
        family_from_config({
            "kind": "polynomial", "basis": "linear-2.1",
            "a": ["1", "2", "3"]})


def test_linear_basis_matches_pochhammer_for_degree_one():
    # (-n)_1 = -n, so two-entry coefficient lists agree across bases
    shared = {"a": ["1", "-2"], "b": ["3"], "c": ["1", "1"], "d": ["2"]}
    lin = family_from_config(
        {"kind": "polynomial", "basis": "linear-2.1", **shared})
    poch = family_from_config(
        {"kind": "polynomial", "basis": "pochhammer-3", **shared})
    for n in range(6):
        assert lin.quadruple(n) == poch.quadruple(n)


def test_load_family_roundtrip(tmp_path):
    config = {"name": "disk", "kind": "polynomial",
              "a": ["0", "-1"], "b": ["1"], "c": ["1", "-1"], "d": ["1"],
              "support": "(0,1)"}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(config))
    fam = load_family(path)
    assert fam.name == "disk"
    assert fam.quadruple(2) == (2, 1, 3, 1)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_family(bad)


def test_explicit_rule_memoized():
    calls = []

    def rule(n):
        calls.append(n)
        return (1 + n, 1, 1, 3 + n)

    fam = MqfFamily("explicit-sequence", rule=rule)
    assert fam.quadruple(2) == (3, 1, 1, 5)
    assert fam.quadruple(2) == (3, 1, 1, 5)
    assert calls == [2]
