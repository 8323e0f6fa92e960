"""The shared moment table and the predicates derived instead of evaluated.

moment_row(family, n, x) is the single running product every moment
consumer reads.  These tests pin its rows and pole reports, the
quadruple cache behind it, the divided-difference solve's pivot
errors, and validity_check on a family whose moments are undefined.
Randomized checks live in test_moment_properties.py.
"""
from fractions import Fraction

import pytest

from biorth.construction import divided_difference_solve
from biorth.errors import PoleAt, SingularPivot
from biorth.families import (
    MqfFamily,
    family_from_config,
    moment,
    moment_row,
    validity_check,
)

from conftest import jacobi_family

F = Fraction


def test_row_matches_moment_and_telescopes():
    fam = jacobi_family()
    row = moment_row(fam, 4, F(3, 2))
    assert row == [moment(fam, k, F(3, 2)) for k in range(5)]
    # m_k(mu) = mu / (mu + k) for jacobi
    assert row == [1] + [F(3, 2) / (F(3, 2) + k) for k in range(1, 5)]
    assert moment_row(fam, 0, 2.5) == [1]
    with pytest.raises(ValueError):
        moment_row(fam, -1, F(1))


def test_row_pole_reports_first_factor():
    # h_l(mu) = 1 + l + mu vanishes first at l = 2 for mu = -3
    with pytest.raises(PoleAt) as info:
        moment_row(jacobi_family(), 5, F(-3))
    assert "denominator factor 2 vanishes" in str(info.value)
    assert moment_row(jacobi_family(), 2, F(-3)) == [1, F(3, 2), 3]


def test_quadruples_are_computed_once():
    calls = []

    def rule(n):
        calls.append(n)
        return (1 + n, 1, 1, 3 + n)

    fam = MqfFamily("explicit-sequence", rule=rule)
    moment_row(fam, 4, F(1))
    moment_row(fam, 6, F(2))
    validity_check(fam, 6)
    assert sorted(calls) == list(range(7))


def test_solve_zero_diagonal():
    # lambda_0 = lambda_1 = -1, so g_0(lambda_1) = 0 and m_1(lambda_1) = 0
    fam = family_from_config({"kind": "explicit-table",
                              "table": [["1", "1", "3", "1"],
                                        ["1", "1", "5", "1"]]})
    with pytest.raises(SingularPivot) as info:
        divided_difference_solve(fam, [F(1), F(1)], 1)
    assert info.value.l == 1
    assert "diagonal moment value is zero" in str(info.value)


def test_solve_pole_in_row():
    # lambda_1 = -2 and h_0(-2) = 2 - 2 = 0: row 1 of the triangle has a pole
    fam = family_from_config({"kind": "explicit-table",
                              "table": [["1", "1", "2", "1"],
                                        ["2", "1", "1", "1"]]})
    with pytest.raises(SingularPivot) as info:
        divided_difference_solve(fam, [F(1), F(1)], 1)
    assert info.value.l == 1
    assert "denominator factor 0 vanishes" in str(info.value)


def test_validity_check_reports_identically_zero_h():
    # h_k = gamma_k + mu delta_k is the zero polynomial for every k, so
    # the moments are undefined; the report says so instead of raising
    fam = family_from_config({"kind": "polynomial", "a": ["1"], "b": ["1"],
                              "c": ["0"], "d": ["0"]})
    report = validity_check(fam, 2)
    assert report.theorem3_applicable is False
    assert not any(any(row) for row in report.cross_condition)
