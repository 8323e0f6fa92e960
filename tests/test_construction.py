"""Construction paths: mixed basis, divided differences, oracle."""
import random
from fractions import Fraction

import pytest

from biorth.construction import (
    NORM_EXPANSION,
    NORM_LEADING_ONE,
    PATH_DIVIDED,
    PATH_MIXED,
    PATH_ORACLE,
    biorthogonal_poly,
    divided_difference_solve,
    expand_in_mixed_basis,
    mixed_basis,
    oracle_nullspace,
    orthogonality_residuals,
    qtilde_values,
    zero_location_check,
)
from biorth.errors import (
    BetaZero,
    DegenerateMu,
    NoExistence,
    PoleAt,
    RemovableSingularity,
    SingularBasis,
    SingularNode,
    SingularPivot,
)
from biorth.families import (
    existence_determinant,
    family_from_config,
    gh_factors,
    lambda_node,
    moment,
    moment_rational,
)
from biorth.polynomials import Polynomial, rf_eval

from conftest import jacobi_family, power_weight_family, skew_family, \
    steps_family

F = Fraction


def qtilde_direct(family, mu_list):
    """The node values computed the slow way: evaluate the quotient
    prod (x - mu_k) / prod h_k(x) at each lambda_l, to check the closed
    form of qtilde_values against."""
    n = len(mu_list)
    target = Polynomial.from_roots([F(m) for m in mu_list])
    values = []
    for ell in range(n + 1):
        lam = lambda_node(family, ell)
        den = 1
        for k in range(n):
            _, h = gh_factors(family, k)
            factor = h(lam)
            if factor == 0:
                raise SingularNode(ell, k)
            den = den * factor
        values.append(target(lam) / den)
    return values


def divided_difference_recursive(family, qtilde, n):
    """The stepwise difference table with denominators m_{j-1}(lambda_m):

        G(0, m) = qtilde_m
        G(j, m) = (G(j-1, m) - G(j-1, j-1)) / m_{j-1}(lambda_m)
        f_k     = G(k, k).

    This realizes the published recursion literally and therefore solves
    the product-weighted system qtilde_l = sum_{k<=l} f_k prod_{j<k}
    m_j(lambda_l), which is NOT the system the solvers use: the two
    agree only when the moment products collapse (for example when
    m_l(lambda_l) = 1 at every pivot).  Kept here so the discrepancy
    stays visible.
    """
    moments = [moment_rational(family, k) for k in range(n)]
    nodes = [lambda_node(family, ell) for ell in range(n + 1)]
    table = list(qtilde)
    f = [table[0]]
    for j in range(1, n + 1):
        new = list(table)
        for m in range(j, n + 1):
            try:
                den = rf_eval(moments[j - 1], nodes[m])
            except (PoleAt, RemovableSingularity) as exc:
                raise SingularPivot(m, detail=str(exc)) from exc
            if den == 0:
                raise SingularPivot(
                    m, detail=f"difference denominator m_{j-1} vanishes")
            new[m] = (table[m] - table[j - 1]) / den
        table = new
        f.append(table[j])
    return f


def test_mixed_basis_jacobi():
    basis = mixed_basis(jacobi_family(), 2)
    # B_0 = h_0 h_1, B_1 = g_0 h_1, B_2 = g_0 g_1
    assert basis.basis_polys == (
        Polynomial((2, 3, 1)),
        Polynomial((0, 2, 1)),
        Polynomial((0, 1, 1)),
    )
    assert mixed_basis(jacobi_family(), 0).basis_polys == (Polynomial((1,)),)


def test_expand_jacobi():
    fam = jacobi_family()
    res = expand_in_mixed_basis(fam, [F(1)])
    assert res.f == (-1, 2)
    assert res.path == PATH_MIXED
    res = expand_in_mixed_basis(fam, [F(1), F(2)])
    assert res.f == (1, -6, 6)
    assert res.p == Polynomial((1, -6, 6))
    # expansion identity: sum f_k B_k reproduces the monic target
    basis = mixed_basis(fam, 2)
    total = Polynomial()
    for fk, bk in zip(res.f, basis.basis_polys):
        total = total + fk * bk
    assert total == Polynomial.from_roots((F(1), F(2)))


def test_qtilde_worked_value():
    # alpha_l = 1 + l, beta = 1, gamma = 1, delta_k = 3 + k;
    # n = 1, mu = (5): qtilde_0 = (1 + 5)/(1*3 - 1*1) = 3
    fam = steps_family()
    qt = qtilde_values(fam, [F(5)])
    assert qt[0] == 3
    assert qt[1] == F(7, 5)
    assert qtilde_values(fam, []) == [1]


def test_qtilde_closed_form_matches_direct():
    rng = random.Random(31)
    fam = steps_family()
    for _ in range(20):
        n = rng.randint(0, 5)
        mu = []
        while len(mu) < n:
            cand = F(rng.randint(1, 40), rng.randint(1, 6))
            if cand not in mu:
                mu.append(cand)
        assert qtilde_values(fam, mu) == qtilde_direct(fam, mu)


def test_qtilde_singularities():
    with pytest.raises(SingularNode) as info:
        qtilde_values(jacobi_family(), [F(1)])
    assert (info.value.l, info.value.k) == (1, 0)
    with pytest.raises(BetaZero):
        qtilde_values(power_weight_family(), [F(2)])


def test_divided_difference_base_case():
    fam = steps_family()
    # f_0 equals qtilde_0: the 0th divided difference is the value itself
    assert divided_difference_solve(fam, [F(7)], 0) == [7]
    assert divided_difference_recursive(fam, [F(7)], 0) == [7]


def test_divided_difference_zero_input():
    fam = steps_family()
    assert divided_difference_solve(fam, [F(0)] * 4, 3) == [0, 0, 0, 0]


def test_divided_difference_scaling():
    fam = steps_family()
    qt = qtilde_values(fam, [F(1), F(2)])
    f = divided_difference_solve(fam, qt, 2)
    f3 = divided_difference_solve(fam, [3 * q for q in qt], 2)
    assert f3 == [3 * v for v in f]


def test_steps_all_paths_agree():
    fam = steps_family()
    mu = [F(1), F(2), F(3)]
    res = biorthogonal_poly(fam, mu)
    assert res.path == PATH_DIVIDED
    assert res.f == (F(1), F(-85, 21), F(101, 21), F(-44, 21))
    assert res.qtilde == (F(1), F(4, 21), F(15, 154), F(14, 209))
    assert res.lambda_nodes == (-1, -2, -3, -4)
    mixed = expand_in_mixed_basis(fam, mu)
    oracle = oracle_nullspace(fam, mu, NORM_EXPANSION)
    assert mixed.f == res.f
    assert oracle.f == res.f
    assert orthogonality_residuals(fam, res.f, mu) == [0, 0, 0]


def test_recursive_table_matches_printed_product_system():
    # the stepwise table solves qtilde_l = sum_k f_k prod_{j<k} m_j(lambda_l)
    # by construction; check against direct forward substitution on that
    # product system
    fam = steps_family()
    mu = [F(1), F(2), F(3)]
    n = len(mu)
    qt = qtilde_values(fam, mu)
    nodes = [lambda_node(fam, ell) for ell in range(n + 1)]
    moms = [moment_rational(fam, j) for j in range(n)]

    def phi(k, lam):
        out = F(1)
        for j in range(k):
            out = out * rf_eval(moms[j], lam)
        return out

    f_printed = []
    for ell in range(n + 1):
        acc = qt[ell]
        for k in range(ell):
            acc = acc - f_printed[k] * phi(k, nodes[ell])
        f_printed.append(acc / phi(ell, nodes[ell]))

    assert divided_difference_recursive(fam, qt, n) == f_printed
    assert f_printed == [F(1), F(-17, 21), F(-86, 231), F(-2650, 1197)]


def test_recursive_table_disagrees_with_normative_system():
    # the two systems differ exactly where the diagonal moments differ
    # from 1: m_1(lambda_1) = 1/5 for this family, so f_1 splits
    fam = steps_family()
    assert rf_eval(moment_rational(fam, 1), lambda_node(fam, 1)) == F(1, 5)
    mu = [F(1), F(2)]
    qt = qtilde_values(fam, mu)
    f_norm = divided_difference_solve(fam, qt, 2)
    f_rec = divided_difference_recursive(fam, qt, 2)
    assert f_rec[0] == f_norm[0]
    assert f_rec[1] != f_norm[1]
    # only the normative solution annihilates the moment functionals
    assert orthogonality_residuals(fam, f_norm, mu) == [0, 0]
    assert orthogonality_residuals(fam, f_rec, mu) != [0, 0]


def test_recursive_table_agrees_when_pivot_is_one():
    # explicit rows chosen so m_1(lambda_1) = (1 - 2)/(3 - 4) = 1
    fam = family_from_config({
        "kind": "explicit-table",
        "table": [["1", "1", "3", "2"], ["2", "1", "1", "1"]],
    })
    assert rf_eval(moment_rational(fam, 1), lambda_node(fam, 1)) == 1
    qt = [F(2), F(5)]
    assert divided_difference_solve(fam, qt, 1) \
        == divided_difference_recursive(fam, qt, 1) == [2, 3]


def test_oracle_spec_values():
    fam = jacobi_family()
    res = oracle_nullspace(fam, [F(1)])
    assert res.f == (F(-1, 2), 1)
    assert res.path == PATH_ORACLE
    res = oracle_nullspace(fam, [F(1), F(2)])
    assert res.f == (F(1, 6), -1, 1)
    res = oracle_nullspace(fam, [])
    assert res.f == (1,)
    res = oracle_nullspace(fam, [F(1), F(2)], NORM_EXPANSION)
    assert res.f == (1, -6, 6)


def test_biorthogonal_poly_guards():
    fam = jacobi_family()
    with pytest.raises(DegenerateMu):
        biorthogonal_poly(fam, [F(1), F(1)])
    # constant Moebius factor makes m_1 constant, so two distinct mu
    # rows coincide and the existence determinant vanishes
    flat = family_from_config({
        "kind": "explicit-table",
        "table": [["1", "1", "2", "2"], ["1", "2", "3", "4"]],
    })
    with pytest.raises(NoExistence):
        biorthogonal_poly(flat, [F(1), F(2)])
    with pytest.raises(ValueError):
        biorthogonal_poly(fam, [F(1)], path="sideways")


def test_last_factor_pole_raises_on_every_path():
    # h_4(-5) = 0 is a pole of m_5 only, outside the determinant's
    # entries m_0..m_4; every path must still refuse
    mu = [F(19, 4), F(21, 2), F(5, 3), F(17, 3), F(-5)]
    for path in ("auto", PATH_MIXED, PATH_DIVIDED, PATH_ORACLE):
        with pytest.raises(PoleAt, match="denominator factor 4 vanishes"):
            biorthogonal_poly(jacobi_family(), mu, path=path)


def test_jacobi_auto_avoids_divided_differences():
    fam = jacobi_family()
    for mu in ([F(1)], [F(1), F(2)], [F(1), F(2), F(7, 2)]):
        res = biorthogonal_poly(fam, mu)
        assert res.path in (PATH_MIXED, PATH_ORACLE)
        assert res.qtilde is None
    # even asked for explicitly, the singular-node fallback moves on
    res = biorthogonal_poly(fam, [F(1), F(2)], path=PATH_DIVIDED)
    assert res.path == PATH_MIXED
    assert res.f == (1, -6, 6)


def test_normalization_modes():
    fam = jacobi_family()
    res = biorthogonal_poly(fam, [F(1), F(2)],
                            normalization=NORM_LEADING_ONE)
    assert res.f == (F(1, 6), -1, 1)
    res = biorthogonal_poly(fam, [F(1), F(2)], path=PATH_ORACLE)
    assert res.f == (1, -6, 6)


def test_permutation_invariance():
    fam = steps_family()
    rng = random.Random(41)
    mu = [F(1), F(5, 2), F(4), F(11, 3)]
    base = biorthogonal_poly(fam, mu).f
    for _ in range(5):
        shuffled = mu[:]
        rng.shuffle(shuffled)
        assert biorthogonal_poly(fam, shuffled).f == base


def test_path_equivalence_sweep():
    rng = random.Random(47)
    fam = steps_family()
    for _ in range(12):
        n = rng.randint(1, 6)
        mu = []
        while len(mu) < n:
            cand = F(rng.randint(1, 60), rng.randint(1, 8))
            if cand not in mu:
                mu.append(cand)
        dd = biorthogonal_poly(fam, mu, path=PATH_DIVIDED)
        mx = biorthogonal_poly(fam, mu, path=PATH_MIXED)
        orc = biorthogonal_poly(fam, mu, path=PATH_ORACLE)
        assert dd.path == PATH_DIVIDED
        assert dd.f == mx.f == orc.f
        assert all(r == 0 for r in orthogonality_residuals(fam, dd.f, mu))


def test_float_mode_close_to_exact():
    fam = jacobi_family()
    res = biorthogonal_poly(fam, [1.0, 2.0])
    for got, want in zip(res.f, (1, -6, 6)):
        assert got == pytest.approx(want, rel=1e-9)


def test_float_jacobi_n32_is_not_refused_by_an_underflowed_determinant():
    # the float pivot product of the n = 32 moment matrix underflows to
    # 0.0, which once raised a false NoExistence before any route ran;
    # existence is now read from f_n.  f itself is still far from the
    # exact answer here, float mode's open accuracy defect.
    fam = jacobi_family()
    mu = [k / 3 for k in range(1, 33)]
    assert existence_determinant(fam, mu) == 0.0
    res = biorthogonal_poly(fam, mu)
    assert res.path == PATH_MIXED
    assert len(res.f) == 33 and res.f[-1] != 0


def test_float_mu_refuses_a_dependent_mixed_basis_like_exact_mu():
    # a float elimination of an exactly singular basis matrix leaves
    # rounding-sized pivots and returned coefficients near 1e16; the
    # dependence is read off the cross factors alpha_i delta_j -
    # beta_i gamma_j, i <= j, so float mu get exact mode's answers
    mu = [1.0, 2.0, 3.0]
    with pytest.raises(SingularBasis, match="no pivot in column 3"):
        expand_in_mixed_basis(skew_family(), mu)
    with pytest.raises(SingularBasis):
        biorthogonal_poly(skew_family(), mu)
    res = biorthogonal_poly(skew_family(), mu,
                            normalization=NORM_LEADING_ONE)
    assert res.path == PATH_ORACLE
    assert res.f == (0.0, -1 / 3, 1 / 3, 1.0)
    # no polynomial exists here (exact determinant 0) and the float
    # mixed basis is dependent too
    fam = family_from_config({"kind": "polynomial", "basis": "pochhammer-3",
                              "a": ["-2", "2"], "b": ["-2"], "c": ["-2"],
                              "d": ["-1", "0"]})
    assert existence_determinant(fam, [F(-1), F(1), F(3, 2)]) == 0
    for path in ("auto", PATH_MIXED):
        with pytest.raises(NoExistence):
            biorthogonal_poly(fam, [-1.0, 1.0, 1.5], path)


def test_float_mu_auto_skips_node_system():
    # the node system's pivots m_l(lambda_l) decay geometrically, so
    # auto reserves it for exact inputs; an explicit request still runs
    fam = steps_family()
    mu = [1.5, 2.25, 4.0]
    auto = biorthogonal_poly(fam, mu)
    assert auto.path == PATH_MIXED
    exact = biorthogonal_poly(fam, [F(3, 2), F(9, 4), F(4)])
    assert exact.path == PATH_DIVIDED
    explicit = biorthogonal_poly(fam, mu, path=PATH_DIVIDED)
    assert explicit.path == PATH_DIVIDED
    for got, want in zip(explicit.f, exact.f):
        assert got == pytest.approx(float(want), rel=1e-9)


def test_triangularity_of_node_system():
    # upper entries m_k(lambda_l), l < k, vanish identically
    fam = steps_family()
    n = 5
    for k in range(1, n + 1):
        mk = moment_rational(fam, k)
        for ell in range(k):
            assert rf_eval(mk, lambda_node(fam, ell)) == 0


def test_skew_family_degenerate_basis_at_three():
    # at n = 3 the cross product alpha_3 delta_0 - beta_3 gamma_0
    # vanishes and the mixed basis becomes linearly dependent: the
    # unique null-space direction v satisfies sum v_k B_k = 0, so it
    # annihilates the moment functional at EVERY mu and the monic
    # expansion has no solution.  Expansion normalization must refuse;
    # leading-one still names the polynomial.
    fam = skew_family()
    mu = [F(1), F(2), F(3)]
    with pytest.raises(SingularBasis):
        biorthogonal_poly(fam, mu)
    res = biorthogonal_poly(fam, mu, normalization=NORM_LEADING_ONE)
    assert res.path == PATH_ORACLE
    assert res.f == (0, F(-1, 3), F(1, 3), 1)
    assert all(r == 0 for r in orthogonality_residuals(fam, res.f, mu))
    for probe in (F(7), F(22, 3)):
        assert sum(res.f[k] * moment(fam, k, probe) for k in range(4)) == 0
    # below the degeneracy the family behaves normally
    res2 = biorthogonal_poly(fam, [F(1), F(2)])
    assert res2.path == PATH_DIVIDED
    assert orthogonality_residuals(fam, res2.f, [F(1), F(2)]) == [0, 0]


def test_zero_location_spec_cases():
    rep = zero_location_check(Polynomial((1, -6, 6)), "(0,1)")
    assert rep.passed and rep.all_real and rep.all_simple and rep.all_inside
    assert zero_location_check(Polynomial((-1, 2)), "(0,1)").passed
    rep = zero_location_check(Polynomial((1, 0, 1)), "(0,1)")
    assert not rep.passed and not rep.all_real
    rep = zero_location_check(
        Polynomial((F(1, 4), F(-1), F(1))), "(0,1)")
    assert not rep.passed and not rep.all_simple
    assert not zero_location_check(Polynomial((-2, 1)), "(0,1)").passed
    assert zero_location_check(Polynomial((-3, 1)), "(0,inf)").passed
    assert zero_location_check(Polynomial((5,)), "(0,1)").passed
    with pytest.raises(ValueError):
        zero_location_check(Polynomial(), "(0,1)")


def test_zero_location_jacobi_sweep():
    rng = random.Random(53)
    fam = jacobi_family()
    for n in range(1, 9):
        mu = []
        while len(mu) < n:
            cand = F(rng.randint(2, 39), 4)
            if cand not in mu:
                mu.append(cand)
        res = biorthogonal_poly(fam, mu)
        rep = zero_location_check(res.p, "(0,1)")
        assert rep.passed, (n, mu, rep)
