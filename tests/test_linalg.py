"""The one elimination behind solve_linear, determinant and nullspace.

Exact results are compared with sympy on random rational matrices of
every rank and shape; float input is checked for partial pivoting, and
the float oracle for the exactness of its null space.
"""
import random
from fractions import Fraction

import pytest

from biorth.construction import biorthogonal_poly
from biorth.errors import SingularBasis
from biorth.linalg import determinant, nullspace, solve_linear

from conftest import jacobi_family

F = Fraction


def random_matrix(rng, rows, cols, rank):
    """A rows x cols rational matrix of the given rank (a product of a
    rows x rank and a rank x cols factor), with some zero entries."""
    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) \
            if rng.random() < 0.8 else F(0)
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(cols)] for i in range(rows)]


def as_fraction(value):
    return F(int(value.p), int(value.q))


def test_exact_results_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        matrix = random_matrix(rng, rows, cols,
                               rng.randint(0, min(rows, cols)))
        reference = sympy.Matrix(matrix)
        want = [[as_fraction(x) for x in v] for v in reference.nullspace()]
        got = nullspace(matrix)
        assert got == want
        assert all(isinstance(x, F) for v in got for x in v)
        if rows != cols:
            continue
        assert determinant(matrix) == as_fraction(reference.det())
        rhs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows)]
        if reference.rank() < rows:
            with pytest.raises(SingularBasis):
                solve_linear(matrix, rhs)
        else:
            x = reference.LUsolve(sympy.Matrix(rhs))
            assert solve_linear(matrix, rhs) == [as_fraction(v) for v in x]


def test_singular_basis_names_the_first_column_without_a_pivot():
    matrix = [[1, 2, 3], [2, 4, 7], [1, 2, 5]]
    with pytest.raises(SingularBasis, match="no pivot in column 1"):
        solve_linear(matrix, [1, 2, 3])
    with pytest.raises(SingularBasis, match="no pivot in column 0"):
        solve_linear([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0])


def test_determinant_sign_follows_row_swaps():
    matrix = [[F(0), F(2), F(1)], [F(3), F(1), F(0)], [F(1), F(0), F(4)]]
    det = determinant(matrix)
    assert det == -25
    swapped = [matrix[1], matrix[0], matrix[2]]
    assert determinant(swapped) == 25
    rotated = [matrix[1], matrix[2], matrix[0]]
    assert determinant(rotated) == -25
    assert determinant([[2.0, 1.0], [4.0, 3.0]]) == 2.0
    assert determinant([[4.0, 3.0], [2.0, 1.0]]) == -2.0
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1


def test_float_solve_needs_partial_pivoting():
    # Without the row swap the multiplier 1/eps wipes out the 1 in the
    # second row and x comes out as 0 instead of 1.
    eps = 1e-20
    x = solve_linear([[eps, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert x == [1.0, 1.0]


def test_nullspace_converts_floats_exactly():
    assert nullspace([[0.5, 0.25]]) == [[F(-1, 2), F(1)]]
    assert nullspace([]) == []


def test_float_oracle_matches_exact_answer():
    # A float SVD finds a two-dimensional null space in this 10 x 11
    # moment matrix (NullSpaceDimension(2)), although its exact rank
    # is 10.
    fam = jacobi_family()
    mu = [F(k, 3) for k in range(1, 11)]
    exact = biorthogonal_poly(fam, mu, path="oracle").f
    approx = biorthogonal_poly(fam, [float(m) for m in mu], path="oracle")
    assert all(isinstance(v, float) for v in approx.f)
    scale = max(abs(v) for v in exact)
    assert max(abs(F(a) - b) for a, b in zip(approx.f, exact)) \
        <= F(1, 10 ** 12) * scale
