"""Small dense linear algebra over exact or float scalars.

The systems here are tiny (n rarely above 30), so plain Gaussian
elimination is the right tool, and one forward elimination serves all
three entry points: solve_linear back-substitutes, determinant
multiplies the pivots, and nullspace back-substitutes one vector per
free column.  Exact entries stay exact: a matrix of Fractions is
eliminated without ever touching a float, pivoting on the first nonzero
entry of each column.  Float entries pivot on the largest magnitude
(partial pivoting).  nullspace is exact only: it converts every entry
with Fraction, which is exact for floats, and a caller with float data
rounds the answer itself.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SingularBasis
from .scalars import is_exact, to_float


def _copy(rows):
    """A mutable copy of rows in one mode, and whether that mode is exact."""
    exact = all(is_exact(x) for row in rows for x in row)
    convert = Fraction if exact else to_float
    return [[convert(x) for x in row] for row in rows], exact


def _eliminate(a, exact):
    """Forward-eliminate the rows of a in place.

    Returns the pivot column of each pivot row, in order, and the number
    of row swaps.  A column with no nonzero entry left is skipped.  The
    entries below each pivot are not cleared and must not be read.
    """
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    pivots = []
    swaps = 0
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        if exact:
            p = next((i for i in range(r, n_rows) if a[i][col] != 0), None)
        else:
            p = max(range(r, n_rows), key=lambda i: abs(a[i][col]))
            if a[p][col] == 0:
                p = None
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            swaps += 1
        pivot_row = a[r]
        pivot = pivot_row[col]
        for i in range(r + 1, n_rows):
            row = a[i]
            factor = row[col] / pivot
            if factor == 0:
                continue
            for c in range(col + 1, n_cols):
                row[c] = row[c] - factor * pivot_row[c]
        pivots.append(col)
    return pivots, swaps


def solve_linear(matrix, rhs):
    """Solve A x = b by Gaussian elimination.

    Exact inputs give an exact answer.  Raises SingularBasis when a
    pivot column has no usable pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    a, exact = _copy([list(row) + [b] for row, b in zip(matrix, rhs)])
    pivots, _ = _eliminate(a, exact)
    missing = next((c for c in range(n) if c not in pivots), None)
    if missing is not None:
        raise SingularBasis(f"no pivot in column {missing}")
    out = [0] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        for c in range(r + 1, n):
            acc = acc - a[r][c] * out[c]
        out[r] = acc / a[r][r]
    return out


def determinant(matrix):
    """Signed product of the elimination pivots; exact for exact input."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    a, exact = _copy(matrix)
    pivots, swaps = _eliminate(a, exact)
    if len(pivots) < n:
        return Fraction(0) if exact else 0.0
    det = -1 if swaps % 2 else 1
    for r in range(n):
        det = det * a[r][r]
    return det


def nullspace(matrix):
    """Exact basis of the (right) null space, one list per basis vector.

    Entries are converted with Fraction (exact for floats), so the
    dimension is unambiguous.  The basis vector of each free column has
    a 1 there and a 0 at every other free column.
    """
    if not matrix or not matrix[0]:
        return []
    a = [[Fraction(x) for x in row] for row in matrix]
    cols = len(a[0])
    pivots, _ = _eliminate(a, True)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            acc = sum(a[r][c] * vec[c] for c in range(col + 1, cols))
            vec[col] = -acc / a[r][col]
        basis.append(vec)
    return basis
