"""Small dense linear algebra over exact or float scalars.

The systems here are tiny (n rarely above 30), so plain Gaussian
elimination with pivoting is the right tool.  Exact entries stay exact:
a matrix of Fractions is solved without ever touching a float, which is
what makes the exact-mode contracts of the construction layer possible.
Float matrices go through the same routines with partial pivoting, or
through numpy where an SVD is genuinely needed (nullspace extraction).
numpy is imported inside those float branches only, so exact work and
`import biorth` never load it.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SingularBasis
from .scalars import is_exact


def _exact_matrix(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


def solve_linear(matrix, rhs):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Exact inputs give an exact answer.  Raises SingularBasis when a
    pivot column has no usable pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    exact = _exact_matrix(matrix) and all(is_exact(x) for x in rhs)
    if exact:
        aug = [[Fraction(x) for x in row] + [Fraction(b)]
               for row, b in zip(matrix, rhs)]
    else:
        aug = [[complex(x) if isinstance(x, complex) else float(x) for x in row] + [b]
               for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = None
        if exact:
            for r in range(col, n):
                if aug[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = 0.0
            for r in range(col, n):
                mag = abs(aug[r][col])
                if mag > best:
                    best = mag
                    pivot_row = r
            if best == 0.0:
                pivot_row = None
        if pivot_row is None:
            raise SingularBasis(f"no pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, n + 1):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    out = [0] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n]
        for c in range(r + 1, n):
            acc = acc - aug[r][c] * out[c]
        out[r] = acc / aug[r][r]
    return out


def determinant(matrix):
    """Determinant by fraction-free elimination for exact input,
    pivoted elimination for float input."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    exact = _exact_matrix(matrix)
    if exact:
        a = [[Fraction(x) for x in row] for row in matrix]
        sign = 1
        det = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                a[col], a[pivot_row] = a[pivot_row], a[col]
                sign = -sign
            pivot = a[col][col]
            det *= pivot
            for r in range(col + 1, n):
                factor = a[r][col] / pivot
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
        return sign * det
    import numpy as np
    return float(np.linalg.det(np.array(matrix, dtype=float)))


def nullspace(matrix, tol: float = 1e-12):
    """Basis of the (right) nullspace, one list per basis vector.

    Exact input goes through RREF, so the result is exact and the
    dimension is unambiguous.  Float input uses the SVD; singular values
    below tol * largest count as zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return []
    if _exact_matrix(matrix):
        a = [[Fraction(x) for x in row] for row in matrix]
        pivots = []
        r = 0
        for col in range(cols):
            pivot_row = next((i for i in range(r, rows) if a[i][col] != 0), None)
            if pivot_row is None:
                continue
            a[r], a[pivot_row] = a[pivot_row], a[r]
            pivot = a[r][col]
            a[r] = [x / pivot for x in a[r]]
            for i in range(rows):
                if i != r and a[i][col] != 0:
                    factor = a[i][col]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
            pivots.append(col)
            r += 1
            if r == rows:
                break
        free = [c for c in range(cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * cols
            vec[fc] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -a[prow][fc]
            basis.append(vec)
        return basis
    import numpy as np
    a = np.array(matrix, dtype=complex if any(
        isinstance(x, complex) for row in matrix for x in row) else float)
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return [list(vh[i].conj()) for i in range(rank, cols)]
