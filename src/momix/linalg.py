"""Exact rational linear algebra.

Matrices are lists of lists of Fractions.  :func:`solve_linear` and
:func:`cofactor_vector` run fraction-free (Bareiss) elimination on integer
rows (scaled by :func:`momix.rationals.integer_row`); :func:`solve_linear`
puts the right-hand side over one common denominator apart from the
matrix, so its denominators never enter the matrix minors; :func:`rref` is
Gauss-Jordan elimination over Fraction.  All pivots are exact, so there is
no tolerance policy anywhere; a singular system raises
:class:`SingularSystem`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import SingularSystem
from .rationals import integer_row


def _bareiss(a: List[List[int]], n: int) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    first n columns of the integer rows a, in place: every entry after step
    k is a (k+1)-minor, so dividing by the previous pivot is exact.  The
    pivot is the first nonzero entry of its column.  Returns the determinant
    of the leading n x n block, 0 (and a half-eliminated a) if singular."""
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        akk = top[col]
        for r in range(col + 1, n):
            ark = a[r][col]
            a[r] = [(akk * v - ark * p) // prev for v, p in zip(a[r], top)]
        prev = akk
    return sign * prev


def cofactor_vector(rows: Sequence[Sequence[int]]) -> List[int]:
    """For m - 1 integer rows of length m: z_t = (-1)^t times the minor with
    column t deleted (the generalized cross product).  Every row is
    orthogonal to z, and z = 0 exactly when the rows are dependent."""
    m = len(rows) + 1
    z = []
    for t in range(m):
        det = _bareiss([row[:t] + row[t + 1:] for row in rows], m - 1)
        z.append(-det if t % 2 else det)
    return z


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve A x = b exactly for square A by Bareiss elimination on [A' | c]:
    A' is A with each row scaled by the lcm of that row's denominators, and
    the right-hand side, scaled by the same row factors, goes over one
    common denominator D, so that A' x = c / D.  The minors of A' stay as
    small as A's own entries allow; large numbers in b reach only the
    right-hand column."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    rows = [integer_row(row) for row in matrix]
    c, common = integer_row([b * scale for (_ints, scale), b in zip(rows, rhs)])
    a = [[*ints, v] for (ints, _scale), v in zip(rows, c)]
    det = _bareiss(a, n)
    if det == 0:
        raise SingularSystem("the system matrix is singular")
    # Cramer: det * D * x is an integer vector, so back-substitution stays exact.
    num = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        num[i] = (det * row[n] - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, det * common) for v in num]


def rref(matrix: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of {x : A x = 0}, deterministic (free variables in column order)."""
    if not matrix:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    if not matrix:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
