"""Exact rational linear algebra.

Matrices are lists of lists of Fractions.  :func:`solve_linear` runs
fraction-free (Bareiss) elimination on integer rows (scaled by
:func:`momix.rationals.integer_row`).  It puts each right-hand side over one
common denominator apart from the matrix, so its denominators never enter
the matrix minors, and solves several right-hand sides with one
elimination.  All pivots are exact, so there is no tolerance policy
anywhere; a singular system raises :class:`SingularSystem`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import SingularSystem
from .rationals import integer_row


def _bareiss(a: List[List[int]], ncols: int) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    first ncols columns of the integer rows a to row echelon form, in place:
    every entry below the pivot row after step k is a (k+1)-minor, so
    dividing by the previous pivot is exact.  The pivot is the first nonzero
    entry of its column at or below the diagonal.  Returns the signed last
    pivot, det(a) for a square a, or 0 at the first column without a
    pivot."""
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(col, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        akk = top[col]
        for i in range(col + 1, len(a)):
            aik = a[i][col]
            a[i] = [(akk * v - aik * p) // prev for v, p in zip(a[i], top)]
        prev = akk
    return sign * prev


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[tuple]) -> List[tuple]:
    """Solve A X = B exactly for square A by Bareiss elimination on [A' | C]:
    A' is A with each row scaled by the lcm of that row's denominators, and
    each right-hand side, scaled by the same row factors, goes over its own
    common denominator D, so that A' x = c / D.  The minors of A' stay as
    small as A's own entries allow; large numbers in B reach only the
    right-hand columns.

    `rhs[i]` is the tuple of row i's entries of every right-hand side, and
    the solution gives row i's values as a tuple in the same order: each
    further right-hand side is one more column of the same elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    rows = [integer_row(row) for row in matrix]
    columns = [integer_row([b * scale for (_ints, scale), b in zip(rows, column)])
               for column in zip(*rhs)]
    a = [[*ints, *(c[i] for c, _common in columns)] for i, (ints, _scale) in enumerate(rows)]
    det = _bareiss(a, n)
    if det == 0:
        raise SingularSystem("the system matrix is singular")
    # Cramer: det * D * x is an integer vector, so back-substitution stays exact.
    solutions = []
    for col, (_c, common) in enumerate(columns, start=n):
        num = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            num[i] = (det * row[col] - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
        solutions.append([Fraction(v, det * common) for v in num])
    return list(zip(*solutions))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
