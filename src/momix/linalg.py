"""Exact rational linear algebra.

A square system A X = B is solved in two steps.  :func:`factor` runs
fraction-free (Bareiss) elimination on A's integer rows, each row i of A
scaled by a positive integer s_i, and records every step.  :func:`solve_linear`
replays the recorded steps on a batch of right-hand sides and back-substitutes,
in O(n^2) per right-hand side, so a matrix that meets several batches is
eliminated once.  A batch, scaled by the same s_i, goes over one common
denominator apart from the matrix, so its denominators never enter the matrix
minors.  All pivots are exact, so there is no tolerance policy anywhere; a
singular matrix raises :class:`SingularSystem` when it is factored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import List, NamedTuple, Sequence

from .errors import SingularSystem


class Factor(NamedTuple):
    """The recorded Bareiss elimination of one integer matrix: the row
    scales and, per pivot column k, (the row swapped into row k, the
    previous pivot, the entries below the pivot that step k eliminates, row
    k from column k on)."""
    scales: Sequence[int]
    steps: list


def factor(rows: List[List[int]], scales: Sequence[int]) -> Factor:
    """Bareiss elimination (Math. Comp. 22, 1968) of the square integer
    matrix `rows`, row i being row i of A times scales[i] > 0.  Step k only
    rewrites the columns right of pivot k; every entry it leaves below the
    pivot row is a (k+1)-minor, so dividing by the previous pivot is exact.
    The pivot is the first nonzero entry of its column at or below the
    diagonal.  Raises SingularSystem at the first column without one."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("factor expects a square system")
    rows, steps, prev = list(rows), [], 1  # row i holds its columns from the current one on
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][0] != 0), None)
        if pivot is None:
            raise SingularSystem("the system matrix is singular")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        akk, right, below = top[0], top[1:], [row[0] for row in rows[k + 1:]]
        rows[k + 1:] = [[(akk * v - m * p) // prev for v, p in zip(islice(row, 1, None), right)]
                        for row, m in zip(rows[k + 1:], below)]
        steps.append((pivot, prev, below, top))
        prev = akk
    return Factor(scales, steps)


def solve_linear(factored: Factor, rhs: Sequence[tuple]) -> List[tuple]:
    """Solve A X = B for the factored A.  `rhs[i]` is the tuple of row i's
    entries of every right-hand side, and the solution gives row i's values
    as a tuple in the same order.  Each right-hand side, times the row
    scales, goes over its own common denominator D, c = D s b, and takes the
    elimination's steps; then det * D * x is an integer vector (Cramer), so
    back-substitution stays exact."""
    n, steps = len(factored.steps), factored.steps
    width = len(rhs[0]) if rhs else 0
    if len(rhs) != n or any(len(b) != width for b in rhs):
        raise ValueError("solve_linear expects one right-hand side row of equal length "
                         "per row of a square system")
    det = steps[-1][3][0] if steps else 1
    solutions = []
    for column in zip(*rhs):
        common = lcm(*(b.denominator for b in column))
        c = [b.numerator * s * (common // b.denominator) for b, s in zip(column, factored.scales)]
        for k, (pivot, prev, below, top) in enumerate(steps):
            c[k], c[pivot] = c[pivot], c[k]
            akk, ck = top[0], c[k]
            c[k + 1:] = [(akk * v - m * ck) // prev for v, m in zip(islice(c, k + 1, None), below)]
        num = [0] * n
        for i in reversed(range(n)):
            top = steps[i][3]
            num[i] = (det * c[i] - sum(map(int.__mul__, islice(top, 1, None),
                                           islice(num, i + 1, None)))) // top[0]
        solutions.append([Fraction(v, det * common) for v in num])
    return list(zip(*solutions)) if solutions else [()] * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
