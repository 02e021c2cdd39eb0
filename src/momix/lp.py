"""A small exact linear-programming layer over the rationals.

Two-phase primal simplex with Bland's rule: entering and leaving choices are
index-minimal, so solves terminate and are fully deterministic.  The
tableau is fraction-free (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math.
Comp. 22, 1968): integers over one common denominator, the basis
determinant, updated by exact integer division by the previous pivot.  It
stands for the same rational tableau a Fraction simplex holds, up to
positive scale factors that change no sign and no ratio-test order, so the
pivot sequence, the basic solution and the value are exactly those of the
plain rational simplex.  Intended for the tiny, possibly degenerate
programs of the geometry module (dimensions <= ~6, tens of variables), not
for scale.

Lexicographic objectives (Isermann, OR Spektrum 4, 1982) share one tableau:
after each objective only columns with zero reduced cost under every earlier
one may enter, so the search stays on the optimal face and a cascade of
objectives costs one phase 1.  Phase 2 runs on the structural columns only
and builds Fractions only for nonzero basic values.  An infeasible program
comes back with row multipliers y read off the final phase-1 tableau (a
Farkas certificate): y.A <= 0 on every standard-form column, slacks
included, and y.b > 0.  They are re-checked with exact integers before they
are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import SelfCheckFailed
from .rationals import integer_row

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """`objective` is the value of the first objective.  `farkas` is set
    when the program is infeasible: integer multipliers y, one per row (the
    constraints in order, then one `x <= hi` row per upper-bounded variable
    in declaration order), with y <= 0 on `<=` rows and y >= 0 on `>=` rows,
    y.A <= 0 on every variable's column and y.(b - A lo) > 0, so no
    x >= lo satisfies the rows.  Any certificate will do, so results
    compare without it."""

    status: str
    objective: Optional[Fraction]
    values: Dict[str, Fraction]
    farkas: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL

    def __getitem__(self, name):
        return self.values[name]


class LinearProgram:
    """Incremental model: named variables with bounds, linear constraints."""

    def __init__(self):
        self._vars: List[Tuple[str, Fraction, Optional[Fraction]]] = []
        self._index: Dict[str, int] = {}
        self._constraints: List[Tuple[Dict[str, Fraction], str, Fraction]] = []

    def var(self, name: str, lo=0, hi=None) -> str:
        """Declare a variable x with lo <= x, and x <= hi unless hi is None.
        The rational `lo` is required: no variable is free, so each is one
        non-negative standard-form column, x - lo."""
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._vars)
        self._vars.append((name, Fraction(lo), None if hi is None else Fraction(hi)))
        return name

    def constrain(self, coeffs: Mapping[str, Fraction], sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        for name in coeffs:
            if name not in self._index:
                raise ValueError(f"unknown variable {name!r}")
        self._constraints.append(({k: _rational(v) for k, v in coeffs.items()},
                                  sense, _rational(rhs)))

    def solve(self, objective: Mapping[str, Fraction], *tiebreaks: Mapping[str, Fraction],
              maximize: bool = False) -> LpResult:
        """Optimize `objective`, then each of `tiebreaks` in turn on the
        optimal face of those before it, in one tableau; returns OPTIMAL with
        a basic solution, INFEASIBLE with a Farkas certificate, or UNBOUNDED."""
        objectives = (objective,) + tiebreaks
        for name in (name for obj in objectives for name in obj):
            if name not in self._index:
                raise ValueError(f"unknown variable {name!r}")
        # Each model variable x is one standard-form column x - lo >= 0; an
        # upper bound becomes an extra row.  Zero entries stay ints.
        constraints = self._constraints + [({name: 1}, "<=", hi)
                                           for name, _lo, hi in self._vars if hi is not None]
        n = len(self._vars)
        total = n + sum(1 for _c, sense, _b in constraints if sense != "==")
        rows: List[list] = []
        rhs: List[Fraction] = []
        slack = n
        for coeffs, sense, b in constraints:
            row = [0] * total
            for name, coef in coeffs.items():
                row[self._index[name]] = coef
                lo = self._vars[self._index[name]][1]
                if lo:
                    b -= coef * lo
            if sense != "==":
                row[slack] = 1 if sense == "<=" else -1
                slack += 1
            rows.append(row)
            rhs.append(b)

        costs = []
        for obj in objectives:
            cost: list = [0] * total
            for name, coef in obj.items():
                cost[self._index[name]] = -_rational(coef) if maximize else _rational(coef)
            costs.append(cost)

        status, solution, farkas = _simplex(rows, rhs, *costs)
        if status != OPTIMAL:
            return LpResult(status, None, {}, farkas)

        values = {name: x + lo if lo else (x or Fraction(0))
                  for x, (name, lo, _hi) in zip(solution, self._vars)}
        obj = sum((_rational(c) * values[name] for name, c in objective.items()), Fraction(0))
        return LpResult(OPTIMAL, obj, values)


def _rational(value):
    """An int or Fraction as it is, anything else as a Fraction."""
    return value if type(value) in (int, Fraction) else Fraction(value)


def _simplex(rows: List[list], rhs: List[Fraction], cost: list, *tiebreaks: list):
    """min cost . x, then each of `tiebreaks` on the optimal face of those
    before it, s.t. rows . x = rhs, x >= 0; exact, Bland's rule.  Returns
    (status, solution, Farkas multipliers when infeasible); the solution is
    None unless the status is OPTIMAL.

    Entries are Fractions or ints.  Row i is scaled to integers by s_i (the
    lcm of its denominators, negated when its rhs is negative) but keeps a
    unit artificial, which so stands for s_i times the unscaled row's
    artificial and costs 1/s_i (times lcm(s)) in phase 1.  The rational
    tableau is T / det: integers T over the basis determinant det > 0."""
    m = len(rows)
    n = len(cost)
    width = n + m
    tab = []
    scales = []
    for i, (row, bi) in enumerate(zip(rows, rhs)):
        ints, s = integer_row([*row, bi])
        if bi < 0:
            ints = [-v for v in ints]
            s = -s
        scales.append(s)
        tab.append(ints[:n] + [int(j == i) for j in range(m)] + ints[n:])
    start = [row[:n] + row[width:] for row in tab]
    basis = [n + i for i in range(m)]
    det = 1

    def pivot(r, c, z):
        nonlocal det
        pr = tab[r]
        piv = pr[c]

        def eliminate(row):  # a row with multiplier 0 only rescales, unless piv == det
            f = row[c]
            if f:
                return [(piv * v - f * p) // det for v, p in zip(row, pr)]
            return row if piv == det else [piv * v // det for v in row]
        tab[:] = [row if i == r else eliminate(row) for i, row in enumerate(tab)]
        if z is not None:
            z[:] = eliminate(z)
        if piv < 0:  # only an artificial drive-out pivots on a negative entry
            piv = -piv
            tab[:] = [[-v for v in row] for row in tab]
        det = piv
        basis[r] = c

    def run(c_vec, allowed):
        """Minimize, entering only the columns in `allowed` (ascending);
        returns the status and det * z."""
        z = [det * c for c in c_vec] + [0]
        for i, bv in enumerate(basis):
            if bv < len(c_vec) and c_vec[bv]:  # a redundant row's artificial costs 0
                z = [v - c_vec[bv] * t for v, t in zip(z, tab[i])]
        while True:
            for enter in allowed:
                if z[enter] < 0:
                    break
            else:
                return OPTIMAL, z
            leave = None
            for i, row in enumerate(tab):  # ratios compared by cross-multiplication
                a = row[enter]  # ties go to the smallest basic index
                if a > 0 and (leave is None or (row[-1] * den, basis[i]) < (num * a, basis[leave])):
                    leave, num, den = i, row[-1], a
            if leave is None:
                return UNBOUNDED, None
            pivot(leave, enter, z)

    scale = lcm(*scales)
    phase1 = [0] * n + [scale // abs(s) for s in scales]
    z = run(phase1, range(width))[1]  # phase 1 is bounded below by 0, so it ends optimal
    if z[width] != 0:
        return INFEASIBLE, None, _farkas(start, scales, phase1, z, det)

    # Phase 2 never enters an artificial: drop their columns, then drive the
    # artificials out of the basis where possible.
    tab[:] = [row[:n] + row[width:] for row in tab]
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is not None:
                pivot(i, enter, None)
            # else: redundant row, artificial stays basic at value 0

    allowed = range(n)
    for c in (cost,) + tiebreaks:
        if not any(c):  # every basis is optimal, and every column keeps a zero reduced cost
            continue
        status, z = run(integer_row(c)[0], allowed)
        if status != OPTIMAL:
            return status, None, None
        # the optimal face: columns with a positive reduced cost stay at 0
        allowed = [j for j in allowed if z[j] == 0]
    solution = [0] * n
    for i, bv in enumerate(basis):
        if bv < n and tab[i][-1]:
            solution[bv] = Fraction(tab[i][-1], det)
    return OPTIMAL, solution, None


def _farkas(start, scales, phase1, z, det) -> Tuple[int, ...]:
    """Multipliers y of the unscaled rows with y.A <= 0 on every column and
    y.b > 0, from the optimal phase-1 reduced costs z (times det): the
    artificial of row i has reduced cost phase1_i - y'_i, where y' weighs
    the rows as scaled in `start` (integer columns, then the rhs)."""
    m = len(scales)
    n = len(start[0]) - 1
    scaled = [det * phase1[n + i] - z[n + i] for i in range(m)]  # det * y'
    combined = [sum(y * row[j] for y, row in zip(scaled, start)) for j in range(n + 1)]
    if any(v > 0 for v in combined[:n]) or combined[n] <= 0:
        raise SelfCheckFailed("the phase-1 multipliers do not certify infeasibility")
    y = [v * s for v, s in zip(scaled, scales)]
    g = gcd(*y)
    return tuple(v // g for v in y)
