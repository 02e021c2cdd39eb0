"""The exact simplex: the fraction-free integer tableau in momix.lp must
make exactly the pivots of the plain Fraction tableau it replaced, so its
status, basic solution and value equal those of the reference below on
generated programs, and the named textbook cases come out as expected.
Every infeasible answer carries multipliers that certify it; lexicographic
objectives in one tableau reach the values of the row-fixing cascade; and
the certificate re-check still raises under `python -O`."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from typing import List
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from momix import lp
from momix.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram

from conftest import certifies_program

# -- reference: the Fraction-tableau simplex, kept verbatim ---------------------


def _simplex(rows: List[List[Fraction]], rhs: List[Fraction], cost: List[Fraction]):
    """min cost . x  s.t. rows . x = rhs, x >= 0; exact, Bland's rule."""
    m = len(rows)
    n = len(cost)
    # Normalize rhs >= 0.
    a = []
    b = []
    for row, bi in zip(rows, rhs):
        if bi < 0:
            a.append([-v for v in row])
            b.append(-bi)
        else:
            a.append(list(row))
            b.append(bi)

    # Phase 1: artificial basis.
    width = n + m
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m

    def run(c_vec, allowed):
        # objective row in reduced form
        z = [Fraction(0)] * (width + 1)
        for j in range(width):
            z[j] = c_vec[j]
        z[width] = Fraction(0)
        for i, bv in enumerate(basis):
            coef = z[bv]
            if coef != 0:
                for j in range(width + 1):
                    z[j] -= coef * tab[i][j]
        while True:
            enter = None
            for j in range(width):
                if j in allowed and z[j] < 0:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL, -z[width]
            leave = None
            best = None
            for i in range(m):
                coeff = tab[i][enter]
                if coeff > 0:
                    ratio = tab[i][width] / coeff
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return UNBOUNDED, None
            _pivot(tab, z, basis, leave, enter, width)

    struct_cols = set(range(n))
    all_cols = set(range(width))
    status, value = run(phase1, all_cols)
    if status != OPTIMAL:  # phase 1 is bounded below by 0, cannot be unbounded
        return status, None, None
    if value != 0:
        return INFEASIBLE, None, None

    # Drive artificial variables out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is not None:
                _pivot(tab, None, basis, i, enter, width)
            # else: redundant row, artificial stays basic at value 0

    status, value = run([c for c in cost] + [Fraction(0)] * m, struct_cols)
    if status != OPTIMAL:
        return status, None, None
    solution = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            solution[bv] = tab[i][width]
    return OPTIMAL, solution, value


def _pivot(tab, z, basis, row, col, width):
    piv = tab[row][col]
    inv = Fraction(1) / piv
    tab[row] = [v * inv for v in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [v - factor * p for v, p in zip(tab[i], tab[row])]
    if z is not None and z[col] != 0:
        factor = z[col]
        for j in range(width + 1):
            z[j] -= factor * tab[row][j]
    basis[row] = col


def reference_solve(program, objective, maximize=False):
    """LinearProgram.solve with the reference simplex under it (which
    returns no certificate)."""
    def fraction_simplex(rows, rhs, cost):
        return (*_simplex([[Fraction(v) for v in row] for row in rows],
                          [Fraction(b) for b in rhs], [Fraction(c) for c in cost]), None)
    with mock.patch.object(lp, "_simplex", fraction_simplex):
        return program.solve(objective, maximize=maximize)


# -- generated programs -----------------------------------------------------------

denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12])
rationals = st.builds(Fraction, st.integers(min_value=-5, max_value=5), denominators)
entries = st.one_of(st.just(Fraction(0)), rationals)
nonneg = st.builds(Fraction, st.integers(min_value=0, max_value=5), denominators)
nonzero = rationals.filter(bool)


@st.composite
def standard_forms(draw):
    """(rows, rhs, cost) with mixed denominators and rhs of either sign,
    sometimes feasible by construction from a sparse point (so ratio ties
    at 0 are common), sometimes with a redundant row (its artificial stays
    basic), sometimes bounded by a capacity row, and sometimes with a zero
    cost, where the basis phase 1 ends in is the answer."""
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.one_of(st.just(Fraction(0)), nonneg), min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        k = draw(nonzero)
        rows.append([k * v for v in rows[i]])
        rhs.append(k * rhs[i])
    if draw(st.booleans()):
        rows = [row + [Fraction(0)] for row in rows] + [[Fraction(1)] * (n + 1)]
        rhs.append(draw(nonneg))
        n += 1
    if draw(st.booleans()):
        cost = [Fraction(0)] * n
    else:
        cost = draw(st.lists(entries, min_size=n, max_size=n))
    return rows, rhs, cost


def certifies(rows, rhs, y):
    """y.A <= 0 on every column and y.b > 0: no x >= 0 has A x = b."""
    n = len(rows[0]) if rows else 0
    return (len(y) == len(rows)
            and all(sum(v * row[j] for v, row in zip(y, rows)) <= 0 for j in range(n))
            and sum(v * b for v, b in zip(y, rhs)) > 0)


def standard_form(rows, rhs, cost):
    """A `standard_forms` case, its ints made Fractions."""
    return ([[Fraction(v) for v in row] for row in rows], [Fraction(b) for b in rhs],
            [Fraction(c) for c in cost])


@given(standard_forms())
# the last row is -1 times the first, so its artificial stays basic after
# phase 1; phase 2 then breaks a ratio tie at 0 between the two middle rows
@example(standard_form([[0, 0, Fraction(3, 2), 0], [1, Fraction(-3, 4), 0, 0],
                        [0, Fraction(1, 2), 0, 4], [0, 0, Fraction(-3, 2), 0]],
                       [Fraction(9, 2), 0, 0, Fraction(-9, 2)], [-1, 1, 0, -2]))
# an all-zero cost: the basis phase 1 ends in is the answer
@example(standard_form([[Fraction(-1, 3), Fraction(-1, 4), Fraction(2, 5)],
                        [0, Fraction(4, 3), 2]], [Fraction(13, 45), 2], [0, 0, 0]))
# pivots that rescale a row with a zero multiplier, as piv != det (the
# objective row's multiplier is never 0: its entering column costs < 0)
@example(standard_form([[Fraction(-1, 2), 0], [0, Fraction(-5, 3)], [-1, 0]],
                       [Fraction(-3, 2), Fraction(-10, 3), -3], [0, Fraction(1, 4)]))
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_fraction_tableau(problem):
    rows, rhs, cost = problem
    expected = _simplex([list(r) for r in rows], list(rhs), list(cost))
    status, solution, value, farkas = lp._simplex([list(r) for r in rows], list(rhs), list(cost))
    assert (status, solution, value) == expected
    assert (farkas is not None) == (status == INFEASIBLE)
    assert farkas is None or certifies(rows, rhs, farkas)


@st.composite
def programs(draw):
    """A LinearProgram with shifted and upper-bounded variables, <=, >= and
    == rows, and an objective to minimize or maximize."""
    program = LinearProgram()
    names = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        lo = draw(st.one_of(st.just(Fraction(0)), rationals))
        hi = draw(st.one_of(st.none(), nonneg))
        names.append(program.var(f"x{i}", lo=lo, hi=None if hi is None else lo + hi))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = draw(st.dictionaries(st.sampled_from(names), entries, min_size=1))
        program.constrain(coeffs, draw(st.sampled_from(["<=", ">=", "=="])), draw(rationals))
    objective = draw(st.dictionaries(st.sampled_from(names), rationals))
    return program, objective, draw(st.booleans())


@given(programs())
@settings(max_examples=200, deadline=None)
def test_solve_matches_reference(case):
    program, objective, maximize = case
    result = program.solve(objective, maximize=maximize)
    assert result == reference_solve(program, objective, maximize)
    assert all(type(v) is Fraction for v in result.values.values())
    assert (result.farkas is not None) == (result.status == INFEASIBLE)
    assert result.farkas is None or certifies_program(program, result.farkas)


def cascade(program, objectives, maximize):
    """The row-fixing reference for lexicographic objectives: solve for each
    objective in turn on a copy, then fix its optimum by an equality row."""
    copy = LinearProgram()
    copy._vars, copy._index = list(program._vars), dict(program._index)
    copy._constraints = list(program._constraints)
    for objective in objectives:
        result = copy.solve(objective, maximize=maximize)
        if not result.ok:
            return result.status, None
        copy.constrain(objective, "==", result.objective)
    return OPTIMAL, result


def values_of(objectives, values):
    return [sum((Fraction(c) * values[name] for name, c in objective.items()), Fraction(0))
            for objective in objectives]


@given(programs(), st.lists(st.dictionaries(st.sampled_from(["x0", "x1", "x2", "x3"]),
                                            rationals), max_size=3))
@settings(max_examples=300, deadline=None)
def test_lexicographic_objectives_match_the_row_fixing_cascade(case, more):
    """One tableau reaches the cascade's value in every objective, within
    the variables' lower bounds."""
    program, objective, maximize = case
    more = [{k: v for k, v in obj.items() if k in program._index} for obj in more]
    objectives = [objective] + more
    result = program.solve(*objectives, maximize=maximize)
    status, reference = cascade(program, objectives, maximize)
    assert result.status == status
    if status == OPTIMAL:
        assert values_of(objectives, result.values) == values_of(objectives, reference.values)
        assert result.objective == values_of(objectives, result.values)[0]
        assert all(result.values[name] >= lo for name, lo, _hi in program._vars
                   if lo is not None)


def test_lexicographic_minimum_on_a_face():
    """min -x - y on the square [0, 1]^2 cut by x + y <= 3/2 leaves the edge
    x + y = 3/2; minimizing x on it, then y, picks (1/2, 1)."""
    p = LinearProgram()
    x, y = p.var("x", hi=1), p.var("y", hi=1)
    p.constrain({x: 1, y: 1}, "<=", Fraction(3, 2))
    result = p.solve({x: -1, y: -1}, {x: 1}, {y: 1})
    assert result.values == {"x": Fraction(1, 2), "y": 1}
    assert result.objective == Fraction(-3, 2)
    result = p.solve({x: -1, y: -1}, {y: 1})
    assert result.values == {"x": 1, "y": Fraction(1, 2)}


# -- named cases ----------------------------------------------------------------


def solved(program, objective, maximize=False):
    result = program.solve(objective, maximize=maximize)
    assert result == reference_solve(program, objective, maximize)
    return result


def test_infeasible():
    p = LinearProgram()
    x = p.var("x")
    p.constrain({x: 1}, ">=", Fraction(1, 2))
    p.constrain({x: 2}, "<=", Fraction(1, 3))
    result = solved(p, {x: 1})
    assert result.status == INFEASIBLE
    assert result.farkas == (2, -1)  # 2 (x >= 1/2) - (2x <= 1/3): 0 >= 2/3
    assert certifies_program(p, result.farkas)


def test_unbounded():
    p = LinearProgram()
    x, y = p.var("x"), p.var("y")
    p.constrain({x: 1, y: -1}, "<=", 1)
    result = solved(p, {x: 1}, maximize=True)
    assert result.status == UNBOUNDED and result.objective is None


def test_beale_cycling_example_terminates():
    """Beale (1955): the textbook rule cycles on it; Bland's rule may not."""
    p = LinearProgram()
    x4, x5, x6, x7 = (p.var(n) for n in ("x4", "x5", "x6", "x7"))
    p.constrain({x4: Fraction(1, 4), x5: -8, x6: -1, x7: 9}, "<=", 0)
    p.constrain({x4: Fraction(1, 2), x5: -12, x6: Fraction(-1, 2), x7: 3}, "<=", 0)
    p.constrain({x6: 1}, "<=", 1)
    result = solved(p, {x4: Fraction(-3, 4), x5: 20, x6: Fraction(-1, 2), x7: 6})
    assert result.status == OPTIMAL and result.objective == Fraction(-5, 4)
    assert result.values == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}


def test_free_variables():
    """A free x is two adjacent columns, x = x+ - x-, the standard form the
    layer once built for a free variable itself."""
    p = LinearProgram()
    x, x_, y, y_ = (p.var(name) for name in ("x+", "x-", "y+", "y-"))
    p.constrain({x: 1, x_: -1, y: 1, y_: -1}, "==", 1)
    p.constrain({x: 1, x_: -1, y: -1, y_: 1}, "<=", Fraction(1, 2))
    result = solved(p, {y: 1, y_: -1})
    values = result.values
    assert (values["x+"] - values["x-"], values["y+"] - values["y-"]) == (Fraction(3, 4),
                                                                          Fraction(1, 4))
    assert result.objective == Fraction(1, 4)


def test_upper_and_shifted_bounds():
    p = LinearProgram()
    x = p.var("x", lo=Fraction(-1, 3), hi=Fraction(5, 2))
    assert solved(p, {x: 1}, maximize=True).values == {"x": Fraction(5, 2)}
    assert solved(p, {x: 1}).values == {"x": Fraction(-1, 3)}


def test_redundant_row_keeps_its_artificial():
    p = LinearProgram()
    x, y = p.var("x"), p.var("y")
    p.constrain({x: 1, y: Fraction(1, 2)}, "==", 1)
    p.constrain({x: -3, y: Fraction(-3, 2)}, "==", -3)
    result = solved(p, {x: 1, y: 1})
    assert result.values == {"x": 1, "y": 0} and result.objective == 1


def test_phase_one_weighs_artificials_as_the_unscaled_rows():
    """The rows scale to integers by 180 and 3.  Unit artificials that each
    cost 1, or artificials scaled with their rows and each costing 1, end
    phase 1 at the vertex (1/3, 0, 1) instead."""
    rows = [[Fraction(-1, 3), Fraction(-1, 4), Fraction(2, 5)],
            [Fraction(0), Fraction(4, 3), Fraction(2)]]
    rhs = [Fraction(13, 45), Fraction(2)]
    expected = (OPTIMAL, [0, Fraction(20, 93), Fraction(239, 279)], 0)
    assert _simplex([list(r) for r in rows], list(rhs), [Fraction(0)] * 3) == expected
    assert lp._simplex(rows, rhs, [Fraction(0)] * 3) == (*expected, None)


def test_ratio_ties_go_to_the_smallest_basic_index():
    rows = [[Fraction(3, 5), Fraction(-3, 4), Fraction(0), Fraction(-1, 2)],
            [Fraction(-1), Fraction(-4, 5), Fraction(-1), Fraction(0)]]
    rhs = [Fraction(-9, 16), Fraction(-3, 5)]
    cost = [Fraction(0), Fraction(1, 5), Fraction(0), Fraction(0)]
    expected = (OPTIMAL, [Fraction(3, 5), 0, 0, Fraction(369, 200)], 0)
    assert _simplex([list(r) for r in rows], list(rhs), list(cost)) == expected
    assert lp._simplex(rows, rhs, cost) == (*expected, None)


def test_unknown_objective_variable():
    p = LinearProgram()
    p.var("x")
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        p.solve({"y": 1})


def test_certificate_rechecks_run_under_optimize():
    """Multipliers that do not certify infeasibility, and a separating
    direction of `extreme_points` that peaks on a vertex already found,
    raise SelfCheckFailed, not an assert, so both checks hold under
    `python -O` too."""
    script = textwrap.dedent("""
        from fractions import Fraction
        from momix import geometry, lp
        from momix.errors import SelfCheckFailed

        assert False, "asserts must be off"
        p = lp.LinearProgram()
        x = p.var("x")
        p.constrain({x: 1}, ">=", Fraction(1, 2))
        p.constrain({x: 2}, "<=", Fraction(1, 3))
        print(p.solve({x: 1}).farkas)
        farkas = lp._farkas
        lp._farkas = lambda start, scales, phase1, z, det: farkas(
            start, scales, phase1, [-v for v in z], det)
        try:
            p.solve({x: 1})
        except SelfCheckFailed as exc:
            print("raised:", exc)
        lp._farkas = farkas
        lp.LinearProgram.solve = lambda program, *objectives: lp.LpResult(
            lp.INFEASIBLE, None, {}, (0, 0, -1))
        try:
            geometry.extreme_points([(0, 0), (1, 0), (0, 1)])
        except SelfCheckFailed as exc:
            print("raised:", exc)
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "(2, -1)", "raised: the phase-1 multipliers do not certify infeasibility",
        "raised: the separating direction peaks on a vertex already found"]
