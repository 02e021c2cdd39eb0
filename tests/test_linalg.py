"""Exact linear solves: solutions satisfy the system exactly, pivoting
handles zero leading entries, bad systems raise the documented errors,
scaling the right-hand side apart from the matrix returns the same
Fractions as scaling whole [A | b] rows, and one factor replayed on several
batches of right-hand sides returns what the dense solve of each batch does.

Strategies are built once, at module level, one per size: building them
inside a draw costs more than the solves."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from momix.errors import SingularSystem
from momix.linalg import solve_linear
from momix.rationals import integer_row

from conftest import dense_bareiss, dense_solve_linear, factor_rows, fraction_rref, solve_column

# st.fractions(min_value=-4, max_value=4, max_denominator=12), drawing the
# same examples, with each denominator's numerator strategy built once
# instead of once per draw
NUMERATORS = {d: st.builds(Fraction, st.integers(-4 * d, 4 * d), st.just(d)) for d in range(1, 13)}
rationals = st.integers(1, 12).flatmap(NUMERATORS.__getitem__).map(
    lambda f: f.limit_denominator(12))
# right-hand sides like exact hitting probabilities: numerators and
# denominators of 300 bits and more
wide_rationals = st.builds(Fraction, st.integers(-2 ** 320, 2 ** 320),
                           st.integers(2 ** 300, 2 ** 330))
SIZES = range(1, 7)
ROWS = {n: st.lists(rationals, min_size=n, max_size=n) for n in SIZES}
WIDE_ROWS = {n: st.lists(st.one_of(rationals, wide_rationals), min_size=n, max_size=n)
             for n in SIZES}
ORDERS = {n: st.permutations(range(n)) for n in SIZES}
SIZE, FLAG = st.integers(min_value=1, max_value=6), st.booleans()
COUNT, MORE = st.integers(1, 3), st.integers(1, 2)


@st.composite
def systems(draw):
    n = draw(SIZE)
    matrix = [draw(ROWS[n]) for _ in range(n)]
    if draw(FLAG):
        matrix[0][0] = Fraction(0)  # the first pivot must come from a later row
    rhs = draw(ROWS[n])
    return matrix, rhs


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solution_satisfies_system_exactly(system):
    matrix, rhs = system
    assume(len(fraction_rref(matrix)[1]) == len(matrix))
    x = solve_column(matrix, rhs)
    assert all(isinstance(v, Fraction) for v in x)
    assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in matrix] == rhs


def _row_scaled_solve(matrix, rhs):
    """The solve that scaled each row of [A | b] by the lcm of all its
    denominators, kept as the reference."""
    n = len(matrix)
    a = [integer_row([*row, b])[0] for row, b in zip(matrix, rhs)]
    det = dense_bareiss(a, n)
    if det == 0:
        raise SingularSystem("the system matrix is singular")
    num = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        num[i] = (det * row[n] - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, det) for v in num]


@given(systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_common_denominator_rhs_equals_row_scaled_solve(system, data):
    matrix, rhs = system
    if data.draw(FLAG):
        rhs = data.draw(WIDE_ROWS[len(rhs)])
    try:
        expected = _row_scaled_solve(matrix, rhs)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            solve_column(matrix, rhs)
        return
    assert solve_column(matrix, rhs) == expected


@given(systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_several_right_hand_sides_equal_column_solves(system, data):
    """Tuples of right-hand sides, some with 300-bit denominators, give the
    tuples of the column-by-column solutions, and are singular exactly when
    one column is."""
    matrix, rhs = system
    n = len(rhs)
    columns = [rhs] + [data.draw(WIDE_ROWS[n]) for _ in range(data.draw(COUNT))]
    try:
        expected = [solve_column(matrix, column) for column in columns]
    except SingularSystem:
        with pytest.raises(SingularSystem):
            solve_linear(factor_rows(matrix), list(zip(*columns)))
        return
    assert solve_linear(factor_rows(matrix), list(zip(*columns))) == list(zip(*expected))


@given(systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_factor_replays_every_batch(system, data):
    """A matrix factored once and replayed on two or three batches of right-
    hand sides, some with 300-bit entries, gives for each batch the dense
    solve of [A | batch]; it is singular at factor time exactly when the
    dense solve is."""
    matrix, rhs = system
    n = len(rhs)
    batches = [list(zip(*[rhs] + [data.draw(WIDE_ROWS[n]) for _ in range(data.draw(COUNT) - 1)]))]
    batches += [list(zip(*[data.draw(WIDE_ROWS[n]) for _ in range(data.draw(COUNT))]))
                for _ in range(data.draw(MORE))]
    try:
        expected = [dense_solve_linear(matrix, batch) for batch in batches]
    except SingularSystem:
        with pytest.raises(SingularSystem):
            factor_rows(matrix)
        return
    factored = factor_rows(matrix)
    assert [solve_linear(factored, batch) for batch in batches] == expected


def test_wide_rhs_solves_exactly():
    """A 400-bit right-hand side leaves the solution exact."""
    big = Fraction(3 ** 250 + 1, 2 ** 400 - 593)
    matrix = [[Fraction(1), Fraction(-9, 20)], [Fraction(-1, 3), Fraction(1)]]
    rhs = [big, 1 - big]
    x = solve_column(matrix, rhs)
    assert x == _row_scaled_solve(matrix, rhs)
    assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in matrix] == rhs


def test_zero_leading_entries_need_row_swaps():
    matrix = [[0, 0, 1], [0, Fraction(1, 3), 1], [2, 0, Fraction(-1, 2)]]
    assert solve_column(matrix, [1, 2, 3]) == [Fraction(7, 4), 3, 1]


def test_empty_system():
    assert solve_column([], []) == []


@given(systems(), st.data())
@settings(max_examples=50, deadline=None)
def test_dependent_rows_are_singular(system, data):
    matrix, rhs = system
    assume(len(matrix) >= 2)
    i, j = data.draw(ORDERS[len(matrix)])[:2]
    k = data.draw(rationals)
    matrix[i] = [k * v for v in matrix[j]]
    with pytest.raises(SingularSystem):
        solve_column(matrix, rhs)


@pytest.mark.parametrize("matrix, rhs", [
    ([[1, 2]], [1]),
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0]], [1, 1]),
])
def test_non_square_system_is_rejected(matrix, rhs):
    with pytest.raises(ValueError, match="square"):
        solve_column(matrix, rhs)


def test_ragged_right_hand_sides_are_rejected():
    """Rows of the right-hand side with different lengths are an error, not
    a solve that drops the entries past the shortest row."""
    with pytest.raises(ValueError, match="equal length"):
        solve_linear(factor_rows([[1, 0], [0, 1]]), [(1, 2), (3,)])


def test_no_right_hand_sides_give_empty_rows():
    """A batch of zero right-hand sides solves to one empty tuple per row."""
    assert solve_linear(factor_rows([[2]]), [()]) == [()]
    assert solve_linear(factor_rows([[1, 1], [0, 3]]), [(), ()]) == [(), ()]
