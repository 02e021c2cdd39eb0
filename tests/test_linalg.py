"""Exact linear solves: solutions satisfy the system exactly, pivoting
handles zero leading entries, and bad systems raise the documented errors.
Cofactor vectors are orthogonal to their rows and vanish exactly on
dependent rows."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from momix.errors import SingularSystem
from momix.linalg import cofactor_vector, matrix_rank, solve_linear

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    matrix = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        matrix[0][0] = Fraction(0)  # the first pivot must come from a later row
    rhs = draw(st.lists(rationals, min_size=n, max_size=n))
    return matrix, rhs


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solution_satisfies_system_exactly(system):
    matrix, rhs = system
    assume(matrix_rank(matrix) == len(matrix))
    x = solve_linear(matrix, rhs)
    assert all(isinstance(v, Fraction) for v in x)
    assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in matrix] == rhs


def test_zero_leading_entries_need_row_swaps():
    matrix = [[0, 0, 1], [0, Fraction(1, 3), 1], [2, 0, Fraction(-1, 2)]]
    assert solve_linear(matrix, [1, 2, 3]) == [Fraction(7, 4), 3, 1]


def test_empty_system():
    assert solve_linear([], []) == []


@given(systems(), st.data())
@settings(max_examples=50, deadline=None)
def test_dependent_rows_are_singular(system, data):
    matrix, rhs = system
    assume(len(matrix) >= 2)
    i, j = data.draw(st.permutations(range(len(matrix))))[:2]
    k = data.draw(rationals)
    matrix[i] = [k * v for v in matrix[j]]
    with pytest.raises(SingularSystem):
        solve_linear(matrix, rhs)


@pytest.mark.parametrize("matrix, rhs", [
    ([[1, 2]], [1]),
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0]], [1, 1]),
])
def test_non_square_system_is_rejected(matrix, rhs):
    with pytest.raises(ValueError, match="square"):
        solve_linear(matrix, rhs)


@st.composite
def wide_integer_matrices(draw):
    """m - 1 integer rows of length m, often dependent."""
    m = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)) for _ in range(m - 1)]
    if m >= 3 and draw(st.booleans()):
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return rows


@given(wide_integer_matrices())
@settings(max_examples=200, deadline=None)
def test_cofactor_vector_is_orthogonal_and_vanishes_on_dependent_rows(rows):
    z = cofactor_vector(rows)
    assert len(z) == len(rows) + 1
    assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in rows)
    assert any(z) == (matrix_rank(rows) == len(rows))


def test_cofactor_vector_is_the_cross_product():
    assert cofactor_vector([[1, 2, 3], [4, 5, 6]]) == [-3, 6, -3]
    assert cofactor_vector([]) == [1]
