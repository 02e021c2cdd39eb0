"""Exact geometry against brute-force oracles (simplex-free where possible),
the supporting normals against the kernel-basis construction and the
row-fixing cascade they replaced, the extreme points against one LP per
point, and the dominating decompositions' support, recombination and
domination on generated point sets."""

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import momix as mx
from momix import geometry
from momix.errors import NotDominated, NotInHull
from momix.geometry import Point, extreme_points, membership_combination
from momix.linalg import dot
from momix.lp import INFEASIBLE, LinearProgram
from momix.rationals import integer_row

from conftest import (cascade_lexmin_supporting_normal, certifies_program,
                      dense_lexmin_supporting_normal, fraction_nullspace, fraction_rref,
                      n_lp_extreme_points, positive_combination_relint)
from test_golden import POINT_MODELS, _point_pool


# -- brute-force oracles ----------------------------------------------------------------


def barycentric_member(q, simplex):
    """Exact membership of q in the hull of an affinely independent simplex,
    by solving the barycentric system directly."""
    d = len(q)
    k = len(simplex)
    matrix = [[simplex[i][j] for i in range(k)] for j in range(d)]
    matrix.append([Fraction(1)] * k)
    # least-squares-free: the system is (d+1) x k; solve via any square subsystem
    # after checking consistency by substitution over all rows.
    rows = [row + [rhs] for row, rhs in zip(matrix, list(q) + [Fraction(1)])]
    reduced, pivots = fraction_rref(rows)
    coeffs = [Fraction(0)] * k
    for r, p in enumerate(pivots):
        if p == k:  # pivot in the rhs column: inconsistent
            return None
        coeffs[p] = reduced[r][k]
    for row, rhs in zip(matrix, list(q) + [Fraction(1)]):
        if sum(c * x for c, x in zip(row, coeffs)) != rhs:
            return None
    if any(c < 0 for c in coeffs):
        return None
    return coeffs


def brute_force_in_hull(q, points):
    """Caratheodory oracle: q in conv(points) iff q is in the hull of some
    subset of at most d+1 points (checked by exact barycentric solves)."""
    d = len(q)
    for size in range(1, d + 2):
        for combo in itertools.combinations(points, size):
            dirs = [tuple(p[j] - combo[0][j] for j in range(d)) for p in combo[1:]]
            if dirs and len(fraction_rref(dirs)[1]) < len(dirs):
                continue  # affinely dependent subset; a smaller one covers it
            if barycentric_member(q, list(combo)) is not None:
                return True
    return False


def rational_cloud(rng, n, d, denom=8, span=5):
    return [tuple(Fraction(rng.randint(-span * denom, span * denom), denom)
                  for _ in range(d)) for _ in range(n)]


def _fractions(points):
    return [tuple(Fraction(x) for x in p) for p in points]


# -- membership / caratheodory ---------------------------------------------------------------


TRIANGLE = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
        (Fraction(3, 4), Fraction(3, 4))]

GATED_LINE = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(4)),
        (Fraction(1), Fraction(3)), (Fraction(7, 4), Fraction(9, 4)),
        (Fraction(37, 16), Fraction(27, 16))]


def test_membership_matches_bruteforce_random():
    rng = random.Random(12)
    for d in (2, 3):
        for _ in range(12):
            points = rational_cloud(rng, rng.randint(3, 8), d)
            queries = rational_cloud(rng, 4, d) + points[:2]
            for q in queries:
                assert (membership_combination(q, points) is not None) \
                    == brute_force_in_hull(q, points)


def test_caratheodory_centroid():
    centroid = tuple(sum(p[j] for p in TRIANGLE) / 3 for j in range(2))
    dec = mx.caratheodory(centroid, TRIANGLE)
    assert sorted(dec.indices) == [0, 1, 2]
    assert all(c == Fraction(1, 3) for c in dec.coefficients)
    assert dec.recombine(TRIANGLE) == centroid


def test_caratheodory_vertex():
    dec = mx.caratheodory(TRIANGLE[2], TRIANGLE)
    assert dec.indices == (2,) and dec.coefficients == (Fraction(1),)


def test_caratheodory_generic_point():
    q = (Fraction(1, 2), Fraction(1, 2))
    dec = mx.caratheodory(q, TRIANGLE)
    assert dec.support_size <= 3
    assert dec.recombine(TRIANGLE) == q
    assert sum(dec.coefficients) == 1 and all(c > 0 for c in dec.coefficients)


def test_caratheodory_support_bound_random():
    rng = random.Random(5)
    for d in (2, 3):
        for _ in range(10):
            points = rational_cloud(rng, 9, d)
            weights = [Fraction(rng.randint(0, 5)) for _ in points]
            if sum(weights) == 0:
                continue
            total = sum(weights)
            q = tuple(sum(w * p[j] for w, p in zip(weights, points)) / total
                      for j in range(d))
            dec = mx.caratheodory(q, points)
            assert dec.support_size <= d + 1
            assert dec.recombine(points) == q


def test_not_in_hull():
    with pytest.raises(NotInHull, match=r"^\(5, 5\) is not in the convex hull$"):
        mx.caratheodory((Fraction(5), Fraction(5)), TRIANGLE)


# -- hulls, extreme points, Pareto -------------------------------------------------------------


def test_extreme_points_square_plus_center():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)),
           (Fraction(1, 2), Fraction(1, 2))]
    assert mx.extreme_points(pts) == (0, 1, 2, 3)


def test_extreme_points_gated_reward_line_plus_origin():
    idx = mx.extreme_points(GATED_LINE)
    assert set(idx) == {0, 1, 4}  # origin and the two segment endpoints


def test_extreme_points_singleton():
    assert mx.extreme_points([(Fraction(2), Fraction(3))]) == (0,)


def test_extreme_points_collinear():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    assert mx.extreme_points(pts) == (0, 2)


def test_extreme_points_match_bruteforce():
    rng = random.Random(31)
    for d in (2, 3):
        for _ in range(8):
            points = rational_cloud(rng, rng.randint(4, 10), d, denom=4, span=3)
            got = set(mx.extreme_points(points))
            want = set()
            for i, p in enumerate(points):
                others = [x for j, x in enumerate(points) if j != i]
                if not brute_force_in_hull(p, others):
                    want.add(i)
            assert got == want


def test_hull_two_discounts_points(two_discounts):
    model, dims = two_discounts
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 6))
    uniq = []
    for _s, v in pool:
        if v not in uniq:
            uniq.append(v)
    pts = [v.to_fractions() for v in uniq]
    assert extreme_points(pts) == tuple(range(len(pts)))  # every point is a corner
    for p in pts:
        assert membership_combination(p, pts) is not None


def test_hull_idempotent():
    rng = random.Random(77)
    pts = rational_cloud(rng, 9, 2)
    verts = [pts[i] for i in extreme_points(pts)]
    assert extreme_points(verts) == tuple(range(len(verts)))
    for p in pts:
        assert membership_combination(p, verts) is not None


def test_hull_degenerate_line():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    assert extreme_points(pts) == (0, 2)
    assert all(membership_combination(p, pts) is not None for p in pts)
    outside = (Fraction(3), Fraction(3))  # on the line, beyond the segment
    assert membership_combination(outside, pts) is None
    off = (Fraction(1), Fraction(0))  # inside the bounding box, off the line
    assert membership_combination(off, pts) is None


def test_pareto_split_reach():
    vecs = [mx.vector(1, 0), mx.vector(0, 1), mx.vector(Fraction(3, 4), Fraction(3, 4))]
    assert mx.pareto_frontier(vecs) == (0, 1, 2)


def test_pareto_two_discounts_excludes_dominated(two_discounts):
    model, dims = two_discounts
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 4))
    uniq = []
    for _s, v in pool:
        if v not in uniq:
            uniq.append(v)
    keep = mx.pareto_frontier(uniq)
    dropped = [uniq[i] for i in range(len(uniq)) if i not in keep]
    assert dropped == [mx.vector(0, 2)]


def test_pareto_duplicates_kept():
    vecs = [mx.vector(1, 1), mx.vector(1, 1), mx.vector(0, 0)]
    assert mx.pareto_frontier(vecs) == (0, 1)


def test_pareto_with_infinities():
    vecs = [mx.vector(1, "+inf"), mx.vector(1, 5), mx.vector(0, "+inf")]
    assert mx.pareto_frontier(vecs) == (0,)


# -- supporting maps ------------------------------------------------------------------------------


def proportional(u, v):
    return any(x != 0 for x in u) and any(x != 0 for x in v) and \
        all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def test_supporting_map_split_reach():
    q = (Fraction(3, 4), Fraction(3, 4))
    lmap = mx.supporting_map(q, TRIANGLE)
    assert len(lmap.rows) == 2
    assert proportional(lmap.rows[0], (Fraction(1), Fraction(3)))
    image_q = lmap.apply(q)
    assert all(lmap.apply(p) <= image_q for p in TRIANGLE)


def test_supporting_map_interior():
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    lmap = mx.supporting_map((Fraction(1, 2), Fraction(1, 2)), square)
    assert lmap.rows == ()


def test_supporting_map_gated_reward():
    lmap = mx.supporting_map((Fraction(2), Fraction(2)), GATED_LINE)
    assert len(lmap.rows) == 1
    assert proportional(lmap.rows[0], (Fraction(1), Fraction(1)))


def test_supporting_map_outside():
    with pytest.raises(NotInHull, match=r"^\(9, 9\) is not in the convex hull$"):
        mx.supporting_map((Fraction(9), Fraction(9)), TRIANGLE)


def test_supporting_map_lexmax_random():
    rng = random.Random(13)
    for _ in range(15):
        points = rational_cloud(rng, 7, 2, denom=4)
        weights = [Fraction(rng.randint(0, 3)) for _ in points]
        if sum(weights) == 0:
            continue
        q = tuple(sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
                  for j in range(2))
        lmap = mx.supporting_map(q, points)
        assert len(lmap.rows) <= 2
        image_q = lmap.apply(q)
        assert all(lmap.apply(p) <= image_q for p in points)


# -- dominating decompositions ----------------------------------------------------------------------


def test_dominating_face_gated_reward():
    dec = mx.dominating_face_decomposition((Fraction(2), Fraction(2)), GATED_LINE)
    assert dec.support_size <= 2
    recombined = dec.recombine(GATED_LINE)
    assert recombined[0] + recombined[1] == 4  # lands on the x+y=4 face
    assert recombined[0] >= 2 and recombined[1] >= 2


def test_dominating_face_interior_point():
    q = (Fraction(7, 10), Fraction(7, 10))  # barycentric (1/10, 1/10, 8/10)
    dec = mx.dominating_face_decomposition(q, TRIANGLE)
    assert dec.support_size <= 2
    r = dec.recombine(TRIANGLE)
    assert r[0] >= q[0] and r[1] >= q[1]


def test_dominating_face_vertex():
    dec = mx.dominating_face_decomposition(TRIANGLE[2], TRIANGLE)
    assert dec.support_size <= 2
    r = dec.recombine(TRIANGLE)
    assert all(r[j] >= TRIANGLE[2][j] for j in range(2))


def test_dominating_not_dominated():
    with pytest.raises(NotDominated, match=r"^\(9, 9\) is not dominated by the hull$"):
        mx.dominating_face_decomposition((Fraction(9), Fraction(9)), TRIANGLE, mode="dominated")
    with pytest.raises(NotDominated, match=r"^\(9/2, 1/3\) is not in the convex hull$"):
        mx.dominating_face_decomposition((Fraction(9, 2), Fraction(1, 3)), TRIANGLE)


def test_achievability_commute_interval():
    """The two-strategy commute pool with time negated: (9/10, -27) is
    achievable exactly when 13/45 <= alpha <= 8192/10935 (hand derivation)."""
    pool = [(Fraction(14197, 16384), Fraction(-25)), (Fraction(1), Fraction(-445, 16))]
    dec = mx.dominating_face_decomposition((Fraction(9, 10), Fraction(-27)), pool,
                                           mode="dominated")
    assert dec.support_size <= 2
    r = dec.recombine(pool)
    assert r[0] >= Fraction(9, 10) and r[1] >= -27
    alpha = sum(c for i, c in zip(dec.indices, dec.coefficients) if i == 0)
    assert Fraction(13, 45) <= alpha <= Fraction(8192, 10935)


def test_achievability_above_max():
    pool = [(Fraction(14197, 16384), Fraction(-25)), (Fraction(1), Fraction(-445, 16))]
    with pytest.raises(NotDominated):
        mx.dominating_face_decomposition((Fraction(2), Fraction(0)), pool, mode="dominated")


def test_achievability_pool_point():
    dec = mx.dominating_face_decomposition(TRIANGLE[0], TRIANGLE, mode="dominated")
    r = dec.recombine(TRIANGLE)
    assert all(r[j] >= TRIANGLE[0][j] for j in range(2))


def test_decomposition_properties_random():
    rng = random.Random(8)
    for _ in range(15):
        points = rational_cloud(rng, 7, 3, denom=4)
        weights = [Fraction(rng.randint(0, 3)) for _ in points]
        if sum(weights) == 0:
            continue
        q = tuple(sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
                  for j in range(3))
        dec = mx.caratheodory(q, points)
        assert sum(dec.coefficients) == 1
        assert all(c > 0 for c in dec.coefficients)
        assert dec.recombine(points) == q
        dom = mx.dominating_face_decomposition(q, points)
        assert dom.support_size <= 3
        assert all(x >= y for x, y in zip(dom.recombine(points), q))


mixed_rationals = st.builds(Fraction, st.integers(min_value=-8, max_value=8),
                            st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def point_sets(draw):
    """Rational point sets in d <= 4 with mixed denominators: a single point,
    a full-dimensional set, or a collinear, coplanar or other
    lower-dimensional set mapped in by a rational affine map; some points
    repeated.  Points drawn from a small grid put more than d points on one
    hyperplane."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=d))
    n = draw(st.integers(min_value=1, max_value=9))
    coordinate = st.builds(Fraction, st.integers(0, 2)) if draw(st.booleans()) \
        else mixed_rationals
    low = [tuple(draw(coordinate) for _ in range(k)) for _ in range(n)]
    if k == d and draw(st.booleans()):
        points = low
    else:
        matrix = [[draw(mixed_rationals) for _ in range(k)] for _ in range(d)]
        shift = [draw(mixed_rationals) for _ in range(d)]
        points = [tuple(shift[j] + sum((a * x for a, x in zip(matrix[j], p)), Fraction(0))
                        for j in range(d)) for p in low]
    points += [draw(st.sampled_from(points)) for _ in range(draw(st.integers(0, 3)))]
    return points


# a pyramid over a trapezoid: four coplanar base points
TRAPEZOID_PYRAMID = _fractions([(0, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0),
                                (Fraction(3, 2), Fraction(1, 2), 2)])


@given(point_sets())
@example(TRAPEZOID_PYRAMID)
@settings(max_examples=200, deadline=None)
def test_dominating_decomposition_of_the_centroid_and_a_point_below(points):
    """At the centroid (mode "in_hull") and at the centroid minus the
    all-ones vector (mode "dominated"), the decomposition has at most d
    points of positive weight summing to 1, and it recombines exactly to a
    point that dominates the query; in the hull, that point is the query
    pushed along the diagonal."""
    d = len(points[0])
    centroid = tuple(sum(p[j] for p in points) / len(points) for j in range(d))
    below = tuple(x - 1 for x in centroid)
    for q, mode in ((centroid, "in_hull"), (below, "dominated")):
        dec = mx.dominating_face_decomposition(q, points, mode=mode)
        assert 1 <= dec.support_size <= d
        assert sum(dec.coefficients) == 1 and all(c > 0 for c in dec.coefficients)
        recombined = tuple(sum((c * points[i][j] for i, c in zip(dec.indices, dec.coefficients)),
                               Fraction(0)) for j in range(d))
        assert dec.recombine(points) == recombined
        assert all(x >= y for x, y in zip(recombined, q))
        if mode == "in_hull":
            assert len({x - y for x, y in zip(recombined, q)}) == 1


def test_in_hull_refuses_a_point_below_the_hull():
    """(0, 0) lies outside the triangle (1, 1), (2, 0), (0, 2), yet pushed
    along the diagonal it reaches (1, 1): the diagonal LP is feasible there,
    so only the membership LP tells mode "in_hull" to refuse it, which mode
    "dominated" accepts."""
    points = _fractions([(1, 1), (2, 0), (0, 2)])
    q = (Fraction(0), Fraction(0))
    with pytest.raises(NotDominated, match=r"^\(0, 0\) is not in the convex hull$"):
        mx.dominating_face_decomposition(q, points, mode="in_hull")
    assert mx.dominating_face_decomposition(q, points, mode="dominated").support_size <= 2


def test_dominating_decomposition_breaks_ties_by_index_order():
    """(2, 1) is the pushed point, and both (2, 2)/(2, 0) and (2, 3)/(2, 0)
    realize it on the face x = 2: Bland's rule over the points in index order
    takes the first point, as `caratheodory` does on the same query."""
    points = _fractions([(2, 3), (2, 2), (1, 3), (1, 1), (2, 0)])
    dec = mx.dominating_face_decomposition((Fraction(1, 2), Fraction(1, 2)), points,
                                           mode="dominated")
    assert dec.indices == (0, 4) and dec.coefficients == (Fraction(1, 3), Fraction(2, 3))
    assert dec.recombine(points) == (2, 1)
    assert dec == mx.caratheodory((2, 1), points)


# -- reference: the kernel-basis supporting normal, kept verbatim but for its free ----
# variables, each now two adjacent columns as the LP layer once split it


def _lexmin_supporting_normal(q: Point, points: Sequence[Point],
                              basis: Sequence[Point]) -> Optional[Point]:
    """Lexicographically smallest sup-norm-1 vector w in span(basis) with
    <w, p - q> <= 0 for all points.  Deterministic; None if only w = 0 works."""
    d = len(q)
    k = len(basis)
    if k == 0:
        return None

    def piece_lexmin(fix_coord: int, sign: int) -> Optional[Point]:
        fixed: List[Fraction] = []
        for upto in range(d):
            lp = LinearProgram()
            z = [f"z{t}" for t in range(k)]
            for name in z:  # the free z_t = z_t+ - z_t-, adjacent columns
                lp.var(name + "+"), lp.var(name + "-")

            def split(expr):
                return {name + sign: c if sign == "+" else -c
                        for name, c in expr.items() for sign in "+-"}

            def w_expr(j):
                return {z[t]: basis[t][j] for t in range(k) if basis[t][j] != 0}

            for p in points:
                coeffs = {}
                for t in range(k):
                    val = sum((basis[t][j] * (p[j] - q[j]) for j in range(d)), Fraction(0))
                    if val != 0:
                        coeffs[z[t]] = val
                if coeffs:
                    lp.constrain(split(coeffs), "<=", Fraction(0))
            for j in range(d):
                expr = w_expr(j)
                if not expr:
                    continue
                lp.constrain(split(expr), "<=", Fraction(1))
                lp.constrain(split(expr), ">=", Fraction(-1))
            fix_expr = w_expr(fix_coord)
            if not fix_expr and sign != 0:
                return None
            lp.constrain(split(fix_expr if fix_expr else {z[0]: Fraction(0)}), "==",
                         Fraction(sign))
            for j, v in enumerate(fixed):
                expr = w_expr(j)
                lp.constrain(split(expr if expr else {z[0]: Fraction(0)}), "==", v)
            target = split(w_expr(upto))
            result = lp.solve(target, maximize=False)
            if not result.ok:
                return None
            value = sum((basis[t][upto] * (result[z[t] + "+"] - result[z[t] + "-"])
                         for t in range(k)), Fraction(0))
            fixed.append(value)
        return tuple(fixed)

    candidates = []
    for coord in range(d):
        for sign in (-1, 1):
            w = piece_lexmin(coord, sign)
            if w is not None:
                candidates.append(w)
    if not candidates:
        return None
    return min(candidates)


def _basis_orthogonal_to(basis: Sequence[Point], w: Point) -> List[Point]:
    """Basis of {v in span(basis) : <w, v> = 0}."""
    k = len(basis)
    row = [dot(w, basis[t]) for t in range(k)]
    if all(v == 0 for v in row):
        return list(basis)
    null_z = fraction_nullspace([row])
    out = []
    for z in null_z:
        vec = tuple(
            sum((z[t] * basis[t][j] for t in range(k)), Fraction(0))
            for j in range(len(basis[0]))
        )
        if any(v != 0 for v in vec):
            out.append(vec)
    return out


def reference_normal(q, points, rows):
    """The kernel-basis normal given the map rows found so far: the basis
    starts as the identity and is cut down by each row in turn, as the
    construction did."""
    d = len(q)
    basis = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    for row in rows:
        basis = _basis_orthogonal_to(basis, row)
    return _lexmin_supporting_normal(q, points, basis)


# -- supporting normals against the reference ---------------------------------------------

@st.composite
def point_sets_and_queries(draw):
    """A point set of `point_sets`; q is one of the points or a convex
    combination of them."""
    points = draw(point_sets())
    d = len(points[0])
    if draw(st.booleans()):
        q = draw(st.sampled_from(points))
    else:
        weights = draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(points), max_size=len(points)))
        if not any(weights):
            weights[0] = 1
        q = tuple(sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
                  for j in range(d))
    return points, q


@given(point_sets_and_queries())
@settings(max_examples=120, deadline=None)
def test_supporting_normals_match_kernel_basis_reference(case):
    points, q = case
    rows = mx.supporting_map(q, points).rows
    with mock.patch.object(geometry, "_lexmin_supporting_normal", reference_normal):
        assert mx.supporting_map(q, points).rows == rows


# -- one-tableau lexicographic pieces and certificate-driven extreme points --------------


def checked_solve(solve):
    """LinearProgram.solve, asserting that every infeasible answer carries
    a certificate of its infeasibility."""
    def run(program, *objectives, **kwargs):
        result = solve(program, *objectives, **kwargs)
        assert (result.farkas is not None) == (result.status == INFEASIBLE)
        assert result.farkas is None or certifies_program(program, result.farkas)
        return result
    return run


# a square's corners with points on its edges listed first, so that a
# separating direction along an edge ties a non-vertex with the corners
SQUARE_EDGES = _fractions([(1, 0), (0, 1), (2, 1), (1, 2), (0, 0), (2, 0), (0, 2), (2, 2),
                           (1, 1)])


@given(point_sets_and_queries())
@example((_fractions([(1, 2, 3)]), _fractions([(1, 2, 3)])[0]))
@example((_fractions([(0, 1), (2, 5), (1, 3), (2, 5), (-1, -1)]), _fractions([(1, 3)])[0]))
@example((SQUARE_EDGES, SQUARE_EDGES[0]))
@example((SQUARE_EDGES, SQUARE_EDGES[-1]))
@example((_fractions([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 0)]),
          _fractions([(1, 1, 1)])[0]))
@settings(max_examples=150, deadline=None)
def test_geometry_matches_the_row_fixing_and_n_lp_references(case):
    """Repeated, collinear, lower-dimensional and single-point sets in d <= 4:
    the one-tableau normals, the relative-interior test, the maps built on
    them and the extreme points equal those of the old code, every
    infeasible LP on the way (the dominating decompositions' too) returns a
    certificate of it, and every relative-interior LP poses d + 1 rows."""
    points, q = case
    below = tuple(x - 1 for x in q)
    with mock.patch.object(LinearProgram, "solve", checked_solve(LinearProgram.solve)):
        vertices = extreme_points(points)
        rows = mx.supporting_map(q, points).rows
        normals = [geometry._lexmin_supporting_normal(q, points, rows[:k])
                   for k in range(len(rows) + 1)]
        mx.dominating_face_decomposition(q, points)
        mx.dominating_face_decomposition(below, points, mode="dominated")
    assert vertices == n_lp_extreme_points(points)
    assert normals == [cascade_lexmin_supporting_normal(q, points, rows[:k])
                       for k in range(len(rows) + 1)]
    with mock.patch.object(geometry, "_lexmin_supporting_normal",
                           cascade_lexmin_supporting_normal):
        assert mx.supporting_map(q, points).rows == rows
    with mock.patch.object(geometry, "_in_relative_interior", positive_combination_relint):
        assert mx.supporting_map(q, points).rows == rows
    queries = [(below, points)] + [
        (q, [p for p in points if all(dot(r, p) == dot(r, q) for r in rows[:k])])
        for k in range(len(rows) + 1)]
    posed = []
    solve = checked_solve(LinearProgram.solve)

    def counted(program, *objectives, **kwargs):
        posed.append(len(program._constraints))
        return solve(program, *objectives, **kwargs)

    with mock.patch.object(LinearProgram, "solve", counted):
        relint = [_outcome(geometry._in_relative_interior, *query) for query in queries]
    assert posed == [len(q) + 1] * len(queries)
    assert relint == [_outcome(positive_combination_relint, *query) for query in queries]


def _outcome(test, q, points):
    """The answer of a relative-interior test, or the type of its error."""
    try:
        return test(q, points)
    except NotInHull:
        return NotInHull


# -- lazy point rows against the normal over every point --------------------------------


def _random_points(n, d):
    """n points in d dimensions with numerators 0..40 over denominators in
    {1, 2, 3, 5, 7}, seed 1."""
    rng = random.Random(1)
    return [tuple(Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 5, 7])) for _ in range(d))
            for _ in range(n)]


NORMAL_POINT_SETS = {
    **{name: _point_pool(seed, *shape) for name, (seed, *shape) in POINT_MODELS.items()},
    "random_40_d3": _random_points(40, 3),
    "random_30_d4": _random_points(30, 4),
}


def _edge_midpoint(points, vertices):
    """The midpoint of the first edge, in vertex order, at the lexmax
    vertex, with its supporting map: the face of the midpoint is an edge
    when its points span one direction."""
    top = max(points)
    for i in vertices:
        if points[i] == top:
            continue
        mid = tuple((x + y) / 2 for x, y in zip(top, points[i]))
        smap = mx.supporting_map(mid, points)
        face = [p for p in points if smap.apply(p) == smap.apply(mid)]
        if len(fraction_rref([[x - y for x, y in zip(p, mid)] for p in face])[1]) == 1:
            return mid, smap.rows
    raise AssertionError("no edge at the lexmax vertex")


@pytest.mark.parametrize("name", sorted(NORMAL_POINT_SETS))
def test_lazy_point_rows_match_the_normal_over_every_point(name):
    """At the lexmax vertex, an edge midpoint and the centroid, with no rows
    and with the rows of the supporting map there, the normals equal
    those of one LP per piece over every point; every infeasible LP carries
    a certificate, and no LP poses a row for as many points as the hull has
    vertices."""
    points = NORMAL_POINT_SETS[name]
    d = len(points[0])
    vertices = extreme_points(points)
    top = max(points)
    mid, mid_rows = _edge_midpoint(points, vertices)
    centroid = tuple(sum(p[j] for p in points) / len(points) for j in range(d))
    queries = [(top, mx.supporting_map(top, points).rows), (mid, mid_rows),
               (centroid, mx.supporting_map(centroid, points).rows)]
    point_rows = []

    def counted(solve):
        def run(program, *objectives, **kwargs):
            point_rows.append(sum(sense == "<=" for _c, sense, _b in program._constraints))
            return solve(program, *objectives, **kwargs)
        return run

    cases = list(dict.fromkeys((q, r) for q, rows in queries for r in ((), rows)))
    with mock.patch.object(LinearProgram, "solve", counted(checked_solve(LinearProgram.solve))):
        normals = [geometry._lexmin_supporting_normal(q, points, rows) for q, rows in cases]
    assert normals == [dense_lexmin_supporting_normal(q, points, rows) for q, rows in cases]
    assert max(point_rows) < len(vertices)


# -- one box LP per normal against the pieces alone ---------------------------------------
# reference: the normal from the 2d pieces w_c = +-1 with lazy point rows, kept verbatim


def pieces_lexmin_supporting_normal(q: Point, points: Sequence[Point],
                                    rows: Sequence[Point]) -> Optional[Point]:
    d = len(q)
    flat = integer_row([x - y for p in points for x, y in zip(p, q)])[0]
    diffs = [flat[i:i + d] for i in range(0, len(flat), d)]
    active: List[int] = []

    def piece_lexmin(coord: int, sign: int) -> Optional[Point]:
        while True:
            lp = LinearProgram()
            w = [lp.var(f"w{j}", lo=-1, hi=1) for j in range(d)]
            for vector, sense in [*((diffs[i], "<=") for i in active), *((r, "==") for r in rows)]:
                coeffs = {w[j]: v for j, v in enumerate(vector) if v != 0}
                if coeffs:
                    lp.constrain(coeffs, sense, 0)
            lp.constrain({w[coord]: 1}, "==", sign)
            result = lp.solve(*({wj: 1} for wj in w))
            if not result.ok:
                return None
            normal = tuple(result[wj] for wj in w)
            scaled = integer_row(normal)[0]
            gaps = [sum(a * x for a, x in zip(scaled, diff)) for diff in diffs]
            worst = max(range(len(gaps)), key=gaps.__getitem__)
            if gaps[worst] <= 0:
                return normal
            active.append(worst)

    pieces = (piece_lexmin(coord, sign) for coord in range(d) for sign in (-1, 1))
    return min((w for w in pieces if w is not None), default=None)


def counted_map(q, points, normal):
    """The supporting map at q with `normal` for the normals, and the
    number of LPs it poses."""
    calls = []
    solve = LinearProgram.solve
    with mock.patch.object(geometry, "_lexmin_supporting_normal", normal), \
            mock.patch.object(LinearProgram, "solve",
                              lambda program, *a, **k: calls.append(1) or solve(program, *a, **k)):
        rows = mx.supporting_map(q, points).rows
    return rows, len(calls)


@pytest.mark.parametrize("name", sorted(NORMAL_POINT_SETS))
def test_one_box_lp_gives_the_normals_of_the_pieces(name):
    """At every vertex, the map built on the box LP equals the map built on
    the 2d pieces alone, and poses at most one LP more; at the lexmax
    vertex of random_30_d4 it poses 41 LPs where the pieces pose 50."""
    points = NORMAL_POINT_SETS[name]
    counts = {}
    for i in extreme_points(points):
        rows, lps = counted_map(points[i], points, geometry._lexmin_supporting_normal)
        reference, reference_lps = counted_map(points[i], points, pieces_lexmin_supporting_normal)
        assert rows == reference
        assert lps <= reference_lps + 1
        counts[points[i]] = (lps, reference_lps)
    if name == "random_30_d4":
        assert counts[max(points)] == (41, 50)
