"""Exact geometry against brute-force oracles (simplex-free where possible),
the supporting normals against the kernel-basis construction and the
row-fixing cascade they replaced, the extreme points against one LP per
point, and the integer hull against the Fraction hull it replaced."""

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
from momix.geometry import Hull, Point, extreme_points, membership_combination
from momix.linalg import dot
from momix.lp import INFEASIBLE, LinearProgram

from conftest import (cascade_lexmin_supporting_normal, certifies_program, fraction_nullspace,
                      fraction_rref, n_lp_extreme_points)


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
    hull = mx.convex_hull(pts)
    assert set(hull.vertices) == set(range(len(pts)))  # every point is a corner
    for p in pts:
        assert hull.contains_by_facets(p)


def test_hull_idempotent():
    rng = random.Random(77)
    pts = rational_cloud(rng, 9, 2)
    hull = mx.convex_hull(pts)
    verts = [pts[i] for i in hull.vertices]
    again = mx.convex_hull(verts)
    assert {verts[i] for i in again.vertices} == set(verts)
    for p in pts:
        assert hull.contains_by_facets(p)


def test_hull_degenerate_line():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    hull = mx.convex_hull(pts)
    assert set(hull.vertices) == {0, 2}
    assert hull.span_equalities  # the carrying line is reported
    assert all(hull.contains_by_facets(p) for p in pts)
    outside = (Fraction(3), Fraction(3))  # on the line, beyond the segment
    assert not hull.contains_by_facets(outside)


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
    dec = mx.achievability_lp((Fraction(9, 10), Fraction(-27)), pool)
    assert dec is not None and dec.support_size <= 2
    r = dec.recombine(pool)
    assert r[0] >= Fraction(9, 10) and r[1] >= -27
    alpha = sum(c for i, c in zip(dec.indices, dec.coefficients) if i == 0)
    assert Fraction(13, 45) <= alpha <= Fraction(8192, 10935)


def test_achievability_above_max():
    pool = [(Fraction(14197, 16384), Fraction(-25)), (Fraction(1), Fraction(-445, 16))]
    assert mx.achievability_lp((Fraction(2), Fraction(0)), pool) is None


def test_achievability_pool_point():
    dec = mx.achievability_lp(TRIANGLE[0], TRIANGLE)
    assert dec is not None
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


# -- reference: the kernel-basis supporting normal, kept verbatim -------------------------


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
            z = [lp.var(f"z{t}", lo=None) for t in range(k)]

            def w_expr(j):
                return {z[t]: basis[t][j] for t in range(k) if basis[t][j] != 0}

            for p in points:
                coeffs = {}
                for t in range(k):
                    val = sum((basis[t][j] * (p[j] - q[j]) for j in range(d)), Fraction(0))
                    if val != 0:
                        coeffs[z[t]] = val
                if coeffs:
                    lp.constrain(coeffs, "<=", Fraction(0))
            for j in range(d):
                expr = w_expr(j)
                if not expr:
                    continue
                lp.constrain(expr, "<=", Fraction(1))
                lp.constrain(expr, ">=", Fraction(-1))
            fix_expr = w_expr(fix_coord)
            if not fix_expr and sign != 0:
                return None
            lp.constrain(fix_expr if fix_expr else {z[0]: Fraction(0)}, "==", Fraction(sign))
            for j, v in enumerate(fixed):
                expr = w_expr(j)
                lp.constrain(expr if expr else {z[0]: Fraction(0)}, "==", v)
            target = w_expr(upto)
            result = lp.solve(target, maximize=False)
            if not result.ok:
                return None
            value = sum((basis[t][upto] * result[z[t]] for t in range(k)), Fraction(0))
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

small_rationals = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                            st.sampled_from([1, 2, 3, 4]))


@st.composite
def point_sets_and_queries(draw):
    """Rational point sets in d <= 4, full-dimensional or mapped from a
    lower-dimensional set by a rational affine map, with repeated points;
    q is one of the points or a convex combination of them."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=d))
    n = draw(st.integers(min_value=1, max_value=7))
    low = [tuple(draw(small_rationals) for _ in range(k)) for _ in range(n)]
    if k == d and draw(st.booleans()):
        points = low
    else:
        matrix = [[draw(small_rationals) for _ in range(k)] for _ in range(d)]
        shift = [draw(small_rationals) for _ in range(d)]
        points = [tuple(shift[j] + sum((a * x for a, x in zip(matrix[j], p)), Fraction(0))
                        for j in range(d)) for p in low]
    points += [draw(st.sampled_from(points)) for _ in range(draw(st.integers(0, 2)))]
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
    dec = mx.dominating_face_decomposition(q, points)
    with mock.patch.object(geometry, "_lexmin_supporting_normal", reference_normal):
        assert mx.supporting_map(q, points).rows == rows
        assert mx.dominating_face_decomposition(q, points) == dec


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


def _fractions(points):
    return [tuple(Fraction(x) for x in p) for p in points]


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
    the one-tableau normals, the maps and decompositions built on them and
    the extreme points equal those of the old code, and every infeasible
    LP on the way returns a certificate of it."""
    points, q = case
    below = tuple(x - 1 for x in q)
    with mock.patch.object(LinearProgram, "solve", checked_solve(LinearProgram.solve)):
        vertices = extreme_points(points)
        rows = mx.supporting_map(q, points).rows
        normals = [geometry._lexmin_supporting_normal(q, points, rows[:k])
                   for k in range(len(rows) + 1)]
        decs = [mx.dominating_face_decomposition(q, points),
                mx.dominating_face_decomposition(below, points, mode="dominated")]
    assert vertices == n_lp_extreme_points(points)
    assert normals == [cascade_lexmin_supporting_normal(q, points, rows[:k])
                       for k in range(len(rows) + 1)]
    with mock.patch.object(geometry, "_lexmin_supporting_normal",
                           cascade_lexmin_supporting_normal):
        assert mx.supporting_map(q, points).rows == rows
        assert [mx.dominating_face_decomposition(q, points),
                mx.dominating_face_decomposition(below, points, mode="dominated")] == decs


# -- reference: the Fraction convex hull, on its own Fraction affine span ------------------


def reference_convex_hull(points) -> Hull:
    """Exact vertices and facets; lower-dimensional inputs are handled via
    the affine span (facets then live inside the span, and the span itself
    is reported as equalities).

    Unlike :func:`extreme_points` (which follows the index-wise definition,
    so a duplicated corner is extreme under neither index), the hull reports
    every input index whose point is a corner of the distinct point set.
    """
    pts = geometry._check_points(points)
    d = len(pts[0])
    unique: List[Point] = []
    for p in pts:
        if p not in unique:
            unique.append(p)
    corner_points = {unique[i] for i in extreme_points(unique)}
    verts = tuple(i for i, p in enumerate(pts) if p in corner_points)
    base = pts[0]
    dirs = [tuple(p[j] - base[j] for j in range(d)) for p in pts[1:]]
    dirs = [v for v in dirs if any(x != 0 for x in v)]
    reduced, pivots = fraction_rref(dirs) if dirs else ([], [])
    basis = [tuple(row) for row in reduced[:len(pivots)]]
    k = len(basis)

    span_eqs = []
    if k < d:
        normals = fraction_nullspace([list(b) for b in basis]) if basis else \
            [[Fraction(1) if j == i else Fraction(0) for j in range(d)] for i in range(d)]
        for n in normals:
            span_eqs.append((tuple(n), dot(n, base)))

    facets = []
    seen = set()
    if k >= 1:
        vertex_points = sorted(corner_points)
        for combo in itertools.combinations(range(len(vertex_points)), k):
            chosen = [vertex_points[i] for i in combo]
            dirs = [tuple(p[j] - chosen[0][j] for j in range(d)) for p in chosen[1:]]
            # normal n = sum_t z_t basis[t] with <n, dir> = 0 for all dirs
            rows = [[dot(dirv, bvec) for bvec in basis] for dirv in dirs]
            null_z = fraction_nullspace(rows) if rows else \
                [[Fraction(1) if j == i else Fraction(0) for j in range(k)] for i in range(k)]
            if len(null_z) != 1:
                continue  # affinely dependent subset
            z = null_z[0]
            normal = tuple(
                sum((z[t] * basis[t][j] for t in range(k)), Fraction(0)) for j in range(d)
            )
            offset = dot(normal, chosen[0])
            values = [dot(normal, p) - offset for p in pts]
            if all(v <= 0 for v in values):
                n, c = normal, offset
            elif all(v >= 0 for v in values):
                n, c = tuple(-x for x in normal), -offset
            else:
                continue
            scale = next(abs(x) for x in n if x != 0)
            key = (tuple(x / scale for x in n), c / scale)
            if key not in seen:
                seen.add(key)
                facets.append(key)
    return Hull(tuple(pts), verts, tuple(facets), tuple(span_eqs))


# -- the integer hull against the reference ------------------------------------------------

mixed_rationals = st.builds(Fraction, st.integers(min_value=-8, max_value=8),
                            st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def hull_point_sets(draw):
    """Rational point sets in d <= 4 with mixed denominators: a single point,
    a full-dimensional set, or a collinear, coplanar or other
    lower-dimensional set mapped in by a rational affine map; some points
    repeated.  Points drawn from a small grid give facets through more than
    d vertices."""
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


# a pyramid over a trapezoid: its base is spanned by four vertex triples
# whose cofactor normals differ in length
TRAPEZOID_PYRAMID = [(0, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0), (Fraction(3, 2), Fraction(1, 2), 2)]


@given(hull_point_sets())
@example([tuple(Fraction(x) for x in p) for p in TRAPEZOID_PYRAMID])
@settings(max_examples=200, deadline=None)
def test_convex_hull_matches_fraction_reference(points):
    assert mx.convex_hull(points) == reference_convex_hull(points)
