"""Exact geometry against brute-force oracles (simplex-free where possible)."""

import itertools
import random
from fractions import Fraction

import pytest

import momix as mx
from momix.errors import NotDominated, NotInHull
from momix.geometry import membership_combination
from momix.linalg import dot, solve_linear


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
    from momix.linalg import rref
    rows = [row + [rhs] for row, rhs in zip(matrix, list(q) + [Fraction(1)])]
    reduced, pivots = rref(rows)
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
            from momix.linalg import matrix_rank
            if dirs and matrix_rank([list(v) for v in dirs]) < len(dirs):
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


# -- separation ---------------------------------------------------------------------------------


def test_separate_outside_point():
    h = mx.separate((Fraction(2), Fraction(2)), TRIANGLE)
    assert h is not None
    assert all(h.value(p) <= h.offset for p in TRIANGLE)
    assert h.value((Fraction(2), Fraction(2))) > h.offset
    assert max(h.value(p) for p in TRIANGLE) < h.offset  # strict margin on both sides


def test_separate_vertex_and_facet_interior():
    assert mx.separate(TRIANGLE[0], TRIANGLE) is None
    midpoint = tuple((TRIANGLE[0][j] + TRIANGLE[1][j]) / 2 for j in range(2))
    assert mx.separate(midpoint, TRIANGLE) is None


def test_separate_consistent_with_achievability():
    rng = random.Random(3)
    for _ in range(20):
        points = rational_cloud(rng, 6, 2, denom=4)
        q = rational_cloud(rng, 1, 2, denom=4)[0]
        sep = mx.separate(q, points)
        member = membership_combination(q, points)
        assert (sep is None) == (member is not None)


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
