"""Exact convex geometry over rational points in small dimension.

Hulls, extreme points, Pareto filtering, supporting linear maps (the
lexicographic-maximum construction used to reach points on faces of payoff
sets), Caratheodory decompositions and the achievability feasibility test.
Membership, extreme points and every LP-based question are decided by the
exact simplex in :mod:`momix.lp` (extreme points from the Farkas
certificates of membership LPs over the vertices found so far); hull facets
come from integer cofactor normals and integer sign tests.  Degeneracies
(collinear point families and the like) are resolved exactly, never by
tolerance.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotDominated, NotInHull, SelfCheckFailed
from .linalg import cofactor_vector, dot, rref
from .lp import LinearProgram
from .rationals import ExtRealVector, format_rational, integer_row

Point = Tuple[Fraction, ...]


def as_point(values) -> Point:
    return tuple(Fraction(v) for v in values)


def _format_point(q: Point) -> str:
    return "(" + ", ".join(format_rational(x) for x in q) + ")"


def _check_points(points) -> List[Point]:
    pts = [as_point(p) for p in points]
    if not pts:
        raise DimensionMismatch("empty point list")
    d = len(pts[0])
    if d < 1 or any(len(p) != d for p in pts):
        raise DimensionMismatch("points of mixed dimensions")
    return pts


@dataclass(frozen=True)
class Decomposition:
    """Convex combination coefficients over indices into a point list."""

    indices: Tuple[int, ...]
    coefficients: Tuple[Fraction, ...]

    def recombine(self, points) -> Point:
        pts = [as_point(points[i]) for i in self.indices]
        d = len(pts[0])
        return tuple(
            sum((c * p[j] for c, p in zip(self.coefficients, pts)), Fraction(0))
            for j in range(d)
        )

    @property
    def support_size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class LinearMap:
    """Ordered rational linear forms; images compare lexicographically."""

    rows: Tuple[Point, ...]

    def apply(self, point) -> Tuple[Fraction, ...]:
        p = as_point(point)
        return tuple(dot(row, p) for row in self.rows)


@dataclass(frozen=True)
class Hull:
    points: Tuple[Point, ...]
    vertices: Tuple[int, ...]
    facets: Tuple[Tuple[Point, Fraction], ...]
    span_equalities: Tuple[Tuple[Point, Fraction], ...]

    def contains_by_facets(self, point) -> bool:
        p = as_point(point)
        return all(dot(n, p) == c for n, c in self.span_equalities) and \
            all(dot(n, p) <= c for n, c in self.facets)


# -- membership and combinations ---------------------------------------------------


def _combination_lp(q: Point, points: Sequence[Point], senses: str = "=="):
    lp = LinearProgram()
    names = [lp.var(f"a{i}") for i in range(len(points))]
    for j in range(len(q)):
        coeffs = {names[i]: points[i][j] for i in range(len(points))}
        if senses == "==":
            lp.constrain(coeffs, "==", q[j])
        else:
            lp.constrain(coeffs, ">=", q[j])
    lp.constrain({n: Fraction(1) for n in names}, "==", Fraction(1))
    return lp, names


def membership_combination(q, points) -> Optional[List[Fraction]]:
    """Any exact convex combination of `points` equal to q, or None."""
    pts = _check_points(points)
    q = as_point(q)
    if len(q) != len(pts[0]):
        raise DimensionMismatch("query dimension differs from points")
    lp, names = _combination_lp(q, pts)
    result = lp.solve({}, maximize=False)
    if not result.ok:
        return None
    return [result[n] for n in names]


def caratheodory(q, points) -> Decomposition:
    """A convex combination of at most d+1 of the points recombining to q
    exactly.  The simplex returns a basic solution: its nonzero columns of
    [points; 1] are linearly independent, so at most rank([points; 1])
    <= d+1 of them are nonzero."""
    pts = _check_points(points)
    q = as_point(q)
    coeffs = membership_combination(q, pts)
    if coeffs is None:
        raise NotInHull(f"{_format_point(q)} is not in the convex hull")
    d = len(q)
    idx = [i for i, c in enumerate(coeffs) if c != 0]
    alpha = [coeffs[i] for i in idx]
    if len(idx) > d + 1:
        raise SelfCheckFailed(f"a basic solution with {len(idx)} > d+1 nonzero coefficients")
    return Decomposition(tuple(idx), tuple(alpha))


# -- extreme points, hulls, Pareto ----------------------------------------------------


def extreme_points(points) -> Tuple[int, ...]:
    """Indices i with points[i] outside the hull of the other points: the
    hull's vertices that occur once (a repeated corner lies in the hull of
    its copy).

    Output-sensitive, after Clarkson (FOCS 1994): a list E of vertices found
    so far starts with the lexicographic maximum, and each distinct point is
    tested against conv(E) by one membership LP over E.  A point outside
    comes with the LP's Farkas certificate (u, u0), u.e + u0 <= 0 on E and
    u.p + u0 > 0; the point of largest u.x, ties going to the lexicographic
    maximum, is then a vertex of the whole hull outside E.  It joins E and
    the point is tested again."""
    pts = _check_points(points)
    unique = list(dict.fromkeys(pts))
    d = len(unique[0])
    flat = integer_row([x for p in unique for x in p])[0]
    ints = [tuple(flat[i:i + d]) for i in range(0, len(flat), d)]
    found = [max(range(len(unique)), key=unique.__getitem__)]
    for i, p in enumerate(unique):
        while i not in found:
            farkas = _combination_lp(p, [unique[j] for j in found])[0].solve({}).farkas
            if farkas is None:
                break  # p is a combination of other vertices
            u = farkas[:d]
            best = max(range(len(unique)),
                       key=lambda j: (sum(a * x for a, x in zip(u, ints[j])), ints[j]))
            if best in found:
                raise SelfCheckFailed("the separating direction peaks on a vertex already found")
            found.append(best)
    corners = {unique[j] for j in found}
    count = Counter(pts)
    return tuple(i for i, p in enumerate(pts) if p in corners and count[p] == 1)


def affine_span(points) -> Tuple[List[Point], Point]:
    """Basis of the direction space of the affine span, in reduced row
    echelon form, plus the base point."""
    pts = _check_points(points)
    base = pts[0]
    dirs = [tuple(p[j] - base[j] for j in range(len(base))) for p in pts[1:]]
    dirs = [d for d in dirs if any(v != 0 for v in d)]
    if not dirs:
        return [], base
    rows, pivots = rref(dirs)
    basis = [tuple(row) for row in rows[: len(pivots)]]
    return basis, base


def convex_hull(points) -> Hull:
    """Exact vertices and facets; lower-dimensional inputs are handled via
    the affine span (facets then live inside the span, and the span itself
    is reported as equalities).

    Unlike :func:`extreme_points` (which follows the index-wise definition,
    so a duplicated corner is extreme under neither index), the hull reports
    every input index whose point is a corner of the distinct point set.
    """
    pts = _check_points(points)
    d = len(pts[0])
    unique = list(dict.fromkeys(pts))
    corner_points = {unique[i] for i in extreme_points(unique)}
    verts = tuple(i for i, p in enumerate(pts) if p in corner_points)
    basis, base = affine_span(pts)
    # The reduced basis gives one span equality per free column f, ascending:
    # e_f - sum_r basis[r][f] e_{p_r}, with p_r the pivot (leading) column of row r.
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    span_eqs = []
    for f in range(d):
        if f in pivots:
            continue
        n = [Fraction(int(j == f)) for j in range(d)]
        for b, p in zip(basis, pivots):
            n[p] = -b[f]
        span_eqs.append((tuple(n), dot(n, base)))

    return Hull(tuple(pts), verts, _facets(sorted(corner_points), basis), tuple(span_eqs))


def _facets(vertex_points: Sequence[Point], basis: Sequence[Point]):
    """The facets of conv(vertex_points) inside its affine span, spanned by
    `basis` (k rows), as (outward normal, offset) pairs with the first
    nonzero normal entry of absolute value 1, in the order of their first
    spanning k-subset of vertex_points.

    Fraction-free: the points are scaled to integers by one common lcm, each
    basis row by its own, and only the coordinates <basis_t, point> enter
    the loop.  A subset's normal sum_t z_t basis_t has the cofactors of its
    k - 1 direction rows as z; the sides are integer sign tests."""
    k = len(basis)
    if k == 0:
        return ()
    d = len(basis[0])
    flat, scale = integer_row([x for p in vertex_points for x in p])
    int_basis = [integer_row(b)[0] for b in basis]
    int_points = [flat[i:i + d] for i in range(0, len(flat), d)]
    coords = [[sum(b * x for b, x in zip(row, p)) for row in int_basis] for p in int_points]
    facets = []
    seen = set()
    for combo in itertools.combinations(coords, k):
        origin = combo[0]
        z = cofactor_vector([[x - o for x, o in zip(c, origin)] for c in combo[1:]])
        if not any(z):
            continue  # affinely dependent subset
        offset = sum(a * b for a, b in zip(z, origin))
        above = below = False
        for c in coords:
            value = sum(a * b for a, b in zip(z, c)) - offset
            if value > 0:
                above = True
            elif value < 0:
                below = True
            else:
                continue
            if above and below:
                break
        if above and below:
            continue
        if above:
            z, offset = [-a for a in z], -offset
        normal = [sum(a * row[j] for a, row in zip(z, int_basis)) for j in range(d)]
        g = gcd(*normal)
        key = tuple(x // g for x in normal)
        if key in seen:
            continue
        seen.add(key)
        first = abs(next(x for x in normal if x))
        facets.append((tuple(Fraction(x, first) for x in normal),
                       Fraction(offset, first * scale)))
    return tuple(facets)


def pareto_frontier(vectors: Sequence[ExtRealVector]) -> Tuple[int, ...]:
    """Indices of the vectors not strictly dominated component-wise; exact
    ties are all kept."""
    vecs = [v if isinstance(v, ExtRealVector) else ExtRealVector(v) for v in vectors]
    out = []
    for i, v in enumerate(vecs):
        if not any(v.strictly_dominated_by(w) for w in vecs):
            out.append(i)
    return tuple(out)


# -- supporting maps ----------------------------------------------------------------------


def _in_relative_interior(q: Point, points: Sequence[Point]) -> bool:
    """q in relint(conv(points)): some representation uses every point with a
    strictly positive coefficient."""
    lp = LinearProgram()
    names = [lp.var(f"a{i}") for i in range(len(points))]
    m = lp.var("m", lo=None)
    for j in range(len(q)):
        lp.constrain({names[i]: points[i][j] for i in range(len(points))}, "==", q[j])
    lp.constrain({n: Fraction(1) for n in names}, "==", Fraction(1))
    for n in names:
        lp.constrain({n: Fraction(1), m: Fraction(-1)}, ">=", Fraction(0))
    result = lp.solve({m: Fraction(1)}, maximize=True)
    return result.ok and result.objective > 0


def _lexmin_supporting_normal(q: Point, points: Sequence[Point],
                              rows: Sequence[Point]) -> Optional[Point]:
    """Lexicographically smallest sup-norm-1 vector w orthogonal to `rows`
    with <w, p - q> <= 0 for all points.  Deterministic; None if only w = 0
    works.  Each piece w_c = +-1 is one LP over w in [-1, 1]^d whose
    objectives w_0, w_1, ... are minimized in order in one tableau
    (lexicographic linear optimization, Isermann, OR Spektrum 4, 1982): one
    phase 1 per piece, and the piece's minimum over all d coordinates is a
    single point."""
    d = len(q)

    def piece_lexmin(coord: int, sign: int) -> Optional[Point]:
        lp = LinearProgram()
        w = [lp.var(f"w{j}", lo=-1, hi=1) for j in range(d)]

        def constrain(vector, sense):
            coeffs = {w[j]: v for j, v in enumerate(vector) if v != 0}
            if coeffs:
                lp.constrain(coeffs, sense, 0)

        for p in points:
            constrain([x - y for x, y in zip(p, q)], "<=")
        for row in rows:
            constrain(row, "==")
        lp.constrain({w[coord]: 1}, "==", sign)
        result = lp.solve(*({wj: 1} for wj in w))
        return tuple(result[wj] for wj in w) if result.ok else None

    pieces = (piece_lexmin(coord, sign) for coord in range(d) for sign in (-1, 1))
    return min((w for w in pieces if w is not None), default=None)


def supporting_map(q, points) -> LinearMap:
    """The iterated supporting-hyperplane construction at q in conv(points).

    The image of q under the returned map is the exact lexicographic maximum
    of the image of the point set, and q lies in the relative interior of the
    subset of the hull sharing that image.  An interior q yields the empty
    map.  Row selection is deterministic: each row is the lexicographically
    smallest sup-normalized supporting normal on the current kernel.
    """
    pts = _check_points(points)
    q = as_point(q)
    d = len(q)
    if membership_combination(q, pts) is None:
        raise NotInHull(f"{_format_point(q)} is not in the convex hull")
    current = list(pts)
    rows: List[Point] = []
    while len(rows) <= d:
        if _in_relative_interior(q, current):
            break
        w = _lexmin_supporting_normal(q, current, rows)
        if w is None:
            raise SelfCheckFailed("no supporting normal outside the relative interior")
        rows.append(w)
        level = dot(w, q)
        current = [p for p in current if dot(w, p) == level]
    return LinearMap(tuple(rows))


# -- domination-oriented decompositions ------------------------------------------------------


def dominating_face_decomposition(q, points, mode: str = "in_hull") -> Decomposition:
    """A decomposition with support at most d whose recombination dominates q.

    mode "in_hull" requires q in conv(points); mode "dominated" only requires
    that some convex combination dominates q.  The construction pushes q (or
    a dominating hull point) along the all-ones direction onto a proper face
    and applies Caratheodory inside that face.
    """
    pts = _check_points(points)
    q = as_point(q)
    d = len(q)
    if mode not in ("in_hull", "dominated"):
        raise ValueError("mode must be 'in_hull' or 'dominated'")

    if mode == "in_hull":
        if membership_combination(q, pts) is None:
            raise NotDominated(f"{_format_point(q)} is not in the convex hull")
        base = q
    else:
        lp, names = _combination_lp(q, pts, senses=">=")
        result = lp.solve({}, maximize=False)
        if not result.ok:
            raise NotDominated(f"{_format_point(q)} is not dominated by the hull")
        coeffs = [result[n] for n in names]
        base = tuple(
            sum((coeffs[i] * pts[i][j] for i in range(len(pts))), Fraction(0))
            for j in range(d)
        )

    # Push along the diagonal onto the boundary.
    lp = LinearProgram()
    names = [lp.var(f"a{i}") for i in range(len(pts))]
    gamma = lp.var("g")
    for j in range(d):
        coeffs = {names[i]: pts[i][j] for i in range(len(pts))}
        coeffs[gamma] = Fraction(-1)
        lp.constrain(coeffs, "==", base[j])
    lp.constrain({n: Fraction(1) for n in names}, "==", Fraction(1))
    result = lp.solve({gamma: Fraction(1)}, maximize=True)
    if not result.ok:
        raise SelfCheckFailed("the diagonal LP is infeasible, yet gamma = 0 is feasible")
    peak = tuple(base[j] + result[gamma] for j in range(d))

    basis, _ = affine_span(pts)
    if len(basis) < d:
        dec = caratheodory(peak, pts)
    else:
        w = _lexmin_supporting_normal(peak, pts, [])
        if w is None:
            raise SelfCheckFailed("no supporting normal at the peak of a full-dimensional hull")
        level = dot(w, peak)
        face = [i for i in range(len(pts)) if dot(w, pts[i]) == level]
        inner = caratheodory(peak, [pts[i] for i in face])
        dec = Decomposition(tuple(face[i] for i in inner.indices), inner.coefficients)
    if dec.support_size > d:  # the face, or the hull itself, spans at most d-1 dimensions
        raise SelfCheckFailed(f"a face decomposition with {dec.support_size} > d points")
    recombined = dec.recombine(pts)
    if any(recombined[j] < q[j] for j in range(d)):
        raise SelfCheckFailed("the recombination does not dominate q")
    return dec


def achievability_lp(q, points) -> Optional[Decomposition]:
    """Feasibility of {alpha >= 0, sum alpha = 1, sum alpha p >= q}; on
    success the dominating decomposition with support at most d."""
    try:
        return dominating_face_decomposition(q, points, mode="dominated")
    except NotDominated:
        return None
