"""Exact convex geometry over rational points in small dimension.

Membership, extreme points, Pareto filtering, supporting linear maps (the
lexicographic-maximum construction used to reach points on faces of payoff
sets), Caratheodory decompositions and dominating decompositions on faces,
which also decide achievability.
Every question is decided by LPs on the exact simplex in :mod:`momix.lp`:
extreme points from the Farkas certificates of membership LPs over the
vertices found so far, supporting normals from LPs over the points that cut
off their earlier solutions, the relative interior and the diagonal push
from one mixture LP that moves q along a direction inside the hull, and
every decomposition from the basic solution of one membership LP.
Degeneracies (collinear point families and the like) are resolved exactly,
never by tolerance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotDominated, NotInHull, SelfCheckFailed
from .linalg import dot
from .lp import INFEASIBLE, LinearProgram
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


# -- membership and combinations ---------------------------------------------------


def _combination_lp(q: Point, points: Sequence[Point], sense: str = "==",
                    push: Optional[Point] = None):
    """The mixture rows: weights a_i >= 0 with sum a_i p_i (sense) q, one row
    per coordinate, then sum a_i = 1.  With a direction `push`, one more
    column g >= 0, named "g", moves the target: sum a_i p_i = q + g push."""
    lp = LinearProgram()
    names = [lp.var(f"a{i}") for i in range(len(points))]
    if push is not None:
        lp.var("g")
    for j in range(len(q)):
        coeffs = {names[i]: points[i][j] for i in range(len(points))}
        if push is not None:
            coeffs["g"] = -push[j]
        lp.constrain(coeffs, sense, q[j])
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


# -- extreme points, Pareto -----------------------------------------------------------


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
    d = len(pts[0])
    flat = integer_row([x for p in pts for x in p])[0]
    scaled = [tuple(flat[i:i + d]) for i in range(0, len(flat), d)]
    ints = list(dict.fromkeys(scaled))  # the distinct points, over one denominator
    found = [max(range(len(ints)), key=ints.__getitem__)]
    for i, p in enumerate(ints):
        while i not in found:
            farkas = _combination_lp(p, [ints[j] for j in found])[0].solve({}).farkas
            if farkas is None:
                break  # p is a combination of other vertices
            u = farkas[:d]
            best = max(range(len(ints)),
                       key=lambda j: (sum(a * x for a, x in zip(u, ints[j])), ints[j]))
            if best in found:
                raise SelfCheckFailed("the separating direction peaks on a vertex already found")
            found.append(best)
    corners = {ints[j] for j in found}
    count = Counter(scaled)
    return tuple(i for i, p in enumerate(scaled) if p in corners and count[p] == 1)


def pareto_frontier(vectors: Sequence[ExtRealVector]) -> Tuple[int, ...]:
    """Indices of the vectors not strictly dominated component-wise; exact
    ties are all kept."""
    vecs = [v if isinstance(v, ExtRealVector) else ExtRealVector(v) for v in vectors]
    scales = [lcm(*(x.finite.denominator for x in column)) for column in zip(*vecs)]
    # a component as (inf, numerator over its dimension's common denominator)
    # orders as the ExtReal does; an infinite one has finite part 0
    keys = [tuple((x.inf, x.finite.numerator * (s // x.finite.denominator))
                  for x, s in zip(v, scales)) for v in vecs]
    return tuple(i for i, v in enumerate(keys)
                 if not any(v != w and all(a <= b for a, b in zip(v, w)) for w in keys))


# -- supporting maps ----------------------------------------------------------------------


def _in_relative_interior(q: Point, points: Sequence[Point]) -> bool:
    """q in relint(conv(points)), by one LP of d + 1 rows that pushes q away
    from the barycenter c: the largest g with q + g (q - c) in the hull is
    positive, or unbounded when q = c.  c weighs every point positively, so
    it is relatively interior, and then so is q when the segment from c
    through q runs on inside the hull (Rockafellar, Convex Analysis, Thm
    6.1); an interior q != c moves a little further, as the relative
    interior is open in the affine hull.  Raises NotInHull if the LP is
    infeasible: a hull point q + g (q - c) would make q a mix of it and c."""
    push = tuple(x - sum(p[j] for p in points) / len(points) for j, x in enumerate(q))
    result = _combination_lp(q, points, push=push)[0].solve({"g": 1}, maximize=True)
    if result.status == INFEASIBLE:
        raise NotInHull(f"{_format_point(q)} is not in the convex hull")
    return not result.ok or result.objective > 0  # unbounded exactly when q = c


def _lexmin_supporting_normal(q: Point, points: Sequence[Point],
                              rows: Sequence[Point]) -> Optional[Point]:
    """Lexicographically smallest sup-norm-1 vector w orthogonal to `rows`
    with <w, p - q> <= 0 for all points.  Deterministic; None if only w = 0
    works.  Each LP is over w in [-1, 1]^d, its objectives w_0, w_1, ...
    minimized in order in one tableau (lexicographic linear optimization,
    Isermann, OR Spektrum 4, 1982), so its lexmin is one point.

    The first LP is the whole box.  w = 0 is feasible, so its lexmin w* is
    lexicographically <= 0; if 0 < |w*|_inf < 1, w* / |w*|_inf would be
    feasible and smaller.  So a nonzero w* has sup-norm 1 and, as the unit
    sphere lies in the box, is the answer.  If w* = 0, every nonzero normal
    is lexicographically positive, so none has w_0 = -1: the answer is the
    least of the other pieces w_c = +-1, each the same LP with that row.

    The point rows are generated lazily (Dantzig, Fulkerson, Johnson, Oper.
    Res. 2, 1954): a piece poses only the rows of the points found so far,
    shared by all pieces, and while its solution w has <w, p - q> > 0 for
    some point, the point of largest such gap (the first on ties) joins them
    and the piece is solved again.  The relaxation contains the full
    feasible set, so an infeasible relaxation answers the piece, and a
    relaxed lexmin that meets every point row is the full one.  A new row
    always cuts off the last solution, so no row is added twice."""
    d = len(q)
    flat = integer_row([x - y for p in points for x, y in zip(p, q)])[0]
    diffs = [flat[i:i + d] for i in range(0, len(flat), d)]
    active: List[int] = []

    def piece_lexmin(coord: Optional[int] = None, sign: int = 0) -> Optional[Point]:
        while True:
            lp = LinearProgram()
            w = [lp.var(f"w{j}", lo=-1, hi=1) for j in range(d)]
            for vector, sense in [*((diffs[i], "<=") for i in active), *((r, "==") for r in rows)]:
                coeffs = {w[j]: v for j, v in enumerate(vector) if v != 0}
                if coeffs:
                    lp.constrain(coeffs, sense, 0)
            if coord is not None:
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

    box = piece_lexmin()
    if any(box):
        return box
    pieces = (piece_lexmin(coord, sign) for coord in range(d) for sign in (-1, 1)
              if (coord, sign) != (0, -1))
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
    if d != len(pts[0]):
        raise DimensionMismatch("query dimension differs from points")
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
    a dominating hull point) along the all-ones direction as far as the hull
    allows, to a point on a proper face, and decomposes that point with one
    :func:`caratheodory` LP over all points.  Every hyperplane supporting
    the hull there passes through each point of positive weight, so the
    basic solution's nonzero columns [p; 1] lie in a d-dimensional subspace
    and there are at most d of them.  Ties follow the simplex's Bland's rule
    over the points in index order.
    """
    pts = _check_points(points)
    q = as_point(q)
    d = len(q)
    if d != len(pts[0]):
        raise DimensionMismatch("query dimension differs from points")
    if mode not in ("in_hull", "dominated"):
        raise ValueError("mode must be 'in_hull' or 'dominated'")

    if mode == "in_hull":
        # The diagonal LP below cannot stand in for this one: it is feasible
        # for a point below the hull too, such as (0, 0) under (1, 1).
        if membership_combination(q, pts) is None:
            raise NotDominated(f"{_format_point(q)} is not in the convex hull")
        base = q
    else:
        lp, names = _combination_lp(q, pts, sense=">=")
        result = lp.solve({}, maximize=False)
        if not result.ok:
            raise NotDominated(f"{_format_point(q)} is not dominated by the hull")
        base = Decomposition(tuple(range(len(pts))), tuple(result[n] for n in names)).recombine(pts)

    # Push along the diagonal onto the boundary.
    result = _combination_lp(base, pts, push=(Fraction(1),) * d)[0].solve({"g": 1}, maximize=True)
    if not result.ok:
        raise SelfCheckFailed("the diagonal LP is infeasible, yet gamma = 0 is feasible")
    peak = tuple(x + result["g"] for x in base)

    dec = caratheodory(peak, pts)
    if dec.support_size > d:
        raise SelfCheckFailed(f"a face decomposition with {dec.support_size} > d points")
    recombined = dec.recombine(pts)
    if any(recombined[j] < q[j] for j in range(d)):
        raise SelfCheckFailed("the recombination does not dominate q")
    return dec

