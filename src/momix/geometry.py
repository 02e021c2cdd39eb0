"""Exact convex geometry over rational points in small dimension.

Hulls, extreme points, Pareto filtering, strong separation, supporting
linear maps (the lexicographic-maximum construction used to reach points on
faces of payoff sets), Caratheodory decompositions and the achievability
feasibility test.  Everything is decided by the exact simplex in
:mod:`momix.lp`; degeneracies (collinear point families and the like) are
resolved exactly, never by tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotDominated, NotInHull, SelfCheckFailed
from .linalg import dot, nullspace, rref
from .lp import LinearProgram
from .rationals import ExtRealVector, format_rational

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
class Hyperplane:
    """<normal, x> <= offset contains the reference set."""

    normal: Point
    offset: Fraction

    def value(self, point) -> Fraction:
        return dot(self.normal, as_point(point))


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
    exactly.  The simplex returns a basic solution, which already has small
    support; an affine-dependency elimination pass guards the bound."""
    pts = _check_points(points)
    q = as_point(q)
    coeffs = membership_combination(q, pts)
    if coeffs is None:
        raise NotInHull(f"{_format_point(q)} is not in the convex hull")
    d = len(q)
    idx = [i for i, c in enumerate(coeffs) if c != 0]
    alpha = [coeffs[i] for i in idx]
    idx, alpha = _eliminate_dependencies(pts, idx, alpha, d + 1)
    return Decomposition(tuple(idx), tuple(alpha))


def _eliminate_dependencies(points, idx, alpha, target_size):
    """Shrink a convex combination along affine dependencies of its support
    until at most `target_size` coefficients remain positive."""
    idx = list(idx)
    alpha = list(alpha)
    while len(idx) > target_size:
        matrix = [[points[i][j] for i in idx] for j in range(len(points[0]))]
        matrix.append([Fraction(1)] * len(idx))
        basis = nullspace(matrix)
        if not basis:
            break
        beta = basis[0]
        if all(b <= 0 for b in beta):
            beta = [-b for b in beta]
        t = min(alpha[i] / beta[i] for i in range(len(idx)) if beta[i] > 0)
        alpha = [a - t * b for a, b in zip(alpha, beta)]
        keep = [i for i, a in enumerate(alpha) if a > 0]
        idx = [idx[i] for i in keep]
        alpha = [alpha[i] for i in keep]
    return idx, alpha


# -- extreme points, hulls, Pareto ----------------------------------------------------


def extreme_points(points) -> Tuple[int, ...]:
    """Indices i with points[i] outside the hull of the other points."""
    pts = _check_points(points)
    out = []
    for i in range(len(pts)):
        others = [p for j, p in enumerate(pts) if j != i]
        if not others:
            out.append(i)
            continue
        if membership_combination(pts[i], others) is None:
            out.append(i)
    return tuple(out)


def affine_span(points) -> Tuple[List[Point], Point]:
    """Basis of the direction space of the affine span, plus the base point."""
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
    unique: List[Point] = []
    for p in pts:
        if p not in unique:
            unique.append(p)
    corner_points = {unique[i] for i in extreme_points(unique)}
    verts = tuple(i for i, p in enumerate(pts) if p in corner_points)
    basis, base = affine_span(pts)
    k = len(basis)

    span_eqs = []
    if k < d:
        normals = nullspace([list(b) for b in basis]) if basis else \
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
            null_z = nullspace(rows) if rows else \
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


def pareto_frontier(vectors: Sequence[ExtRealVector]) -> Tuple[int, ...]:
    """Indices of the vectors not strictly dominated component-wise; exact
    ties are all kept."""
    vecs = [v if isinstance(v, ExtRealVector) else ExtRealVector(v) for v in vectors]
    out = []
    for i, v in enumerate(vecs):
        if not any(v.strictly_dominated_by(w) for w in vecs):
            out.append(i)
    return tuple(out)


# -- separation -------------------------------------------------------------------------


def separate(q, points) -> Optional[Hyperplane]:
    """A hyperplane strongly separating q from conv(points), if q is outside.

    The returned orientation satisfies <n, p> <= offset < <n, q> with strict
    margin on both sides.
    """
    pts = _check_points(points)
    q = as_point(q)
    d = len(q)
    lp = LinearProgram()
    u = [lp.var(f"u{j}", lo=Fraction(-1), hi=Fraction(1)) for j in range(d)]
    m = lp.var("m", lo=None)
    for p in pts:
        row = {u[j]: p[j] for j in range(d)}
        row[m] = Fraction(-1)
        lp.constrain(row, "<=", Fraction(0))
    objective = {u[j]: q[j] for j in range(d)}
    objective[m] = Fraction(-1)
    result = lp.solve(objective, maximize=True)
    if not result.ok or result.objective <= 0:
        return None
    normal = tuple(result[u[j]] for j in range(d))
    worst = max(dot(normal, p) for p in pts)
    offset = (worst + dot(normal, q)) / 2
    return Hyperplane(normal, offset)


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
    null_z = nullspace([row])
    out = []
    for z in null_z:
        vec = tuple(
            sum((z[t] * basis[t][j] for t in range(k)), Fraction(0))
            for j in range(len(basis[0]))
        )
        if any(v != 0 for v in vec):
            out.append(vec)
    return out


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
    basis: List[Point] = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(d)) for i in range(d)
    ]
    current = list(pts)
    rows: List[Point] = []
    while len(rows) <= d:
        if _in_relative_interior(q, current):
            break
        w = _lexmin_supporting_normal(q, current, basis)
        if w is None:
            raise SelfCheckFailed("no supporting normal outside the relative interior")
        rows.append(w)
        level = dot(w, q)
        current = [p for p in current if dot(w, p) == level]
        basis = _basis_orthogonal_to(basis, w)
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
        w = _lexmin_supporting_normal(peak, pts, [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(d)) for i in range(d)
        ])
        if w is None:
            raise SelfCheckFailed("no supporting normal at the peak of a full-dimensional hull")
        level = dot(w, peak)
        face = [i for i in range(len(pts)) if dot(w, pts[i]) == level]
        inner = caratheodory(peak, [pts[i] for i in face])
        dec = Decomposition(tuple(face[i] for i in inner.indices), inner.coefficients)
    if dec.support_size > d:
        idx, alpha = _eliminate_dependencies(pts, list(dec.indices), list(dec.coefficients), d)
        dec = Decomposition(tuple(idx), tuple(alpha))
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
