"""Answer checks.  Each checker takes a parsed answer and what the benchmark
itself knows about the question, and raises `CheckError` on a wrong answer.

Expected values come from `oracle` (float64 solves, exact closed forms,
the benchmark's own pool enumeration) or from properties every correct
answer has (exact recombination, lexicographic maximality, support
bounds).  No check compares against a stored copy of momix's output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

import oracle
from oracle import INF, parse, parse_ext

REL_TOL = 1e-9


class CheckError(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


def close(got, want) -> bool:
    """`got` (exact or infinite) against a float reference."""
    if math.isinf(want) or (isinstance(got, float) and math.isinf(got)):
        return got == want
    return abs(float(got) - want) <= REL_TOL * max(1.0, abs(want))


def vector_close(got: Sequence, want: Sequence[float]) -> bool:
    return len(got) == len(want) and all(close(g, w) for g, w in zip(got, want))


# -- exact vectors and certificates -------------------------------------------------------


def recombine(weights: Sequence[Fraction], vectors) -> List:
    """Exact convex combination under 0 * inf = 0."""
    out = []
    for j in range(len(vectors[0])):
        acc = Fraction(0)
        for w, v in zip(weights, vectors):
            if w == 0:
                continue
            if isinstance(v[j], float):  # +-inf
                acc = v[j] if not isinstance(acc, float) or acc == v[j] else math.nan
            elif not isinstance(acc, float):
                acc += w * v[j]
        out.append(acc)
    return out


def check_certificate(answer: dict, mode: str, target: Sequence, vector_of, d: int,
                      eps: Fraction = None, big_m: Fraction = None):
    """A mixture certificate from `achieve` or `approx`.

    `vector_of(strategy_doc)` gives the benchmark's own exact vector of a
    support member.  The weights are recombined exactly; the result must be
    the reported realized vector and must equal, dominate or approximate the
    target.  Supports are bounded by d+1 (equals) and d (dominates)."""
    cert = answer["certificate"]
    weights = [parse(w) for w in cert["mixture"]["weights"]]
    members = cert["mixture"]["support"]
    require(len(weights) == len(members) == cert["support"], "support size mismatch")
    require(all(w > 0 for w in weights) and sum(weights) == 1, "weights are not a distribution")
    vectors = [vector_of(doc) for doc in members]
    realized = recombine(weights, vectors)
    require(realized == [parse_ext(x) for x in cert["realized"]],
            f"realized {cert['realized']} is not the recombination {realized}")
    require([parse_ext(x) for x in cert["target"]] == list(target), "target was changed")
    if mode == "equals":
        require(realized == list(target), f"{realized} != target {target}")
        require(len(weights) <= d + 1, f"support {len(weights)} > d+1")
    elif mode == "dominates":
        require(all(r >= t for r, t in zip(realized, target)), f"{realized} does not dominate")
        require(len(weights) <= d, f"support {len(weights)} > d")
    else:
        for r, t in zip(realized, target):
            if t == INF:
                require(r >= big_m, f"{r} below M={big_m}")
            elif t == -INF:
                require(r <= -big_m, f"{r} above -M")
            else:
                require(not isinstance(r, float) and abs(r - t) <= eps,
                        f"{r} not within eps of {t}")


def check_not_achievable(answer: dict, target: Sequence, points: Sequence):
    """'Not achievable' is accepted only for a target above the
    component-wise maximum of the pool."""
    require(answer.get("ok") is False, "expected a negative answer")
    d = len(target)
    require(any(target[j] > max(p[j] for p in points) for j in range(d)),
            "target is achievable but the answer says it is not")


# -- frontier and lexopt ------------------------------------------------------------------------


def check_frontier(answer: dict, pool_size: int, expected: Sequence, exact: bool,
                   vertices=None):
    """`expected` is the benchmark's own list of distinct pool vectors
    (exact, or floats when `exact` is False).  Pareto flags are recomputed by
    exact pairwise comparison of the reported vectors; vertex flags against
    the exact 2-d hull, the min/max in 1-d, or the known vertex set
    `vertices` in higher dimension."""
    require(answer["pool_size"] == pool_size, f"pool size {answer['pool_size']} != {pool_size}")
    rows = answer["distinct"]
    got = [tuple(parse_ext(x) for x in row["vector"]) for row in rows]
    require(len(set(got)) == len(got), "distinct vectors repeat")
    require(len(got) == len(expected), f"{len(got)} distinct vectors, expected {len(expected)}")
    if exact:
        require(set(got) == set(tuple(v) for v in expected), "distinct vectors differ")
    else:
        for g, w in zip(sorted(got), sorted(tuple(v) for v in expected)):
            require(vector_close(g, w), f"vector {g} differs from {w}")
    pareto = oracle.pareto_flags(got)
    require([row["pareto"] for row in rows] == pareto, "Pareto flags differ")
    d = len(got[0])
    if any(isinstance(c, float) for v in got for c in v):
        corners = set()
    elif vertices is not None:
        corners = set(tuple(v) for v in vertices)
    elif d == 1:
        corners = {min(got), max(got)}
    else:
        require(d == 2, "no vertex reference for this dimension")
        corners = oracle.hull_corners_2d(got)
    require([row["vertex"] for row in rows] == [v in corners for v in got], "vertex flags differ")


def check_lexopt(answer: dict, pool_size: int, expected: Sequence):
    require(answer["pool_size"] == pool_size, "pool size differs")
    require(answer["certified"] is True, "lexicographic optimum not certified")
    require(0 <= answer["winner_index"] < pool_size, "winner index out of range")
    best = max(tuple(v) for v in expected)
    require(tuple(parse_ext(x) for x in answer["vector"]) == best,
            f"{answer['vector']} is not the lexicographic maximum {best}")


# -- library answers -------------------------------------------------------------------------


def check_supporting_map(rows: Sequence[Sequence[Fraction]], q, points):
    """The image of q is the exact lexicographic maximum of the images of
    the points, with at most d rows."""
    d = len(q)
    require(len(rows) <= d, f"{len(rows)} rows > d")

    def image(p):
        return tuple(sum((r[j] * p[j] for j in range(d)), Fraction(0)) for r in rows)

    top = image(q)
    require(all(image(p) <= top for p in points), "q's image is not the lexicographic maximum")


def check_reduced(weights: Sequence[Fraction], vectors, original_weights, original_vectors, d: int):
    """A reduced mixture keeps the recombined vector exactly, with support at
    most d+1."""
    require(len(weights) <= d + 1, f"support {len(weights)} > d+1")
    require(all(w > 0 for w in weights) and sum(weights) == 1, "weights are not a distribution")
    require(recombine(weights, vectors) == recombine(original_weights, original_vectors),
            "reduction changed the realized vector")


# -- evaluation, classification and simulation --------------------------------------------------


def check_vector(answer: dict, expected: Sequence[float]):
    got = [parse_ext(x) for x in answer["vector"]]
    require(vector_close(got, expected), f"vector {answer['vector']} differs from {expected}")


def check_verdicts(answer: dict, expected: Sequence[str]):
    require(answer["verdicts"] == list(expected), f"verdicts {answer['verdicts']} != {expected}")


def check_simulation(answer: dict, exact: Sequence[float], samples: int, horizon: int):
    """Each finite dimension's mean lies within 5 standard errors plus the
    reported truncation-bias bound of the exact value; an infinite
    shortest-path value shows up as censored samples."""
    require(answer["samples"] == samples and answer["horizon"] == horizon, "sample config changed")
    for j, want in enumerate(exact):
        if math.isinf(want):
            require(answer["censored"][j] > 0, f"dim {j}: infinite value but nothing censored")
            continue
        bias = answer["bias_bound"][j]
        slack = 5 * answer["stderr"][j] + (float(parse(bias)) if bias is not None else 0.0) + 1e-12
        require(abs(answer["mean"][j] - want) <= slack,
                f"dim {j}: mean {answer['mean'][j]} vs exact {want} (slack {slack})")
