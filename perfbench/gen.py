"""Seeded generators for the benchmark's inputs.

Everything here is plain Python over `fractions.Fraction` and JSON-ready
dicts; nothing imports momix.  The same seed always yields the same
documents: every random stream is a `random.Random` seeded with a string,
which Python hashes deterministically.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# -- chains: stochastic MDPs with a goal and a trap ---------------------------------

GOAL, TRAP0, TRAP1 = "g", "x0", "x1"
CHAIN_ACTIONS = ("a", "b", "c")
DISCOUNT = Fraction(9, 10)


def chain_model(seed: int, index: int, regular: int = 10) -> dict:
    """A stochastic MDP with `regular` transient states r0..r{n-1}, an
    absorbing goal `g` and a two-state trap cycle x0 <-> x1.

    The shape (actions per state, successor sets, which exits lead to the
    goal and which to the trap, and every denominator) depends on `index`
    only; the seed draws the numerators of the probabilities and weights.
    Denominators set how fast the exact solves' numbers grow, so fixing
    them keeps the cost of a question nearly the same from seed to seed.  Every action of a regular state leaves for
    the goal or the trap with probability at least 1/10, so every play is
    absorbed geometrically fast (truncating at 256 steps loses less than
    1e-11) and the trap keeps reach probabilities strictly inside (0, 1).
    Successors are near neighbours on a ring, which keeps the exact systems
    sparse.  Payoffs cover all six kinds; the weight columns are
    non-negative and zero on the absorbing states, so total reward stays
    finite.
    """
    shape = rng(0, "chain-shape", index)
    value = rng(seed, "chain-values", index)
    states = [f"r{i}" for i in range(regular)] + [GOAL, TRAP0, TRAP1]
    transitions = {}
    weights = {}
    for i in range(regular):
        per_action = {}
        n_actions = 2 if shape.random() < 0.6 else 3
        for a in CHAIN_ACTIONS[:n_actions]:
            hops = shape.sample((-1, 1, 2, 3), shape.randint(1, 3))
            exit_to = GOAL if shape.random() < 0.7 else TRAP0
            den = shape.choice((10, 12, 20))
            exit_mass = value.randint(den // 10, den // 4)
            rest = den - exit_mass
            cuts = sorted(value.sample(range(1, rest), len(hops) - 1))
            parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [rest])]
            dist = {}
            for hop, part in zip(hops, parts):
                t = f"r{(i + hop) % regular}"
                dist[t] = dist.get(t, Fraction(0)) + Fraction(part, den)
            dist[exit_to] = Fraction(exit_mass, den)
            per_action[a] = {t: fmt(p) for t, p in dist.items()}
            weights[f"r{i},{a}"] = [fmt(Fraction(value.randint(0, 6), shape.choice((1, 2, 3))))
                                    for _ in range(4)]
        transitions[f"r{i}"] = per_action
    transitions[GOAL] = {"a": {GOAL: "1"}}
    transitions[TRAP0] = {"a": {TRAP1: "1"}}
    transitions[TRAP1] = {"a": {TRAP0: "1"}}
    for s in (GOAL, TRAP0, TRAP1):
        weights[f"{s},a"] = ["0", "0", "0", "0"]
    payoffs = [
        {"kind": "reach", "target": [GOAL]},
        {"kind": "buchi", "target": [TRAP1]},
        {"kind": "discounted_sum", "lambda": fmt(DISCOUNT), "weights": "w", "windex": 0},
        {"kind": "reach_gated_discounted_sum", "target": [GOAL], "lambda": fmt(DISCOUNT),
         "weights": "w", "windex": 1},
        {"kind": "total_reward", "weights": "w", "windex": 2},
        {"kind": "shortest_path", "target": [GOAL], "weights": "w", "windex": 3},
    ]
    return {"states": states, "actions": list(CHAIN_ACTIONS), "transitions": transitions,
            "weights": {"w": weights}, "payoffs": payoffs}


def without_buchi(doc: dict) -> dict:
    """The same model with the Buchi dimension dropped (Monte-Carlo sampling
    has no truncation policy for it)."""
    out = dict(doc)
    out["payoffs"] = [p for p in doc["payoffs"] if p["kind"] != "buchi"]
    return out


def enabled(doc: dict, state: str):
    return [a for a in doc["actions"] if a in doc["transitions"].get(state, {})]


def chain_strategy(doc: dict, seed: int, label, memory: int, pure: bool) -> dict:
    """A finite-memory strategy with `memory` states.  The memory update and
    the chosen actions (for a randomised strategy, the two actions it
    mixes) depend on `label` only; the seed draws the mixing
    probabilities, all with denominator 8.  Support, and so the product
    chain's shape, is the same for every seed."""
    shape = rng(0, "strategy-shape", label)
    value = rng(seed, "strategy-values", label)
    mem = [str(k) for k in range(memory)]
    update, act = {}, {}
    for m in mem:
        for s in doc["states"]:
            acts = enabled(doc, s)
            for a in acts:
                update[f"{m},{s},{a}"] = shape.choice(mem)
            if pure or len(acts) == 1:
                act[f"{m},{s}"] = shape.choice(acts)
            else:
                a, b = shape.sample(acts, 2)
                p = Fraction(value.choice((1, 3, 5, 7)), 8)
                act[f"{m},{s}"] = {a: fmt(p), b: fmt(1 - p)}
    return {"memory": mem, "init": "0", "update": update, "act": act}


# -- mixing: one-choice models over seeded rational points ----------------------------

SINK = "z"


def sphere_points(r: random.Random, d: int, count: int):
    """`count` distinct rational points on the unit sphere, by inverse
    stereographic projection of small rational parameters.  Points on a
    sphere are in strictly convex position, so each one is a vertex of the
    hull of any set that contains it and otherwise only points inside the
    ball."""
    out = []
    while len(out) < count:
        u = [Fraction(r.randint(-3, 3), 2) for _ in range(d - 1)]
        norm = sum(x * x for x in u)
        p = tuple([2 * ui / (1 + norm) for ui in u] + [(norm - 1) / (1 + norm)])
        if p not in out:
            out.append(p)
    return out


def interior_points(r: random.Random, vertices, count: int):
    """`count` distinct strict convex combinations of 2 or 3 vertices.  A
    strict combination of distinct points on a sphere lies inside the ball,
    so none of them is a vertex."""
    out = []
    while len(out) < count:
        chosen = r.sample(range(len(vertices)), r.randint(2, 3))
        raw = [r.randint(1, 3) for _ in chosen]
        total = sum(raw)
        d = len(vertices[0])
        p = tuple(sum(Fraction(w, total) * vertices[i][j] for w, i in zip(raw, chosen))
                  for j in range(d))
        if p not in out and p not in vertices:
            out.append(p)
    return out


def point_pool(seed: int, slot, d: int, n_vertices: int, n_inner: int):
    """(points, vertices) of one mixing model.  The shape (sphere points,
    which of them each interior point combines, the order, a positive scale
    per coordinate) depends on `slot` only; the seed draws a shift per
    coordinate, always with denominator 4.  A translation keeps the hull's vertex set, every facet
    normal and every domination relation, so the seed changes the numbers
    and not the LP cascades' path: a seeded scale would change which
    supporting normal is lexicographically least, and with it the number
    of LPs a `supporting_map` solves (17 to 30 on the same pool)."""
    shape = rng(0, "points-shape", slot)
    unit = sphere_points(shape, d, n_vertices)
    points = unit + interior_points(shape, unit, n_inner)
    shape.shuffle(points)
    scale = [Fraction(shape.randint(4, 12), 4) for _ in range(d)]
    value = rng(seed, "points-values", slot)
    # odd numerators: every shift has denominator 4, so the numbers' sizes,
    # and with them the cost of exact arithmetic, do not depend on the seed
    shift = [Fraction(value.randrange(9, 25, 2), 4) for _ in range(d)]

    def move(p):
        return tuple(scale[j] * p[j] + shift[j] for j in range(d))
    return [move(p) for p in points], [move(p) for p in unit]


def one_choice_model(points) -> dict:
    """Start state `s` with one action per point, each moving to an absorbing
    sink; d discounted-sum payoffs read the point off the first step, so the
    memoryless pool is exactly `points`, in order."""
    d = len(points[0])
    actions = [f"p{i}" for i in range(len(points))] + ["stay"]
    transitions = {"s": {f"p{i}": {SINK: "1"} for i in range(len(points))},
                   SINK: {"stay": {SINK: "1"}}}
    weights = {f"s,p{i}": [fmt(c) for c in p] for i, p in enumerate(points)}
    weights[f"{SINK},stay"] = ["0"] * d
    payoffs = [{"kind": "discounted_sum", "lambda": "1/2", "weights": "w", "windex": j}
               for j in range(d)]
    return {"states": ["s", SINK], "actions": actions, "transitions": transitions,
            "weights": {"w": weights}, "payoffs": payoffs}


# the common denominator of every seeded convex weight: a prime, so no
# weight reduces and the numbers' sizes do not depend on the seed
WEIGHT_TOTAL = 31


def convex_weights(r: random.Random, count: int):
    """`count` positive weights k/WEIGHT_TOTAL summing to 1, drawn by `r`."""
    cuts = sorted(r.sample(range(1, WEIGHT_TOTAL), count - 1))
    return [Fraction(hi - lo, WEIGHT_TOTAL) for lo, hi in zip([0] + cuts, cuts + [WEIGHT_TOTAL])]


def convex_target(r: random.Random, points, support: int, weights: random.Random = None):
    """A convex combination of `support` of the points; `r` picks the
    points and `weights` (default `r`) draws the coefficients."""
    chosen = r.sample(range(len(points)), support)
    coefficients = convex_weights(weights or r, support)
    d = len(points[0])
    return tuple(sum(w * points[i][j] for w, i in zip(coefficients, chosen))
                 for j in range(d))


def target_arg(vector) -> str:
    return ",".join(fmt(v) for v in vector)
