"""Shared fixtures: the bundled models and the strategies used throughout,
and the reference implementations the library is checked against."""

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest

import momix as mx
from momix.geometry import Point, _check_points, membership_combination
from momix.linalg import solve_linear
from momix.lp import LinearProgram
from momix.model import Pomdp
from momix.strategies import FiniteMemoryStrategy, Mem, transition_table

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def solve_column(matrix, rhs):
    """`solve_linear` on one right-hand side: one value per row in and out."""
    return [x for (x,) in solve_linear(matrix, [(b,) for b in rhs])]


def fraction_rref(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction;
    returns (rows, pivot_columns).  The reference for `linalg.rref`, which
    eliminates fraction-free; the rank is len(pivot_columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def fraction_nullspace(matrix):
    """Basis of {x : A x = 0} from `fraction_rref`, free variables in column
    order."""
    ncols = len(matrix[0])
    rows, pivots = fraction_rref(matrix)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


# -- reference: the product Markov chain, kept verbatim ------------------------------


@dataclass(frozen=True)
class MarkovChain:
    """Exact product of a model with a finite-memory strategy.

    nodes are (state, memory) pairs reachable from the initial pair; rows of
    `matrix` are sparse dicts over node indices and sum to exactly 1.
    `action_dists[i]` is the strategy's action distribution at node i, kept
    for lifting weights and targets.  `edges[i]` lists node i's joint moves
    (action a, probability alpha(a) * p(t), successor node of state t), one
    per action played and successor state, in model action order and then
    model state order.
    """

    nodes: Tuple[Tuple[str, Mem], ...]
    index: Mapping[Tuple[str, Mem], int]
    matrix: Tuple[Mapping[int, Fraction], ...]
    action_dists: Tuple[Mapping[str, Fraction], ...]
    edges: Tuple[Tuple[Tuple[str, Fraction, int], ...], ...]
    init: int
    model: Pomdp

    def state_of(self, i: int) -> str:
        return self.nodes[i][0]

    def __len__(self):
        return len(self.nodes)


def product_chain(model: Pomdp, strategy: FiniteMemoryStrategy, start: str) -> MarkovChain:
    """The chain of `strategy` from `start`, read off the transition table of
    its skeleton: nodes in breadth-first order, following the strategy's
    action distributions and then the model's."""
    table = transition_table(model, strategy.skeleton, [start])
    order = [0]  # table node of each chain node
    position = {0: 0}
    rows: List[Dict[int, Fraction]] = []
    dists: List[Mapping[str, Fraction]] = []
    edges: List[Tuple[Tuple[str, Fraction, int], ...]] = []
    action_rank = {a: k for k, a in enumerate(model.actions)}
    state_rank = {t: k for k, t in enumerate(model.states)}
    for node in order:  # grows while it is read: breadth-first
        s, mem = table.nodes[node]
        dist = strategy.action_distribution(mem, model.obs[s])
        row: Dict[int, Fraction] = {}
        moves = []
        for a, alpha in dist.items():
            if alpha == 0:
                continue
            for nxt, p in table.moves[node][a]:
                if nxt not in position:
                    position[nxt] = len(order)
                    order.append(nxt)
                j, q = position[nxt], alpha * p
                row[j] = row.get(j, Fraction(0)) + q
                moves.append((a, q, j))
        moves.sort(key=lambda move: (action_rank[move[0]],
                                     state_rank[table.nodes[order[move[2]]][0]]))
        rows.append(row)
        dists.append(dict(dist))
        edges.append(tuple(moves))
    nodes = tuple(table.nodes[node] for node in order)
    return MarkovChain(nodes, {node: j for j, node in enumerate(nodes)}, tuple(rows),
                       tuple(dists), tuple(edges), 0, model)


# -- reference: the row-fixing lexicographic cascade and the n-LP extreme points ------------
# kept verbatim, but for their names


def cascade_lexmin_supporting_normal(q: Point, points: Sequence[Point],
                                     rows: Sequence[Point]) -> Optional[Point]:
    """Lexicographically smallest sup-norm-1 vector w orthogonal to `rows`
    with <w, p - q> <= 0 for all points.  Deterministic; None if only w = 0
    works.  Each piece w_c = +-1 is one LP over w in [-1, 1]^d, minimized in
    w_0, w_1, ... in turn, each optimum fixed by a row before the next."""
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
        for wj in w:
            result = lp.solve({wj: 1})
            if not result.ok:
                return None
            lp.constrain({wj: 1}, "==", result.objective)
        return tuple(result[wj] for wj in w)

    pieces = (piece_lexmin(coord, sign) for coord in range(d) for sign in (-1, 1))
    return min((w for w in pieces if w is not None), default=None)


def n_lp_extreme_points(points) -> Tuple[int, ...]:
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


def certifies_program(program, y):
    """The Farkas condition on a LinearProgram as declared: y <= 0 on `<=`
    rows and >= 0 on `>=` rows (the constraints, then `x <= hi` per upper
    bound), y.A <= 0 on each variable's column and == 0 on a free one's, and
    y.(b - A lo) > 0."""
    rows = list(program._constraints) + [({name: Fraction(1)}, "<=", hi)
                                         for name, _lo, hi in program._vars if hi is not None]
    if len(y) != len(rows):
        return False
    if any((sense == "<=" and v > 0) or (sense == ">=" and v < 0)
           for v, (_c, sense, _b) in zip(y, rows)):
        return False
    slack = sum(v * b for v, (_c, _s, b) in zip(y, rows))
    for name, lo, _hi in program._vars:
        column = sum(v * coeffs.get(name, 0) for v, (coeffs, _s, _b) in zip(y, rows))
        if column > 0 or (lo is None and column != 0):
            return False
        slack -= column * (lo or 0)
    return slack > 0


def load(name):
    with open(os.path.join(MODELS, name), "r", encoding="utf-8") as fh:
        return mx.load_problem(fh.read())


@pytest.fixture(scope="session")
def commute():
    return load("commute.json")


@pytest.fixture(scope="session")
def two_discounts():
    return load("two_discounts.json")


@pytest.fixture(scope="session")
def split_reach():
    return load("split_reach.json")


@pytest.fixture(scope="session")
def earn_or_exit():
    return load("earn_or_exit.json")


@pytest.fixture(scope="session")
def coin_exit():
    return load("coin_exit.json")


@pytest.fixture(scope="session")
def delayed_exit():
    return load("delayed_exit.json")


@pytest.fixture(scope="session")
def gated_reward():
    return load("gated_reward.json")


# -- strategy builders ---------------------------------------------------------


def memoryless_table(model, choices):
    """choices: observation -> action, single-action observations filled in."""
    table = {}
    for z in model.observations:
        enabled = model.enabled_for_observation(z)
        if not enabled:
            continue
        table[(0, z)] = choices.get(z, enabled[0])
    return mx.PureStrategy(mx.memoryless(model), table)


def commute_train(model):
    return memoryless_table(model, {"home": "train"})


def commute_bike(model):
    return memoryless_table(model, {"home": "bike"})


def commute_ltb(model, attempts):
    """Try the train `attempts` times, then bike."""
    sk = mx.counter(model, attempts)
    table = {}
    for q in range(attempts + 1):
        table[(q, "home")] = "train" if q < attempts else "bike"
        table[(q, "ride")] = "train"
        table[(q, "work")] = "meeting"
    return mx.PureStrategy(sk, table)


def split_reach_choice(model, action):
    return memoryless_table(model, {"s0": action})


def earn_or_exit_leave(model, rounds):
    """Loop `rounds` times in s with a, then switch to b."""
    sk = mx.counter(model, rounds)
    table = {}
    for q in range(rounds + 1):
        table[(q, "s")] = "a" if q < rounds else "b"
        table[(q, "t")] = "b"
    return mx.PureStrategy(sk, table)


def earn_or_exit_stay(model):
    return memoryless_table(model, {"s": "a", "t": "b"})


def coin_exit_switch(model, rounds):
    """Use a for the first `rounds` rounds, then b forever."""
    sk = mx.counter(model, rounds)
    table = {}
    for q in range(rounds + 1):
        table[(q, "s")] = "a" if q < rounds else "b"
        table[(q, "t")] = "a"
    return mx.PureStrategy(sk, table)


def coin_exit_always(model, action):
    return memoryless_table(model, {"s": action, "t": "a"})


def gated_reward_leave(model, loops):
    """Loop b `loops` times in s, then a to the target."""
    sk = mx.counter(model, loops)
    table = {}
    for q in range(loops + 1):
        table[(q, "s")] = "b" if q < loops else "a"
        table[(q, "t")] = "a"
    return mx.PureStrategy(sk, table)


def grid_randomized(model, skeleton, rng, grid=4):
    """A behavioural strategy whose action weights come from a rational grid."""
    act = {}
    for (mem, z), enabled in mx.strategies.reachable_choice_points(model, skeleton):
        raw = [rng.randrange(grid + 1) for _ in enabled]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        total = sum(raw)
        act[(mem, z)] = {a: Fraction(r, total) for a, r in zip(enabled, raw) if r}
    return mx.FiniteMemoryStrategy(skeleton, act)


def distinct_vectors(pool):
    out = []
    for _s, v in pool:
        if v not in out:
            out.append(v)
    return out
