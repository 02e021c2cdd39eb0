"""Shared fixtures: the bundled models and the strategies used throughout,
and the reference implementations the library is checked against."""

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import pytest

import momix as mx
from momix.beliefs import BeliefSupport, _avoider_strategy, _reachable_avoiding
from momix.errors import NotInHull, PoolTooLarge, SingularSystem
from momix.geometry import Point, _check_points, _format_point, membership_combination
from momix.linalg import factor, solve_linear
from momix.lp import LinearProgram
from momix.model import Pomdp
from momix.rationals import integer_row
from momix.strategies import (FiniteMemoryStrategy, Mem, MemorySkeleton, PureStrategy,
                              reachable_choice_points, transition_table)

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def factor_rows(matrix):
    """`factor` of a rational matrix, each row scaled by the lcm of its
    denominators."""
    rows = [integer_row(row) for row in matrix]
    return factor([ints for ints, _scale in rows], [scale for _ints, scale in rows])


def solve_column(matrix, rhs):
    """`factor` and `solve_linear` on one right-hand side: one value per row
    in and out."""
    return [x for (x,) in solve_linear(factor_rows(matrix), [(b,) for b in rhs])]


# -- reference: the dense solver, which rewrote whole [A | B] rows and eliminated
# the matrix again for each batch of right-hand sides; kept verbatim, but for its
# names


def dense_bareiss(a: List[List[int]], ncols: int) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    first ncols columns of the integer rows a to row echelon form, in place:
    every entry below the pivot row after step k is a (k+1)-minor, so
    dividing by the previous pivot is exact.  The pivot is the first nonzero
    entry of its column at or below the diagonal.  Returns the signed last
    pivot, det(a) for a square a, or 0 at the first column without a
    pivot."""
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(col, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        akk = top[col]
        for i in range(col + 1, len(a)):
            aik = a[i][col]
            a[i] = [(akk * v - aik * p) // prev for v, p in zip(a[i], top)]
        prev = akk
    return sign * prev


def dense_solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[tuple]) -> List[tuple]:
    """Solve A X = B exactly for square A by Bareiss elimination on [A' | C]:
    A' is A with each row scaled by the lcm of that row's denominators, and
    each right-hand side, scaled by the same row factors, goes over its own
    common denominator D, so that A' x = c / D.  The minors of A' stay as
    small as A's own entries allow; large numbers in B reach only the
    right-hand columns.

    `rhs[i]` is the tuple of row i's entries of every right-hand side, and
    the solution gives row i's values as a tuple in the same order: each
    further right-hand side is one more column of the same elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    rows = [integer_row(row) for row in matrix]
    columns = [integer_row([b * scale for (_ints, scale), b in zip(rows, column)])
               for column in zip(*rhs)]
    a = [[*ints, *(c[i] for c, _common in columns)] for i, (ints, _scale) in enumerate(rows)]
    det = dense_bareiss(a, n)
    if det == 0:
        raise SingularSystem("the system matrix is singular")
    # Cramer: det * D * x is an integer vector, so back-substitution stays exact.
    solutions = []
    for col, (_c, common) in enumerate(columns, start=n):
        num = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            num[i] = (det * row[col] - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
        solutions.append([Fraction(v, det * common) for v in num])
    return list(zip(*solutions))


def fraction_rref(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction;
    returns (rows, pivot_columns).  The rank is len(pivot_columns)."""
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


# -- reference: every act table of a pool, kept verbatim but for its imports -------


def enumerate_pure(model: Pomdp, skeleton: MemorySkeleton, cap: int = 1_000_000) -> Iterator[PureStrategy]:
    """All deterministic act tables over the reachable choice points, in
    lexicographic table order.  Deterministic across runs."""
    points = reachable_choice_points(model, skeleton)
    size = 1
    for _, enabled in points:
        size *= len(enabled)
    if size > cap:
        raise PoolTooLarge(size, cap)
    keys = [key for key, _ in points]
    for combo in itertools.product(*(enabled for _, enabled in points)):
        yield PureStrategy(skeleton, dict(zip(keys, combo)))


# -- reference: closed-form payoffs of ultimately periodic ("lasso") plays --------


def lasso_steps(model: Pomdp, strategy: PureStrategy, start: str):
    """The unique play of a pure strategy from `start` as (prefix, cycle)
    lists of (state, action) steps: the prefix runs once, then the cycle
    forever.  Raises ValueError on a randomised transition."""
    steps: List[Tuple[str, str]] = []
    seen: Dict[Tuple[str, Mem], int] = {}
    s, mem = start, strategy.skeleton.init
    while (s, mem) not in seen:
        seen[(s, mem)] = len(steps)
        z = model.obs[s]
        a = strategy.table[(mem, z)]
        dist = model.dist(s, a)
        if len(dist) != 1:
            raise ValueError(f"randomised transition at ({s},{a})")
        steps.append((s, a))
        mem = strategy.skeleton.step(mem, z, a)
        s = next(iter(dist))
    split = seen[(s, mem)]
    return steps[:split], steps[split:]


def lasso_payoff(spec, prefix, cycle) -> mx.ExtReal:
    """The closed-form payoff of the play that takes the `prefix` steps once
    and then the `cycle` steps forever."""
    reached = any(s in getattr(spec, "target", ()) for s, _a in prefix + cycle)
    if isinstance(spec, mx.ReachIndicator):
        return mx.ExtReal(int(reached))
    if isinstance(spec, mx.BuchiIndicator):  # the cycle states recur, the others do not
        return mx.ExtReal(int(any(s in spec.target for s, _a in cycle)))
    if isinstance(spec, mx.TotalRewardNonNeg):
        if any(spec.weights(s, a) > 0 for s, a in cycle):
            return mx.POS_INF
        return mx.ExtReal(sum(spec.weights(s, a) for s, a in prefix))
    if isinstance(spec, mx.ShortestPath):
        cost = Fraction(0)
        for s, a in prefix + cycle:
            if s in spec.target:
                return mx.ExtReal(cost)
            cost += spec.weights(s, a)
        return mx.POS_INF
    if isinstance(spec, mx.ReachGatedDiscountedSum) and not reached:
        return mx.ExtReal(0)
    lam = spec.discount  # a discounted sum, gated or not
    head = sum(lam ** i * spec.weights(s, a) for i, (s, a) in enumerate(prefix))
    loop = sum(lam ** i * spec.weights(s, a) for i, (s, a) in enumerate(cycle))
    return mx.ExtReal(head + lam ** len(prefix) * loop / (1 - lam ** len(cycle)))


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
        dist = dict(strategy.choice(mem, model.obs[s]))
        row: Dict[int, Fraction] = {}
        moves = []
        for a, alpha in dist.items():
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
        dists.append(dist)
        edges.append(tuple(moves))
    nodes = tuple(table.nodes[node] for node in order)
    return MarkovChain(nodes, {node: j for j, node in enumerate(nodes)}, tuple(rows),
                       tuple(dists), tuple(edges), 0, model)


# -- reference: the row-fixing lexicographic cascade, the one-LP-per-piece normal over
# every point, the n-LP extreme points and the positive-combination relative-interior
# test; kept verbatim, but for their names


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


def dense_lexmin_supporting_normal(q: Point, points: Sequence[Point],
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


def positive_combination_relint(q: Point, points: Sequence[Point]) -> bool:
    """q in relint(conv(points)): some representation uses every point with a
    strictly positive coefficient.  Raises NotInHull if q has none."""
    lp = LinearProgram()
    names = [lp.var(f"a{i}") for i in range(len(points))]
    m, m_ = lp.var("m+"), lp.var("m-")  # the free m = m+ - m-, adjacent columns
    for j in range(len(q)):
        lp.constrain({names[i]: points[i][j] for i in range(len(points))}, "==", q[j])
    lp.constrain({n: Fraction(1) for n in names}, "==", Fraction(1))
    for n in names:
        lp.constrain({n: Fraction(1), m: Fraction(-1), m_: Fraction(1)}, ">=", Fraction(0))
    result = lp.solve({m: Fraction(1), m_: Fraction(-1)}, maximize=True)
    if not result.ok:  # m <= a_i <= 1 bounds the LP, so it is infeasible
        raise NotInHull(f"{_format_point(q)} is not in the convex hull")
    return result.objective > 0


# -- reference: the avoidance game on every subset of each observation class ------
# kept verbatim, but for its name and the error it raises, with its own belief
# update so that it reads none of the code it checks


# Largest observation class whose 2^n belief supports are enumerated.
MAX_GROUP = 20


def _belief_update(model: Pomdp, support: BeliefSupport, action: str,
                   observation: str) -> Optional[BeliefSupport]:
    """States with the given observation reachable in one `action` step from
    the support, a set of states of one observation, under an action they
    enable; None when that observation cannot occur."""
    successors = set()
    for s in support:
        for t, p in model.dist(s, action).items():
            if p > 0 and model.obs[t] == observation:
                successors.add(t)
    return frozenset(successors) if successors else None


def subset_avoidance_winning_supports(model: Pomdp, target: frozenset) -> Dict[BeliefSupport, str]:
    """Greatest set of target-disjoint belief supports from which a belief
    strategy can keep all observation outcomes target-disjoint forever.
    Returns the winning supports with one safe action each."""
    groups: Dict[str, List[str]] = {}
    for s in model.states:
        if s not in target:
            groups.setdefault(model.obs[s], []).append(s)
    candidates = set()
    for z, members in groups.items():
        if len(members) > MAX_GROUP:
            raise ValueError(
                f"observation class {z!r} has {len(members)} non-target states; "
                f"belief-support enumeration handles at most {MAX_GROUP}")
        for r in range(1, len(members) + 1):
            for combo in itertools.combinations(members, r):
                candidates.add(frozenset(combo))

    winning = set(candidates)

    def safe_action(support) -> Optional[str]:
        """The first enabled action keeping every observation outcome of
        `support` inside the current winning set."""
        for a in model.enabled(next(iter(support))):
            outcomes = (_belief_update(model, support, a, z) for z in model.observations)
            if all(nxt is None or nxt in winning for nxt in outcomes):
                return a
        return None

    changed = True
    while changed:
        changed = False
        for support in sorted(winning, key=sorted):
            if safe_action(support) is None:
                winning.discard(support)
                changed = True
    return {support: safe_action(support) for support in winning}


def subset_game_universal_as_reach(model: Pomdp, start: str, target: frozenset):
    """`beliefs.universal_as_reach` on the subset game above, as
    (holds, witness_state, witness)."""
    avoid_reachable = _reachable_avoiding(model, start, target)
    if not avoid_reachable:  # start is already in the target
        return True, None, None
    choice = subset_avoidance_winning_supports(model, target)
    for s in sorted(avoid_reachable, key=model.states.index):
        if frozenset({s}) in choice:
            return False, s, _avoider_strategy(model, s, choice)
    return True, None, None


def certifies_program(program, y):
    """The Farkas condition on a LinearProgram as declared: y <= 0 on `<=`
    rows and >= 0 on `>=` rows (the constraints, then `x <= hi` per upper
    bound), y.A <= 0 on each variable's column, and y.(b - A lo) > 0."""
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
        if column > 0:
            return False
        slack -= column * lo
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
