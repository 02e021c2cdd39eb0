"""Reference computations the benchmark checks momix against.

Nothing here imports momix.  Models and strategies are the JSON documents
the benchmark generated or read, so every answer is recomputed from the
inputs alone:

* `evaluate` builds the product chain itself and solves it in numpy
  float64; which values are infinite is decided exactly, by graph analysis.
* `lasso_vector` evaluates a pure strategy on a deterministic model in exact
  `Fraction`s from the closed form of its ultimately periodic play.
* `behaviours` enumerates the distinct behaviours of a pure pool from a
  start state, and `pool_size` counts the act tables of the pool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

INF = math.inf


def parse(text) -> Fraction:
    return Fraction(str(text))


def parse_ext(text) -> float | Fraction:
    """A rendered extended real: "+inf"/"-inf" as floats, else a Fraction."""
    if text in ("+inf", "inf"):
        return INF
    if text == "-inf":
        return -INF
    return parse(text)


class Model:
    """A model document with its rationals parsed."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.states = list(doc["states"])
        self.actions = list(doc["actions"])
        self.dist = {(s, a): {t: parse(p) for t, p in d.items()}
                     for s, per in doc["transitions"].items() for a, d in per.items()}
        self.obs = doc.get("obs", {s: s for s in self.states})
        self.weights = {
            name: {tuple(k.split(",")): [parse(x) for x in (row if isinstance(row, list)
                                                            else [row])]
                   for k, row in table.items()}
            for name, table in doc.get("weights", {}).items()}
        self.payoffs = doc.get("payoffs", [])

    def enabled(self, s):
        return [a for a in self.actions if (s, a) in self.dist]

    def weight(self, spec, s, a) -> Fraction:
        return self.weights[spec["weights"]][(s, a)][int(spec.get("windex", 0))]


class Strategy:
    """A strategy document: update table and per-(memory, observation)
    action distributions."""

    def __init__(self, doc: dict):
        self.init = str(doc["init"])
        self.update = {tuple(k.split(",")): str(v) for k, v in doc["update"].items()}
        self.act = {}
        for key, entry in doc["act"].items():
            m, z = key.split(",")
            self.act[(m, z)] = ({entry: Fraction(1)} if isinstance(entry, str)
                                else {a: parse(p) for a, p in entry.items()})


# -- the product chain ----------------------------------------------------------------


class Chain:
    def __init__(self, model: Model, strategy: Strategy, start: str):
        self.model = model
        self.nodes: List[Tuple[str, str]] = [(start, strategy.init)]
        index = {self.nodes[0]: 0}
        # per node: list of (probability, successor, action)
        self.edges: List[List[Tuple[Fraction, int, str]]] = []
        k = 0
        while k < len(self.nodes):
            s, m = self.nodes[k]
            out = []
            for a, alpha in strategy.act[(m, model.obs[s])].items():
                if alpha == 0:
                    continue
                nm = strategy.update[(m, model.obs[s], a)]
                for t, p in model.dist[(s, a)].items():
                    if p == 0:
                        continue
                    if (t, nm) not in index:
                        index[(t, nm)] = len(self.nodes)
                        self.nodes.append((t, nm))
                    out.append((alpha * p, index[(t, nm)], a))
            self.edges.append(out)
            k += 1
        self.n = len(self.nodes)

    def matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n))
        for i, row in enumerate(self.edges):
            for p, j, _a in row:
                P[i, j] += float(p)
        return P

    def step_weights(self, spec) -> np.ndarray:
        r = np.zeros(self.n)
        for i, row in enumerate(self.edges):
            s = self.nodes[i][0]
            for p, _j, a in row:
                # p = alpha * P(t); summing over successors recovers alpha * w
                r[i] += float(p) * float(self.model.weight(spec, s, a))
        return r

    def successors(self, i):
        return {j for _p, j, _a in self.edges[i]}

    def can_reach(self, targets) -> set:
        """Nodes from which some node of `targets` is reachable."""
        preds: Dict[int, set] = {i: set() for i in range(self.n)}
        for i in range(self.n):
            for j in self.successors(i):
                preds[j].add(i)
        seen = set(targets)
        stack = list(targets)
        while stack:
            for p in preds[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def bottom_sccs(self) -> List[set]:
        """Closed classes: a node is recurrent iff every node it reaches
        reaches it back."""
        reach = []
        for i in range(self.n):
            seen = {i}
            stack = [i]
            while stack:
                for j in self.successors(stack.pop()):
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            reach.append(seen)
        out, done = [], set()
        for i in range(self.n):
            if i in done or not all(i in reach[j] for j in reach[i]):
                continue
            out.append(reach[i])
            done |= reach[i]
        return out


def _hit_probabilities(chain: Chain, targets: set) -> np.ndarray:
    """P(eventually hit `targets`); exact zeros from graph analysis."""
    x = np.zeros(chain.n)
    for t in targets:
        x[t] = 1.0
    live = sorted(chain.can_reach(targets) - set(targets))
    if live:
        P = chain.matrix()
        A = np.eye(len(live)) - P[np.ix_(live, live)]
        b = P[np.ix_(live, sorted(targets))].sum(axis=1)
        x[live] = np.linalg.solve(A, b)
    return x


def _discounted(chain: Chain, spec) -> np.ndarray:
    lam = float(parse(spec["lambda"]))
    return np.linalg.solve(np.eye(chain.n) - lam * chain.matrix(), chain.step_weights(spec))


def _value(chain: Chain, spec) -> float:
    kind = spec["kind"]
    target = set(spec.get("target", ()))
    hits = {i for i, (s, _m) in enumerate(chain.nodes) if s in target}
    if kind == "reach":
        return float(_hit_probabilities(chain, hits)[0])
    if kind == "buchi":
        good = set().union(*[c for c in chain.bottom_sccs() if c & hits])
        return float(_hit_probabilities(chain, good)[0]) if good else 0.0
    if kind == "discounted_sum":
        return float(_discounted(chain, spec)[0])
    if kind == "reach_gated_discounted_sum":
        # V(c) = sum_{a,t} alpha p (w(s,a) h(t) + lambda V(t)) off the target,
        # V = plain discounted value on it.
        if 0 in hits:
            return float(_discounted(chain, spec)[0])
        lam = float(parse(spec["lambda"]))
        h = _hit_probabilities(chain, hits)
        plain = _discounted(chain, spec)
        rest = [i for i in range(chain.n) if i not in hits]
        pos = {i: k for k, i in enumerate(rest)}
        A = np.eye(len(rest))
        b = np.zeros(len(rest))
        for i in rest:
            s = chain.nodes[i][0]
            for p, j, a in chain.edges[i]:
                w = float(chain.model.weight(spec, s, a))
                b[pos[i]] += float(p) * w * h[j]
                if j in pos:
                    A[pos[i], pos[j]] -= lam * float(p)
                else:
                    b[pos[i]] += lam * float(p) * plain[j]
        return float(np.linalg.solve(A, b)[pos[0]])
    if kind == "shortest_path":
        if 0 in hits:
            return 0.0
        # stop at the target; +inf iff some node reachable without passing
        # the target cannot reach it
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            if i in hits:
                continue
            for j in chain.successors(i):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        live = sorted(seen - hits)
        if not set(live) <= chain.can_reach(hits):
            return INF
        pos = {i: k for k, i in enumerate(live)}
        P = chain.matrix()
        A = np.eye(len(live)) - P[np.ix_(live, live)]
        b = chain.step_weights(spec)[live]
        return float(np.linalg.solve(A, b)[pos[0]])
    if kind == "total_reward":
        r = chain.step_weights(spec)
        closed = chain.bottom_sccs()
        if any(r[i] > 0 for c in closed for i in c):
            return INF
        recurrent = set().union(*closed)
        if 0 in recurrent:
            return 0.0
        rest = [i for i in range(chain.n) if i not in recurrent]
        P = chain.matrix()
        A = np.eye(len(rest)) - P[np.ix_(rest, rest)]
        return float(np.linalg.solve(A, r[rest])[0])
    raise ValueError(f"unknown payoff kind {kind!r}")


def evaluate(model: Model, strategy: Strategy, start: str, payoffs=None) -> List[float]:
    chain = Chain(model, strategy, start)
    return [_value(chain, spec) for spec in (payoffs or model.payoffs)]


def combine(weights, vectors) -> List[float]:
    """Convex combination under 0 * inf = 0 (zero weights are skipped)."""
    out = []
    for j in range(len(vectors[0])):
        acc = 0.0
        for w, v in zip(weights, vectors):
            if w != 0:
                acc += float(w) * v[j]
        out.append(acc)
    return out


# -- deterministic models: exact closed forms --------------------------------------------


def lasso(model: Model, strategy: Strategy, start: str):
    """(prefix steps, cycle steps) of the unique play of a pure strategy on a
    deterministic model; a step is (state, action)."""
    steps, seen = [], {}
    s, m = start, strategy.init
    while (s, m) not in seen:
        seen[(s, m)] = len(steps)
        (a,) = strategy.act[(m, model.obs[s])]
        steps.append((s, a))
        m = strategy.update[(m, model.obs[s], a)]
        (s,) = model.dist[(s, a)]
    k = seen[(s, m)]
    return steps[:k], steps[k:]


def lasso_value(model: Model, spec, prefix, cycle):
    kind = spec["kind"]
    target = set(spec.get("target", ()))
    states = [s for s, _a in prefix + cycle]
    if kind == "reach":
        return Fraction(int(bool(target & set(states))))
    if kind == "buchi":
        return Fraction(int(bool(target & {s for s, _a in cycle})))
    if kind in ("discounted_sum", "reach_gated_discounted_sum"):
        if kind == "reach_gated_discounted_sum" and not target & set(states):
            return Fraction(0)
        lam = parse(spec["lambda"])
        head = sum((lam ** i * model.weight(spec, s, a) for i, (s, a) in enumerate(prefix)),
                   Fraction(0))
        loop = sum((lam ** i * model.weight(spec, s, a) for i, (s, a) in enumerate(cycle)),
                   Fraction(0))
        return head + lam ** len(prefix) * loop / (1 - lam ** len(cycle))
    if kind == "total_reward":
        if sum(model.weight(spec, s, a) for s, a in cycle) > 0:
            return INF
        return sum((model.weight(spec, s, a) for s, a in prefix), Fraction(0))
    if kind == "shortest_path":
        total = Fraction(0)
        for s, a in prefix + cycle:
            if s in target:
                return total
            total += model.weight(spec, s, a)
        return INF
    raise ValueError(f"unknown payoff kind {kind!r}")


def lasso_vector(model: Model, strategy: Strategy, start: str):
    prefix, cycle = lasso(model, strategy, start)
    return [lasso_value(model, spec, prefix, cycle) for spec in model.payoffs]


# -- pools --------------------------------------------------------------------------------


def pool_size(model: Model, horizon: int) -> int:
    """Product of enabled-action counts over the (memory, observation) pairs
    reachable in model x counter:horizon from any state at memory 0."""
    seen = {(s, 0) for s in model.states}
    stack = list(seen)
    points = {}
    while stack:
        s, m = stack.pop()
        points[(m, model.obs[s])] = len(model.enabled(s))
        for a in model.enabled(s):
            for t, p in model.dist[(s, a)].items():
                nxt = (t, min(m + 1, horizon))
                if p > 0 and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return math.prod(points.values())


def behaviours(model: Model, start: str, horizon: int):
    """Every distinct behaviour of a pure counter:horizon strategy from
    `start`: one act table per way of choosing an action at each reachable
    (memory, observation) pair, restricted to the pairs actually reached."""
    out = []

    def grow(table, frontier, seen):
        while frontier:
            s, m = frontier[-1]
            key = (m, model.obs[s])
            if key not in table:
                for a in model.enabled(s):
                    grow({**table, key: a}, list(frontier), set(seen))
                return
            frontier.pop()
            a = table[key]
            for t, p in model.dist[(s, a)].items():
                nxt = (t, min(m + 1, horizon))
                if p > 0 and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        out.append(table)

    grow({}, [(start, 0)], {(start, 0)})
    return [CounterStrategy(horizon, table) for table in out]


class CounterStrategy(Strategy):
    """A pure strategy over the counter:H skeleton, from its act table
    {(memory, observation): action}."""

    def __init__(self, horizon: int, table):
        self.init = "0"
        self.update = _CounterUpdate(horizon)
        self.act = {(str(m), z): {a: Fraction(1)} for (m, z), a in table.items()}


class _CounterUpdate(dict):
    """update[(m, z, a)] of a counter skeleton, for string memories."""

    def __init__(self, horizon):
        super().__init__()
        self.horizon = horizon

    def __missing__(self, key):
        return str(min(int(key[0]) + 1, self.horizon))


# -- exact two-dimensional hulls ------------------------------------------------------------


def hull_corners_2d(points) -> set:
    """Corners of the convex hull of distinct exact 2-d points (collinear
    boundary points are not corners), by Andrew's monotone chain."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    corners = set(half(pts)) | set(half(reversed(pts)))
    if len(corners) == 2 and all(cross(pts[0], pts[-1], p) == 0 for p in pts):
        return {pts[0], pts[-1]}
    return corners


def strictly_dominated(v, w) -> bool:
    return all(a <= b for a, b in zip(v, w)) and tuple(v) != tuple(w)


def pareto_flags(vectors) -> List[bool]:
    return [not any(strictly_dominated(v, w) for w in vectors) for v in vectors]


# -- integrability verdicts on fully observable models ----------------------------------------

UI = "universally_integrable"
UUI_ONLY = "universally_unambiguously_integrable_only"


def _closed_region(model: Model, states: set, allowed) -> set:
    """Greatest subset of `states` in which every state keeps some allowed
    action whose successors all stay inside."""
    region = set(states)
    while True:
        keep = {s for s in region
                if any(all(t in region for t, p in model.dist[(s, a)].items() if p > 0)
                       for a in allowed(s))}
        if keep == region:
            return region
        region = keep


def _reachable(model: Model, start: str, avoid=frozenset()) -> set:
    seen, stack = {start}, [start]
    while stack:
        s = stack.pop()
        if s in avoid:
            continue
        for a in model.enabled(s):
            for t, p in model.dist[(s, a)].items():
                if p > 0 and t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def expected_verdicts(model: Model, start: str) -> List[str]:
    """Bounded kinds are integrable.  A shortest path is integrable for all
    strategies iff no state reachable without touching the target lies in
    the region where a strategy can avoid the target forever.  A
    non-negative total reward is iff no end component reachable from start
    earns positive weight."""
    out = []
    for spec in model.payoffs:
        kind = spec["kind"]
        if kind == "shortest_path":
            target = set(spec["target"])
            safe = _closed_region(model, set(model.states) - target, model.enabled)
            reach = _reachable(model, start, avoid=target) - target
            out.append(UUI_ONLY if safe & reach else UI)
        elif kind == "total_reward":
            reachable = _reachable(model, start)
            earning = any(s in reachable and model.weight(spec, s, a) > 0
                          for s, a in end_component_pairs(model))
            out.append(UUI_ONLY if earning else UI)
        else:
            out.append(UI)
    return out


def end_component_pairs(model: Model) -> set:
    """(state, action) pairs of the maximal end components: repeatedly drop
    actions that may leave their state's strongly connected component."""
    allowed = {s: set(model.enabled(s)) for s in model.states}
    while True:
        alive = {s for s in model.states if allowed[s]}
        reach = {}
        for s in alive:
            seen, stack = {s}, [s]
            while stack:
                u = stack.pop()
                for a in allowed[u]:
                    for t, p in model.dist[(u, a)].items():
                        if p > 0 and t in alive and t not in seen:
                            seen.add(t)
                            stack.append(t)
            reach[s] = seen
        changed = False
        for s in alive:
            scc = {t for t in reach[s] if s in reach[t]}
            for a in list(allowed[s]):
                if any(p > 0 and t not in scc for t, p in model.dist[(s, a)].items()):
                    allowed[s].discard(a)
                    changed = True
        if not changed:
            return {(s, a) for s in model.states for a in allowed[s]}
