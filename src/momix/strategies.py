"""Finite-memory strategies over observations, and what one can do with them.

A strategy is a Mealy machine: a finite memory skeleton (memory states plus
an update function reading observation and action) together with an action
rule `act(memory, observation) -> distribution over enabled actions`.  Pure
strategies are the deterministic special case.  Finite mixtures draw one
pure strategy at the start of a play and commit to it.

`machine` is the one place a skeleton is built from a rule: `memoryless`,
`counter`, the Kuhn conversion below and the belief avoider of `beliefs`
are each one step rule `step(mem, obs, action)` for it.  `choice` is the
one reader of a strategy's action rule.  Skeletons and the transition
table below number their nodes breadth-first by one `model.closure` each.

The module also provides:

* the transition table of a model and a memory skeleton from its start
  states, the one place the product is stepped; a strategy's moves are
  `table.moves[node][a]` for each (a, alpha) of its `choice` there,
* exact cylinder probabilities,
* the distinct behaviours of the pure strategies over a skeleton from a
  start state, each named by its earliest act table,
* the conversion of a finite mixture into an outcome-equivalent behavioural
  strategy (posterior-weighted choices over the still-consistent support),
* the bounded-horizon premetric underlying strategy convergence arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import (DisabledAction, EmptySupport, MalformedHistory, ParseError, PoolTooLarge,
                     SchemaError, UnknownState)
from .model import Pomdp, closure, iter_sccs, require_field
from .rationals import format_rational, parse_rational

Mem = object  # memory states are any hashable identifiers (ints, strings)

# Default cap on the behaviours of a pure pool.  Every member costs one
# exact evaluation and holds one act table, so the cap bounds both.
POOL_CAP = 2 ** 16


@dataclass(frozen=True)
class MemorySkeleton:
    """Memory states with a total update function on (memory, obs, action)."""

    memory: Tuple[Mem, ...]
    init: Mem
    update: Mapping[Tuple[Mem, str, str], Mem]

    def step(self, mem: Mem, observation: str, action: str) -> Mem:
        return self.update[(mem, observation, action)]

    def check_total(self, model: Pomdp):
        for mem in self.memory:
            for z in model.observations:
                for a in model.enabled_for_observation(z):
                    if (mem, z, a) not in self.update:
                        raise SchemaError(f"skeleton update missing ({mem},{z},{a})")


def machine(model: Pomdp, init: Mem, step) -> MemorySkeleton:
    """The skeleton of the memory states reached from `init` by
    `step(mem, z, a)` for every observation z and enabled action a:
    memory states in `closure` order, each one's updates in observation and
    then action order."""
    update: Dict[Tuple[Mem, str, str], Mem] = {}

    def expand(mem, number):
        for z in model.observations:
            for a in model.enabled_for_observation(z):
                nxt = update[(mem, z, a)] = step(mem, z, a)
                number(nxt)

    return MemorySkeleton(tuple(closure([init], expand)), init, update)


def _act_table(model: Pomdp, skeleton: MemorySkeleton, rule) -> Dict[Tuple[Mem, str], object]:
    """`rule(mem, z)` at every memory state of `skeleton` and observation
    with an enabled action, in the order `machine` built them."""
    return {(mem, z): rule(mem, z) for mem in skeleton.memory
            for z in model.observations if model.enabled_for_observation(z)}


def memoryless(model: Pomdp) -> MemorySkeleton:
    return machine(model, 0, lambda mem, z, a: 0)


def counter(model: Pomdp, horizon: int) -> MemorySkeleton:
    """Count steps, saturating at `horizon`; memory states 0..horizon."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return machine(model, 0, lambda mem, z, a: min(mem + 1, horizon))


class FiniteMemoryStrategy:
    """Behavioural finite-memory strategy: act maps (memory, observation) to a
    rational distribution over the enabled actions of that observation.

    The act table needs to cover only (memory, observation) pairs reachable
    in the product of the model with the skeleton; lookups elsewhere fail
    loudly.
    """

    def __init__(self, skeleton: MemorySkeleton, act: Mapping[Tuple[Mem, str], Mapping[str, Fraction]]):
        self.skeleton = skeleton
        self.act = {k: dict(v) for k, v in act.items()}

    def choice(self, mem: Mem, observation: str) -> Tuple[Tuple[str, Fraction], ...]:
        """The action distribution at (mem, observation) as a hashable tuple
        of (action, weight) pairs of positive weight."""
        return tuple((a, p) for a, p in self.act[(mem, observation)].items() if p)


_ONE = Fraction(1)


class PureStrategy(FiniteMemoryStrategy):
    """Deterministic strategy stored as a plain (memory, observation) -> action
    table; its action distributions are built from the table on demand."""

    def __init__(self, skeleton: MemorySkeleton, table: Mapping[Tuple[Mem, str], str]):
        self.skeleton = skeleton
        self.table = dict(table)

    @property
    def act(self) -> Dict[Tuple[Mem, str], Dict[str, Fraction]]:
        return {k: {a: _ONE} for k, a in self.table.items()}

    def choice(self, mem: Mem, observation: str) -> Tuple[Tuple[str, int], ...]:
        return ((self.table[(mem, observation)], 1),)


@dataclass(frozen=True)
class FiniteMixture:
    """A finite-support distribution over pure strategies, drawn once."""

    support: Tuple[PureStrategy, ...]
    weights: Tuple[Fraction, ...]

    @staticmethod
    def of(pairs: Iterable[Tuple[PureStrategy, Fraction]]) -> "FiniteMixture":
        kept = [(s, Fraction(w)) for s, w in pairs if Fraction(w) != 0]
        if not kept:
            raise EmptySupport("mixture support is empty")
        weights = [w for _, w in kept]
        if any(w < 0 for w in weights):
            raise SchemaError("mixture weights must be non-negative")
        if sum(weights, Fraction(0)) != 1:
            raise SchemaError("mixture weights must sum to exactly 1")
        return FiniteMixture(tuple(s for s, _ in kept), tuple(weights))

    @staticmethod
    def dirac(strategy: PureStrategy) -> "FiniteMixture":
        return FiniteMixture.of([(strategy, Fraction(1))])


def validate_strategy(model: Pomdp, strategy: FiniteMemoryStrategy):
    """Check distribution supports, sums and act coverage of reachable pairs."""
    strategy.skeleton.check_total(model)
    act = strategy.act
    for (mem, z), dist in act.items():
        enabled = set(model.enabled_for_observation(z))
        if sum(dist.values(), Fraction(0)) != 1:
            raise SchemaError(f"act({mem},{z}) does not sum to 1")
        for a, p in dist.items():
            if p < 0:
                raise SchemaError(f"act({mem},{z})({a}) is negative")
            if p > 0 and a not in enabled:
                raise DisabledAction(f"act({mem},{z}) puts weight on disabled action {a}")
    for (mem, z), _actions in reachable_choice_points(model, strategy.skeleton):
        if (mem, z) not in act:
            raise SchemaError(f"act is missing reachable pair ({mem},{z})")


# -- reachable choice points and behaviours --------------------------------------


def reachable_choice_points(model: Pomdp, skeleton: MemorySkeleton):
    """(memory, observation) pairs reachable in the model/skeleton product
    when the action is unrestricted, each with its enabled action tuple.
    Order is deterministic (memory order, then observation order)."""
    # Restrict to product states reachable from *some* initial state; every
    # evaluation starts at (s0, init) so this covers all uses.
    return _choice_points(model, transition_table(model, skeleton, model.states))


def _choice_points(model: Pomdp, table: TransitionTable):
    """The choice points of the nodes of `table`, ordered as in
    `reachable_choice_points`; each point takes the enabled actions of the
    first node that reaches it."""
    points: Dict[Tuple[Mem, str], Tuple[str, ...]] = {}
    for s, mem in table.nodes:
        points.setdefault((mem, model.obs[s]), model.enabled(s))
    mem_key = {m: i for i, m in enumerate(table.skeleton.memory)}
    obs_key = {z: i for i, z in enumerate(model.observations)}
    return sorted(points.items(), key=lambda pz: (mem_key[pz[0][0]], obs_key[pz[0][1]]))


def _numbering(model: Pomdp, table: TransitionTable):
    """The one numbering of act tables over the choice points of `table`,
    for `pure_behaviours`: the points (`_choice_points`), each point's place
    value in the mixed radix, the first point most significant (the product
    of the radices after it), and each node's point as its position."""
    points = _choice_points(model, table)
    slot = {key: i for i, (key, _) in enumerate(points)}
    place = [1] * len(points)
    for i in range(len(points) - 1, 0, -1):
        place[i - 1] = place[i] * len(points[i][1])
    return points, place, [slot[(mem, model.obs[s])] for s, mem in table.nodes]


def pure_behaviours(model: Pomdp, table: TransitionTable, cap: int = POOL_CAP
                    ) -> Tuple[int, List[Tuple[int, PureStrategy]], Dict[int, int]]:
    """The distinct behaviours of the pure strategies over a skeleton from a
    start state, found by walking the product depth-first from node 0 of
    `table`, (start, init), and branching only at the choice points
    (memory, observation) it reaches.  `table` is the skeleton's transition
    table from `start` and then every state (`transition_table(model,
    skeleton, [start, *model.states])`): its nodes give the choice points
    of `reachable_choice_points`, which number the act tables.  An act
    table's index is a mixed-radix number with one digit per choice point,
    in that order and the first point most significant: the digit is the
    position of the table's action among the point's enabled actions.  So
    index 0 plays the first enabled action everywhere, and the last choice
    point's action changes fastest.

    Returns the number of act tables; sorted by index, one (index, table)
    pair per behaviour: its earliest act table (unreached choice points at
    their first enabled action) and that table's index; and each node's
    modulus.  Indices and size count act tables (`winner_index`,
    `pool_size`); the cap and the cost count behaviours.  The walk keeps
    only the index of each behaviour and raises PoolTooLarge at the first
    one past `cap`, before any other work.  So counter:30 on
    earn_or_exit.json, 2^31 tables, is a pool of 32 behaviours.

    A node's modulus, for every node reachable from node 0, is the product
    of the radices of the choice points from the first one the node can
    reach, under any actions, to the last.  Every point the node reaches
    sits at or after that first one, so an index modulo the modulus fixes
    the table's action at each of them.  One SCC pass, successors first,
    carries the first position up.
    """
    skeleton, moves = table.skeleton, table.moves
    points, place, node_slot = _numbering(model, table)
    indices: List[int] = []
    # pending branches: (table index so far, action position per reached
    # slot, nodes seen, nodes to expand); unreached slots count as position 0
    branches = [(0, {}, {0}, [0])]
    while branches:
        index, choice, seen, todo = branches.pop()
        while todo:
            node = todo.pop()
            i = node_slot[node]
            if i not in choice:
                for other in range(len(points[i][1]) - 1, 0, -1):
                    branches.append((index + other * place[i], {**choice, i: other},
                                     set(seen), todo + [node]))
                choice[i] = 0
            for nxt, _p in moves[node][points[i][1][choice[i]]]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if len(indices) == cap:
            raise PoolTooLarge(None, cap, "behaviours")
        indices.append(index)
    indices.sort()
    first: Dict[int, int] = {}
    for comp in iter_sccs([0], lambda i: [j for row in moves[i].values() for j, _p in row]):
        low = min([node_slot[i] for i in comp] + [first[j] for i in comp for row in
                                                  moves[i].values() for j, _p in row if j in first])
        for i in comp:
            first[i] = low
    return math.prod(len(enabled) for _, enabled in points), [
        (index, PureStrategy(skeleton, {key: enabled[index // place[i] % len(enabled)]
                                        for i, (key, enabled) in enumerate(points)}))
        for index in indices], {i: place[p] * len(points[p][1]) for i, p in first.items()}


# -- the product ----------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionTable:
    """The product of a model with a memory skeleton, stepped once.

    `nodes` are the (state, memory) pairs reachable under any enabled
    actions from the roots (s, init), s in the start states the table was
    built from, numbered by `model.closure`: the roots first, in that order
    and without repeats, then the other pairs breadth-first, so node 0 is
    the first start state's.  `moves[i][a]`
    lists the moves of node i under action a as (successor node,
    probability) pairs, one per successor state of positive probability in
    the order of the model's distribution.  The exact evaluator,
    `reachable_choice_points`, the behaviour walk of `pure_behaviours`, the
    Monte-Carlo walker and the bounded-reach walk read the product from
    here instead of stepping the skeleton themselves.
    """

    skeleton: MemorySkeleton
    nodes: Tuple[Tuple[str, Mem], ...]
    moves: Tuple[Mapping[str, Tuple[Tuple[int, Fraction], ...]], ...]


def transition_table(model: Pomdp, skeleton: MemorySkeleton,
                     starts: Sequence[str]) -> TransitionTable:
    """The :class:`TransitionTable` of `model` and `skeleton` from the
    states `starts`.  Raises UnknownState for an unknown start state."""
    for start in starts:
        if start not in model.states:
            raise UnknownState(start)
    moves: List[Dict[str, Tuple[Tuple[int, Fraction], ...]]] = []

    def expand(node, number):
        s, mem = node
        z = model.obs[s]
        out = {}
        for a in model.enabled(s):
            nxt_mem = skeleton.step(mem, z, a)
            row = []
            for t, p in model.dist(s, a).items():
                if p != 0:
                    row.append((number((t, nxt_mem)), p))
            out[a] = tuple(row)
        moves.append(out)

    nodes = closure([(start, skeleton.init) for start in starts], expand)
    return TransitionTable(skeleton, tuple(nodes), tuple(moves))


# -- cylinder probabilities ------------------------------------------------------------


def check_history(model: Pomdp, history: Sequence[str]) -> Tuple[str, ...]:
    history = tuple(history)
    if len(history) % 2 == 0 or not history:
        raise MalformedHistory("a history alternates s a s ... s")
    for i in range(0, len(history) - 2, 2):
        s, a, t = history[i], history[i + 1], history[i + 2]
        if (s, a) not in model.transitions:
            raise MalformedHistory(f"action {a} disabled in {s}")
        if model.dist(s, a).get(t, Fraction(0)) <= 0:
            raise MalformedHistory(f"transition {s} -{a}-> {t} has probability 0")
    if history[0] not in model.states:
        raise MalformedHistory(f"unknown state {history[0]}")
    return history


def cylinder_prob(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                  history: Sequence[str]) -> Fraction:
    """Exact probability of the cylinder of `history` from `start`."""
    history = check_history(model, history)
    if history[0] != start:
        return Fraction(0)
    prob = Fraction(1)
    mem = strategy.skeleton.init
    for i in range(0, len(history) - 2, 2):
        s, a, t = history[i], history[i + 1], history[i + 2]
        z = model.obs[s]
        prob *= dict(strategy.choice(mem, z)).get(a, 0) * model.dist(s, a)[t]
        if prob == 0:
            return prob
        mem = strategy.skeleton.step(mem, z, a)
    return prob


# -- Kuhn conversion ---------------------------------------------------------------------


def mixed_to_behavioural(mixture: FiniteMixture, model: Pomdp) -> FiniteMemoryStrategy:
    """Outcome-equivalent behavioural strategy of a finite mixture.

    Memory states are pairs (per-member memories, still-consistent member
    indices); the action rule is the posterior mixture of the members'
    choices.  At histories no member is consistent with, the strategy plays
    uniformly over enabled actions (outcome-equivalence does not constrain
    them).
    """
    if not mixture.support:
        raise EmptySupport("mixture support is empty")
    members = mixture.support
    init = (tuple(m.skeleton.init for m in members), frozenset(range(len(members))))

    def choice(i, mem_i, z):
        return members[i].table.get((mem_i, z))

    def act_for(node, z):
        mems, consistent = node
        weighted: Dict[str, Fraction] = {}
        total = Fraction(0)
        for i in consistent:
            a = choice(i, mems[i], z)
            if a is None:
                continue  # pair unreachable for member i: impossible branch
            weighted[a] = weighted.get(a, Fraction(0)) + mixture.weights[i]
            total += mixture.weights[i]
        if total == 0:
            enabled = model.enabled_for_observation(z)
            return dict.fromkeys(enabled, Fraction(1, len(enabled)))
        return {a: w / total for a, w in weighted.items()}

    def step(node, z, a):
        mems, consistent = node
        return (tuple(m.skeleton.update.get((mems[i], z, a), mems[i])
                      for i, m in enumerate(members)),
                frozenset(i for i in consistent if choice(i, mems[i], z) == a))

    skeleton = machine(model, init, step)
    return FiniteMemoryStrategy(skeleton, _act_table(model, skeleton, act_for))


# -- premetric ---------------------------------------------------------------------------


def strategy_premetric(model: Pomdp, sigma: FiniteMemoryStrategy, tau: FiniteMemoryStrategy,
                       horizon: int) -> Fraction:
    """Max over histories with at most `horizon` states of the *squared*
    Euclidean distance between the two action distributions.

    The distance at a history depends only on its last state and the two
    memories, so `model.closure` numbers the (state, sigma memory, tau
    memory) triples breadth-first and each is scored once, at the fewest
    states it is reached with: a longer history to it sees the same
    distance and has fewer states left to extend by.  A triple's successors
    are numbered only while that count is below `horizon`.  Returning the
    squared distance keeps the result rational; compare it against squared
    thresholds.
    """
    if horizon < 1:
        return Fraction(0)
    roots = [(s, sigma.skeleton.init, tau.skeleton.init) for s in model.states]
    depth = dict.fromkeys(roots, 0)  # triple -> its fewest states, less one
    scores = []

    def expand(node, number):
        s, ms, mt = node
        z = model.obs[s]
        ds, dt = dict(sigma.choice(ms, z)), dict(tau.choice(mt, z))
        scores.append(sum(((ds.get(a, 0) - dt.get(a, 0)) ** 2 for a in set(ds) | set(dt)),
                          Fraction(0)))
        if depth[node] + 1 < horizon:
            for a in model.enabled(s):
                nms, nmt = sigma.skeleton.step(ms, z, a), tau.skeleton.step(mt, z, a)
                for t, p in model.dist(s, a).items():
                    if p > 0:
                        depth.setdefault((t, nms, nmt), depth[node] + 1)
                        number((t, nms, nmt))

    closure(roots, expand)
    return max(scores)


# -- file formats ------------------------------------------------------------------------


def strategy_to_dict(strategy: FiniteMemoryStrategy) -> dict:
    sk = strategy.skeleton
    doc = {
        "memory": [str(m) for m in sk.memory],
        "init": str(sk.init),
        "update": {f"{m},{z},{a}": str(n) for (m, z, a), n in sorted(sk.update.items(), key=str)},
        "act": {},
    }
    for (m, z), dist in sorted(strategy.act.items(), key=str):
        if len(dist) == 1 and next(iter(dist.values())) == 1:
            doc["act"][f"{m},{z}"] = next(iter(dist))
        else:
            doc["act"][f"{m},{z}"] = {a: format_rational(p) for a, p in sorted(dist.items())}
    return doc


def strategy_from_dict(doc: Mapping, model: Pomdp) -> FiniteMemoryStrategy:
    if not isinstance(doc, dict):
        raise SchemaError(f"a strategy must be an object, got {doc!r}")
    memory = tuple(require_field(doc, "memory", list))
    if not all(isinstance(m, str) for m in memory):
        raise SchemaError("memory states must be strings")
    init = require_field(doc, "init", str)
    if init not in memory:
        raise SchemaError("init memory not among memory states")
    update = {}
    for key, nxt in require_field(doc, "update", dict).items():
        try:
            m, z, a = key.split(",")
        except ValueError:
            raise SchemaError(f"update key {key!r} is not 'm,z,a'") from None
        if nxt not in memory:
            raise SchemaError(f"update {key!r} leads to {nxt!r}, not a memory state")
        update[(m, z, a)] = nxt
    act = {}
    pure = True
    for key, entry in require_field(doc, "act", dict).items():
        try:
            m, z = key.split(",")
        except ValueError:
            raise SchemaError(f"act key {key!r} is not 'm,z'") from None
        if isinstance(entry, str):
            act[(m, z)] = {entry: Fraction(1)}
        elif isinstance(entry, dict):
            act[(m, z)] = {a: parse_rational(p) for a, p in entry.items()}
            if list(act[(m, z)].values()) != [1]:
                pure = False
        else:
            raise SchemaError(f"act[{key!r}] must be an action or an action distribution")
    skeleton = MemorySkeleton(memory, init, update)
    if pure:
        table = {k: next(iter(d)) for k, d in act.items()}
        strategy = PureStrategy(skeleton, table)
    else:
        strategy = FiniteMemoryStrategy(skeleton, act)
    validate_strategy(model, strategy)
    return strategy


def mixture_to_dict(mixture: FiniteMixture) -> dict:
    return {
        "support": [strategy_to_dict(s) for s in mixture.support],
        "weights": [format_rational(w) for w in mixture.weights],
    }


def mixture_from_dict(doc: Mapping, model: Pomdp) -> FiniteMixture:
    support = []
    for entry in require_field(doc, "support", list):
        s = strategy_from_dict(entry, model)
        if not isinstance(s, PureStrategy):
            raise SchemaError("mixture support members must be pure strategies")
        support.append(s)
    weights = [parse_rational(w) for w in require_field(doc, "weights", list)]
    if len(weights) != len(support):
        raise SchemaError("support and weights lengths differ")
    return FiniteMixture.of(zip(support, weights))


def load_strategy_file(path, model: Pomdp):
    """Load a strategy or mixture JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("a strategy file must hold a JSON object")
    if "support" in doc:
        return mixture_from_dict(doc, model)
    return strategy_from_dict(doc, model)
