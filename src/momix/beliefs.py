"""Belief-support analyses: universal almost-sure reachability, the
shortest-path integrability dichotomy, and the geometric reach bound.

A belief support is the set of states consistent with an observation
history.  Whether *every* strategy reaches a target almost surely is decided
by a safety game on belief supports: the answer is "no" exactly when some
state, reachable from the start without touching the target, admits a pure
belief-based strategy whose reachable supports stay disjoint from the target
forever.  The game is played on the supports reachable by belief updates
from the singletons of those states (Chatterjee, Chmelik and Tracol, JCSS
82, 2016), numbered breadth-first by the same `model.closure` that
`belief_graph` draws from one start state; like that graph, it can be
exponential in the size of an observation class.
When the answer is "yes", every strategy reaches the target within
k = 2^|S| steps with probability at least eta^k (eta the minimum transition
probability), which yields the bound P(reach within l*k) >= 1 - (1 - eta^k)^l.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import PreconditionViolated, UnknownState
from .model import Pomdp, closure
from .strategies import FiniteMemoryStrategy, PureStrategy, _act_table, machine, transition_table

BeliefSupport = FrozenSet[str]
BeliefEdge = Tuple[BeliefSupport, str, str, BeliefSupport]  # (B, a, z, B')


def _belief_split(model: Pomdp, support: BeliefSupport, action: str) -> Dict[str, BeliefSupport]:
    """The belief supports one `action` step from the support, a set of
    states of one observation that enable it, keyed by the observation seen,
    in observation order; an observation that cannot occur has no entry."""
    successors: Dict[str, set] = {}
    for s in support:
        for t, p in model.dist(s, action).items():
            if p > 0:
                successors.setdefault(model.obs[t], set()).add(t)
    return {z: frozenset(successors[z]) for z in model.observations if z in successors}


def _support_closure(model: Pomdp, roots: Iterable[BeliefSupport]
                     ) -> Tuple[List[BeliefSupport], List[BeliefEdge]]:
    """Every belief support reachable from `roots` by belief updates, in
    `closure` order, and the edges (B, a, z, B') between them, per support
    in enabled-action and then observation order.  The only place belief
    supports are generated."""
    edges = []

    def expand(support, number):
        for a in model.enabled(next(iter(support))):
            for z, nxt in _belief_split(model, support, a).items():
                edges.append((support, a, z, nxt))
                number(nxt)

    return closure(roots, expand), edges


@dataclass(frozen=True)
class BeliefGraph:
    nodes: Tuple[BeliefSupport, ...]
    edges: Tuple[BeliefEdge, ...]
    init: BeliefSupport

    def to_dot(self) -> str:
        def name(b):
            return "{" + ",".join(sorted(b)) + "}"

        lines = ["digraph beliefs {"]
        lines.append(f'  init [shape=point]; init -> "{name(self.init)}";')
        for b in self.nodes:
            lines.append(f'  "{name(b)}";')
        for b, a, z, b2 in self.edges:
            lines.append(f'  "{name(b)}" -> "{name(b2)}" [label="{a}/{z}"];')
        lines.append("}")
        return "\n".join(lines)


def belief_graph(model: Pomdp, start: str) -> BeliefGraph:
    """The belief supports reachable from the singleton support of `start`."""
    if start not in model.states:
        raise UnknownState(start)
    init = frozenset({start})
    nodes, edges = _support_closure(model, [init])
    return BeliefGraph(tuple(nodes), tuple(edges), init)


# -- the avoidance safety game ---------------------------------------------------


def _avoidance_winning_supports(model: Pomdp, target: frozenset,
                                roots: Iterable[BeliefSupport]) -> Dict[BeliefSupport, str]:
    """Greatest set of target-disjoint belief supports, among those
    reachable from `roots`, from which a belief strategy can keep all
    observation outcomes target-disjoint forever.  Returns the winning
    supports with their first safe action in enabled order."""
    nodes, edges = _support_closure(model, roots)
    outcomes: Dict[BeliefSupport, Dict[str, List[BeliefSupport]]] = {
        b: {a: [] for a in model.enabled(next(iter(b)))} for b in nodes}
    for b, a, _z, b2 in edges:
        outcomes[b][a].append(b2)
    winning = {b for b in nodes if target.isdisjoint(b)}

    def safe_action(support) -> Optional[str]:
        """The first enabled action keeping every observation outcome of
        `support` inside the current winning set."""
        return next((a for a, nxt in outcomes[support].items()
                     if all(b in winning for b in nxt)), None)

    while True:
        losing = [b for b in winning if safe_action(b) is None]
        if not losing:
            return {b: safe_action(b) for b in winning}
        winning.difference_update(losing)


def _avoider_strategy(model: Pomdp, start: str, choice: Mapping[BeliefSupport, str]) -> PureStrategy:
    """A runnable pure strategy realizing the belief avoider from `start`.

    Memory carries the pre-observation belief (the set of states possible
    before seeing the current observation); the acting belief is its
    intersection with the current observation class.  The memory moves
    only along the action the strategy plays at an observation its belief
    can produce, and stays put otherwise, so every memory state is reached
    by the strategy's own plays from `start`.
    """
    def acting(pre: FrozenSet[str], z: str) -> FrozenSet[str]:
        return frozenset(s for s in pre if model.obs[s] == z)

    def pick(pre, z):
        return choice.get(acting(pre, z)) or model.enabled_for_observation(z)[0]

    def step(pre, z, a):
        belief = acting(pre, z)
        if not belief or a != pick(pre, z):
            return pre
        return frozenset(t for s in belief for t, p in model.dist(s, a).items() if p > 0)

    skeleton = machine(model, frozenset({start}), step)
    return PureStrategy(skeleton, _act_table(model, skeleton, pick))


@dataclass(frozen=True)
class UniversalReachResult:
    """Outcome of the universal almost-sure reachability check.

    holds = True: every strategy from `start` reaches the target with
    probability one; `k`, `eta` and `step_bound` = eta^k state the guaranteed
    probability of reaching within k steps from any relevantly reachable
    state (`step_bound` is computed on access: it has k * log2(1/eta) bits).
    holds = False: `witness_state` is reachable from `start` without
    touching the target and `witness` is a pure strategy avoiding the target
    surely from it.
    """

    holds: bool
    k: int
    eta: Fraction
    witness_state: Optional[str] = None
    witness: Optional[PureStrategy] = None

    @property
    def step_bound(self) -> Fraction:
        return self.eta ** self.k


def min_transition_probability(model: Pomdp) -> Fraction:
    return min((p for dist in model.transitions.values() for p in dist.values() if p > 0),
               default=Fraction(1))


def universal_as_reach(model: Pomdp, start: str, target: frozenset) -> UniversalReachResult:
    """Decide whether every strategy reaches `target` from `start` almost
    surely.

    The check quantifies over every state reachable from `start` by a
    target-avoiding history: the property fails exactly when one of them
    admits a sure belief-based avoider (reach it with positive probability,
    then avoid forever).
    """
    if start not in model.states:
        raise UnknownState(start)
    k = 2 ** len(model.states)
    eta = min_transition_probability(model)
    avoid_reachable = sorted(_reachable_avoiding(model, start, target), key=model.states.index)
    choice = _avoidance_winning_supports(model, target, [frozenset({s}) for s in avoid_reachable])
    for s in avoid_reachable:
        if frozenset({s}) in choice:
            return UniversalReachResult(False, k, eta, witness_state=s,
                                        witness=_avoider_strategy(model, s, choice))
    return UniversalReachResult(True, k, eta)


def _reachable_avoiding(model: Pomdp, start: str, target: frozenset) -> frozenset:
    """States reachable from `start` without entering `target`, which they exclude."""
    graph = model.successor_graph()
    return frozenset(closure([start], lambda s, number: [] if s in target else
                             [number(t) for t in graph[s]])) - target


# -- the integrability dichotomy ----------------------------------------------------


def classify_shortest_path(model: Pomdp, start: str, target: frozenset):
    """"universally_square_integrable" iff every strategy reaches the target
    almost surely (then every shortest-path payoff on it, for any weight
    function, has finite expectation and so does its square), otherwise
    "not_universally_integrable" with an avoiding witness."""
    result = universal_as_reach(model, start, target)
    verdict = "universally_square_integrable" if result.holds else "not_universally_integrable"
    return verdict, result


# -- geometric reach bound -------------------------------------------------------------


def _reach_probabilities(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                         target: frozenset) -> Iterator[Fraction]:
    """Exact P(target hit within t transitions) for t = 0, 1, 2, ...,
    pushing the mass of the strategy's moves over the transition table of
    its skeleton one step per item."""
    table = transition_table(model, strategy.skeleton, [start])
    if start in target:
        yield from itertools.repeat(Fraction(1))
    dist: Dict[int, Fraction] = {0: Fraction(1)}
    absorbed = Fraction(0)
    while True:
        yield absorbed
        nxt: Dict[int, Fraction] = {}
        for node, mass in dist.items():
            s, mem = table.nodes[node]
            for a, alpha in strategy.choice(mem, model.obs[s]):
                share = mass * alpha
                for j, p in table.moves[node][a]:
                    q = share * p
                    if table.nodes[j][0] in target:
                        absorbed += q
                    else:
                        nxt[j] = nxt.get(j, Fraction(0)) + q
        dist = nxt


def bounded_reach_probability(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                              target: frozenset, steps: int) -> Fraction:
    """Exact P(target hit within `steps` transitions)."""
    return next(itertools.islice(_reach_probabilities(model, strategy, start, target),
                                 steps, None))


@dataclass(frozen=True)
class ReachBoundReport:
    k: int
    eta: Fraction
    rows: Tuple[Tuple[int, Fraction, Fraction], ...]  # (l, exact, bound)

    @property
    def holds(self) -> bool:
        return all(exact >= bound for _, exact, bound in self.rows)


def reach_bound_check(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                      target: frozenset, l_max: int) -> ReachBoundReport:
    """Compare the exact bounded-reach probability against the geometric
    lower bound 1 - (1 - eta^k)^l for l = 1..l_max, k = 2^|S|."""
    result = universal_as_reach(model, start, target)
    if not result.holds:
        raise PreconditionViolated("target is not reached almost surely under every strategy")
    k, eta = result.k, result.eta
    exact = itertools.islice(_reach_probabilities(model, strategy, start, target),
                             k, l_max * k + 1, k)  # one walk, read at steps k, 2k, ...
    rows = tuple((l, p, 1 - (1 - eta ** k) ** l) for l, p in enumerate(exact, 1))
    return ReachBoundReport(k, eta, rows)
