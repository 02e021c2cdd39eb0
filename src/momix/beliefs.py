"""Belief-support analyses: universal almost-sure reachability, the
shortest-path integrability dichotomy, and the geometric reach bound.

A belief support is the set of states consistent with an observation
history.  Whether *every* strategy reaches a target almost surely is decided
by a safety game on belief supports: the answer is "no" exactly when some
state, reachable from the start without touching the target, admits a pure
belief-based strategy whose reachable supports stay disjoint from the target
forever.  When the answer is "yes", every strategy reaches the target within
k = 2^|S| steps with probability at least eta^k (eta the minimum transition
probability), which yields the bound P(reach within l*k) >= 1 - (1 - eta^k)^l.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .errors import DisabledAction, ObservationClassTooLarge, PreconditionViolated, UnknownState
from .model import Pomdp, reachable_states
from .strategies import FiniteMemoryStrategy, MemorySkeleton, PureStrategy, product_chain

BeliefSupport = FrozenSet[str]


def check_belief_support(model: Pomdp, support) -> BeliefSupport:
    support = frozenset(support)
    if not support:
        raise ValueError("belief supports are non-empty")
    unknown = support - set(model.states)
    if unknown:
        raise UnknownState(sorted(unknown)[0])
    observations = {model.obs[s] for s in support}
    if len(observations) > 1:
        raise ValueError(f"belief support mixes observations {sorted(observations)}")
    return support


def belief_update(model: Pomdp, support: BeliefSupport, action: str,
                  observation: str) -> Optional[BeliefSupport]:
    """States with the given observation reachable in one `action` step from
    the support; None when that observation cannot occur."""
    support = check_belief_support(model, support)
    enabled = model.enabled(next(iter(support)))
    if action not in enabled:
        raise DisabledAction(f"action {action} disabled in support {sorted(support)}")
    successors = set()
    for s in support:
        for t, p in model.dist(s, action).items():
            if p > 0 and model.obs[t] == observation:
                successors.add(t)
    return frozenset(successors) if successors else None


@dataclass(frozen=True)
class BeliefGraph:
    nodes: Tuple[BeliefSupport, ...]
    edges: Tuple[Tuple[BeliefSupport, str, str, BeliefSupport], ...]  # (B, a, z, B')
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
    """BFS closure of belief updates from the singleton support of `start`."""
    if start not in model.states:
        raise UnknownState(start)
    init = frozenset({start})
    nodes = [init]
    seen = {init}
    edges = []
    queue = deque([init])
    while queue:
        support = queue.popleft()
        enabled = model.enabled(next(iter(support)))
        for a in enabled:
            for z in model.observations:
                nxt = belief_update(model, support, a, z)
                if nxt is None:
                    continue
                edges.append((support, a, z, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    nodes.append(nxt)
                    queue.append(nxt)
    return BeliefGraph(tuple(nodes), tuple(edges), init)


# -- the avoidance safety game ---------------------------------------------------


def _avoidance_winning_supports(model: Pomdp, target: frozenset,
                                max_group: int = 20) -> Dict[BeliefSupport, str]:
    """Greatest set of target-disjoint belief supports from which a belief
    strategy can keep all observation outcomes target-disjoint forever.
    Returns the winning supports with one safe action each."""
    groups: Dict[str, List[str]] = {}
    for s in model.states:
        if s not in target:
            groups.setdefault(model.obs[s], []).append(s)
    candidates = set()
    for z, members in groups.items():
        if len(members) > max_group:
            raise ObservationClassTooLarge(
                f"observation class {z!r} has {len(members)} non-target states; "
                f"belief-support enumeration handles at most {max_group}")
        for r in range(1, len(members) + 1):
            for combo in itertools.combinations(members, r):
                candidates.add(frozenset(combo))

    winning = set(candidates)
    changed = True
    while changed:
        changed = False
        for support in sorted(winning, key=sorted):
            enabled = model.enabled(next(iter(support)))
            safe_action = None
            for a in enabled:
                ok = True
                for z in model.observations:
                    nxt = belief_update(model, support, a, z)
                    if nxt is None:
                        continue
                    if nxt not in winning:
                        ok = False
                        break
                if ok:
                    safe_action = a
                    break
            if safe_action is None:
                winning.discard(support)
                changed = True
    choice = {}
    for support in winning:
        enabled = model.enabled(next(iter(support)))
        for a in enabled:
            ok = True
            for z in model.observations:
                nxt = belief_update(model, support, a, z)
                if nxt is not None and nxt not in winning:
                    ok = False
                    break
            if ok:
                choice[support] = a
                break
    return choice


def _avoider_strategy(model: Pomdp, start: str, choice: Mapping[BeliefSupport, str]) -> PureStrategy:
    """A runnable pure strategy realizing the belief avoider from `start`.

    Memory carries the pre-observation belief (the set of states possible
    before seeing the current observation); the acting belief is its
    intersection with the current observation class.
    """
    init: FrozenSet[str] = frozenset({start})

    def acting(pre: FrozenSet[str], z: str) -> FrozenSet[str]:
        return frozenset(s for s in pre if model.obs[s] == z)

    def pick(pre, z):
        belief = acting(pre, z)
        if belief in choice:
            return choice[belief]
        enabled = model.enabled_for_observation(z)
        return enabled[0] if enabled else None

    memory = [init]
    seen = {init}
    table = {}
    update = {}
    queue = deque([init])
    while queue:
        pre = queue.popleft()
        for z in model.observations:
            enabled = model.enabled_for_observation(z)
            if not enabled:
                continue
            action = pick(pre, z)
            table[(pre, z)] = action
            for a in enabled:
                belief = acting(pre, z)
                nxt = frozenset(t for s in belief for t, p in model.dist(s, a).items() if p > 0)
                update[(pre, z, a)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    memory.append(nxt)
                    queue.append(nxt)
    skeleton = MemorySkeleton(tuple(memory), init, update)
    return PureStrategy(skeleton, table)


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
    reachable_support_count: int
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
    support_count = len(belief_graph(model, start).nodes)

    avoid_reachable = _reachable_avoiding(model, start, target)
    if not avoid_reachable:  # start is already in the target
        return UniversalReachResult(True, k, eta, support_count)
    choice = _avoidance_winning_supports(model, target)
    for s in sorted(avoid_reachable, key=model.states.index):
        if frozenset({s}) in choice:
            witness = _avoider_strategy(model, s, choice)
            return UniversalReachResult(False, k, eta, support_count,
                                        witness_state=s, witness=witness)
    return UniversalReachResult(True, k, eta, support_count)


def _reachable_avoiding(model: Pomdp, start: str, target: frozenset) -> frozenset:
    if start in target:
        return frozenset()
    seen = {start}
    queue = [start]
    while queue:
        s = queue.pop()
        for a in model.enabled(s):
            for t, p in model.dist(s, a).items():
                if p > 0 and t not in target and t not in seen:
                    seen.add(t)
                    queue.append(t)
    return frozenset(seen)


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


def bounded_reach_probability(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                              target: frozenset, steps: int) -> Fraction:
    """Exact P(target hit within `steps` transitions) on the product chain."""
    chain = product_chain(model, strategy, start)
    hit = {i for i, (s, _m) in enumerate(chain.nodes) if s in target}
    dist: Dict[int, Fraction] = {chain.init: Fraction(1)}
    absorbed = Fraction(0)
    if chain.init in hit:
        return Fraction(1)
    for _ in range(steps):
        nxt: Dict[int, Fraction] = {}
        for node, mass in dist.items():
            for j, p in chain.matrix[node].items():
                if p == 0:
                    continue
                if j in hit:
                    absorbed += mass * p
                else:
                    nxt[j] = nxt.get(j, Fraction(0)) + mass * p
        dist = nxt
        if not dist:
            break
    return absorbed


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
    rows = []
    for l in range(1, l_max + 1):
        exact = bounded_reach_probability(model, strategy, start, target, l * k)
        bound = 1 - (1 - eta ** k) ** l
        rows.append((l, exact, bound))
    return ReachBoundReport(k, eta, tuple(rows))
