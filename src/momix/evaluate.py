"""Exact expected multi-payoff vectors for finite-memory and mixed strategies.

Everything reduces to exact rational linear systems on the product chain of
the model with the strategy:

* reachability        -- hitting probabilities of the lifted target,
* Buchi               -- absorption into bottom SCCs meeting the target,
* discounted sum      -- x = r + lambda P x,
* shortest path       -- +inf unless the target is hit almost surely, else
                         x = r + P x on the pre-target region,
* total reward (>=0)  -- +inf iff a reachable bottom SCC earns positive
                         weight, else the transient accumulated weight,
* gated discounted    -- E[DS * 1Reach] = E[DS] - y(init) where y solves
                         y = r' + lambda P y on the pre-target region, r'
                         the expected weight of a move times the probability
                         of never reaching the target after it.

The pre-target region of a target is the set of nodes reachable from the
initial node without entering the target; hitting probabilities, too, are
solved on it, on the nodes that can still hit the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import UnknownState, UnsupportedKind
from .linalg import solve_linear
from .model import Pomdp, WeightFunction, closure, strongly_connected_components
from .payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff,
                      ReachGatedDiscountedSum, ReachIndicator, ShortestPath,
                      TotalRewardNonNeg)
from .rationals import ExtReal, ExtRealVector, POS_INF
from .strategies import (FiniteMemoryStrategy, FiniteMixture, MarkovChain, MemorySkeleton,
                         POOL_CAP, product_chain, pure_behaviours)

__all__ = [
    "expected_payoff", "pure_payoff_set", "Pool", "mixed_expected_payoff",
    "classify_integrability", "IntegrabilityVerdict", "maximal_end_components",
]


# -- chain utilities ----------------------------------------------------------------


def _edges(chain: MarkovChain) -> List[Tuple[int, ...]]:
    return [tuple(sorted(row.keys())) for row in chain.matrix]


def _chain_sccs(chain: MarkovChain):
    """SCCs of the chain graph, plus a bottom flag each."""
    succ = _edges(chain)
    comps = strongly_connected_components(dict(enumerate(succ)), range(len(succ)))
    bottom = []
    for comp in comps:
        members = set(comp)
        is_bottom = all(j in members for i in comp for j in succ[i])
        bottom.append(is_bottom)
    return comps, bottom


def _solve_on(chain: MarkovChain, nodes: Sequence[int], rhs: Sequence[Fraction],
              discount: Fraction = 1) -> Dict[int, Fraction]:
    """Unique solution of x = rhs + discount * P x on `nodes`, with x = 0
    off `nodes` (the transient system I - discount * P restricted to them)."""
    pos = {node: k for k, node in enumerate(nodes)}
    matrix = [[Fraction(0)] * len(nodes) for _ in nodes]
    for node, k in pos.items():
        row = matrix[k]
        row[k] += 1
        for j, p in chain.matrix[node].items():
            if j in pos:
                row[pos[j]] -= discount * p
    return dict(zip(nodes, solve_linear(matrix, rhs)))


def _lift(chain: MarkovChain, target: frozenset) -> Set[int]:
    """Chain nodes whose state lies in `target`."""
    return {i for i, (s, _m) in enumerate(chain.nodes) if s in target}


def _pre_target(chain: MarkovChain, targets: Set[int]) -> Tuple[List[int], Dict[int, Fraction]]:
    """The pre-target region of `targets` in index order, and the exact
    probability of eventually hitting `targets` from each of its nodes.
    Every successor of a region node lies in the region or in `targets`, so
    a system restricted to the region loses no term."""
    region = sorted(closure([chain.init], lambda i: () if i in targets else chain.matrix[i])
                    - targets)
    incoming: Dict[int, List[int]] = {}
    for i in region:
        for j in chain.matrix[i]:
            incoming.setdefault(j, []).append(i)
    live = sorted(closure(targets, lambda j: incoming.get(j, ())) - targets)
    probs = dict.fromkeys(region, Fraction(0))
    if live:
        rhs = [sum((p for j, p in chain.matrix[i].items() if j in targets), Fraction(0))
               for i in live]
        probs.update(_solve_on(chain, live, rhs))
    return region, probs


def _expected_step_weights(chain: MarkovChain, weights: WeightFunction) -> List[Fraction]:
    out = []
    for i, (s, _mem) in enumerate(chain.nodes):
        out.append(sum((alpha * weights(s, a) for a, alpha in chain.action_dists[i].items()),
                       Fraction(0)))
    return out


# -- per-kind evaluation -------------------------------------------------------------


def _eval_reach(chain: MarkovChain, target: frozenset) -> ExtReal:
    targets = _lift(chain, target)
    if chain.init in targets:
        return ExtReal(1)
    return ExtReal(_pre_target(chain, targets)[1][chain.init])


def _eval_buchi(chain: MarkovChain, target: frozenset) -> ExtReal:
    comps, bottom = _chain_sccs(chain)
    good: Set[int] = set()
    for comp, is_bottom in zip(comps, bottom):
        if is_bottom and any(chain.state_of(i) in target for i in comp):
            good.update(comp)
    if not good:
        return ExtReal(0)
    if chain.init in good:
        return ExtReal(1)
    return ExtReal(_pre_target(chain, good)[1][chain.init])


def _eval_discounted(chain: MarkovChain, spec: DiscountedSum) -> ExtReal:
    rewards = _expected_step_weights(chain, spec.weights)
    return ExtReal(_solve_on(chain, range(len(chain.nodes)), rewards, spec.discount)[chain.init])


def _eval_shortest_path(chain: MarkovChain, spec: ShortestPath) -> ExtReal:
    targets = _lift(chain, spec.target)
    if chain.init in targets:
        return ExtReal(0)
    region, reach = _pre_target(chain, targets)
    if reach[chain.init] != 1:
        return POS_INF
    rewards = _expected_step_weights(chain, spec.weights)
    return ExtReal(_solve_on(chain, region, [rewards[i] for i in region])[chain.init])


def _eval_total_reward(chain: MarkovChain, spec: TotalRewardNonNeg) -> ExtReal:
    rewards = _expected_step_weights(chain, spec.weights)
    comps, bottom = _chain_sccs(chain)
    recurrent: Set[int] = set()
    for comp, is_bottom in zip(comps, bottom):
        if is_bottom:
            if any(rewards[i] > 0 for i in comp):
                return POS_INF  # every chain node is reachable from init
            recurrent.update(comp)
    transient = [i for i in range(len(chain.nodes)) if i not in recurrent]
    if chain.init in recurrent:
        return ExtReal(0)
    return ExtReal(_solve_on(chain, transient, [rewards[i] for i in transient])[chain.init])


def _eval_gated_discounted(chain: MarkovChain, spec: ReachGatedDiscountedSum) -> ExtReal:
    plain = _eval_discounted(chain, DiscountedSum(spec.discount, spec.weights))
    targets = _lift(chain, spec.target)
    if chain.init in targets:
        return plain
    region, reach = _pre_target(chain, targets)
    # r'(c): expected weight of a move from c times h(successor), h = P(avoid target forever)
    rhs = [sum((p * spec.weights(chain.state_of(i), a) * (1 - reach[j])
                for a, p, j in chain.edges[i] if j not in targets), Fraction(0))
           for i in region]
    # The avoid-restricted system is I - lambda P on the pre-target region.
    avoided = _solve_on(chain, region, rhs, spec.discount)[chain.init]  # E[DS * 1{never reach}]
    return ExtReal(plain.finite - avoided)


def expected_payoff(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                    dims: MultiPayoff) -> ExtRealVector:
    """Exact expected payoff vector of a finite-memory strategy."""
    chain = product_chain(model, strategy, start)
    values = []
    for spec in dims:
        if isinstance(spec, ReachIndicator):
            values.append(_eval_reach(chain, spec.target))
        elif isinstance(spec, BuchiIndicator):
            values.append(_eval_buchi(chain, spec.target))
        elif isinstance(spec, DiscountedSum):
            values.append(_eval_discounted(chain, spec))
        elif isinstance(spec, ShortestPath):
            values.append(_eval_shortest_path(chain, spec))
        elif isinstance(spec, TotalRewardNonNeg):
            values.append(_eval_total_reward(chain, spec))
        elif isinstance(spec, ReachGatedDiscountedSum):
            values.append(_eval_gated_discounted(chain, spec))
        else:
            raise UnsupportedKind(type(spec).__name__)
    return ExtRealVector(values)


# -- pools ----------------------------------------------------------------------------


class Pool(list):
    """A pure pool: (pure strategy, exact expected payoff vector) pairs, one
    per behaviour of the pure strategies over a skeleton from a start state.

    Canonical order: behaviours sorted by their earliest act table (its
    position in `enumerate_pure`), with that table as the member's
    strategy.  `indices[i]` is the earliest table index of member i and
    `size` the number of act tables: `pool_size` and `winner_index` count
    act tables, while the cap and the cost of building the pool count
    behaviours.  So `approx` on earn_or_exit.json at counter:30 (2^31
    tables, 32 behaviours) succeeds.  A plain list of pairs is the pool
    whose every member is its own table.
    """

    def __init__(self, members=(), size: Optional[int] = None,
                 indices: Optional[Sequence[int]] = None):
        super().__init__(members)
        self.size = len(self) if size is None else size
        self.indices = tuple(range(len(self)) if indices is None else indices)


def pure_payoff_set(model: Pomdp, start: str, dims: MultiPayoff, skeleton: MemorySkeleton,
                    cap: int = POOL_CAP) -> Pool:
    """The :class:`Pool` of the skeleton from `start`: one evaluation per
    behaviour (`strategies.pure_behaviours`), ordered by earliest act table,
    which represents it.  `pool_size` and `winner_index` count act tables,
    the cap and the cost behaviours, so counter:30 on earn_or_exit.json
    (2^31 tables, 32 behaviours) is a small pool."""
    size, members = pure_behaviours(model, skeleton, start, cap)
    return Pool(((strategy, expected_payoff(model, strategy, start, dims))
                 for _index, strategy in members),
                size, [index for index, _strategy in members])


def mixed_expected_payoff(model: Pomdp, mixture: FiniteMixture, start: str,
                          dims: MultiPayoff) -> ExtRealVector:
    """Weighted sum of the pure expected payoffs, under 0 * inf = 0.

    Raises UndefinedExpectation if a dimension mixes +inf and -inf with
    positive weights.
    """
    vectors = [expected_payoff(model, member, start, dims) for member in mixture.support]
    return ExtRealVector.combine(mixture.weights, vectors)


# -- integrability classification --------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityVerdict:
    """One of "universally_integrable", "universally_unambiguously_integrable_only",
    "not_unambiguous", "unknown"; `witness` carries supporting data when the
    verdict is not plain integrability (an avoiding strategy, an end
    component, or a reason string)."""

    verdict: str
    witness: object = None

    UI = "universally_integrable"
    UUI_ONLY = "universally_unambiguously_integrable_only"
    NOT_UNAMBIGUOUS = "not_unambiguous"
    UNKNOWN = "unknown"


def maximal_end_components(model: Pomdp):
    """Maximal end components of the model viewed as an MDP: maximal state
    sets closed under some non-empty action selection.  Returns a list of
    (states frozenset, kept (state, action) pairs)."""
    allowed: Dict[str, Set[str]] = {s: set(model.enabled(s)) for s in model.states}
    alive = set(model.states)

    def sccs():
        graph = {s: sorted({t for a in allowed[s] for t, p in model.dist(s, a).items() if p > 0})
                 for s in alive}
        return strongly_connected_components(graph, sorted(alive, key=model.states.index))

    while True:
        comps = sccs()
        comp_of = {}
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in sorted(alive, key=model.states.index):
            keep = set()
            for a in allowed[s]:
                supp = {t for t, p in model.dist(s, a).items() if p > 0}
                if all(comp_of.get(t) == comp_of[s] for t in supp):
                    keep.add(a)
            if keep != allowed[s]:
                allowed[s] = keep
                changed = True
            if not keep and s in alive:
                alive.discard(s)
                changed = True
        if not changed:
            break
    mecs = []
    for comp in sccs():
        pairs = frozenset((s, a) for s in comp for a in allowed[s])
        has_cycle = len(comp) > 1 or any(
            s in {t for t, p in model.dist(s, a).items() if p > 0}
            for s in comp for a in allowed[s])
        if pairs and has_cycle:
            mecs.append((frozenset(comp), pairs))
    return mecs


def classify_integrability(model: Pomdp, dims: MultiPayoff, start: str) -> List[IntegrabilityVerdict]:
    """Per-dimension integrability classification.

    Bounded kinds are universally integrable outright.  Shortest-path
    payoffs are universally (square) integrable exactly when every strategy
    reaches the target almost surely, decided on belief supports.  For
    non-negative total reward the test is the existence of a reachable end
    component earning positive weight; for genuinely partially observable
    models the positive-cycle direction is not decided by this library and
    the verdict is "unknown".
    """
    from .beliefs import universal_as_reach  # local import avoids a cycle

    if start not in model.states:
        raise UnknownState(start)
    verdicts = []
    for spec in dims:
        if isinstance(spec, (ReachIndicator, BuchiIndicator, DiscountedSum,
                             ReachGatedDiscountedSum)):
            verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UI))
        elif isinstance(spec, ShortestPath):
            result = universal_as_reach(model, start, spec.target)
            if result.holds:
                verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UI))
            else:
                verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UUI_ONLY,
                                                     witness=result.witness))
        elif isinstance(spec, TotalRewardNonNeg):
            verdicts.append(_classify_total_reward(model, spec, start))
        else:
            verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UNKNOWN,
                                                 witness=f"unsupported kind {type(spec).__name__}"))
    return verdicts


def _classify_total_reward(model: Pomdp, spec: TotalRewardNonNeg, start: str) -> IntegrabilityVerdict:
    from .model import reachable_states

    reachable = reachable_states(model, start)
    positive_mec = None
    for states, pairs in maximal_end_components(model):
        if not (states & reachable):
            continue
        earning = [(s, a) for (s, a) in sorted(pairs) if spec.weights(s, a) > 0]
        if earning:
            positive_mec = (states, earning[0])
            break
    if positive_mec is None:
        # No strategy, observation-based or not, can earn unbounded weight.
        return IntegrabilityVerdict(IntegrabilityVerdict.UI)
    if model.is_mdp:
        return IntegrabilityVerdict(IntegrabilityVerdict.UUI_ONLY, witness=positive_mec)
    # A fully-observing controller could earn +inf, but whether an
    # observation-based one can is not decided here.
    return IntegrabilityVerdict(IntegrabilityVerdict.UNKNOWN, witness=positive_mec)
