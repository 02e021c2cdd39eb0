"""The shared pool evaluator against the per-member evaluator it replaced.

Below is the evaluator momix used before pools were evaluated with a block
memo, copied verbatim: it builds each strategy's product chain and solves
it from scratch.  Pools, single strategies and mixtures must
give exactly its Fractions on generated models with all six payoff kinds,
shared observations and counter skeletons up to counter:4; pools must also
give them on the bundled models at the counter lengths the benchmark uses.
"""

import json
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

import momix as mx
from momix.errors import PoolTooLarge, SingularSystem, UnsupportedKind
from momix.model import Pomdp, WeightFunction, closure, iter_sccs
from momix.payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff, ReachGatedDiscountedSum,
                           ReachIndicator, ShortestPath, TotalRewardNonNeg)
from momix.rationals import ExtReal, ExtRealVector, POS_INF
from momix.strategies import FiniteMemoryStrategy

from conftest import MarkovChain, grid_randomized, load, product_chain, solve_column as solve_linear
from test_evaluate import small_observed_problems


# -- the per-member evaluator, verbatim ------------------------------------------------

# -- chain utilities ----------------------------------------------------------------


def _edges(chain: MarkovChain) -> List[Tuple[int, ...]]:
    return [tuple(sorted(row.keys())) for row in chain.matrix]


def _chain_sccs(chain: MarkovChain):
    """SCCs of the chain graph, plus a bottom flag each."""
    succ = _edges(chain)
    comps = list(iter_sccs(range(len(succ)), succ.__getitem__))
    bottom = []
    for comp in comps:
        members = set(comp)
        is_bottom = all(j in members for i in comp for j in succ[i])
        bottom.append(is_bottom)
    return comps, bottom


def _solve_on(chain: MarkovChain, nodes: Sequence[int], rhs: Sequence[Fraction],
              discount: Fraction = 1) -> Dict[int, Fraction]:
    """Unique solution of x = rhs + discount * P x on `nodes`, with x = 0
    off `nodes` (the transient system I - discount * P restricted to them).

    The system is block triangular over the SCCs of the chain graph on
    `nodes`, which come successors first: each block is solved with the
    values of the blocks below it moved into its right-hand side, a
    singleton by one division and a larger block by `solve_linear` on its
    own rows.  Raises SingularSystem if a block is singular."""
    b = dict(zip(nodes, rhs))
    x: Dict[int, Fraction] = {}
    for comp in iter_sccs(b, lambda i: [j for j in chain.matrix[i] if j in b]):
        known = [b[i] + discount * sum((p * x[j] for j, p in chain.matrix[i].items() if j in x),
                                       Fraction(0))
                 for i in comp]
        if len(comp) == 1:
            node = comp[0]
            pivot = 1 - discount * chain.matrix[node].get(node, 0)
            if pivot == 0:
                raise SingularSystem("the system matrix is singular")
            x[node] = known[0] / pivot
            continue
        pos = {node: k for k, node in enumerate(comp)}
        matrix = [[Fraction(0)] * len(comp) for _ in comp]
        for node, k in pos.items():
            row = matrix[k]
            row[k] += 1
            for j, p in chain.matrix[node].items():
                if j in pos:
                    row[pos[j]] -= discount * p
        x.update(zip(comp, solve_linear(matrix, known)))
    return x


def _lift(chain: MarkovChain, target: frozenset) -> Set[int]:
    """Chain nodes whose state lies in `target`."""
    return {i for i, (s, _m) in enumerate(chain.nodes) if s in target}


def _pre_target(chain: MarkovChain, targets: Set[int]) -> Tuple[List[int], Dict[int, Fraction]]:
    """The pre-target region of `targets` in index order, and the exact
    probability of eventually hitting `targets` from each of its nodes.
    Every successor of a region node lies in the region or in `targets`, so
    a system restricted to the region loses no term."""
    region = sorted(set(closure([chain.init], lambda i, number: [] if i in targets else
                                [number(j) for j in chain.matrix[i]])) - targets)
    incoming: Dict[int, List[int]] = {}
    for i in region:
        for j in chain.matrix[i]:
            incoming.setdefault(j, []).append(i)
    live = sorted(set(closure(targets, lambda j, number: [number(i) for i in incoming.get(j, ())]))
                  - targets)
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


def _expected_payoff(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                     dims: MultiPayoff) -> ExtRealVector:
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


# -- the shared evaluator against it -------------------------------------------------


@st.composite
def pool_problems(draw):
    """A generated model with shared observations (`small_observed_problems`),
    a counter horizon up to 4, a start state and a seed."""
    doc, _horizon = draw(small_observed_problems())
    return (doc, draw(st.integers(0, 4)), draw(st.sampled_from(doc["states"])),
            draw(st.integers(0, 2 ** 16)))


def _pool(model, start, dims, horizon):
    """The pool at counter:horizon, or at counter:0 if that has over 64
    behaviours."""
    try:
        return mx.pure_payoff_set(model, start, dims, mx.counter(model, horizon), cap=64)
    except PoolTooLarge:
        return mx.pure_payoff_set(model, start, dims, mx.counter(model, 0), cap=64)


@given(pool_problems())
@settings(max_examples=150, deadline=None)
def test_pool_members_equal_the_reference(problem):
    """Every member's vector is the reference's, and so is every member's
    vector in a second call with the dimensions reversed: the memo of one
    call serves no other."""
    doc, horizon, start, _seed = problem
    model, dims = mx.load_problem(json.dumps(doc))
    for order in (dims, dims[::-1]):
        pool = _pool(model, start, order, horizon)
        for strategy, vector in pool:
            assert vector == _expected_payoff(model, strategy, start, order)


# Every state has one action, so every strategy has the same product: the
# mixture's later members meet only blocks already known.
ALL_FORCED = ({
    "states": ["s0", "s1"], "actions": ["a", "b"],
    "transitions": {"s0": {"a": {"s0": "1"}}, "s1": {"a": {"s0": "1"}}},
    "weights": {"w": {"s0,a": ["0", "0"], "s1,a": ["0", "0"]}},
    "payoffs": [{"kind": "reach", "target": ["s1"]}, {"kind": "buchi", "target": ["s1"]},
                {"kind": "discounted_sum", "lambda": "0/8", "weights": "w"},
                {"kind": "reach_gated_discounted_sum", "target": ["s1"], "lambda": "0/8",
                 "weights": "w"},
                {"kind": "total_reward", "weights": "w", "windex": 1},
                {"kind": "shortest_path", "target": ["s1"], "weights": "w"}],
    "observations": ["s0", "s1"], "obs": {"s0": "s0", "s1": "s1"}}, 0, "s0", 0)


@given(pool_problems())
@example(ALL_FORCED)
@settings(max_examples=100, deadline=None)
def test_strategies_and_mixtures_equal_the_reference(problem):
    """A randomized strategy, and a mixture of three pool members whose
    skeletons are equal but distinct objects or differ, evaluate to the
    reference's vectors."""
    doc, horizon, start, seed = problem
    model, dims = mx.load_problem(json.dumps(doc))
    rng = random.Random(seed)
    randomized = grid_randomized(model, mx.counter(model, horizon), rng)
    assert mx.expected_payoff(model, randomized, start, dims) \
        == _expected_payoff(model, randomized, start, dims)
    members = [rng.choice(_pool(model, start, dims, rng.randrange(horizon + 1)))[0]
               for _ in range(3)]
    members = [mx.PureStrategy(mx.counter(model, len(s.skeleton.memory) - 1), s.table)
               if rng.random() < 0.5 else s for s in members]
    weights = [Fraction(rng.randint(1, 5)) for _ in members]
    mixture = mx.FiniteMixture.of(zip(members, [w / sum(weights) for w in weights]))
    assert mx.mixed_expected_payoff(model, mixture, start, dims) == ExtRealVector.combine(
        mixture.weights, [_expected_payoff(model, s, start, dims) for s in mixture.support])


def test_a_pool_steps_its_product_once(coin_exit, monkeypatch):
    """The choice points, the behaviour walk and the evaluator of one pool
    read one transition table."""
    model, dims = coin_exit
    tables = []
    real_table = mx.strategies.transition_table
    for module in (mx.strategies, mx.evaluate):
        monkeypatch.setattr(module, "transition_table",
                            lambda *args: tables.append(args) or real_table(*args))
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4))
    assert len(pool) == 2 ** 5 and len(tables) == 1


@pytest.mark.parametrize("name,start,horizon", [
    ("two_discounts", "s0", 8), ("two_discounts", "s0", 10), ("gated_reward", "s", 8),
    ("gated_reward", "s", 11), ("earn_or_exit", "s", 11), ("earn_or_exit", "s", 30),
    ("coin_exit", "s", 6)])
def test_bundled_pools_at_long_counters_equal_the_reference(name, start, horizon):
    """The bundled models at the benchmark's counter lengths, where every
    block of a deterministic model is one node in a layered chain: each
    member's vector is exactly the reference's."""
    model, dims = load(f"{name}.json")
    pool = mx.pure_payoff_set(model, start, dims, mx.counter(model, horizon))
    assert len(pool) > horizon
    for strategy, vector in pool:
        assert vector == _expected_payoff(model, strategy, start, dims)


def _solved_blocks(monkeypatch):
    """A list that records, per `_solve_block` call, the memo, the block and
    the entries it appended."""
    solved = []
    real_solve = mx.evaluate._Evaluator._solve_block

    def solve(self, memo, comp, *args):
        start = len(memo.blocks)
        real_solve(self, memo, comp, *args)
        solved.append((memo, tuple(comp), range(start, len(memo.blocks))))

    monkeypatch.setattr(mx.evaluate._Evaluator, "_solve_block", solve)
    return solved


def test_a_pool_solves_each_distinct_block_once(coin_exit, monkeypatch):
    """The 512 behaviours of coin_exit at counter:8 meet 128 distinct blocks,
    and each is solved exactly once: a fast path that skips the unique
    table, or solves a block twice, changes the count.  Outside the root
    blocks, which are not interned, the memo holds no two equal slot
    tuples."""
    model, dims = coin_exit
    solved = _solved_blocks(monkeypatch)
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 8))
    assert len(pool) == 512 and len(solved) == 128
    memo = solved[0][0]
    roots = [e for _memo, comp, appended in solved if comp[0] == 0 for e in appended]
    assert sorted([*memo.interned.values(), *roots]) == list(range(len(memo.blocks)))
    assert all(memo.blocks[e] == slots for slots, e in memo.interned.items())


def test_counter_nodes_with_equal_futures_share_their_blocks(monkeypatch):
    """earn_or_exit at counter:300 has 302 behaviours whose walks finish
    about 46,000 one-node blocks.  Below its last choice a member's nodes
    have the values of other members' nodes at other counter values, so at
    most 310 blocks are solved."""
    model, dims = load("earn_or_exit.json")
    solved = _solved_blocks(monkeypatch)
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 300))
    assert len(pool) == 302 and len(solved) <= 310


# s0 -a-> s3 -> {s1, s4}, s1 -> {s2, s4}, s0 -b-> s2 -> s0, s4 absorbing.  At
# counter:1 a member after the first finds the block of (s4, 1) known and
# reaches (s4, 1) from both (s3, 1) and (s1, 1): expanding it on the
# second reach would solve its self-loop of probability 1 as a block with a
# successor outside, a singular system.
RE_REACHED = {
    "states": ["s0", "s1", "s2", "s3", "s4"], "actions": ["a", "b"],
    "transitions": {"s0": {"a": {"s3": "1"}, "b": {"s2": "1"}},
                    "s1": {"a": {"s2": "1/2", "s4": "1/2"}}, "s2": {"a": {"s0": "1"}},
                    "s3": {"a": {"s1": "1/2", "s4": "1/2"}}, "s4": {"a": {"s4": "1"}}},
    "weights": {"w": {"s0,a": ["1", "0"], "s0,b": ["2", "1"], "s1,a": ["0", "3"],
                      "s2,a": ["1", "0"], "s3,a": ["4", "1"], "s4,a": ["1", "0"]}},
    "payoffs": [{"kind": "reach", "target": ["s1"]}, {"kind": "buchi", "target": ["s2"]},
                {"kind": "discounted_sum", "lambda": "1/2", "weights": "w"},
                {"kind": "reach_gated_discounted_sum", "target": ["s1"], "lambda": "3/4",
                 "weights": "w"},
                {"kind": "total_reward", "weights": "w", "windex": 1},
                {"kind": "shortest_path", "target": ["s4"], "weights": "w"}]}


def test_a_known_block_reached_twice_is_not_expanded():
    """A node whose block a member takes as known is skipped on every later
    reach in the same walk, not only the first."""
    model, dims = mx.load_problem(json.dumps(RE_REACHED))
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 1))
    assert len(pool) == 4
    for strategy, vector in pool:
        assert vector == _expected_payoff(model, strategy, "s0", dims)


def test_pool_members_share_the_walk_below_known_nodes(coin_exit, monkeypatch):
    """The 512 behaviours of coin_exit at counter:8 expand at most 1,300
    nodes between them (8,195 when each member walks its whole product):
    a node whose block is known for the member's actions below it is not
    expanded again."""
    model, dims = coin_exit
    expanded = []
    real_choice = mx.PureStrategy.choice
    monkeypatch.setattr(mx.PureStrategy, "choice",
                        lambda self, *args: expanded.append(args) or real_choice(self, *args))
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 8))
    assert len(pool) == 512 and len(expanded) <= 1300


def _file_skeleton(model, rng):
    """A two-state skeleton as a strategy file gives it: string memory
    states, each update drawn at random."""
    doc = {"memory": ["m0", "m1"], "init": "m0", "act": {},
           "update": {f"{m},{z},{a}": rng.choice(["m0", "m1"]) for m in ("m0", "m1")
                      for z in model.observations for a in model.enabled_for_observation(z)}}
    for m in ("m0", "m1"):
        for z in model.observations:
            doc["act"][f"{m},{z}"] = model.enabled_for_observation(z)[0]
    return mx.strategies.strategy_from_dict(doc, model).skeleton


@given(small_observed_problems(), st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_pool_vectors_equal_each_members_own_evaluation(problem, seed):
    """With memoryless and file skeletons every choice point is reached
    from the start, so members rarely share a key: each pool member's
    vector is its own `expected_payoff`."""
    doc, _horizon = problem
    model, dims = mx.load_problem(json.dumps(doc))
    for skeleton in (mx.memoryless(model), _file_skeleton(model, random.Random(seed))):
        try:
            pool = mx.pure_payoff_set(model, "s0", dims, skeleton, cap=64)
        except PoolTooLarge:
            continue
        for strategy, vector in pool:
            assert vector == mx.expected_payoff(model, strategy, "s0", dims)


# s0 -x|y-> s -a|b|c-> t -go-> g (the target) or -stay-> z; g and z absorb.
# At s, memories m1 and m2 both play a, b and c with 1/3 each.  m1 moves to A
# on a and b and to B on c; m2 moves to A on a and c and to B on b.  A goes
# on at t and B stays.  So (s, m1) and (s, m2) share their state, their
# action distribution and their merged row, {(t, A): 2/3, (t, B): 1/3}, but
# b, the one action that earns weight, leads on to the target from (s, m1)
# and away from it from (s, m2): only their per-action rows tell them apart.
SPLIT_ACTIONS = {
    "states": ["s0", "s", "t", "g", "z"], "actions": ["x", "y", "a", "b", "c", "go", "stay"],
    "transitions": {"s0": {"x": {"s": "1"}, "y": {"s": "1"}},
                    "s": {"a": {"t": "1"}, "b": {"t": "1"}, "c": {"t": "1"}},
                    "t": {"go": {"g": "1"}, "stay": {"z": "1"}},
                    "g": {"a": {"g": "1"}}, "z": {"a": {"z": "1"}}},
    "weights": {"w": {"s0,x": ["0"], "s0,y": ["0"], "s,a": ["0"], "s,b": ["1"], "s,c": ["0"],
                      "t,go": ["0"], "t,stay": ["0"], "g,a": ["0"], "z,a": ["0"]}},
    "payoffs": [{"kind": "reach_gated_discounted_sum", "target": ["g"], "lambda": "1/2",
                 "weights": "w"}]}


def test_randomised_nodes_are_keyed_by_their_per_action_rows():
    """Two nodes whose merged rows are equal but whose per-action rows differ
    get their own blocks: the gated payoff reads each action's row.  The
    behavioural strategy written by `strategy_to_dict` and read back
    evaluates to the same vector."""
    model, dims = mx.load_problem(json.dumps(SPLIT_ACTIONS))
    memory = ["m0", "m1", "m2", "A", "B"]
    moves = {("m0", "s0", "x"): "m1", ("m0", "s0", "y"): "m2", ("m1", "s", "c"): "B",
             ("m2", "s", "b"): "B", ("m1", "s", "a"): "A", ("m1", "s", "b"): "A",
             ("m2", "s", "a"): "A", ("m2", "s", "c"): "A"}
    act = {f"{m},{s}": model.enabled(s)[0] for m in memory for s in model.states}
    act.update({"m0,s0": {"x": "1/2", "y": "1/2"}, "m1,s": {"a": "1/3", "b": "1/3", "c": "1/3"},
                "m2,s": {"a": "1/3", "b": "1/3", "c": "1/3"}, "A,t": "go", "B,t": "stay"})
    doc = {"memory": memory, "init": "m0", "act": act,
           "update": {f"{m},{s},{a}": moves.get((m, s, a), m)
                      for m in memory for s in model.states for a in model.enabled(s)}}
    strategy = mx.strategies.strategy_from_dict(doc, model)
    expected = _expected_payoff(model, strategy, "s0", dims)
    assert expected == ExtRealVector([ExtReal(Fraction(1, 12))])
    assert mx.expected_payoff(model, strategy, "s0", dims) == expected
    written = mx.strategies.strategy_to_dict(strategy)
    assert written["act"]["m2,s"] == {"a": "1/3", "b": "1/3", "c": "1/3"}
    read = mx.strategies.strategy_from_dict(json.loads(json.dumps(written)), model)
    assert mx.expected_payoff(model, read, "s0", dims) == expected
