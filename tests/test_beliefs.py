"""Belief supports, the avoidance safety game, integrability dichotomy and
the geometric reach bound."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momix as mx
from momix.beliefs import (_avoidance_winning_supports, _belief_split, _reachable_avoiding,
                           _support_closure, bounded_reach_probability,
                           min_transition_probability)
from momix.errors import PreconditionViolated
from momix.model import closure
from momix.strategies import transition_table

from conftest import (_belief_update, coin_exit_always, commute_bike, commute_ltb,
                      commute_train, enumerate_pure, memoryless_table,
                      subset_avoidance_winning_supports, subset_game_universal_as_reach)
from test_evaluate import small_observed_problems


def test_belief_update_mdp_singletons(coin_exit):
    model, _ = coin_exit
    assert list(_belief_split(model, {"s"}, "a").items()) == [("s", {"s"}), ("t", {"t"})]
    assert _belief_split(model, {"s"}, "b") == {"s": {"s"}}


BLIND_SPLIT = {
    # a blind variant of the five-state reach model: every state enables all
    # three actions (self-loops added) and shares one observation
    "states": ["s0", "s1", "s2", "s3", "s4"],
    "actions": ["a", "b", "c"],
    "observations": ["z"],
    "obs": {s: "z" for s in ["s0", "s1", "s2", "s3", "s4"]},
    "transitions": {
        "s0": {"a": {"s1": "1"}, "b": {"s2": "1"}, "c": {"s3": "1/4", "s4": "3/4"}},
        "s1": {"a": {"s1": "1"}, "b": {"s1": "1"}, "c": {"s1": "1"}},
        "s2": {"a": {"s2": "1"}, "b": {"s2": "1"}, "c": {"s2": "1"}},
        "s3": {"a": {"s3": "1"}, "b": {"s3": "1"}, "c": {"s3": "1"}},
        "s4": {"a": {"s4": "1"}, "b": {"s4": "1"}, "c": {"s4": "1"}},
    },
}


def test_belief_graph_blind_grows(split_reach):
    model = mx.load_model(json.dumps(BLIND_SPLIT))
    assert mx.validate(model).ok
    graph = mx.belief_graph(model, "s0")
    assert frozenset({"s3", "s4"}) in graph.nodes  # c under one observation
    dot = graph.to_dot()
    assert "digraph" in dot and "s3,s4" in dot


def test_belief_graph_mdp_isomorphic(commute):
    model, _ = commute
    graph = mx.belief_graph(model, "home")
    assert set(graph.nodes) == {frozenset({s}) for s in mx.reachable_states(model, "home")}


def test_belief_graph_absorbing():
    doc = {"states": ["x"], "actions": ["a"], "transitions": {"x": {"a": {"x": "1"}}}}
    model = mx.load_model(json.dumps(doc))
    graph = mx.belief_graph(model, "x")
    assert graph.nodes == (frozenset({"x"}),)
    assert all(b2 == frozenset({"x"}) for _b, _a, _z, b2 in graph.edges)


def test_belief_update_monotone(split_reach):
    model = mx.load_model(json.dumps(BLIND_SPLIT))
    small = frozenset({"s1"})
    large = frozenset({"s1", "s2"})
    for a in ("a", "b", "c"):
        u_small = _belief_split(model, small, a).get("z", frozenset())
        u_large = _belief_split(model, large, a).get("z", frozenset())
        assert u_small <= u_large


def per_observation_belief_graph(model, start):
    """The belief graph from `start` with one `_belief_update` per action
    and observation, numbered breadth-first: (nodes, edges)."""
    nodes, edges = [frozenset({start})], []
    for support in nodes:
        for a in model.enabled(next(iter(support))):
            for z in model.observations:
                nxt = _belief_update(model, support, a, z)
                if nxt is not None:
                    edges.append((support, a, z, nxt))
                    if nxt not in nodes:
                        nodes.append(nxt)
    return tuple(nodes), tuple(edges)


@given(small_observed_problems())
@settings(max_examples=100, deadline=None)
def test_belief_split_matches_per_observation_updates(problem):
    """Splitting a support once per action gives the belief graph of one
    update per observation: the same supports in the same order, and the
    same edges, per support in action and then observation order."""
    doc, _horizon = problem
    model = mx.load_model(json.dumps(doc))
    for start in model.states:
        graph = mx.belief_graph(model, start)
        assert (graph.nodes, graph.edges) == per_observation_belief_graph(model, start)


# -- universal almost-sure reachability ----------------------------------------------


def test_universal_reach_coin_exit_false(coin_exit):
    model, _ = coin_exit
    result = mx.universal_as_reach(model, "s", frozenset({"t"}))
    assert not result.holds
    assert result.witness_state == "s"
    # the witness is outcome-equivalent to always-b: it never reaches t
    reach = mx.expected_payoff(model, result.witness, "s",
                               (mx.ReachIndicator(frozenset({"t"})),))
    assert reach == mx.vector(0)


def test_universal_reach_commute_true(commute):
    model, _ = commute
    result = mx.universal_as_reach(model, "home", frozenset({"work"}))
    assert result.holds
    assert result.k == 2 ** 3 and result.eta == Fraction(1, 4)
    assert result.step_bound == Fraction(1, 4) ** 8


def test_universal_reach_start_in_target(commute):
    model, _ = commute
    assert mx.universal_as_reach(model, "work", frozenset({"work"})).holds


def test_universal_reach_partial_chance():
    """A start from which the target is hit with probability exactly 1/2 and
    the other half falls into a safe absorbing branch: not universal, even
    though no sure avoider exists at the start state itself."""
    doc = {
        "states": ["s0", "t", "u"],
        "actions": ["a"],
        "transitions": {
            "s0": {"a": {"t": "1/2", "u": "1/2"}},
            "t": {"a": {"t": "1"}},
            "u": {"a": {"u": "1"}},
        },
    }
    model = mx.load_model(json.dumps(doc))
    result = mx.universal_as_reach(model, "s0", frozenset({"t"}))
    assert not result.holds
    assert result.witness_state == "u"


def test_universal_reach_mdp_oracle(commute, coin_exit, earn_or_exit, two_discounts):
    """Cross-check on MDPs against a direct state-level safety fixed point:
    a sure avoider exists from s' iff s' wins the safety game on states."""
    for model, _dims in (commute, coin_exit, earn_or_exit, two_discounts):
        for target_state in model.states:
            target = frozenset({target_state})
            safe = set(model.states) - target
            changed = True
            while changed:
                changed = False
                for s in list(safe):
                    if not any(all(t in safe for t in model.dist(s, a)) for a in model.enabled(s)):
                        safe.discard(s)
                        changed = True
            for start in model.states:
                result = mx.universal_as_reach(model, start, target)
                if start in target:
                    expected = True
                else:
                    avoid_reachable = mx.beliefs._reachable_avoiding(model, start, target)
                    expected = not any(s in safe for s in avoid_reachable)
                assert result.holds == expected, (start, target_state)


@st.composite
def observed_models(draw):
    """A valid POMDP with 2 to 6 states sharing 1 to 3 observations (one
    observation makes it blind), actions a and b enabled per observation,
    and a target that leaves s0 out; as (model, target)."""
    n = draw(st.integers(min_value=2, max_value=6))
    states = [f"s{i}" for i in range(n)]
    labels = [f"z{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
    obs = {s: draw(st.sampled_from(labels)) for s in states}
    enabled = {z: draw(st.sampled_from([["a"], ["b"], ["a", "b"]])) for z in labels}
    transitions = {}
    for s in states:
        for a in enabled[obs[s]]:
            succ = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
            mass = draw(st.lists(st.integers(1, 3), min_size=len(succ), max_size=len(succ)))
            transitions.setdefault(s, {})[a] = {t: str(Fraction(m, sum(mass)))
                                                for t, m in zip(succ, mass)}
    doc = {"states": states, "actions": ["a", "b"], "observations": sorted(set(obs.values())),
           "obs": obs, "transitions": transitions}
    target = frozenset(draw(st.lists(st.sampled_from(states[1:]), min_size=1, unique=True)))
    return mx.load_model(json.dumps(doc)), target


@given(observed_models())
@settings(max_examples=300, deadline=None)
def test_reachable_game_matches_the_subset_game(problem):
    """The game on the supports reachable from the avoid-reachable
    singletons gives the verdict, witness state and witness strategy of the
    game on every subset of each observation class, and the same safe
    action on every support of the closure."""
    model, target = problem
    assert mx.validate(model).ok
    result = mx.universal_as_reach(model, "s0", target)
    holds, witness_state, witness = subset_game_universal_as_reach(model, "s0", target)
    assert (result.holds, result.witness_state) == (holds, witness_state)
    if witness is not None:
        assert result.witness.skeleton.memory == witness.skeleton.memory
        assert result.witness.skeleton.init == witness.skeleton.init
        assert result.witness.skeleton.update == witness.skeleton.update
        assert result.witness.table == witness.table
    roots = [frozenset({s}) for s in sorted(_reachable_avoiding(model, "s0", target),
                                            key=model.states.index)]
    choice = _avoidance_winning_supports(model, target, roots)
    reference = subset_avoidance_winning_supports(model, target)
    nodes, _edges = _support_closure(model, roots)
    assert set(choice) <= set(nodes)
    for support in nodes:
        assert choice.get(support) == reference.get(support), support


@given(observed_models())
@settings(max_examples=300, deadline=None)
def test_witness_avoids_the_target_with_only_the_memory_it_uses(problem):
    """A witness reaches its target with probability 0 from its state, and
    its own plays from there reach every one of its memory states."""
    model, target = problem
    result = mx.universal_as_reach(model, "s0", target)
    if result.holds:
        return
    witness, start = result.witness, result.witness_state
    assert mx.expected_payoff(model, witness, start, (mx.ReachIndicator(target),)) \
        == mx.vector(0)
    table = transition_table(model, witness.skeleton, [start])

    def played(node, number):
        s, mem = table.nodes[node]
        for a, _alpha in witness.choice(mem, model.obs[s]):
            for nxt, _p in table.moves[node][a]:
                number(nxt)

    reached = closure([0], played)
    assert {table.nodes[node][1] for node in reached} == set(witness.skeleton.memory)


def test_classify_shortest_path(coin_exit, commute):
    verdict, result = mx.classify_shortest_path(coin_exit[0], "s", frozenset({"t"}))
    assert verdict == "not_universally_integrable"
    assert result.witness is not None
    verdict2, _ = mx.classify_shortest_path(commute[0], "home", frozenset({"work"}))
    assert verdict2 == "universally_square_integrable"
    verdict3, _ = mx.classify_shortest_path(commute[0], "home",
                                            frozenset(commute[0].states))
    assert verdict3 == "universally_square_integrable"  # start state is a target


# -- the geometric bound ----------------------------------------------------------------


ONE_STEP = {"states": ["x", "y"], "actions": ["a"],  # x reaches y in exactly one step
            "transitions": {"x": {"a": {"y": "1"}}, "y": {"a": {"y": "1"}}}}


def test_reach_bound_commute(commute):
    model, _ = commute
    report = mx.reach_bound_check(model, commute_train(model), "home",
                                  frozenset({"work"}), 4)
    assert report.k == 8 and report.eta == Fraction(1, 4)
    assert report.holds
    for l, exact, bound in report.rows:
        assert bound == 1 - (1 - Fraction(1, 4) ** 8) ** l
        # oracle for the exact side: P(reach <= n steps) = 1 - (3/4)^(n-1)
        assert exact == 1 - Fraction(3, 4) ** (8 * l - 1)


def test_reach_bound_trivial_cases(commute):
    model, _ = commute
    sigma = commute_train(model)
    assert bounded_reach_probability(model, sigma, "work", frozenset({"work"}), 0) == 1
    one_step = mx.load_model(json.dumps(ONE_STEP))
    sigma1 = memoryless_table(one_step, {})
    assert bounded_reach_probability(one_step, sigma1, "x", frozenset({"y"}), 1) == 1


def test_reach_bound_rows_read_one_walk(commute):
    """The rows read off one walk at steps k, 2k, ... equal a fresh walk of
    l*k steps per l: on the commute, from a start in the target, and once
    all the mass is absorbed."""
    model, _ = commute
    one_step = mx.load_model(json.dumps(ONE_STEP))
    cases = [(model, sigma, start, frozenset({"work"}))
             for sigma in (commute_train(model), commute_bike(model), commute_ltb(model, 2))
             for start in ("home", "work")]
    cases.append((one_step, memoryless_table(one_step, {}), "x", frozenset({"y"})))
    for mdl, sigma, start, target in cases:
        report = mx.reach_bound_check(mdl, sigma, start, target, 3)
        assert [l for l, _exact, _bound in report.rows] == [1, 2, 3]
        for l, exact, _bound in report.rows:
            assert exact == bounded_reach_probability(mdl, sigma, start, target, l * report.k)


def test_reach_bound_precondition(coin_exit):
    model, _ = coin_exit
    with pytest.raises(PreconditionViolated):
        mx.reach_bound_check(model, coin_exit_always(model, "a"), "s", frozenset({"t"}), 2)


def test_eta_k_bound_over_pool(commute):
    """Lemma instantiation: when reach is universal, every pure strategy from
    every avoid-reachable state hits the target within k steps with
    probability at least eta^k."""
    model, _ = commute
    target = frozenset({"work"})
    result = mx.universal_as_reach(model, "home", target)
    assert result.holds
    k, eta = result.k, result.eta
    for sigma in enumerate_pure(model, mx.counter(model, 2)):
        for start in mx.beliefs._reachable_avoiding(model, "home", target):
            assert bounded_reach_probability(model, sigma, start, target, k) >= eta ** k


def test_min_transition_probability(commute, coin_exit):
    assert min_transition_probability(commute[0]) == Fraction(1, 4)
    assert min_transition_probability(coin_exit[0]) == Fraction(1, 2)
