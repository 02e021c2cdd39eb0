"""Belief supports, the avoidance safety game, integrability dichotomy and
the geometric reach bound."""

import json
from fractions import Fraction

import pytest

import momix as mx
from momix.beliefs import _belief_update, bounded_reach_probability, min_transition_probability
from momix.errors import PreconditionViolated

from conftest import commute_train, coin_exit_always


def test_belief_update_mdp_singletons(coin_exit):
    model, _ = coin_exit
    assert _belief_update(model, {"s"}, "a", "s") == {"s"}
    assert _belief_update(model, {"s"}, "a", "t") == {"t"}
    assert _belief_update(model, {"s"}, "b", "t") is None


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
        u_small = _belief_update(model, small, a, "z") or frozenset()
        u_large = _belief_update(model, large, a, "z") or frozenset()
        assert u_small <= u_large


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
    doc = {"states": ["x", "y"], "actions": ["a"],
           "transitions": {"x": {"a": {"y": "1"}}, "y": {"a": {"y": "1"}}}}
    one_step = mx.load_model(json.dumps(doc))
    from conftest import memoryless_table
    sigma1 = memoryless_table(one_step, {})
    assert bounded_reach_probability(one_step, sigma1, "x", frozenset({"y"}), 1) == 1


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
    for sigma in mx.enumerate_pure(model, mx.counter(model, 2)):
        for start in mx.beliefs._reachable_avoiding(model, "home", target):
            assert bounded_reach_probability(model, sigma, start, target, k) >= eta ** k


def test_min_transition_probability(commute, coin_exit):
    assert min_transition_probability(commute[0]) == Fraction(1, 4)
    assert min_transition_probability(coin_exit[0]) == Fraction(1, 2)
