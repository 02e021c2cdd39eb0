"""Model parsing, validation, reachability and the round-trip guarantee."""

import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import momix as mx
from momix.errors import SchemaError, UnknownState

from conftest import load


def test_commute_parses(commute):
    model, dims = commute
    assert len(model.states) == 3 and len(model.actions) == 3
    assert model.dist("home", "train")["home"] == Fraction(3, 4)
    assert model.is_mdp
    assert len(dims) == 1


def test_empty_states_rejected():
    doc = {"states": [], "actions": ["a"], "transitions": {}}
    with pytest.raises(SchemaError):
        mx.load_model(json.dumps(doc))


def test_exact_thirds_sum():
    doc = {
        "states": ["x", "y", "z"],
        "actions": ["a"],
        "transitions": {
            "x": {"a": {"x": "1/3", "y": "1/3", "z": "1/3"}},
            "y": {"a": {"y": "1"}},
            "z": {"a": {"z": "1"}},
        },
    }
    model = mx.load_model(json.dumps(doc))
    assert mx.validate(model).ok  # 1/3 + 1/3 + 1/3 == 1 exactly


def test_floats_rejected():
    doc = {"states": ["x"], "actions": ["a"],
           "transitions": {"x": {"a": {"x": 0.5}}}}
    with pytest.raises(SchemaError):
        mx.load_model(json.dumps(doc))


def test_validate_split_reach_ok(split_reach):
    assert mx.validate(split_reach[0]).ok


def test_validate_bad_sum():
    doc = {"states": ["x", "y"], "actions": ["a"],
           "transitions": {"x": {"a": {"y": "3/4"}}, "y": {"a": {"y": "1"}}}}
    model = mx.load_model(json.dumps(doc))
    report = mx.validate(model)
    assert not report.ok
    assert any(rule == "distribution-sum" for rule, _loc, _msg in report.violations)


def test_validate_probability_range():
    """Probabilities -1/2 and 3/2 sum to 1, so only their range is wrong."""
    doc = {"states": ["x", "y"], "actions": ["a"],
           "transitions": {"x": {"a": {"x": "3/2", "y": "-1/2"}}, "y": {"a": {"y": "1"}}}}
    report = mx.validate(mx.load_model(json.dumps(doc)))
    assert report.violations == (("probability-range", "(x,a)->x", "3/2 outside [0,1]"),
                                 ("probability-range", "(x,a)->y", "-1/2 outside [0,1]"))


def test_validate_obs_action_consistency():
    doc = {
        "states": ["x", "y"],
        "actions": ["a", "b"],
        "observations": ["z"],
        "obs": {"x": "z", "y": "z"},
        "transitions": {"x": {"a": {"x": "1"}, "b": {"y": "1"}},
                        "y": {"a": {"y": "1"}}},
    }
    report = mx.validate(mx.load_model(json.dumps(doc)))
    assert any(rule == "obs-action-consistency" for rule, _l, _m in report.violations)


def test_validate_deadlock():
    doc = {"states": ["x", "y"], "actions": ["a"],
           "transitions": {"x": {"a": {"y": "1"}}}}
    report = mx.validate(mx.load_model(json.dumps(doc)))
    assert any(rule == "deadlock" for rule, _l, _m in report.violations)


def test_validate_weight_on_a_disabled_pair():
    """The loader refuses such a weight key, so the model is built directly;
    each of two models, validated in turn, keeps its own report."""
    states, transitions = ("x",), {("x", "a"): {"x": Fraction(1)}}
    valid = mx.Pomdp(states, ("a", "b"), transitions, states, {"x": "x"},
                     {"w": {("x", "a"): (Fraction(1),)}})
    invalid = mx.Pomdp(states, ("a", "b"), transitions, states, {"x": "x"},
                       {"w": {("x", "a"): (Fraction(1),), ("x", "b"): (Fraction(2),)}})
    reports = [mx.validate(model) for model in (valid, invalid, valid, invalid)]
    assert reports[0].ok and reports[0].violations == ()
    assert reports[1].violations == (("weight-domain", "w(x,b)", "weight on disabled pair"),)
    assert reports[2] is reports[0] and reports[3] is reports[1]


def test_reachable_coin_exit(coin_exit):
    model, _ = coin_exit
    assert mx.reachable_states(model, "s") == {"s", "t"}
    assert mx.reachable_states(model, "t") == {"t"}


def test_reachable_two_discounts(two_discounts):
    model, _ = two_discounts
    # oracle: breadth-first search over a hand-written edge list
    edges = {"s0": {"s1", "s2", "s3"}, "s1": {"s1"}, "s2": {"s2", "s3"}, "s3": {"s3"}}
    seen, frontier = {"s0"}, ["s0"]
    while frontier:
        for t in edges[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    assert mx.reachable_states(model, "s0") == seen == {"s0", "s1", "s2", "s3"}


def test_reachable_unknown_state(two_discounts):
    with pytest.raises(UnknownState):
        mx.reachable_states(two_discounts[0], "nope")


@st.composite
def digraphs_with_roots(draw):
    """Successor lists over nodes 0..n-1 (possibly empty, possibly repeating a
    node) and a list of roots."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    succ = draw(st.lists(st.lists(node, max_size=4), min_size=n, max_size=n))
    return succ, draw(st.lists(node, max_size=3))


@given(digraphs_with_roots())
def test_closure_is_the_transitive_closure(problem):
    succ, roots = problem
    n = len(succ)
    reach = [[i == j or j in succ[i] for j in range(n)] for i in range(n)]
    for k in range(n):  # Warshall
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    expected = {j for r in roots for j in range(n) if reach[r][j]}
    order = list(dict.fromkeys(roots))  # breadth-first reference numbering
    k = 0
    while k < len(order):
        order += [j for j in dict.fromkeys(succ[order[k]]) if j not in order]
        k += 1
    calls = []

    def expand(node, number):
        calls.append(node)
        assert [number(j) for j in succ[node]] == [order.index(j) for j in succ[node]]

    nodes = mx.model.closure(roots, expand)
    assert set(nodes) == expected
    assert nodes == order
    assert calls == order


# -- round trip ------------------------------------------------------------------

names = st.sampled_from(["p", "q", "r", "u"])


@cache
def _cut_numerators(d):
    return st.builds(Fraction, st.integers(d, 7 * d), st.just(8 * d))


# st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8)), drawing
# the same examples, with each denominator's numerator strategy built once
# instead of once per draw
CUTS = st.integers(min_value=1).flatmap(_cut_numerators)


@st.composite
def small_models(draw):
    n_states = draw(st.integers(min_value=1, max_value=4))
    states = [f"s{i}" for i in range(n_states)]
    actions = ["a", "b"]
    transitions = {}
    for s in states:
        n_enabled = draw(st.integers(min_value=1, max_value=2))
        for a in actions[:n_enabled]:
            support = draw(st.lists(st.sampled_from(states), min_size=1,
                                    max_size=n_states, unique=True))
            cuts = sorted(draw(st.lists(CUTS, min_size=len(support) - 1,
                                        max_size=len(support) - 1)))
            bounds = [Fraction(0)] + cuts + [Fraction(1)]
            dist = {}
            for t, lo, hi in zip(support, bounds, bounds[1:]):
                if hi > lo:
                    dist[t] = dist.get(t, Fraction(0)) + (hi - lo)
            transitions.setdefault(s, {})[a] = {t: str(p) for t, p in dist.items()}
    return {"states": states, "actions": actions, "transitions": transitions}


@given(small_models())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip(doc):
    model = mx.load_model(json.dumps(doc))
    back = mx.load_model(mx.serialize(model))
    assert back == model


def test_round_trip_on_bundled_models():
    for name in ("commute.json", "two_discounts.json", "split_reach.json", "earn_or_exit.json",
                 "coin_exit.json", "delayed_exit.json", "gated_reward.json"):
        model, _ = load(name)
        assert mx.load_model(mx.serialize(model)) == model
        assert mx.validate(model).ok


def test_weight_function_column_out_of_range(two_discounts):
    model, _ = two_discounts
    assert model.weight_function("w", 1).name == "w[1]"
    for index in (-1, -2, 2):
        with pytest.raises(SchemaError, match="has no column"):
            model.weight_function("w", index)


def test_unroll_cost_counter(commute):
    model, _ = commute
    w = model.weight_function("time")
    unrolled, targets, entry = mx.unroll_cost_counter(model, w, Fraction(40),
                                                      frozenset({"work"}))
    assert mx.validate(unrolled).ok
    assert all(name.startswith("work@") for name in targets)
    # strategies of the base model run unchanged: observations are inherited
    assert set(unrolled.observations) == set(model.observations)
    negative = mx.model.WeightFunction({**w.table, ("home", "bike"): Fraction(-1)})
    with pytest.raises(ValueError, match="^unroll_cost_counter requires non-negative weights$"):
        mx.unroll_cost_counter(model, negative, Fraction(40), frozenset({"work"}))


def test_unroll_cost_counter_skips_zero_probabilities():
    """A successor of probability 0 is neither numbered nor kept in the
    unrolled distribution, as in the strategies' transition tables."""
    doc = {"states": ["s", "t", "u"], "actions": ["a"],
           "transitions": {"s": {"a": {"t": "1", "u": "0"}}, "t": {"a": {"t": "1"}},
                           "u": {"a": {"u": "1"}}}}
    model = mx.load_model(json.dumps(doc))
    w = mx.model.WeightFunction({("s", "a"): Fraction(1), ("t", "a"): Fraction(0),
                                 ("u", "a"): Fraction(0)})
    unrolled, targets, _entry = mx.unroll_cost_counter(model, w, Fraction(5), frozenset({"t"}))
    assert unrolled.states == ("s@0", "t@0", "t@1", "u@0")
    assert unrolled.dist("s@0", "a") == {"t@1": Fraction(1)}
    assert targets == frozenset({"t@0", "t@1"})
    assert mx.validate(unrolled).ok


def test_unroll_cost_counter_cap(commute, monkeypatch):
    """MAX_UNROLLED_STATES bounds the states of the unrolled model: a model
    of n states is built under a cap of n and refused under n - 1."""
    model, _ = commute
    w = model.weight_function("time")

    def unroll():
        return mx.unroll_cost_counter(model, w, Fraction(40), frozenset({"work"}))[0]

    n = len(unroll().states)
    monkeypatch.setattr(mx.model, "MAX_UNROLLED_STATES", n - 1)
    with pytest.raises(ValueError, match="exceeds"):
        unroll()
    monkeypatch.setattr(mx.model, "MAX_UNROLLED_STATES", n)
    assert len(unroll().states) == n


def _recursive_tarjan(graph, order):
    """Textbook recursive Tarjan: roots in `order`, successors in list order,
    successors outside the graph ignored."""
    index, low, stack, comps = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in graph[v]:
            if w not in graph:
                continue
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = [stack.pop()]
            while comp[-1] != v:
                comp.append(stack.pop())
            comps.append(comp)

    for v in order:
        if v not in index:
            visit(v)
    return comps


@st.composite
def digraphs(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    targets = st.sampled_from(nodes + ["outside"])
    graph = {v: draw(st.lists(targets, max_size=4)) for v in nodes}
    return graph, draw(st.permutations(nodes))


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_strongly_connected_components_match_recursive_tarjan(problem):
    """`iter_sccs`, with successors outside the graph left out, gives the
    same components, node order and component order as the recursive
    algorithm, so callers keep the orders they had with their own loops."""
    graph, order = problem
    assert list(mx.model.iter_sccs(order, lambda node: [nxt for nxt in graph[node]
                                                        if nxt in graph])) == \
        _recursive_tarjan(graph, order)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_scc_against_reachability_oracle(n, data):
    """Tarjan vs the definition: s ~ t iff both reach each other."""
    states = [f"s{i}" for i in range(n)]
    edges = {s: data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=n,
                                   unique=True), label=f"edges{s}") for s in states}
    doc = {"states": states, "actions": ["a"],
           "transitions": {s: {"a": {t: f"1/{len(ts)}" for t in ts}}
                           for s, ts in edges.items()}}
    model = mx.load_model(json.dumps(doc))
    graph = model.successor_graph()
    components = list(mx.model.iter_sccs(model.states, graph.__getitem__))
    component_of = {s: i for i, comp in enumerate(components) for s in comp}

    def reaches(a, b):
        seen, frontier = {a}, [a]
        while frontier:
            for t in edges[frontier.pop()]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return b in seen

    for s in states:
        for t in states:
            same = component_of[s] == component_of[t]
            assert same == (reaches(s, t) and reaches(t, s))
            if reaches(s, t) and not same:
                assert component_of[t] < component_of[s]  # successors first


# Component orders on the bundled models: the strongly connected components
# in topological order (the reverse of the order Tarjan emits them in) and
# the states of each maximal end component, in the order they are found.
BUNDLED_SCC_ORDERS = {
    "coin_exit.json": ([["s"], ["t"]], [["s"], ["t"]]),
    "commute.json": ([["home"], ["ride"], ["work"]], [["work"]]),
    "delayed_exit.json": ([["s"], ["t"]], [["s"], ["t"]]),
    "earn_or_exit.json": ([["s"], ["t"]], [["s"], ["t"]]),
    "gated_reward.json": ([["s"], ["t"]], [["s"], ["t"]]),
    "split_reach.json": ([["s0"], ["s4"], ["s3"], ["s2"], ["s1"]],
                         [["s1"], ["s2"], ["s3"], ["s4"]]),
    "two_discounts.json": ([["s0"], ["s2"], ["s3"], ["s1"]], [["s1"], ["s2"], ["s3"]]),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SCC_ORDERS))
def test_component_orders_on_bundled_models(name):
    model, _dims = load(name)
    sccs, mecs = BUNDLED_SCC_ORDERS[name]
    graph = model.successor_graph()
    components = list(mx.model.iter_sccs(model.states, graph.__getitem__))
    assert [sorted(c) for c in reversed(components)] == sccs
    assert [sorted(states) for states, _pairs in
            mx.evaluate.maximal_end_components(model)] == mecs
