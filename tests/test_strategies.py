"""Strategies: the reference product chain, cylinders, enumeration, Kuhn
conversion and the bounded-horizon premetric (with the two lemmas backing
it)."""

import json
import random
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import momix as mx
from momix.errors import PoolTooLarge
from momix.strategies import reachable_choice_points, strategy_from_dict, strategy_to_dict

from conftest import (commute_ltb, commute_train, split_reach_choice, coin_exit_always,
                      coin_exit_switch, enumerate_pure, grid_randomized, lasso_payoff,
                      lasso_steps, memoryless_table, product_chain)
from test_evaluate import small_observed_problems


def test_product_chain_coin_exit(coin_exit):
    model, _ = coin_exit
    always_a = coin_exit_always(model, "a")
    chain = product_chain(model, always_a, "s")
    assert len(chain) == 2
    i_s = chain.index[("s", 0)]
    i_t = chain.index[("t", 0)]
    assert chain.matrix[i_s] == {i_s: Fraction(1, 2), i_t: Fraction(1, 2)}
    assert chain.matrix[i_t] == {i_t: Fraction(1)}


def test_product_chain_rows_sum_to_one(two_discounts):
    model, _ = two_discounts
    for strategy in enumerate_pure(model, mx.counter(model, 2)):
        chain = product_chain(model, strategy, "s0")
        for row in chain.matrix:
            assert sum(row.values(), Fraction(0)) == 1


def test_deterministic_chain_single_edges(two_discounts):
    model, _ = two_discounts
    strategy = memoryless_table(model, {"s0": "a", "s2": "a"})
    chain = product_chain(model, strategy, "s0")
    assert all(len(row) == 1 and sum(row.values()) == 1 for row in chain.matrix)


def test_counter_chain_hand_construction(two_discounts):
    """Loop twice in s2 then leave: five product states, hand-counted."""
    model, _ = two_discounts
    sk = mx.counter(model, 3)
    table = {}
    for q in range(4):
        table[(q, "s0")] = "a"
        table[(q, "s1")] = "a"
        table[(q, "s2")] = "a" if q < 3 else "b"
        table[(q, "s3")] = "a"
    strategy = mx.PureStrategy(sk, table)
    chain = product_chain(model, strategy, "s0")
    assert set(chain.nodes) == {("s0", 0), ("s2", 1), ("s2", 2), ("s2", 3), ("s3", 3)}


def test_cylinder_probs_coin_exit(coin_exit):
    model, _ = coin_exit
    always_a = coin_exit_always(model, "a")
    assert mx.cylinder_prob(model, always_a, "s", ("s", "a", "s", "a", "s")) == Fraction(1, 4)
    assert mx.cylinder_prob(model, always_a, "t", ("s", "a", "s")) == 0
    assert mx.cylinder_prob(model, always_a, "s", ("s",)) == 1


def test_enumerate_pure_split_reach(split_reach):
    model, _ = split_reach
    pool = list(enumerate_pure(model, mx.memoryless(model)))
    assert len(pool) == 3
    assert [s.table[(0, "s0")] for s in pool] == ["a", "b", "c"]


def test_enumerate_single_action_model(split_reach):
    import json
    doc = {"states": ["x"], "actions": ["a"], "transitions": {"x": {"a": {"x": "1"}}}}
    model = mx.load_model(json.dumps(doc))
    assert len(list(enumerate_pure(model, mx.memoryless(model)))) == 1


def test_enumerate_counter_two_discounts(two_discounts):
    model, _ = two_discounts
    pool = list(enumerate_pure(model, mx.counter(model, 3)))
    # duplicate-free as tables and matching the product over choice points
    points = reachable_choice_points(model, mx.counter(model, 3))
    expected = 1
    for _key, enabled in points:
        expected *= len(enabled)
    assert len(pool) == expected
    tables = {tuple(sorted(s.table.items())) for s in pool}
    assert len(tables) == len(pool)
    # the pool realizes exactly "loop r times then b" for r <= 3 plus stay-forever
    outcomes = set()
    for s in pool:
        vec = mx.expected_payoff(model, s, "s0", two_discounts[1])
        outcomes.add(vec)
    assert len(outcomes) == 6


def test_pool_cap(two_discounts):
    model, _ = two_discounts
    with pytest.raises(PoolTooLarge):
        list(enumerate_pure(model, mx.counter(model, 6), cap=10))


# -- Kuhn conversion ------------------------------------------------------------------


def test_kuhn_singleton(split_reach):
    model, dims = split_reach
    sigma = split_reach_choice(model, "c")
    beh = mx.mixed_to_behavioural(mx.FiniteMixture.dirac(sigma), model)
    for h in (("s0",), ("s0", "c", "s4"), ("s0", "c", "s3", "a", "s3")):
        assert mx.cylinder_prob(model, beh, "s0", h) == mx.cylinder_prob(model, sigma, "s0", h)


def test_kuhn_two_point_mixture(split_reach):
    model, _ = split_reach
    mix = mx.FiniteMixture.of([(split_reach_choice(model, "a"), Fraction(1, 2)),
                               (split_reach_choice(model, "b"), Fraction(1, 2))])
    beh = mx.mixed_to_behavioural(mix, model)
    dist = dict(beh.choice(beh.skeleton.init, "s0"))
    assert dist == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    # after the first action the continuation is deterministic
    assert mx.cylinder_prob(model, beh, "s0", ("s0", "a", "s1", "a", "s1")) == Fraction(1, 2)


def test_kuhn_commute_divergence(commute):
    """alpha train-forever + (1-alpha) 2t+b: first decision agrees, the third
    home visit separates the members."""
    model, _ = commute
    alpha = Fraction(2, 5)
    mix = mx.FiniteMixture.of([(commute_train(model), alpha),
                               (commute_ltb(model, 2), 1 - alpha)])
    beh = mx.mixed_to_behavioural(mix, model)
    first = dict(beh.choice(beh.skeleton.init, "home"))
    assert first == {"train": Fraction(1)}
    h = ("home", "train", "home", "train", "home")
    for target in (("bike", (1 - alpha)), ("train", alpha)):
        action, weight = target
        full = h + (action, "work" if action == "bike" else "home")
        expect = sum(w * mx.cylinder_prob(model, s, "home", full)
                     for s, w in zip(mix.support, mix.weights))
        assert mx.cylinder_prob(model, beh, "home", full) == expect


def test_kuhn_exact_weighted_sums(split_reach, commute):
    rng = random.Random(20240917)
    for model, _dims in (split_reach, commute):
        pures = list(enumerate_pure(model, mx.counter(model, 2)))
        for _ in range(8):
            members = rng.sample(pures, k=min(3, len(pures)))
            raw = [rng.randint(1, 5) for _ in members]
            total = sum(raw)
            mix = mx.FiniteMixture.of([(s, Fraction(r, total)) for s, r in zip(members, raw)])
            beh = mx.mixed_to_behavioural(mix, model)
            start = model.states[0]
            for h in _histories(model, start, 4):
                lhs = mx.cylinder_prob(model, beh, start, h)
                rhs = sum(w * mx.cylinder_prob(model, s, start, h)
                          for s, w in zip(mix.support, mix.weights))
                assert lhs == rhs


def _histories(model, start, max_states):
    out = [(start,)]
    frontier = [(start,)]
    while frontier:
        h = frontier.pop()
        if (len(h) + 1) // 2 >= max_states:
            continue
        s = h[-1]
        for a in model.enabled(s):
            for t, p in model.dist(s, a).items():
                if p > 0:
                    nxt = h + (a, t)
                    out.append(nxt)
                    frontier.append(nxt)
    return out


# -- premetric and the closeness lemmas --------------------------------------------------


def test_premetric_zero_and_disjoint(coin_exit):
    model, _ = coin_exit
    a = coin_exit_always(model, "a")
    b = coin_exit_always(model, "b")
    assert mx.strategy_premetric(model, a, a, 4) == 0
    assert mx.strategy_premetric(model, a, b, 1) == 2  # two disjoint Diracs


def test_premetric_family_horizons(coin_exit):
    model, _ = coin_exit
    limit = coin_exit_always(model, "a")
    for n in (1, 2, 3):
        sig = coin_exit_switch(model, n)
        assert mx.strategy_premetric(model, sig, limit, n) == 0
        assert mx.strategy_premetric(model, sig, limit, n + 1) == 2


def history_premetric(model, sigma, tau, horizon):
    """The premetric by walking every history with at most `horizon` states,
    exponential in the horizon: the reference for the walk over (state,
    sigma memory, tau memory) triples."""
    if horizon < 1:
        return Fraction(0)
    best = Fraction(0)
    for start in model.states:
        stack = [(start, sigma.skeleton.init, tau.skeleton.init, 1)]
        while stack:
            s, ms, mt, states_so_far = stack.pop()
            z = model.obs[s]
            ds = dict(sigma.choice(ms, z))
            dt = dict(tau.choice(mt, z))
            actions = set(ds) | set(dt)
            d2 = sum(((ds.get(a, Fraction(0)) - dt.get(a, Fraction(0))) ** 2 for a in actions),
                     Fraction(0))
            if d2 > best:
                best = d2
            if states_so_far >= horizon:
                continue
            for a in model.enabled(s):
                nms = sigma.skeleton.step(ms, z, a)
                nmt = tau.skeleton.step(mt, z, a)
                for t, p in model.dist(s, a).items():
                    if p > 0:
                        stack.append((t, nms, nmt, states_so_far + 1))
    return best


@given(small_observed_problems(), st.integers(0, 3), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_premetric_equals_history_walk_generated(problem, other_horizon, seed):
    doc, horizon = problem
    model, _dims = mx.load_problem(json.dumps(doc))
    rng = random.Random(seed)
    sigma = grid_randomized(model, mx.counter(model, horizon), rng, grid=2)
    tau = grid_randomized(model, mx.counter(model, other_horizon), rng, grid=2)
    for k in range(6):
        assert mx.strategy_premetric(model, sigma, tau, k) == \
            history_premetric(model, sigma, tau, k)


def test_premetric_visits_each_memory_triple_once(coin_exit):
    """At horizon 200 the history walk would never finish; the triple walk
    asks each strategy for at most |S| |M_sigma| |M_tau| distributions."""
    model, _ = coin_exit
    sigma, tau = coin_exit_switch(model, 5), coin_exit_switch(model, 3)
    calls = []
    for strategy in (sigma, tau):
        real = strategy.choice
        strategy.choice = \
            lambda mem, z, real=real: calls.append((mem, z)) or real(mem, z)
    assert mx.strategy_premetric(model, sigma, tau, 200) == 2
    assert len(calls) <= 2 * len(model.states) * 6 * 4


@cache
def _unit_numerators(d):
    return st.builds(Fraction, st.integers(0, d), st.just(d))


# st.fractions(min_value=0, max_value=1), drawing the same examples, with
# each denominator's numerator strategy built once instead of once per draw
UNIT = st.deferred(lambda: st.integers(min_value=1).flatmap(_unit_numerators))


@given(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_product_difference_lemma(pairs):
    """|prod a - prod b| <= sum |a - b| for rationals in [0, 1]."""
    prod_a = prod_b = Fraction(1)
    for a, b in pairs:
        prod_a *= a
        prod_b *= b
    assert abs(prod_a - prod_b) <= sum(abs(a - b) for a, b in pairs)


def test_closeness_lemma(split_reach):
    """premetric(sigma, tau, k) <= (eta/k)^2 implies cylinder probabilities
    within eta at up to k+1 states."""
    model, _ = split_reach
    rng = random.Random(7)
    sk = mx.memoryless(model)
    for trial in range(30):
        base = grid_randomized(model, sk, rng, grid=6)
        eta = Fraction(1, rng.randint(2, 6))
        k = rng.randint(1, 3)
        tau_act = {}
        for (mem, z), dist in base.act.items():
            enabled = model.enabled_for_observation(z)
            moved = dict(dist)
            if len(enabled) > 1:
                # shift mass delta between two actions: euclidean move delta*sqrt(2)
                delta = min(eta / (2 * k), min((v for v in moved.values() if v > 0)))
                src = next(a for a in enabled if moved.get(a, Fraction(0)) >= delta)
                dst = next(a for a in enabled if a != src)
                moved[src] = moved.get(src, Fraction(0)) - delta
                moved[dst] = moved.get(dst, Fraction(0)) + delta
            tau_act[(mem, z)] = {a: v for a, v in moved.items() if v != 0}
        tau = mx.FiniteMemoryStrategy(sk, tau_act)
        d2 = mx.strategy_premetric(model, base, tau, k)
        if d2 > (eta / k) ** 2:
            continue  # hypothesis of the lemma not met for this draw
        for h in _histories(model, "s0", k + 1):
            diff = abs(mx.cylinder_prob(model, base, "s0", h)
                       - mx.cylinder_prob(model, tau, "s0", h))
            assert diff <= eta


# -- lasso outcomes -----------------------------------------------------------------------


def test_lasso_outcome_matches_eval(two_discounts):
    model, dims = two_discounts
    for strategy in enumerate_pure(model, mx.counter(model, 3)):
        play = lasso_steps(model, strategy, "s0")
        vec = mx.ExtRealVector([lasso_payoff(spec, *play) for spec in dims])
        assert vec == mx.expected_payoff(model, strategy, "s0", dims)


def test_lasso_outcome_rejects_randomized(coin_exit):
    model, _ = coin_exit
    with pytest.raises(ValueError):
        lasso_steps(model, coin_exit_always(model, "a"), "s")


# -- file round trips -----------------------------------------------------------------------


def test_strategy_file_round_trip(commute):
    model, dims = commute
    sigma = commute_ltb(model, 2)
    doc = strategy_to_dict(sigma)
    back = strategy_from_dict(doc, model)
    assert mx.expected_payoff(model, back, "home", dims) == \
        mx.expected_payoff(model, sigma, "home", dims)


def test_loading_a_pure_strategy_builds_its_act_dict_once(coin_exit, monkeypatch):
    """A pure strategy's act dict is built from its table on each access,
    so validating one read from a file must build it once, not once per
    reachable choice point of its 201-memory skeleton."""
    model, _ = coin_exit
    skeleton = mx.counter(model, 200)
    sigma = mx.PureStrategy(skeleton, {key: enabled[0] for key, enabled
                                       in reachable_choice_points(model, skeleton)})
    doc = strategy_to_dict(sigma)
    builds = []
    real_act = mx.PureStrategy.act
    monkeypatch.setattr(mx.PureStrategy, "act",
                        property(lambda self: builds.append(self) or real_act.fget(self)))
    back = strategy_from_dict(doc, model)
    assert isinstance(back, mx.PureStrategy) and len(back.table) == len(sigma.table) > 200
    assert len(builds) == 1


def test_mixture_file_round_trip(commute, tmp_path):
    import json
    model, dims = commute
    mix = mx.FiniteMixture.of([(commute_train(model), Fraction(1, 3)),
                               (commute_ltb(model, 2), Fraction(2, 3))])
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mx.strategies.mixture_to_dict(mix)))
    back = mx.strategies.load_strategy_file(path, model)
    assert isinstance(back, mx.FiniteMixture)
    assert mx.mixed_expected_payoff(model, back, "home", dims) == \
        mx.mixed_expected_payoff(model, mix, "home", dims)


def test_zero_weight_members_dropped(earn_or_exit):
    model, _ = earn_or_exit
    from conftest import earn_or_exit_stay, earn_or_exit_leave
    mix = mx.FiniteMixture.of([(earn_or_exit_leave(model, 1), Fraction(1)),
                               (earn_or_exit_stay(model), Fraction(0))])
    assert len(mix.support) == 1


# id: (call on the coin_exit model, exception, message)
BAD_STRATEGY_INPUTS = {
    "counter-negative": (lambda model: mx.counter(model, -1), ValueError,
                         "horizon must be >= 0"),
    "weights-negative": (lambda model: mx.FiniteMixture.of(
        [(coin_exit_always(model, "a"), 2), (coin_exit_always(model, "b"), -1)]),
                         mx.SchemaError, "mixture weights must be non-negative"),
    "weights-sum": (lambda model: mx.FiniteMixture.of([(coin_exit_always(model, "a"),
                                                         Fraction(1, 2))]),
                    mx.SchemaError, "mixture weights must sum to exactly 1"),
    "act-negative": (lambda model: mx.strategies.validate_strategy(model, mx.FiniteMemoryStrategy(
        mx.memoryless(model), {(0, "s"): {"a": 2, "b": -1}, (0, "t"): {"a": 1}})),
                     mx.SchemaError, "act(0,s)(b) is negative"),
    "kuhn-empty": (lambda model: mx.mixed_to_behavioural(mx.FiniteMixture((), ()), model),
                   mx.EmptySupport, "mixture support is empty"),
    "history-even": (lambda model: mx.cylinder_prob(model, coin_exit_always(model, "a"), "s",
                                                    ("s", "a")),
                     mx.MalformedHistory, "a history alternates s a s ... s"),
    "history-disabled": (lambda model: mx.cylinder_prob(model, coin_exit_always(model, "a"), "t",
                                                        ("t", "b", "t")),
                         mx.MalformedHistory, "action b disabled in t"),
    "history-impossible": (lambda model: mx.cylinder_prob(model, coin_exit_always(model, "a"),
                                                          "t", ("t", "a", "s")),
                           mx.MalformedHistory, "transition t -a-> s has probability 0"),
    "history-unknown-state": (lambda model: mx.cylinder_prob(model, coin_exit_always(model, "a"),
                                                             "u", ("u",)),
                              mx.MalformedHistory, "unknown state u"),
}


@pytest.mark.parametrize("call, exception, message", BAD_STRATEGY_INPUTS.values(),
                         ids=BAD_STRATEGY_INPUTS)
def test_bad_strategy_inputs_are_refused(coin_exit, call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call(coin_exit[0])
