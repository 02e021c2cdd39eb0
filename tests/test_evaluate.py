"""The exact evaluator against hand-computed oracles from the fixture models."""

import json
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import momix as mx
from momix import montecarlo
from momix.errors import PoolTooLarge, SchemaError, SingularSystem, UndefinedExpectation
from momix.evaluate import (IntegrabilityVerdict, _one_node, _solve_systems,
                            maximal_end_components)

from conftest import (commute_ltb, commute_train, distinct_vectors, split_reach_choice,
                      earn_or_exit_stay, earn_or_exit_leave, coin_exit_always, coin_exit_switch,
                      enumerate_pure, gated_reward_leave, grid_randomized, lasso_payoff,
                      lasso_steps, load, product_chain, solve_column)


def test_coin_exit_spath_always_a(coin_exit):
    """x = 1 + x/2 gives 2 for the expected hitting cost."""
    model, dims = coin_exit
    assert mx.expected_payoff(model, coin_exit_always(model, "a"), "s", dims) == mx.vector(2)


def test_coin_exit_spath_family_infinite(coin_exit):
    model, dims = coin_exit
    for n in range(5):
        vec = mx.expected_payoff(model, coin_exit_switch(model, n), "s", dims)
        assert vec == mx.ExtRealVector([mx.POS_INF])


def test_commute_train_expected_time(commute):
    model, dims = commute
    assert mx.expected_payoff(model, commute_train(model), "home", dims) == mx.vector(25)


def test_commute_2tb_outcome_tree(commute):
    """Oracle: the strategy has three outcomes {10, 15, 40} with probabilities
    {1/4, 3/16, 9/16}; the expectation is their weighted sum."""
    model, dims = commute
    outcomes = [(Fraction(10), Fraction(1, 4)),
                (Fraction(15), Fraction(3, 16)),
                (Fraction(40), Fraction(9, 16))]
    oracle = sum(v * p for v, p in outcomes)
    assert oracle == Fraction(445, 16)
    vec = mx.expected_payoff(model, commute_ltb(model, 2), "home", dims)
    assert vec == mx.ExtRealVector([oracle])


def test_commute_threshold_probability(commute):
    """P(spath <= 40): geometric oracle 1 - (3/4)^7 for sigma_train, 1 for 2t+b."""
    model, _ = commute
    w = model.weight_function("time")
    unrolled, targets, entry = mx.unroll_cost_counter(model, w, Fraction(40),
                                                      frozenset({"work"}))
    dims = (mx.ReachIndicator(targets),)
    oracle = 1 - Fraction(3, 4) ** 7  # arrival at attempt k costs 5k+5 <= 40 iff k <= 7
    assert oracle == Fraction(14197, 16384)
    assert mx.expected_payoff(unrolled, commute_train(model), entry["home"], dims) \
        == mx.ExtRealVector([oracle])
    assert mx.expected_payoff(unrolled, commute_ltb(model, 2), entry["home"], dims) \
        == mx.vector(1)


def test_split_reach_sigma_c(split_reach):
    model, dims = split_reach
    assert mx.expected_payoff(model, split_reach_choice(model, "c"), "s0", dims) \
        == mx.vector(Fraction(3, 4), Fraction(3, 4))


def test_split_reach_memoryless_pool(split_reach):
    model, dims = split_reach
    pool = mx.pure_payoff_set(model, "s0", dims, mx.memoryless(model))
    assert [v for _s, v in pool] == [mx.vector(1, 0), mx.vector(0, 1),
                                     mx.vector(Fraction(3, 4), Fraction(3, 4))]


def test_two_discounts_pool_counter3(two_discounts):
    model, dims = two_discounts
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 3))
    got = set(distinct_vectors(pool))
    expect = {mx.vector(0, 2), mx.vector(1, 2)}
    for r in range(4):
        expect.add(mx.ExtRealVector([1 + 4 * Fraction(3, 4) ** r,
                                     2 - 2 * Fraction(1, 2) ** r]))
    assert got == expect


def test_single_strategy_pool(earn_or_exit):
    import json
    doc = {"states": ["x"], "actions": ["a"], "transitions": {"x": {"a": {"x": "1"}}},
           "payoffs": [{"kind": "reach", "target": ["x"]}]}
    model, dims = mx.load_problem(json.dumps(doc))
    pool = mx.pure_payoff_set(model, "x", dims, mx.memoryless(model))
    assert len(pool) == 1 and pool[0][1] == mx.vector(1)


def test_earn_or_exit_mixture_renormalized_truncation(earn_or_exit):
    """Members sigma_{2^r}, r <= 3, weights 2^{-(r+1)} renormalized: the
    total-reward dimension evaluates to 32/15 and reach stays exactly 1."""
    model, dims = earn_or_exit
    members = [(earn_or_exit_leave(model, 2 ** r), Fraction(1, 2 ** (r + 1))) for r in range(4)]
    mass = sum(w for _s, w in members)
    assert mass == Fraction(15, 16)
    mix = mx.FiniteMixture.of([(s, w / mass) for s, w in members])
    vec = mx.mixed_expected_payoff(model, mix, "s", dims)
    assert vec == mx.vector(1, Fraction(32, 15))


def test_mixture_dirac_trivial(earn_or_exit):
    model, dims = earn_or_exit
    sigma = earn_or_exit_leave(model, 3)
    mix = mx.FiniteMixture.dirac(sigma)
    assert mx.mixed_expected_payoff(model, mix, "s", dims) \
        == mx.expected_payoff(model, sigma, "s", dims)


def test_mixture_undefined_expectation(earn_or_exit):
    """+inf and -inf with positive weight on one dimension has no value."""
    model, _ = earn_or_exit
    dims = (mx.TotalRewardNonNeg(model.weight_function("w")),)
    plus = mx.expected_payoff(model, earn_or_exit_stay(model), "s", dims)
    assert plus == mx.ExtRealVector([mx.POS_INF])
    vecs = [plus, mx.ExtRealVector([mx.NEG_INF])]
    with pytest.raises(UndefinedExpectation):
        mx.ExtRealVector.combine([Fraction(1, 2), Fraction(1, 2)], vecs)


def test_buchi_evaluation(earn_or_exit):
    model, _ = earn_or_exit
    dims = (mx.BuchiIndicator(frozenset({"s"})), mx.BuchiIndicator(frozenset({"t"})))
    assert mx.expected_payoff(model, earn_or_exit_stay(model), "s", dims) == mx.vector(1, 0)
    assert mx.expected_payoff(model, earn_or_exit_leave(model, 2), "s", dims) == mx.vector(0, 1)


def test_gated_discounted_chain_vs_lasso(gated_reward):
    model, dims = gated_reward
    for loops in range(5):
        sigma = gated_reward_leave(model, loops)
        play = lasso_steps(model, sigma, "s")
        direct = mx.ExtRealVector([lasso_payoff(spec, *play) for spec in dims])
        assert mx.expected_payoff(model, sigma, "s", dims) == direct


def test_gated_discounted_randomized(gated_reward):
    """Gate and discounted sum are coupled through the future: check the
    two-system decomposition against a direct mixture-of-lassos oracle."""
    model, dims = gated_reward
    # behavioural: in s play b w.p. 1/3, a w.p. 2/3 (memoryless)
    act = {(0, "s"): {"b": Fraction(1, 3), "a": Fraction(2, 3)},
           (0, "t"): {"a": Fraction(1)}}
    sigma = mx.FiniteMemoryStrategy(mx.memoryless(model), act)
    got = mx.expected_payoff(model, sigma, "s", dims)
    # oracle: P(loop exactly l times then leave) = (1/3)^l * 2/3; t reached a.s.
    lam = Fraction(3, 4)
    exp0 = Fraction(0)
    exp1 = Fraction(0)
    for l in range(400):
        p = Fraction(1, 3) ** l * Fraction(2, 3)
        ds0 = (1 - lam ** l) / (1 - lam)          # b-steps weight 1 on dim 0
        ds1 = lam ** l / (1 - lam)                # a-steps weight 1 on dim 1
        exp0 += p * ds0
        exp1 += p * ds1
    assert abs(got[0].finite - exp0) < Fraction(1, 10 ** 40)
    assert abs(got[1].finite - exp1) < Fraction(1, 10 ** 40)


# -- invariants -------------------------------------------------------------------------


def test_brute_force_equivalence_deterministic(two_discounts, earn_or_exit, gated_reward):
    """On deterministic-transition models the chain value equals the payoff
    of the unique lasso outcome."""
    for model, dims in (two_discounts, earn_or_exit, gated_reward):
        for strategy in enumerate_pure(model, mx.counter(model, 2)):
            play = lasso_steps(model, strategy, model.states[0])
            direct = mx.ExtRealVector([lasso_payoff(spec, *play) for spec in dims])
            assert mx.expected_payoff(model, strategy, model.states[0], dims) == direct


def test_mixed_equals_behavioural_value(split_reach, commute):
    rng = random.Random(99)
    for model, dims in (split_reach, commute):
        pures = list(enumerate_pure(model, mx.counter(model, 2)))
        for _ in range(6):
            members = rng.sample(pures, k=3)
            raw = [rng.randint(1, 4) for _ in members]
            mix = mx.FiniteMixture.of([(s, Fraction(r, sum(raw)))
                                       for s, r in zip(members, raw)])
            beh = mx.mixed_to_behavioural(mix, model)
            start = model.states[0]
            assert mx.mixed_expected_payoff(model, mix, start, dims) \
                == mx.expected_payoff(model, beh, start, dims)


def test_total_reward_monotone_in_weights(earn_or_exit):
    model, _ = earn_or_exit
    w = model.weight_function("w")
    bumped = mx.WeightFunction({pair: v + (1 if pair == ("s", "b") else 0)
                                for pair, v in w.table.items()})
    for r in range(4):
        sigma = earn_or_exit_leave(model, r)
        low = mx.expected_payoff(model, sigma, "s", (mx.TotalRewardNonNeg(w),))
        high = mx.expected_payoff(model, sigma, "s", (mx.TotalRewardNonNeg(bumped),))
        assert low[0] <= high[0]


def test_discounted_bounds(two_discounts):
    model, dims = two_discounts
    for spec in dims:
        lo = min(spec.weights.table.values()) / (1 - spec.discount)
        hi = max(spec.weights.table.values()) / (1 - spec.discount)
        for strategy in enumerate_pure(model, mx.counter(model, 2)):
            value = mx.expected_payoff(model, strategy, "s0", (spec,))[0].finite
            assert lo <= value <= hi


def test_two_point_convexity(split_reach):
    model, dims = split_reach
    a = split_reach_choice(model, "a")
    c = split_reach_choice(model, "c")
    alpha = Fraction(2, 7)
    mix = mx.FiniteMixture.of([(a, alpha), (c, 1 - alpha)])
    lhs = mx.mixed_expected_payoff(model, mix, "s0", dims)
    va = mx.expected_payoff(model, a, "s0", dims)
    vc = mx.expected_payoff(model, c, "s0", dims)
    rhs = mx.ExtRealVector.combine([alpha, 1 - alpha], [va, vc])
    assert lhs == rhs


def test_behavioural_evaluation_randomized(split_reach):
    """Memoryless randomization at s0: closed-form mixture of branch values."""
    model, dims = split_reach
    rng = random.Random(4)
    sk = mx.memoryless(model)
    for _ in range(10):
        sigma = grid_randomized(model, sk, rng)
        dist = dict(sigma.choice(0, "s0"))
        pa = dist.get("a", Fraction(0))
        pb = dist.get("b", Fraction(0))
        pc = dist.get("c", Fraction(0))
        expect = mx.vector(pa + pc * Fraction(3, 4), pb + pc * Fraction(3, 4))
        assert mx.expected_payoff(model, sigma, "s0", dims) == expect


# -- integrability classification ------------------------------------------------------------


def test_classify_coin_exit(coin_exit):
    model, dims = coin_exit
    verdicts = mx.classify_integrability(model, dims, "s")
    assert verdicts[0].verdict == IntegrabilityVerdict.UUI_ONLY
    witness = verdicts[0].witness
    reach = mx.expected_payoff(model, witness, "s", (mx.ReachIndicator(frozenset({"t"})),))
    assert reach == mx.vector(0)  # the avoiding witness never reaches t


def test_classify_commute(commute):
    model, dims = commute
    verdicts = mx.classify_integrability(model, dims, "home")
    assert verdicts[0].verdict == IntegrabilityVerdict.UI


def test_classify_bounded_kinds(two_discounts, gated_reward):
    for model, dims in (two_discounts, gated_reward):
        for v in mx.classify_integrability(model, dims, model.states[0]):
            assert v.verdict == IntegrabilityVerdict.UI


def test_a_payoff_kind_momix_does_not_know(commute):
    """The evaluator refuses a payoff object that is none of the six kinds,
    and `classify_integrability` calls its dimension unknown."""
    model, _dims = commute
    with pytest.raises(mx.UnsupportedKind, match="^object$"):
        mx.expected_payoff(model, commute_train(model), "home", (object(),))
    (verdict,) = mx.classify_integrability(model, (object(),), "home")
    assert verdict == IntegrabilityVerdict(IntegrabilityVerdict.UNKNOWN, "unsupported kind object")


def test_classify_total_reward(earn_or_exit):
    model, dims = earn_or_exit
    verdicts = mx.classify_integrability(model, dims, "s")
    assert verdicts[0].verdict == IntegrabilityVerdict.UI  # reach indicator
    assert verdicts[1].verdict == IntegrabilityVerdict.UUI_ONLY  # controllable a-loop earns


def test_classify_total_reward_no_positive_cycle(earn_or_exit):
    doc = {"states": ["s", "t"], "actions": ["a", "b"],
           "transitions": {"s": {"a": {"s": "1"}, "b": {"t": "1"}}, "t": {"b": {"t": "1"}}},
           "weights": {"w": {"s,a": ["0"], "s,b": ["1"], "t,b": ["0"]}},
           "payoffs": [{"kind": "total_reward", "weights": "w"}]}
    model, dims = mx.load_problem(json.dumps(doc))
    verdicts = mx.classify_integrability(model, dims, "s")
    assert verdicts[0].verdict == IntegrabilityVerdict.UI


def test_classify_total_reward_unreachable_positive_end_component():
    """x loops on a weight of 1, but no play from s ever reaches it: the end
    component is skipped, and the verdict is universal integrability."""
    doc = {"states": ["s", "x"], "actions": ["a"],
           "transitions": {"s": {"a": {"s": "1"}}, "x": {"a": {"x": "1"}}},
           "weights": {"w": {"s,a": ["0"], "x,a": ["1"]}},
           "payoffs": [{"kind": "total_reward", "weights": "w"}]}
    model, dims = mx.load_problem(json.dumps(doc))
    assert {frozenset(c) for c, _pairs in maximal_end_components(model)} \
        == {frozenset({"s"}), frozenset({"x"})}
    assert mx.classify_integrability(model, dims, "s") \
        == [IntegrabilityVerdict("universally_integrable")]
    assert mx.classify_integrability(model, dims, "x")[0].verdict == IntegrabilityVerdict.UUI_ONLY


def test_maximal_end_components(earn_or_exit):
    model, _ = earn_or_exit
    mecs = maximal_end_components(model)
    states = {frozenset(c) for c, _pairs in mecs}
    assert states == {frozenset({"s"}), frozenset({"t"})}


# -- differential check against float64 solves on generated MDPs ------------------------


@st.composite
def small_problems(draw):
    """An MDP with 2 to 5 states and at most 2 actions, one payoff of each of the
    reach, Buchi, discounted, reach-gated discounted, total-reward and
    shortest-path kinds, and a randomized counter strategy; as (model
    document, horizon, strategy seed)."""
    n = draw(st.integers(min_value=2, max_value=5))
    states = [f"s{i}" for i in range(n)]
    transitions, weights = {}, {}
    for s in states:
        for a in draw(st.sampled_from([["a"], ["b"], ["a", "b"]])):
            succ = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
            mass = draw(st.lists(st.integers(1, 4), min_size=len(succ), max_size=len(succ)))
            transitions.setdefault(s, {})[a] = {t: str(Fraction(m, sum(mass)))
                                                for t, m in zip(succ, mass)}
            # the second component is mostly 0, so total rewards are often finite
            weights[f"{s},{a}"] = [str(draw(st.integers(0, 5))),
                                   str(draw(st.sampled_from([0, 0, 0, 0, 1, 3])))]

    def target():  # never the start state, whose values would be trivial
        return draw(st.lists(st.sampled_from(states[1:]), min_size=1, unique=True))

    def discount():
        return f"{draw(st.integers(0, 7))}/8"

    payoffs = [
        {"kind": "reach", "target": target()},
        {"kind": "buchi", "target": target()},
        {"kind": "discounted_sum", "lambda": discount(), "weights": "w"},
        {"kind": "reach_gated_discounted_sum", "target": target(), "lambda": discount(),
         "weights": "w"},
        {"kind": "total_reward", "weights": "w", "windex": 1},
        {"kind": "shortest_path", "target": target(), "weights": "w"},
    ]
    doc = {"states": states, "actions": ["a", "b"], "transitions": transitions,
           "weights": {"w": weights}, "payoffs": payoffs}
    return doc, draw(st.integers(0, 2)), draw(st.integers(0, 2 ** 16))


def _closure(adj):
    """reach[i, j]: j is reachable from i in zero or more steps."""
    reach = np.eye(len(adj), dtype=bool) | adj
    for _ in range(len(adj)):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return reach


def _float_oracle(chain, strategy, spec):
    """The same payoff on the same product chain, from numpy float64 solves
    and boolean reachability only; None stands for +inf."""
    n = len(chain.nodes)
    P = np.zeros((n, n))
    for i, row in enumerate(chain.matrix):
        for j, p in row.items():
            P[i, j] = float(p)
    reach = _closure(P > 0)
    init = chain.init
    recurrent = [i for i in range(n) if all(reach[j, i] for j in range(n) if reach[i, j])]

    def rewards():
        return np.array([sum(float(alpha * spec.weights(s, a))
                             for a, alpha in chain.action_dists[i].items())
                         for i, (s, _m) in enumerate(chain.nodes)])

    def moves(i):
        """(probability, weight, successor) per action and next state from node i."""
        s, mem = chain.nodes[i]
        for a, alpha in chain.action_dists[i].items():
            nxt = strategy.skeleton.step(mem, chain.model.obs[s], a)
            for t, p in chain.model.dist(s, a).items():
                if alpha * p > 0:
                    yield float(alpha * p), float(spec.weights(s, a)), chain.index[(t, nxt)]

    def solve_on(nodes, rhs, discount=1.0):
        """x = rhs + discount * P x on `nodes`, x = 0 elsewhere."""
        nodes = list(nodes)
        x = np.zeros(n)
        if nodes:
            x[nodes] = np.linalg.solve(np.eye(len(nodes)) - discount * P[np.ix_(nodes, nodes)],
                                       rhs)
        return x

    def hitting(hit):
        """P(eventually in `hit`) per node."""
        nodes = [i for i in range(n) if i not in hit and reach[i, hit].any()]
        x = solve_on(nodes, P[np.ix_(nodes, hit)].sum(axis=1))
        x[hit] = 1.0
        return x

    if isinstance(spec, mx.DiscountedSum):
        return solve_on(range(n), rewards(), float(spec.discount))[init]
    if isinstance(spec, mx.TotalRewardNonNeg):
        r = rewards()
        if any(r[i] > 0 for i in recurrent):
            return None
        transient = [i for i in range(n) if i not in recurrent]
        return solve_on(transient, r[transient])[init]
    if isinstance(spec, mx.BuchiIndicator):
        # a recurrent node reaches exactly its own bottom SCC
        good = [i for i in recurrent
                if any(reach[i, j] and chain.state_of(j) in spec.target for j in range(n))]
        return hitting(good)[init]
    hit = [i for i, (s, _m) in enumerate(chain.nodes) if s in spec.target]
    if isinstance(spec, mx.ReachIndicator):
        return hitting(hit)[init]
    if isinstance(spec, mx.ReachGatedDiscountedSum):
        # V = E[DS * 1Reach] on the non-target nodes, by the direct recursion:
        # a move of weight w into a target node c' adds w + lambda D(c'), one
        # into a non-target node w h(c') + lambda V(c').
        lam = float(spec.discount)
        D = solve_on(range(n), rewards(), lam)
        if init in hit:
            return D[init]
        h = hitting(hit)
        free = [i for i in range(n) if i not in hit]
        rhs = [sum(q * (w * h[j] + (lam * D[j] if j in hit else 0.0)) for q, w, j in moves(i))
               for i in free]
        return solve_on(free, rhs, lam)[init]
    if init in hit:
        return 0.0
    # shortest path: the nodes reachable from init before the first hit
    free = P > 0
    free[hit, :] = False
    from_init = _closure(free)[init]
    before = [i for i in range(n) if from_init[i] and i not in hit]
    if not all(reach[i, hit].any() for i in before):
        return None
    return solve_on(before, rewards()[before])[init]


# s0 hits the target s1 surely and then leaves it for the closed class {s2},
# which never returns: a shortest path that solved past the target would
# meet a singular system there.
PAST_THE_TARGET = ({
    "states": ["s0", "s1", "s2"], "actions": ["a", "b"],
    "transitions": {"s0": {"a": {"s1": "1"}}, "s1": {"a": {"s2": "1"}}, "s2": {"a": {"s2": "1"}}},
    "weights": {"w": {"s0,a": ["1", "0"], "s1,a": ["2", "0"], "s2,a": ["3", "0"]}},
    "payoffs": [{"kind": "reach", "target": ["s1"]}, {"kind": "buchi", "target": ["s2"]},
                {"kind": "discounted_sum", "lambda": "1/2", "weights": "w"},
                {"kind": "reach_gated_discounted_sum", "target": ["s1"], "lambda": "1/2",
                 "weights": "w"},
                {"kind": "total_reward", "weights": "w", "windex": 1},
                {"kind": "shortest_path", "target": ["s1"], "weights": "w"}]}, 0, 0)


@given(small_problems())
@example(PAST_THE_TARGET)
@settings(max_examples=150, deadline=None)
def test_expected_payoff_matches_float_solves(problem):
    doc, horizon, seed = problem
    model, dims = mx.load_problem(json.dumps(doc))
    strategy = grid_randomized(model, mx.counter(model, horizon), random.Random(seed))
    exact = mx.expected_payoff(model, strategy, "s0", dims)
    chain = product_chain(model, strategy, "s0")
    for value, spec in zip(exact, dims):
        oracle = _float_oracle(chain, strategy, spec)
        if oracle is None:
            assert value == mx.POS_INF
        else:
            assert value.is_finite
            assert float(value.finite) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


@given(small_problems())
@settings(max_examples=100, deadline=None)
def test_chain_edges_are_the_joint_moves(problem):
    """The Monte-Carlo walker's edges from a node are its joint moves: each
    has the probability alpha(a) * p(t) and leads to the node of its
    successor state under the skeleton's update; grouped by action they
    give the strategy's distribution there.  The edges come in model action
    order, then model state order, whatever the order of the strategy's and
    the model's distributions, and the nodes are exactly those reached."""
    doc, horizon, seed = problem
    model, _dims = mx.load_problem(json.dumps(doc))
    drawn = grid_randomized(model, mx.counter(model, horizon), random.Random(seed))
    strategy = mx.FiniteMemoryStrategy(drawn.skeleton, {key: dict(reversed(dist.items()))
                                                        for key, dist in drawn.act.items()})
    walker = montecarlo._Walker(model, strategy, "s0", ())
    index = {node: i for i, node in enumerate(walker.nodes)}
    assert walker.nodes[0] == ("s0", 0) and len(index) == len(walker.nodes)
    for i, (s, mem) in enumerate(walker.nodes):
        by_action, order = {}, []
        for a, p, j in walker.edges[i]:
            by_action[a] = by_action.get(a, 0) + p
            t = walker.nodes[j][0]
            assert j == index[(t, strategy.skeleton.step(mem, model.obs[s], a))]
            assert p == strategy.act[(mem, model.obs[s])][a] * model.dist(s, a)[t]
            order.append((model.actions.index(a), model.states.index(t)))
        assert by_action == dict(strategy.choice(mem, model.obs[s]))
        assert order == sorted(set(order))
    assert {j for moves in walker.edges for _a, _p, j in moves} | {0} == set(index.values())


# -- behaviour pools against brute-force table enumeration ------------------------------


def _check_pool_against_tables(model, dims, start, skeleton):
    """The behaviour pool agrees with evaluating every act table: table
    count, distinct vectors in first-occurrence order, the earliest table of
    each vector as its representative, and the lexopt winner index."""
    pool = mx.pure_payoff_set(model, start, dims, skeleton)
    tables = [(s, mx.expected_payoff(model, s, start, dims))
              for s in enumerate_pure(model, skeleton)]
    assert pool.size == len(tables)
    assert len(pool.indices) == len(pool)
    assert list(pool.indices) == sorted(set(pool.indices))
    assert all(pool[i][0].table == tables[k][0].table for i, k in enumerate(pool.indices))
    first = mx.synthesis.distinct_members(tables)
    got = mx.synthesis.distinct_members(pool)
    assert [tables[k][1] for k in first] == [pool[i][1] for i in got]
    assert first == [pool.indices[i] for i in got]
    assert mx.lex_optimize(pool).winner_index == mx.lex_optimize(tables).winner_index


@pytest.mark.parametrize("name", ["coin_exit.json", "commute.json", "delayed_exit.json",
                                  "earn_or_exit.json", "gated_reward.json",
                                  "split_reach.json", "two_discounts.json"])
def test_pool_matches_table_enumeration_bundled(name):
    model, dims = load(name)
    for horizon in range(5):
        for start in model.states:
            _check_pool_against_tables(model, dims, start, mx.counter(model, horizon))


@st.composite
def small_observed_problems(draw):
    """`small_problems`, with some states sharing an observation when they
    enable the same actions, so one choice can be reached from two states."""
    doc, horizon, _seed = draw(small_problems())
    obs = {}
    for s in doc["states"]:
        enabled = "".join(sorted(doc["transitions"][s]))
        obs[s] = draw(st.sampled_from([s, "z" + enabled]))
    doc["observations"] = sorted(set(obs.values()))
    doc["obs"] = obs
    return doc, horizon


@given(small_observed_problems())
@settings(max_examples=150, deadline=None)
def test_pool_matches_table_enumeration_generated(problem):
    doc, horizon = problem
    model, dims = mx.load_problem(json.dumps(doc))
    skeleton = mx.counter(model, horizon)
    size = 1
    for _key, enabled in mx.strategies.reachable_choice_points(model, skeleton):
        size *= len(enabled)
    assume(size <= 256)
    _check_pool_against_tables(model, dims, "s0", skeleton)


def test_pool_cap_counts_behaviours_and_stops_early(coin_exit, monkeypatch):
    """Every act table of coin_exit is its own behaviour: at counter:200 the
    walk must give up after cap + 1 behaviours, before any table is built
    or any member is walked and solved by the evaluator."""
    model, dims = coin_exit
    built, evaluations = [], []
    real_pure = mx.strategies.PureStrategy
    monkeypatch.setattr(mx.strategies, "PureStrategy",
                        lambda *args: built.append(args) or real_pure(*args))
    monkeypatch.setattr(mx.evaluate._Evaluator, "__call__",
                        lambda self, *args: evaluations.append(args))
    with pytest.raises(PoolTooLarge, match="more than 50 behaviours") as raised:
        mx.pure_payoff_set(model, "s", dims, mx.counter(model, 200), cap=50)
    assert raised.value.size is None and raised.value.cap == 50
    assert not built and not evaluations
    monkeypatch.undo()
    assert len(mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4), cap=32)) == 32
    with pytest.raises(PoolTooLarge):
        mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4), cap=31)


def test_default_pool_cap_fails_in_bounded_memory(coin_exit):
    """coin_exit at counter:19 has 2^20 act tables, each its own behaviour.
    The default cap refuses it after walking past POOL_CAP leaves, holding
    one table index per behaviour, not one act table."""
    model, dims = coin_exit
    assert 2 ** 20 > mx.strategies.POOL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(PoolTooLarge, match=f"more than {mx.strategies.POOL_CAP} behaviours"):
            mx.pure_payoff_set(model, "s", dims, mx.counter(model, 19))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_pool_counter30_is_small(earn_or_exit):
    """2^31 act tables, 32 behaviours from s: staying forever (table 0),
    and staying k < 31 rounds before leaving, whose earliest table leaves
    at the single choice point (k, s), table 2^(30 - k)."""
    model, dims = earn_or_exit
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 30))
    assert pool.size == 2 ** 31
    assert [v for _s, v in pool] == [mx.vector(0, "+inf")] + [mx.vector(1, 30 - j)
                                                              for j in range(31)]
    assert list(pool.indices) == [0] + [2 ** j for j in range(31)]


# -- block solves against the dense transient solve ------------------------------------


def _dense_solve_on(chain, nodes, rhs, discount=1):
    """The dense solve the block solver replaced, kept as the reference:
    one I - discount * P system on all of `nodes`."""
    pos = {node: k for k, node in enumerate(nodes)}
    matrix = [[Fraction(0)] * len(nodes) for _ in nodes]
    for node, k in pos.items():
        row = matrix[k]
        row[k] += 1
        for j, p in chain.matrix[node].items():
            if j in pos:
                row[pos[j]] -= discount * p
    return dict(zip(nodes, solve_column(matrix, rhs)))


# st.fractions(min_value=-5, max_value=5, max_denominator=30), drawing the
# same examples, with each denominator's numerator strategy built once
# instead of once per draw
RHS_NUMERATORS = {d: st.builds(Fraction, st.integers(-5 * d, 5 * d), st.just(d))
                  for d in range(1, 31)}
RHS_VALUES = st.integers(1, 30).flatmap(RHS_NUMERATORS.__getitem__).map(
    lambda f: f.limit_denominator(30))


@st.composite
def transient_systems(draw):
    """A chain matrix on up to 9 nodes, often with multi-node SCCs and
    self-loops, and rows that may leak mass; a subset of the nodes in any
    order, a right-hand side on it and a discount of 1 or 9/10."""
    n = draw(st.integers(min_value=1, max_value=9))
    rows = []
    for i in range(n):
        succ = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
        if draw(st.booleans()) and i not in succ:
            succ.append(i)
        mass = draw(st.lists(st.integers(1, 6), min_size=len(succ), max_size=len(succ)))
        leak = draw(st.sampled_from([0, 0, 1, 3]))
        total = sum(mass) + leak
        rows.append({j: Fraction(m, total) for j, m in zip(succ, mass)})
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    rhs = draw(st.lists(RHS_VALUES, min_size=len(nodes), max_size=len(nodes)))
    discount = draw(st.sampled_from([Fraction(1), Fraction(9, 10)]))
    return SimpleNamespace(matrix=rows), nodes, rhs, discount


def _block_solve(chain, nodes, rhs, discount=1):
    """The evaluator's system solver on one system with one right-hand
    side, x = 0 off `nodes`: every other node's one slot holds 0."""
    slots = {i: [Fraction(0)] for i in range(len(chain.matrix))}
    systems = {(0, tuple(nodes)): [(0, dict(zip(nodes, rhs)))]}
    _solve_systems(systems, [discount], {i: tuple(chain.matrix[i].items()) for i in nodes}, slots, {})
    return {node: slots[node][0] for node in nodes}


def _outcome(solve, system):
    try:
        return solve(*system)
    except SingularSystem:
        return SingularSystem


@given(transient_systems())
@example((SimpleNamespace(matrix=[{1: Fraction(1, 2), 0: Fraction(1, 4)}, {0: Fraction(1, 3)},
                                  {0: Fraction(1, 2), 2: Fraction(1, 2)}]),
          [2, 1, 0], [Fraction(1, 7), Fraction(2), Fraction(-3, 5)], Fraction(1)))
@settings(max_examples=300, deadline=None)
def test_block_solve_equals_dense_solve(system):
    """Successors first, block by block, the solver returns exactly the
    dense solve's Fractions, and is singular exactly when it is."""
    assert _outcome(_block_solve, system) == _outcome(_dense_solve_on, system)


# a <-> b leak to the absorbing target t: the reach stage and the total
# reward stage meet the same I - P on {a, b}, the discounted sum I - P/2
TRANSIENT_PAIR = {
    "states": ["a", "b", "t"], "actions": ["go"],
    "transitions": {"a": {"go": {"b": "1/2", "t": "1/2"}}, "b": {"go": {"a": "1/3", "t": "2/3"}},
                    "t": {"go": {"t": "1"}}},
    "weights": {"w": {"a,go": ["1"], "b,go": ["2"], "t,go": ["0"]}},
    "payoffs": [{"kind": "reach", "target": ["t"]}, {"kind": "total_reward", "weights": "w"},
                {"kind": "discounted_sum", "lambda": "1/2", "weights": "w"}]}


def test_each_distinct_matrix_of_a_block_is_factored_once(monkeypatch):
    """A block's stages share the factor of each (discount, SCC): the hitting
    probabilities and the total reward solve I - P on {a, b} from one
    elimination, and the discounted sum eliminates I - P/2 once more."""
    model, dims = mx.load_problem(json.dumps(TRANSIENT_PAIR))
    factored = []
    real_factor = mx.evaluate.factor
    monkeypatch.setattr(mx.evaluate, "factor",
                        lambda rows, scales: factored.append(rows) or real_factor(rows, scales))
    strategy = mx.PureStrategy(mx.memoryless(model), {(0, z): "go" for z in "abt"})
    assert mx.expected_payoff(model, strategy, "a", dims) \
        == mx.vector(1, Fraction(12, 5), Fraction(36, 23))
    assert len(factored) == 2


def test_block_solve_on_a_layered_chain_is_exact():
    """A counter skeleton's chain before it saturates is a layered DAG: every
    block is a singleton, and values flow back from the last layer."""
    chain = SimpleNamespace(matrix=[{1: Fraction(1, 2), 2: Fraction(1, 2)},
                                    {2: Fraction(1, 3), 3: Fraction(2, 3)},
                                    {3: Fraction(1)}, {3: Fraction(1)}])
    rhs = [Fraction(1), Fraction(2), Fraction(3)]
    x = _block_solve(chain, [0, 1, 2], rhs, Fraction(9, 10))
    assert x == _dense_solve_on(chain, [0, 1, 2], rhs, Fraction(9, 10))
    assert x[2] == 3 and x[1] == 2 + Fraction(9, 10) * Fraction(1, 3) * 3


def test_singular_singleton_block_raises_singular_system():
    """An absorbing node kept in an undiscounted system has the equation
    x = b + x; it raises SingularSystem as the dense solve does, never a
    ZeroDivisionError.  So does the one-node closed form that the
    evaluator's one-unknown systems call, at any zero pivot."""
    chain = SimpleNamespace(matrix=[{1: Fraction(1)}, {1: Fraction(1)}])
    for solve in (_block_solve, _dense_solve_on):
        with pytest.raises(SingularSystem):
            solve(chain, [0, 1], [Fraction(1), Fraction(0)])
    assert _block_solve(chain, [0, 1], [Fraction(1), Fraction(0)], Fraction(1, 2)) \
        == {0: Fraction(1), 1: Fraction(0)}
    for loop, discount in [(Fraction(1), 1), (Fraction(1), Fraction(1)), (Fraction(1, 2), 2)]:
        with pytest.raises(SingularSystem):
            _one_node((Fraction(1), Fraction(0)), loop, discount)
    assert _one_node((Fraction(1), Fraction(3)), Fraction(1, 2), Fraction(1, 2)) \
        == (Fraction(4, 3), Fraction(4))
    assert _one_node((Fraction(1),), None, Fraction(1, 2)) == (Fraction(1),)


# -- library entry points on invalid models --------------------------------------------


INVALID_MODELS = {
    "deadlock": ({"states": ["s0", "s1"], "actions": ["a"],
                  "transitions": {"s0": {"a": {"s1": "1"}}}},
                 "invalid model, [deadlock] s1: state has no enabled action"),
    "obs-action-consistency": (
        {"states": ["s0", "s1", "s2"], "actions": ["a", "b"], "observations": ["x", "y"],
         "obs": {"s0": "x", "s1": "y", "s2": "y"},
         "transitions": {"s0": {"a": {"s1": "1/2", "s2": "1/2"}},
                         "s1": {"a": {"s1": "1"}, "b": {"s0": "1"}},
                         "s2": {"a": {"s2": "1"}}}},
        "invalid model, [obs-action-consistency] y: states s1 and s2 share observation y "
        "but differ in enabled actions"),
}


@pytest.mark.parametrize("name", sorted(INVALID_MODELS))
def test_library_entry_points_reject_invalid_models(name, monkeypatch):
    """The models `validate` rejects raise the CLI's SchemaError message from
    every evaluation entry point, checked once per call, not per member."""
    doc, message = INVALID_MODELS[name]
    doc = {**doc, "payoffs": [{"kind": "reach", "target": ["s1"]}]}
    model, dims = mx.load_problem(json.dumps(doc))
    skeleton = mx.memoryless(model)
    strategy = mx.PureStrategy(skeleton, {(0, model.obs["s0"]): "a"})
    mixture = mx.FiniteMixture.of([(strategy, Fraction(1, 2)), (strategy, Fraction(1, 2))])
    calls = []
    monkeypatch.setattr(mx.model, "validate", lambda m, real=mx.model.validate:
                        calls.append(m) or real(m))
    for call in (lambda: mx.pure_payoff_set(model, "s0", dims, skeleton),
                 lambda: mx.expected_payoff(model, strategy, "s0", dims),
                 lambda: mx.mixed_expected_payoff(model, mixture, "s0", dims)):
        with pytest.raises(SchemaError) as info:
            call()
        assert str(info.value) == message
    assert len(calls) == 3
