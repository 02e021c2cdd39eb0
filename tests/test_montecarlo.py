"""Monte-Carlo sampling: determinism, faithfulness to exact values, and the
convergence/divergence probes.

The streamed walk in momix.montecarlo must return exactly the `Estimate` of
the whole-matrix walk it replaced, kept verbatim below as the reference, on
the bundled models and on generated ones."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momix as mx
from momix import montecarlo
from momix.beliefs import bounded_reach_probability
from momix.errors import UnsupportedKind
from momix.model import Pomdp
from momix.montecarlo import Estimate, SampleConfig, _bias_bound
from momix.payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff, ReachGatedDiscountedSum,
                           ReachIndicator, ShortestPath, TotalRewardNonNeg)
from momix.strategies import FiniteMemoryStrategy, FiniteMixture

from conftest import (commute_train, split_reach_choice, coin_exit_always, coin_exit_switch,
                      earn_or_exit_leave, gated_reward_leave, grid_randomized, load,
                      memoryless_table, product_chain)


# -- reference: the whole-matrix walk, kept verbatim ----------------------------


class _ChainSampler:
    """Flattens a product chain into edge arrays for vectorized walking.

    Each step consumes one uniform draw and picks a joint (action, successor)
    edge; the law is exactly "draw the action, then the successor".  Edge
    order is deterministic (action order, then successor node index), and
    each node's cumulative row ends at exactly 1.0.
    """

    def __init__(self, model: Pomdp, strategy: FiniteMemoryStrategy, start: str):
        self.chain = product_chain(model, strategy, start)
        chain = self.chain
        n = len(chain.nodes)
        edges: List[List[Tuple[float, int, str]]] = []
        max_deg = 0
        for i, (s, mem) in enumerate(chain.nodes):
            z = model.obs[s]
            row = []
            for a in model.actions:
                alpha = chain.action_dists[i].get(a)
                if not alpha:
                    continue
                nxt_mem = strategy.skeleton.step(mem, z, a)
                for t in model.states:
                    p = model.dist(s, a).get(t, Fraction(0))
                    if p > 0:
                        row.append((float(alpha * p), chain.index[(t, nxt_mem)], a))
            edges.append(row)
            max_deg = max(max_deg, len(row))
        self.cum = np.ones((n, max_deg), dtype=np.float64)
        self.next = np.zeros((n, max_deg), dtype=np.int64)
        self.actions = [[a for _p, _j, a in row] for row in edges]
        for i, row in enumerate(edges):
            acc = 0.0
            for k, (p, j, _a) in enumerate(row):
                acc += p
                self.cum[i, k] = acc
                self.next[i, k] = j
            self.cum[i, len(row) - 1] = 1.0  # absorb float rounding

    def edge_weights(self, weights) -> np.ndarray:
        out = np.zeros(self.next.shape, dtype=np.float64)
        for i, (s, _mem) in enumerate(self.chain.nodes):
            for k, a in enumerate(self.actions[i]):
                out[i, k] = float(weights(s, a))
        return out

    def target_flags(self, target) -> np.ndarray:
        return np.array([s in target for s, _m in self.chain.nodes], dtype=bool)


def _uniform_matrix(seed: int, samples: int, horizon: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((samples, horizon + 1))




def estimate_expectation(model: Pomdp, strategy, start: str, dims: MultiPayoff,
                         cfg: SampleConfig) -> Estimate:
    """Sample means of horizon-truncated payoffs with standard errors.

    Bias bounds: discounted sums carry the geometric tail bound
    W * lambda^H / (1 - lambda) (gated variants likewise once the gate has
    resolved); other kinds report None and expose a censored/unresolved count
    instead.
    """
    n, horizon, seed = cfg.samples, cfg.horizon, cfg.seed
    for spec in dims:
        if isinstance(spec, BuchiIndicator):
            raise UnsupportedKind("Buchi indicators are not horizon-determined; "
                                  "no truncation policy is provided")
    u = _uniform_matrix(seed, n, horizon)

    if isinstance(strategy, FiniteMixture):
        member_rows: List[Tuple[FiniteMemoryStrategy, np.ndarray]] = []
        cuts = []
        acc = 0.0
        for w in strategy.weights:
            acc += float(w)
            cuts.append(acc)
        cuts[-1] = 1.0
        draws = u[:, 0]
        prev = 0.0
        for member, cut in zip(strategy.support, cuts):
            mask = (draws >= prev) & (draws < cut)
            prev = cut
            member_rows.append((member, np.nonzero(mask)[0]))
    else:
        member_rows = [(strategy, np.arange(n))]

    values = np.zeros((n, len(dims)), dtype=np.float64)
    resolved = np.ones((n, len(dims)), dtype=bool)

    for member, rows in member_rows:
        if len(rows) == 0:
            continue
        sampler = _ChainSampler(model, member, start)
        _walk(model, sampler, dims, u, rows, horizon, values, resolved)

    means, errs, censored = [], [], []
    for j in range(len(dims)):
        ok = resolved[:, j]
        censored.append(int(n - ok.sum()))
        data = values[ok, j] if ok.any() else np.zeros(1)
        means.append(float(data.mean()))
        errs.append(float(data.std(ddof=1) / math.sqrt(max(len(data), 1))) if len(data) > 1 else 0.0)

    return Estimate(
        mean=tuple(means), stderr=tuple(errs), samples=n, horizon=horizon, seed=seed,
        bias_bound=tuple(_bias_bound(spec, horizon) for spec in dims),
        censored=tuple(censored),
    )



def _walk(model, sampler: _ChainSampler, dims, u, rows, horizon, values, resolved):
    chain = sampler.chain
    m = len(rows)

    ds_weights = {}
    ds_factor = {}
    sp_weights = {}
    hit_flags = {}
    acc = np.zeros((m, len(dims)), dtype=np.float64)
    hit = {}
    for j, spec in enumerate(dims):
        if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum)):
            ds_weights[j] = sampler.edge_weights(spec.weights)
            ds_factor[j] = 1.0
        elif isinstance(spec, TotalRewardNonNeg):
            ds_weights[j] = sampler.edge_weights(spec.weights)
            ds_factor[j] = None  # undiscounted partial sum
        elif isinstance(spec, ShortestPath):
            sp_weights[j] = sampler.edge_weights(spec.weights)
        if isinstance(spec, (ReachIndicator, ReachGatedDiscountedSum, ShortestPath)):
            hit_flags[j] = sampler.target_flags(spec.target)
            hit[j] = np.full(m, bool(hit_flags[j][chain.init]), dtype=bool)

    state = np.full(m, chain.init, dtype=np.int64)
    discount_pow = {j: 1.0 for j in ds_factor}
    for t in range(horizon):
        r = u[rows, t + 1]
        k = (sampler.cum[state] <= r[:, None]).sum(axis=1)
        for j, spec in enumerate(dims):
            if j in ds_weights:
                w = ds_weights[j][state, k]
                if ds_factor[j] is None:
                    acc[:, j] += w
                else:
                    acc[:, j] += discount_pow[j] * w
            elif j in sp_weights:
                live = ~hit[j]
                acc[live, j] += sp_weights[j][state[live], k[live]]
        state = sampler.next[state, k]
        for j in discount_pow:
            if ds_factor[j] is not None:
                discount_pow[j] *= float(dims[j].discount)
        for j in hit:
            hit[j] |= hit_flags[j][state]

    for j, spec in enumerate(dims):
        if isinstance(spec, ReachIndicator):
            values[rows, j] = hit[j].astype(np.float64)
        elif isinstance(spec, DiscountedSum):
            values[rows, j] = acc[:, j]
        elif isinstance(spec, TotalRewardNonNeg):
            values[rows, j] = acc[:, j]
        elif isinstance(spec, ReachGatedDiscountedSum):
            values[rows, j] = np.where(hit[j], acc[:, j], 0.0)
        elif isinstance(spec, ShortestPath):
            values[rows, j] = np.where(hit[j], acc[:, j], 0.0)
            resolved[rows[~hit[j]], j] = False
        else:
            raise UnsupportedKind(type(spec).__name__)



# -----------------------------------------------------------------------------


def test_seed_determinism(commute):
    model, dims = commute
    cfg = mx.SampleConfig(samples=500, horizon=64, seed=42)
    a = mx.estimate_expectation(model, commute_train(model), "home", dims, cfg)
    b = mx.estimate_expectation(model, commute_train(model), "home", dims, cfg)
    assert a == b


def test_different_seeds_differ(commute):
    model, dims = commute
    a = mx.estimate_expectation(model, commute_train(model), "home", dims,
                                mx.SampleConfig(samples=500, horizon=64, seed=1))
    b = mx.estimate_expectation(model, commute_train(model), "home", dims,
                                mx.SampleConfig(samples=500, horizon=64, seed=2))
    assert a.mean != b.mean


def test_sample_play_reproducible(coin_exit):
    model, _ = coin_exit
    sigma = coin_exit_always(model, "a")
    p1 = mx.sample_play(model, sigma, "s", 8, seed=3, index=5)
    p2 = mx.sample_play(model, sigma, "s", 8, seed=3, index=5)
    assert p1 == p2
    assert len(p1) == 2 * 8 + 1 and p1[0] == "s"


def test_sample_play_deterministic_model(two_discounts):
    model, _ = two_discounts
    sigma = memoryless_table(model, {"s0": "a", "s2": "a"})
    play = mx.sample_play(model, sigma, "s0", 4, seed=0)
    assert play == ("s0", "a", "s2", "a", "s2", "a", "s2", "a", "s2")


def test_mixture_first_action_frequency(split_reach):
    """1/2-1/2 mixture over a and b: the first action splits evenly within a
    binomial confidence interval."""
    model, dims = split_reach
    mix = mx.FiniteMixture.of([(split_reach_choice(model, "a"), Fraction(1, 2)),
                               (split_reach_choice(model, "b"), Fraction(1, 2))])
    n = 10_000
    count_a = 0
    est = mx.estimate_expectation(model, mix, "s0", dims,
                                  mx.SampleConfig(samples=n, horizon=4, seed=9))
    # dim 0 is reach{s1, s4}: under this mixture it is the indicator of "member a"
    freq = est.mean[0]
    sigma3 = 3 * math.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= sigma3


def test_exact_vs_mc_bounded_kinds(split_reach):
    model, dims = split_reach
    sigma = split_reach_choice(model, "c")
    exact = mx.expected_payoff(model, sigma, "s0", dims)
    est = mx.estimate_expectation(model, sigma, "s0", dims,
                                  mx.SampleConfig(samples=20_000, horizon=8, seed=31))
    for j in range(2):
        tol = 3 * est.stderr[j] + 1e-12
        assert abs(est.mean[j] - float(exact[j].finite)) <= tol


def test_discounted_bias_bound(two_discounts):
    model, dims = two_discounts
    sigma = memoryless_table(model, {"s0": "a", "s2": "a"})
    exact = mx.expected_payoff(model, sigma, "s0", dims)
    cfg = mx.SampleConfig(samples=200, horizon=12, seed=5)
    est = mx.estimate_expectation(model, sigma, "s0", dims, cfg)
    # a deterministic play: zero variance, the only error is the cut tail
    for j, spec in enumerate(dims):
        bound = spec.weights.max_abs * spec.discount ** 12 / (1 - spec.discount)
        assert est.bias_bound[j] == bound
        assert est.stderr[j] == 0
        assert abs(est.mean[j] - float(exact[j].finite)) <= float(bound)


def test_spath_censoring(coin_exit):
    model, dims = coin_exit
    sigma = coin_exit_switch(model, 2)  # a twice, then b forever: survivors never reach
    est = mx.estimate_expectation(model, sigma, "s", dims,
                                  mx.SampleConfig(samples=4_000, horizon=32, seed=17))
    assert est.censored[0] > 0
    # resolved samples hit within two steps: cost 1 or 2
    assert 1.0 <= est.mean[0] <= 2.0


def test_zero_weight_discounted_mean_zero(coin_exit):
    model, _ = coin_exit
    zero = mx.WeightFunction({pair: Fraction(0) for pair in model.enabled_pairs()})
    dims = (mx.DiscountedSum(Fraction(1, 2), zero),)
    est = mx.estimate_expectation(model, coin_exit_always(model, "a"), "s", dims,
                                  mx.SampleConfig(samples=500, horizon=16, seed=2))
    assert est.mean[0] == 0.0 and est.bias_bound[0] == 0


def test_buchi_unsupported(earn_or_exit):
    model, _ = earn_or_exit
    dims = (mx.BuchiIndicator(frozenset({"t"})),)
    with pytest.raises(UnsupportedKind):
        mx.estimate_expectation(model, None, "s", dims,
                                mx.SampleConfig(samples=10, horizon=4, seed=0))


def test_kuhn_sampling_agreement(split_reach):
    """Mixture two-phase sampling and its behavioural conversion agree on
    cylinder frequencies within a binomial interval."""
    model, dims = split_reach
    mix = mx.FiniteMixture.of([(split_reach_choice(model, "a"), Fraction(1, 3)),
                               (split_reach_choice(model, "c"), Fraction(2, 3))])
    beh = mx.mixed_to_behavioural(mix, model)
    n = 20_000
    est_mix = mx.estimate_expectation(model, mix, "s0", dims,
                                      mx.SampleConfig(samples=n, horizon=4, seed=77))
    est_beh = mx.estimate_expectation(model, beh, "s0", dims,
                                      mx.SampleConfig(samples=n, horizon=4, seed=78))
    for j in range(2):
        spread = 3 * math.sqrt(0.25 / n) * 2
        assert abs(est_mix.mean[j] - est_beh.mean[j]) <= spread


# -- convergence probe -------------------------------------------------------------------


def test_probe_divergence_coin_exit(coin_exit):
    model, dims = coin_exit
    limit = coin_exit_always(model, "a")
    family = [(n, coin_exit_switch(model, n)) for n in range(1, 6)]
    table = mx.convergence_probe(model, family, limit, "s", dims, 3)
    assert table.limit_vector == mx.vector(2)
    for row in table.rows:
        assert row.vector == mx.ExtRealVector([mx.POS_INF])


def test_probe_discounted_convergence(coin_exit):
    """With weight 1 only while staying in s, values converge geometrically
    to the limit value 4/3, the gap shrinking by a factor lambda/2 = 1/4."""
    model, _ = coin_exit
    w = mx.WeightFunction({("s", "a"): Fraction(1), ("s", "b"): Fraction(0),
                           ("t", "a"): Fraction(0)})
    dims = (mx.DiscountedSum(Fraction(1, 2), w),)
    limit = coin_exit_always(model, "a")
    family = [(n, coin_exit_switch(model, n)) for n in range(1, 9)]
    table = mx.convergence_probe(model, family, limit, "s", dims, 2)
    lim = table.limit_vector[0].finite
    assert lim == Fraction(4, 3)
    gaps = [abs(row.vector[0].finite - lim) for row in table.rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b == a / 4  # exact geometric decay, certainly halving


def test_probe_constant_family(split_reach):
    model, dims = split_reach
    sigma = split_reach_choice(model, "c")
    table = mx.convergence_probe(model, [(n, sigma) for n in range(3)], sigma,
                                 "s0", dims, 2)
    assert all(row.vector == table.limit_vector for row in table.rows)
    assert all(row.premetric_sq == 0 for row in table.rows)


# -- the streamed walk against the reference ------------------------------------------------

CHUNK = montecarlo._CHUNK
# (samples, horizon): every sample count around the chunk boundaries, and
# one past the first chunk of the lazy draw
SIZES = [(1, 64), (CHUNK - 1, 7), (CHUNK, 1), (CHUNK + 1, 33), (2 * CHUNK + 3, 64),
         (montecarlo._LAZY_CHUNK + 1, 9)]
BUNDLED = {
    "coin_exit.json": "s", "commute.json": "home", "delayed_exit.json": "s",
    "earn_or_exit.json": "s", "gated_reward.json": "s", "split_reach.json": "s0",
    "two_discounts.json": "s0",
}


def _assert_same(model, strategy, start, dims, samples, horizon, seed):
    """The estimate equals the reference on both draw paths, the dense fill
    and the lazy windows, each forced whatever the estimate would pick."""
    cfg = SampleConfig(samples=samples, horizon=horizon, seed=seed)
    want = estimate_expectation(model, strategy, start, dims, cfg)
    for lazy in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_draws_lazily", lambda *args: lazy)
            got = mx.estimate_expectation(model, strategy, start, dims, cfg)
        assert got == want, "lazy" if lazy else "dense"
    return got


def _pure(model, skeleton, rng):
    return mx.PureStrategy(skeleton, {point: rng.choice(enabled) for point, enabled
                                      in mx.strategies.reachable_choice_points(model, skeleton)})


def _strategies(model, rng):
    """A pure strategy, a behavioural one and a three-member mixture."""
    memoryless, counter = mx.memoryless(model), mx.counter(model, 2)
    members = [_pure(model, memoryless, rng), _pure(model, counter, rng),
               _pure(model, counter, rng)]
    mixture = mx.FiniteMixture.of(zip(members, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
    return {"pure": members[1], "behavioural": grid_randomized(model, counter, rng),
            "mixture": mixture}


@pytest.mark.parametrize("name", sorted(BUNDLED))
@pytest.mark.parametrize("kind", ["pure", "behavioural", "mixture"])
def test_streamed_walk_matches_reference_bundled(name, kind):
    model, dims = load(name)
    strategy = _strategies(model, random.Random(name))[kind]
    for k, (samples, horizon) in enumerate(SIZES):
        _assert_same(model, strategy, BUNDLED[name], dims, samples, horizon, seed=k)


def test_streamed_walk_matches_reference_named(coin_exit, gated_reward, earn_or_exit):
    """Censored shortest paths, gates that open late and total reward over
    a long stay, each far past the first chunk."""
    cases = [(coin_exit, coin_exit_switch(coin_exit[0], 3), "s"),
             (gated_reward, gated_reward_leave(gated_reward[0], 5), "s"),
             (earn_or_exit, earn_or_exit_leave(earn_or_exit[0], 9), "s")]
    for (model, dims), sigma, start in cases:
        _assert_same(model, sigma, start, dims, 2 * CHUNK + 3, 40, seed=3)


def test_dense_chunks_are_bounded_by_bytes(coin_exit, monkeypatch):
    """Past horizon 1,023 a filled chunk holds at most `_CHUNK_BYTES` of
    doubles.  The generator fills rows in order, so the estimate of a
    mixture on the dense path is the same to the last bit at a budget of
    1,501 rows and at one of 25 rows, in 8 chunks."""
    model, dims = coin_exit
    mixture = FiniteMixture.of([(coin_exit_switch(model, 3), Fraction(1, 3)),
                                (coin_exit_always(model, "a"), Fraction(2, 3))])
    cfg = SampleConfig(samples=200, horizon=1500, seed=5)
    monkeypatch.setattr(montecarlo, "_draws_lazily", lambda *args: False)
    real_draw, chunks = montecarlo._chunk_draw, set()
    monkeypatch.setattr(montecarlo, "_chunk_draw",  # (first row, rows) of each chunk read
                        lambda u, lo, *args: chunks.add((lo, len(u))) or real_draw(u, lo, *args))
    assert montecarlo._CHUNK_BYTES // (8 * 1501) >= 200
    wide = mx.estimate_expectation(model, mixture, "s", dims, cfg)
    assert chunks == {(0, 200)}
    chunks.clear()
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 1501 * 25)
    narrow = mx.estimate_expectation(model, mixture, "s", dims, cfg)
    assert chunks == {(25 * k, 25) for k in range(8)} and narrow == wide


KINDS = ("reach", "discounted_sum", "reach_gated_discounted_sum", "total_reward",
         "shortest_path")


@st.composite
def small_mdps(draw):
    """Up to five states and three actions with non-negative weights (zero
    often, so samples settle), optionally zero-weight absorbing states, and
    a list of horizon-determined payoffs of every kind."""
    n = draw(st.integers(1, 5))
    states = [f"s{i}" for i in range(n)]
    weight = st.sampled_from(["0", "0", "0", "1", "1/3", "2"])
    transitions, weights = {}, {}
    for s in states:
        if draw(st.booleans()):
            transitions[s] = {"a": {s: "1"}}
            weights[f"{s},a"] = ["0"] * 4
            continue
        transitions[s] = {}
        for a in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
            succ = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
            raw = draw(st.lists(st.integers(1, 4), min_size=len(succ), max_size=len(succ)))
            transitions[s][a] = {t: str(Fraction(r, sum(raw))) for t, r in zip(succ, raw)}
            weights[f"{s},{a}"] = [draw(weight) for _ in range(4)]
    payoffs = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6)):
        entry = {"kind": kind, "weights": "w", "windex": draw(st.integers(0, 3)),
                 "target": draw(st.lists(st.sampled_from(states), unique=True)),
                 "lambda": draw(st.sampled_from(["0", "1/2", "9/10"]))}
        payoffs.append(entry)
    doc = {"states": states, "actions": ["a", "b", "c"], "transitions": transitions,
           "weights": {"w": weights}, "payoffs": payoffs}
    return mx.load_problem(json.dumps(doc))


@settings(max_examples=60, deadline=None)
@given(problem=small_mdps(), kind=st.sampled_from(["pure", "behavioural", "mixture"]),
       size=st.sampled_from(SIZES), horizon=st.integers(1, 64), seed=st.integers(0, 2 ** 32),
       salt=st.integers(0, 2 ** 16))
def test_streamed_walk_matches_reference_generated(problem, kind, size, horizon, seed, salt):
    model, dims = problem
    strategy = _strategies(model, random.Random(salt))[kind]
    _assert_same(model, strategy, "s0", dims, size[0], horizon, seed)


def test_settled_start_walks_no_step():
    """From an absorbing zero-weight start every sample is settled at once:
    sums stay 0 and hits keep the start's flags, as over the whole horizon."""
    doc = {"states": ["g", "x"], "actions": ["a"],
           "transitions": {"g": {"a": {"g": "1"}}, "x": {"a": {"g": "1"}}},
           "weights": {"w": {"g,a": ["0"], "x,a": ["5"]}},
           "payoffs": [{"kind": "reach", "target": ["g"]},
                       {"kind": "discounted_sum", "lambda": "1/2", "weights": "w"},
                       {"kind": "reach_gated_discounted_sum", "target": ["x"], "lambda": "1/2",
                        "weights": "w"},
                       {"kind": "total_reward", "weights": "w"},
                       {"kind": "shortest_path", "target": ["x"], "weights": "w"}]}
    model, dims = mx.load_problem(json.dumps(doc))
    sigma = memoryless_table(model, {})
    walker = montecarlo._Walker(model, sigma, "g", dims)
    assert walker.settled.tolist() == [True]  # x is not reachable from g
    est = _assert_same(model, sigma, "g", dims, 2 * CHUNK + 3, 256, seed=1)
    assert est.mean == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert est.censored == (0, 0, 0, 0, 2 * CHUNK + 3)


def test_live_mass_returns_early():
    """`_Walker.live_mass` follows no chain from a settled start (live mass 0
    throughout, so `_draws_lazily` picks the lazy windows) nor past
    `_MASS_NODES` unsettled nodes (mass 1 throughout, so it picks the dense
    fill on a long horizon).  Both forced draw paths give the reference
    estimate to the last bit in either case."""
    settled = {"states": ["g", "x"], "actions": ["a"],
               "transitions": {"g": {"a": {"g": "1"}}, "x": {"a": {"g": "1"}}},
               "weights": {"w": {"g,a": ["0"], "x,a": ["5"]}},
               "payoffs": [{"kind": "discounted_sum", "lambda": "1/2", "weights": "w"}]}
    ring = [f"r{i}" for i in range(montecarlo._MASS_NODES + 2)]
    unsettled = {"states": ring, "actions": ["a"],
                 "transitions": {s: {"a": {ring[(i + 1) % len(ring)]: "1"}}
                                 for i, s in enumerate(ring)},
                 "weights": {"w": {f"{s},a": ["1"] for s in ring}},
                 "payoffs": [{"kind": "discounted_sum", "lambda": "1/2", "weights": "w"}]}
    for doc, start, mass, lazy in ((settled, "g", 0.0, True), (unsettled, "r0", 1.0, False)):
        model, dims = mx.load_problem(json.dumps(doc))
        sigma = memoryless_table(model, {})
        walker = montecarlo._Walker(model, sigma, start, dims)
        assert list(itertools.islice(walker.live_mass(), 4)) == [mass] * 4
        asked = []
        assert montecarlo._draws_lazily(lambda i: asked.append(i) or walker, [1.0], 2000, 256) \
            is lazy
        assert asked == [0]
        _assert_same(model, sigma, start, dims, 2000, 256, seed=4)


def test_settled_nodes():
    """A node is settled exactly when nothing reachable from it carries a
    weight that counts or changes a target flag: p has neither itself, but
    leads through q to u, which moves into the target v.  Shortest-path
    weights do not count, so t stays settled under the weight of its loop
    (the payoff's target is t: every sample there has hit it)."""
    doc = {"states": ["s", "t", "p", "q", "u", "v"], "actions": ["a"],
           "transitions": {"s": {"a": {"t": "1/2", "p": "1/2"}}, "t": {"a": {"t": "1"}},
                           "p": {"a": {"q": "1"}}, "q": {"a": {"u": "1"}},
                           "u": {"a": {"v": "1"}}, "v": {"a": {"v": "1"}}},
           "weights": {"w": {"s,a": ["1", "1"], "t,a": ["0", "1"], "p,a": ["0", "0"],
                             "q,a": ["0", "0"], "u,a": ["0", "0"], "v,a": ["0", "0"]}},
           "payoffs": [{"kind": "reach", "target": ["v"]},
                       {"kind": "total_reward", "weights": "w"},
                       {"kind": "shortest_path", "target": ["t"], "weights": "w", "windex": 1}]}
    model, dims = mx.load_problem(json.dumps(doc))
    sigma = memoryless_table(model, {})
    walker = montecarlo._Walker(model, sigma, "s", dims)
    nodes = product_chain(model, sigma, "s").nodes
    assert {state for (state, _m), flag in zip(nodes, walker.settled) if flag} == {"t", "v"}
    _assert_same(model, sigma, "s", dims, CHUNK + 1, 5, seed=2)


@st.composite
def clashing_problems(draw):
    """A model whose action "s1" has the name of a state and comes first in
    action order, whose distributions list successors in reverse state
    order, and a counter strategy on it, pure or with its distributions in
    reverse action order; as (model, strategy, target)."""
    n = draw(st.integers(2, 5))
    states = [f"s{i}" for i in range(n)]
    transitions = {}
    for s in states:
        transitions[s] = {}
        for a in draw(st.lists(st.sampled_from(["a", "s1"]), min_size=1, max_size=2, unique=True)):
            succ = sorted(draw(st.lists(st.sampled_from(states), min_size=1, max_size=3,
                                        unique=True)), reverse=True)
            raw = draw(st.lists(st.integers(1, 4), min_size=len(succ), max_size=len(succ)))
            transitions[s][a] = {t: str(Fraction(r, sum(raw))) for t, r in zip(succ, raw)}
    model = mx.load_model(json.dumps({"states": states, "actions": ["s1", "a"],
                                      "transitions": transitions}))
    skeleton = mx.counter(model, draw(st.integers(0, 2)))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        strategy = _pure(model, skeleton, rng)
    else:
        drawn = grid_randomized(model, skeleton, rng)
        strategy = FiniteMemoryStrategy(skeleton, {key: dict(reversed(dist.items()))
                                                   for key, dist in drawn.act.items()})
    return model, strategy, frozenset(draw(st.lists(st.sampled_from(states), unique=True)))


def _reach_within(chain, target, steps):
    """P(target hit within `steps` transitions), pushing mass over the rows
    of the reference chain."""
    hit = {i for i, (s, _m) in enumerate(chain.nodes) if s in target}
    if chain.init in hit:
        return Fraction(1)
    dist, absorbed = {chain.init: Fraction(1)}, Fraction(0)
    for _ in range(steps):
        nxt = {}
        for node, mass in dist.items():
            for j, p in chain.matrix[node].items():
                if j in hit:
                    absorbed += mass * p
                else:
                    nxt[j] = nxt.get(j, Fraction(0)) + mass * p
        dist = nxt
    return absorbed


@settings(max_examples=100, deadline=None)
@given(clashing_problems())
def test_walks_match_the_reference_chain(problem):
    """The walker's nodes and edges are the reference chain's, in the same
    order, and the bounded-reach walk gives the chain's mass push, when an
    action has a state's name and no distribution comes in model order."""
    model, strategy, target = problem
    chain = product_chain(model, strategy, "s0")
    walker = montecarlo._Walker(model, strategy, "s0", ())
    assert tuple(walker.nodes) == chain.nodes
    assert tuple(walker.edges) == chain.edges
    for steps in range(7):
        assert bounded_reach_probability(model, strategy, "s0", target, steps) \
            == _reach_within(chain, target, steps)


def test_streamed_walk_memory(two_discounts):
    """10^5 samples x 256 steps that never settle (a deterministic loop with
    weight on every step) stay within a few chunks of memory; the whole
    uniform matrix alone was 206 MB."""
    model, dims = two_discounts
    sigma = memoryless_table(model, {"s0": "a", "s2": "a"})
    tracemalloc.start()
    try:
        est = mx.estimate_expectation(model, sigma, "s0", dims,
                                      mx.SampleConfig(samples=100_000, horizon=256, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.stderr == (0.0, 0.0)
    assert peak < 32 * 2 ** 20


# -- replaying one sample ------------------------------------------------------------------


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6, 7, 8, 64, 255, 256])
def test_uniform_row_is_matrix_row(horizon):
    full = _uniform_matrix(21, 10, horizon)
    for index in range(10):
        assert np.array_equal(montecarlo._uniforms(21, horizon, [index], 0, horizon + 1)[0],
                              full[index])


@pytest.mark.parametrize("seed", [0, 21, 2 ** 64 - 1, 2 ** 64 + 3, 2 ** 128 - 1])
def test_uniform_windows_are_matrix_windows(seed):
    """Windows of width 1 to 9 starting at every offset mod 4 of the stream,
    for keys at the edges of both 64-bit key words, match the filled
    matrix."""
    horizon = 10
    full = _uniform_matrix(seed, 12, horizon)
    rows = np.arange(12)
    for width in range(1, 10):
        for col in range(horizon + 2 - width):
            assert np.array_equal(montecarlo._uniforms(seed, horizon, rows, col, width),
                                  full[:, col:col + width])


def test_lazy_walk_draws_a_tenth_of_the_blocks(coin_exit, monkeypatch):
    """Always-a leaves coin_exit's start with probability 1/2 per step: the
    walk draws its windows lazily, never fills the matrix, and computes
    fewer than a tenth of the blocks that hold the whole matrix."""
    model, dims = coin_exit
    n, horizon = 10_000, 256
    blocks = []
    philox = montecarlo._philox
    monkeypatch.setattr(montecarlo, "_philox",
                        lambda seed, counters: blocks.append(len(counters)) or philox(seed, counters))

    def no_fill(*args, **kwargs):
        raise AssertionError("the dense fill was used")

    monkeypatch.setattr(np.random, "Generator", no_fill)
    cfg = SampleConfig(samples=n, horizon=horizon, seed=5)
    got = mx.estimate_expectation(model, coin_exit_always(model, "a"), "s", dims, cfg)
    assert sum(blocks) < n * (horizon + 1) / 4 / 10
    monkeypatch.undo()
    assert got == estimate_expectation(model, coin_exit_always(model, "a"), "s", dims, cfg)


# -- window by window: live sets, slices and the kernel -------------------------------------


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_small_slices_match_reference(name, monkeypatch):
    """With slices of 7 rows every window of the live set is drawn and
    walked in many slices, and samples settle in the middle of windows;
    both draw paths still give the reference estimate."""
    monkeypatch.setattr(montecarlo, "_LAZY_CHUNK", 7)
    model, dims = load(name)
    for kind, strategy in _strategies(model, random.Random(name)).items():
        _assert_same(model, strategy, BUNDLED[name], dims, 61, 29, seed=len(kind))


def test_kernel_calls_per_slice_and_window(coin_exit, monkeypatch):
    """The first window is drawn in slices of `_LAZY_CHUNK` rows and every
    later one for the whole live set: at most one kernel call per slice of
    the first window and one per later window (one call per chunk and
    window would be 10 per window)."""
    model, dims = coin_exit
    monkeypatch.setattr(montecarlo, "_LAZY_CHUNK", 1000)
    monkeypatch.setattr(montecarlo, "_draws_lazily", lambda *args: True)
    calls, columns = [], set()
    philox, uniforms = montecarlo._philox, montecarlo._uniforms
    monkeypatch.setattr(montecarlo, "_philox",
                        lambda seed, counters: calls.append(len(counters)) or philox(seed, counters))
    monkeypatch.setattr(montecarlo, "_uniforms",
                        lambda seed, horizon, rows, col, width:
                        columns.add(col) or uniforms(seed, horizon, rows, col, width))
    cfg = SampleConfig(samples=10_000, horizon=256, seed=5)
    got = mx.estimate_expectation(model, coin_exit_always(model, "a"), "s", dims, cfg)
    assert len(columns) >= 2  # windows walked
    assert len(calls) <= 10 + len(columns)
    monkeypatch.undo()
    assert got == estimate_expectation(model, coin_exit_always(model, "a"), "s", dims, cfg)


def test_walk_stops_stepping_once_all_settle(monkeypatch):
    """On a one-choice model every sample stands on the absorbing sink,
    settled, after one step: each member's walk steps once on either
    draw path, not once per step of its first window."""
    doc = {"states": ["s", "z"], "actions": ["p0", "p1", "p2", "stay"],
           "transitions": {"s": {f"p{i}": {"z": "1"} for i in range(3)}, "z": {"stay": {"z": "1"}}},
           "weights": {"w": {"s,p0": ["1", "0"], "s,p1": ["0", "2"], "s,p2": ["3", "1"],
                             "z,stay": ["0", "0"]}},
           "payoffs": [{"kind": "total_reward", "weights": "w", "windex": j} for j in range(2)]}
    model, dims = mx.load_problem(json.dumps(doc))
    members = [memoryless_table(model, {"s": f"p{i}"}) for i in range(3)]
    mixture = FiniteMixture.of(zip(members, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
    steps = []
    step = montecarlo._Walker._step
    monkeypatch.setattr(montecarlo._Walker, "_step", lambda *args: steps.append(1) or step(*args))
    for strategy, walks in ((members[1], 1), (mixture, 3)):
        steps.clear()
        _assert_same(model, strategy, "s", dims, 1000, 64, seed=9)
        assert len(steps) == 2 * walks  # the dense walk, then the lazy one


@pytest.mark.parametrize("seed", [0, 21, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1])
def test_kernel_is_numpy_philox(seed):
    """`_philox` gives numpy's own blocks at counters next to 2**32, 2**63
    and 2**64 - 1, for keys at the edges of both 64-bit key words."""
    for first in (1, 2 ** 32 - 2, 2 ** 63 - 2, 2 ** 64 - 4):
        generator = np.random.Philox(key=seed)
        generator.advance(first - 1)
        counters = np.arange(4, dtype=np.uint64) + np.uint64(first)
        assert np.array_equal(montecarlo._philox(seed, counters),
                              generator.random_raw(16).reshape(4, 4))


def test_uniform_window_memory():
    """A window of 50,000 rows is computed a kernel slice at a time into one
    output of 3.2 MB; computing all its blocks in one call held 16 MB."""
    tracemalloc.start()
    try:
        montecarlo._uniforms(3, 256, range(50_000), 1, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_stream_positions_past_2_63_are_refused(coin_exit):
    """Positions are computed in int64: a configuration whose last row ends
    past 2**63 is refused instead of reading another place in the stream."""
    model, _ = coin_exit
    SampleConfig(samples=2 ** 62, horizon=1, seed=7)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        SampleConfig(samples=2 ** 62 + 1, horizon=1, seed=7)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        SampleConfig(samples=924, horizon=10 ** 16, seed=7)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        mx.sample_play(model, coin_exit_always(model, "a"), "s", 10 ** 16, seed=7, index=923)


def test_sample_play_follows_its_row(coin_exit):
    """The play of sample i follows row i of the uniform matrix."""
    model, _ = coin_exit
    sigma = coin_exit_always(model, "a")
    u = _uniform_matrix(3, 10, 8)
    for index in range(10):
        state, expected = "s", ["s"]
        for t in range(8):  # in s, a draw below 1/2 stays and one above moves to t
            if state == "s" and u[index, t + 1] >= 0.5:
                state = "t"
            expected += ["a", state]
        assert mx.sample_play(model, sigma, "s", 8, seed=3, index=index) == tuple(expected)


def test_sample_play_of_a_mixture_replays_the_member_its_first_draw_picks(coin_exit):
    """Member 0 owns first draws below 1/4, member 1 the rest; the play is
    that member's own play of the same row."""
    model, _ = coin_exit
    members = [coin_exit_always(model, "a"), coin_exit_switch(model, 2)]
    mixture = FiniteMixture.of(zip(members, (Fraction(1, 4), Fraction(3, 4))))
    u = _uniform_matrix(3, 12, 8)
    picked = [int(u[index, 0] >= 0.25) for index in range(12)]
    assert set(picked) == {0, 1}
    for index, member in enumerate(picked):
        assert mx.sample_play(model, mixture, "s", 8, seed=3, index=index) \
            == mx.sample_play(model, members[member], "s", 8, seed=3, index=index)


def test_sample_play_far_index_small_memory(coin_exit):
    model, _ = coin_exit
    sigma = coin_exit_always(model, "a")
    tracemalloc.start()
    try:
        play = mx.sample_play(model, sigma, "s", 256, seed=3, index=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(play) == 2 * 256 + 1
    assert peak < 2 ** 20


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mx.__file__)))
    code = "import sys, momix, momix.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
