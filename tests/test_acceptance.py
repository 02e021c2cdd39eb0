"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

import momix as mx

from conftest import (commute_ltb, commute_train, distinct_vectors, split_reach_choice,
                      coin_exit_always, coin_exit_switch, grid_randomized, memoryless_table)


def _report(number, message):
    print(f"[PASS] criterion {number}: {message}")


# -- 1. two_discounts example ------------------------------------------------------------


def test_criterion_01_two_discounts_example(two_discounts):
    model, dims = two_discounts
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 6))
    got = set(distinct_vectors(pool))
    expected = {mx.vector(0, 2), mx.vector(1, 2)}
    for r in range(7):
        expected.add(mx.ExtRealVector([1 + 4 * Fraction(3, 4) ** r,
                                       2 - 2 * Fraction(1, 2) ** r]))
    assert got == expected  # exact equality, r = 0..6 inclusive
    assert mx.ExtRealVector([Fraction(13, 4), Fraction(3, 2)]) in got   # r = 2
    assert mx.ExtRealVector([Fraction(43, 16), Fraction(7, 4)]) in got  # r = 3

    ordered = sorted(got, key=lambda v: v.to_floats())
    points = [v.to_fractions() for v in ordered]
    assert set(mx.extreme_points(points)) == set(range(len(points)))
    hull = mx.convex_hull(points)
    assert set(hull.vertices) == set(range(len(points)))
    pareto = mx.pareto_frontier(ordered)
    excluded = [ordered[i] for i in range(len(ordered)) if i not in pareto]
    assert excluded == [mx.vector(0, 2)]
    _report(1, f"{len(got)} exact pure vectors, all hull vertices, Pareto excludes only (0,2)")


# -- 2. five-state reach model ------------------------------------------------------


def test_criterion_02_split_reach_supporting_map(split_reach):
    model, dims = split_reach
    pool = mx.pure_payoff_set(model, "s0", dims, mx.memoryless(model))
    vectors = [v for _s, v in pool]
    assert set(vectors) == {mx.vector(1, 0), mx.vector(0, 1),
                            mx.vector(Fraction(3, 4), Fraction(3, 4))}
    points = [v.to_fractions() for v in vectors]
    q = (Fraction(3, 4), Fraction(3, 4))
    lmap = mx.supporting_map(q, points)
    assert len(lmap.rows) == 2
    r0 = lmap.rows[0]
    assert r0[0] * 3 == r0[1] and r0[0] != 0  # proportional to (1, 3)
    image_q = lmap.apply(q)
    assert max(lmap.apply(p) for p in points) == image_q
    _report(2, "pure set {(1,0),(0,1),(3/4,3/4)}; 2-row map, row 1 ~ (1,3), image lex-max")


# -- 3. gated-discount model --------------------------------------------------------


def test_criterion_03_gated_reward_achieve(gated_reward):
    model, dims = gated_reward
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4))
    cert = mx.achieve(mx.vector(2, 2), pool, mode="equals")
    assert len(cert.mixture.support) == 2
    assert cert.realized == mx.vector(2, 2)  # exact recombination
    for member in cert.mixture.support:
        vec = mx.expected_payoff(model, member, "s", dims)
        assert vec[0].finite + vec[1].finite == 4  # support on the x+y=4 face
    assert sorted(cert.mixture.weights) == [Fraction(4, 9), Fraction(5, 9)]
    _report(3, "support-2 certificate 5/9, 4/9 recombining to (2,2) exactly")


# -- 4. commute model ----------------------------------------------------------------


def test_criterion_04_commute(commute):
    model, dims = commute
    train = commute_train(model)
    two_then_bike = commute_ltb(model, 2)

    assert mx.expected_payoff(model, train, "home", dims) == mx.vector(25)

    w = model.weight_function("time")
    unrolled, targets, entry = mx.unroll_cost_counter(model, w, Fraction(40),
                                                      frozenset({"work"}))
    threshold = (mx.ReachIndicator(targets),)
    p_train = mx.expected_payoff(unrolled, train, entry["home"], threshold)[0]
    assert p_train == mx.ExtReal(Fraction(14197, 16384))

    p_2tb = mx.expected_payoff(unrolled, two_then_bike, entry["home"], threshold)[0]
    e_2tb = mx.expected_payoff(model, two_then_bike, "home", dims)[0]
    assert (p_2tb, e_2tb) == (mx.ExtReal(1), mx.ExtReal(Fraction(445, 16)))

    negated_pool = [(Fraction(14197, 16384), Fraction(-25)),
                    (Fraction(1), Fraction(-445, 16))]
    dec = mx.achievability_lp((Fraction(9, 10), Fraction(-27)), negated_pool)
    assert dec is not None and dec.support_size <= 2
    recombined = dec.recombine(negated_pool)
    assert recombined[0] >= Fraction(9, 10) and recombined[1] >= -27
    _report(4, "E=25, P(<=40)=14197/16384, (1, 445/16), mix for (9/10,-27) feasible")


# -- 5. lexicographic ------------------------------------------------------------------


def test_criterion_05_lexicographic(split_reach, commute, earn_or_exit):
    rng = random.Random(0xC0FFEE)
    checked = 0

    model5, dims5 = split_reach
    sk5 = mx.memoryless(model5)
    pool5 = mx.pure_payoff_set(model5, "s0", dims5, sk5)
    for _ in range(100):
        sigma = grid_randomized(model5, sk5, rng)
        vec = mx.expected_payoff(model5, sigma, "s0", dims5)
        assert mx.check_pure_dominates_lex(vec, pool5) is not None
        checked += 1

    modelc, _ = commute
    bounded = (mx.DiscountedSum(Fraction(1, 2), modelc.weight_function("time")),
               mx.ReachIndicator(frozenset({"work"})))
    skc = mx.counter(modelc, 2)
    poolc = mx.pure_payoff_set(modelc, "home", bounded, skc)
    for _ in range(100):
        sigma = grid_randomized(modelc, skc, rng)
        vec = mx.expected_payoff(modelc, sigma, "home", bounded)
        assert mx.check_pure_dominates_lex(vec, poolc) is not None
        checked += 1
    assert checked == 200

    model6, dims6 = earn_or_exit
    for n in (4, 8, 12):
        pool6 = mx.pure_payoff_set(model6, "s", dims6, mx.counter(model6, n))
        result = mx.lex_optimize(pool6)
        assert result.vector == mx.vector(1, n)  # never (1, +inf)
        assert result.certified
    pool6 = mx.pure_payoff_set(model6, "s", dims6, mx.counter(model6, 12))
    cert = mx.approximate(mx.vector(1, "+inf"), Fraction(1, 10), Fraction(10), pool6)
    assert cert.realized[0] == mx.ExtReal(1)       # dimension 1 exactly 1
    assert cert.realized[1] >= mx.ExtReal(10)      # dimension 2 at least M
    _report(5, "200/200 random strategies lex-dominated; pools give (1,n); approx hits (1,>=10)")


# -- 6. support bounds -----------------------------------------------------------------


def test_criterion_06_support_bounds(split_reach, two_discounts):
    rng = random.Random(20240601)
    cases = 0

    def run_case(model, dims, start, pool, d):
        nonlocal cases
        members = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(4, 8))]
        seen = set()
        chosen = []
        for s, v in members:
            if id(s) not in seen:
                seen.add(id(s))
                chosen.append((s, v))
        raw = [rng.randint(1, 6) for _ in chosen]
        total = sum(raw)
        mixture = mx.FiniteMixture.of([(s, Fraction(r, total))
                                       for (s, _v), r in zip(chosen, raw)])
        vectors = [v for _s, v in chosen]
        realized = mx.ExtRealVector.combine(mixture.weights, vectors)
        reduced = mx.reduce_support(mixture, vectors)
        assert len(reduced.support) <= d + 1
        kept = [vectors[[s for s, _v in chosen].index(m)] for m in reduced.support]
        assert mx.ExtRealVector.combine(reduced.weights, kept) == realized

        points = []
        for _s, v in pool:
            if v.is_finite and v.to_fractions() not in points:
                points.append(v.to_fractions())
        dom = mx.dominating_face_decomposition(realized.to_fractions(), points)
        assert dom.support_size <= d
        assert all(x >= y for x, y in zip(dom.recombine(points), realized.to_fractions()))
        cases += 1

    model5, dims5 = split_reach
    pool5 = mx.pure_payoff_set(model5, "s0", dims5, mx.counter(model5, 2))
    modelr, dimsr = two_discounts
    dims3 = tuple(dimsr) + (mx.ReachIndicator(frozenset({"s3"})),)
    pool3 = mx.pure_payoff_set(modelr, "s0", dims3, mx.counter(modelr, 4))
    for _ in range(50):
        run_case(model5, dims5, "s0", pool5, 2)
    for _ in range(50):
        run_case(modelr, dims3, "s0", pool3, 3)
    assert cases == 100
    _report(6, "100/100 mixtures: reduction exact at support <= d+1, domination at <= d")


# -- 7. Kuhn / mixing -------------------------------------------------------------------


def _histories_up_to(model, start, max_states):
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


def test_criterion_07_kuhn_mixing(split_reach, commute):
    rng = random.Random(1789)
    mixtures_checked = 0
    for model, dims, start in ((split_reach[0], split_reach[1], "s0"), (commute[0], commute[1], "home")):
        pures = list(mx.enumerate_pure(model, mx.counter(model, 2)))
        histories = _histories_up_to(model, start, 6)
        for _ in range(25):
            members = rng.sample(pures, k=min(4, len(pures)))
            raw = [rng.randint(1, 5) for _ in members]
            total = sum(raw)
            mixture = mx.FiniteMixture.of([(s, Fraction(r, total))
                                           for s, r in zip(members, raw)])
            behavioural = mx.mixed_to_behavioural(mixture, model)
            for h in histories:
                lhs = mx.cylinder_prob(model, behavioural, start, h)
                rhs = sum(w * mx.cylinder_prob(model, s, start, h)
                          for s, w in zip(mixture.support, mixture.weights))
                assert lhs == rhs  # exact rationals
            lhs_vec = mx.mixed_expected_payoff(model, mixture, start, dims)
            rhs_vec = mx.ExtRealVector.combine(
                mixture.weights,
                [mx.expected_payoff(model, s, start, dims) for s in mixture.support])
            assert lhs_vec == rhs_vec
            mixtures_checked += 1
    assert mixtures_checked == 50
    _report(7, "50/50 mixtures: horizon-6 cylinders and values equal weighted sums exactly")


# -- 8. strategy topology ------------------------------------------------------------------


def test_criterion_08_topology(split_reach, coin_exit):
    rng = random.Random(31415)

    # product-difference lemma on 700 seeded instances
    for _ in range(700):
        k = rng.randint(1, 6)
        a = [Fraction(rng.randint(0, 16), 16) for _ in range(k)]
        b = [Fraction(rng.randint(0, 16), 16) for _ in range(k)]
        prod_a = prod_b = Fraction(1)
        for x, y in zip(a, b):
            prod_a *= x
            prod_b *= y
        assert abs(prod_a - prod_b) <= sum(abs(x - y) for x, y in zip(a, b))

    # closeness lemma on 300 seeded instances
    model, _ = split_reach
    sk = mx.memoryless(model)
    history_cache = {k: _histories_up_to(model, "s0", k + 1) for k in (1, 2, 3)}
    for _ in range(300):
        base = grid_randomized(model, sk, rng, grid=8)
        k = rng.randint(1, 3)
        eta = Fraction(1, rng.randint(2, 8))
        delta = eta / (2 * k)
        tau_act = {}
        for (mem, z), dist in base.act.items():
            enabled = model.enabled_for_observation(z)
            moved = {a: dist.get(a, Fraction(0)) for a in enabled}
            if len(enabled) > 1:
                src = max(enabled, key=lambda a: moved[a])
                dst = next(a for a in enabled if a != src)
                step = min(delta, moved[src])
                moved[src] -= step
                moved[dst] += step
            tau_act[(mem, z)] = {a: v for a, v in moved.items() if v != 0}
        tau = mx.FiniteMemoryStrategy(sk, tau_act)
        assert mx.strategy_premetric(model, base, tau, k) <= (eta / k) ** 2
        for h in history_cache[k]:
            diff = abs(mx.cylinder_prob(model, base, "s0", h)
                       - mx.cylinder_prob(model, tau, "s0", h))
            assert diff <= eta

    # the coin-exit divergence family, reproduced exactly
    model7, dims7 = coin_exit
    limit = coin_exit_always(model7, "a")
    family = [(n, coin_exit_switch(model7, n)) for n in range(1, 13)]
    table = mx.convergence_probe(model7, family, limit, "s", dims7, 3)
    assert table.limit_vector == mx.vector(2)
    assert all(row.vector == mx.ExtRealVector([mx.POS_INF]) for row in table.rows)

    stay_weight = mx.WeightFunction({("s", "a"): Fraction(1), ("s", "b"): Fraction(0),
                                     ("t", "a"): Fraction(0)})
    ds = (mx.DiscountedSum(Fraction(1, 2), stay_weight),)
    ds_table = mx.convergence_probe(model7, family, limit, "s", ds, 3)
    lim = ds_table.limit_vector[0].finite
    gaps = [abs(row.vector[0].finite - lim) for row in ds_table.rows]
    assert all(g > 0 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a / 2      # the difference at least halves per step
        assert b == a / 4      # (exactly: the decay factor is lambda * 1/2)
    _report(8, "1000/1000 lemma instances exact; spath diverges (+inf vs 2); DS gaps quarter")


# -- 9. belief analyses -----------------------------------------------------------------------


def test_criterion_09_belief_analyses(coin_exit, commute):
    model7, _ = coin_exit
    verdict, result = mx.classify_shortest_path(model7, "s", frozenset({"t"}))
    assert verdict == "not_universally_integrable"
    witness_reach = mx.expected_payoff(model7, result.witness, "s",
                                       (mx.ReachIndicator(frozenset({"t"})),))
    assert witness_reach == mx.vector(0)  # the witness behaves as always-b

    modelc, _ = commute
    verdict_c, _ = mx.classify_shortest_path(modelc, "home", frozenset({"work"}))
    assert verdict_c == "universally_square_integrable"

    report = mx.reach_bound_check(modelc, commute_train(modelc), "home",
                                  frozenset({"work"}), 4)
    assert report.k == 2 ** 3 == 8
    assert report.holds
    for l, exact, bound in report.rows:
        assert bound == 1 - (1 - Fraction(1, 4) ** 8) ** l   # exact rational bound
        assert exact == 1 - Fraction(3, 4) ** (8 * l - 1)    # exact rational probability
        assert exact >= bound
    _report(9, "dichotomy verdicts correct; geometric bound holds for l = 1..4 exactly")


# -- 10. Monte-Carlo cross-check ------------------------------------------------------------------


def _mc_case(model, sigma, start, dims, exact, n, seed, horizon):
    est = mx.estimate_expectation(model, sigma, start, dims,
                                  mx.SampleConfig(samples=n, horizon=horizon, seed=seed))
    ok = True
    for j, value in enumerate(exact):
        bias = float(est.bias_bound[j]) if est.bias_bound[j] is not None else 0.0
        tol = 3 * est.stderr[j] + bias + 1e-9
        if abs(est.mean[j] - float(value)) > tol:
            ok = False
    return ok, est


def test_criterion_10_monte_carlo(two_discounts, split_reach, commute):
    modelr, dimsr = two_discounts
    sigma_r2 = memoryless_table(modelr, {"s0": "a", "s2": "b"})  # the r = 1 lasso
    exact_r = mx.expected_payoff(modelr, sigma_r2, "s0", dimsr).to_fractions()

    model5, dims5 = split_reach
    sigma_c = split_reach_choice(model5, "c")
    exact_5 = mx.expected_payoff(model5, sigma_c, "s0", dims5).to_fractions()

    modelc, dimsc = commute
    train = commute_train(modelc)
    exact_spath = (Fraction(25),)
    w = modelc.weight_function("time")
    unrolled, targets, entry = mx.unroll_cost_counter(modelc, w, Fraction(40),
                                                      frozenset({"work"}))
    threshold = (mx.ReachIndicator(targets),)
    exact_threshold = (Fraction(14197, 16384),)

    cases = [
        (modelr, sigma_r2, "s0", dimsr, exact_r, 64),
        (model5, sigma_c, "s0", dims5, exact_5, 16),
        (modelc, train, "home", dimsc, exact_spath, 512),
        (unrolled, train, entry["home"], threshold, exact_threshold, 96),
    ]

    # the pinned run at n = 10^5
    for model, sigma, start, dims, exact, horizon in cases:
        ok, est = _mc_case(model, sigma, start, dims, exact, 100_000, 20240810, horizon)
        assert ok, (exact, est.mean, est.stderr)
        assert all(c == 0 for c in est.censored)

    # robustness sample: ten more seeds at n = 10^4, at least nine must land
    passes = 0
    for seed in range(10):
        good = all(_mc_case(model, sigma, start, dims, exact, 10_000, seed, horizon)[0]
                   for model, sigma, start, dims, exact, horizon in cases)
        passes += int(good)
    assert passes >= 9
    _report(10, f"pinned n=1e5 run within 3*stderr+bias on all quantities; {passes}/10 seeds pass")
