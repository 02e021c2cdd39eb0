"""Play-level evaluation: closed forms against independent brute-force sums."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import momix as mx

from conftest import lasso_payoff


def brute_force_discounted(lam, weights, prefix, cycle, terms=200):
    """Oracle: numerically exact partial sum of the defining series."""
    steps = prefix + cycle * ((terms - len(prefix)) // len(cycle) + 1)
    total = Fraction(0)
    power = Fraction(1)
    for s, a in steps[:terms]:
        total += power * weights(s, a)
        power *= lam
    return total


def rotate(prefix, cycle, k):
    """The same play, split k cycle steps later (k modulo the cycle length)."""
    k %= len(cycle)
    return prefix + cycle[:k], cycle[k:] + cycle[:k]


def test_two_discounts_example_first_component(two_discounts):
    _model, dims = two_discounts
    play = ([("s0", "a")], [("s2", "a")])
    assert lasso_payoff(dims[0], *play) == mx.ExtReal(1)
    assert lasso_payoff(dims[1], *play) == mx.ExtReal(2)


def test_two_discounts_example_r2_second_component(two_discounts):
    _model, dims = two_discounts
    play = ([("s0", "a"), ("s2", "a"), ("s2", "b")], [("s3", "a")])
    assert lasso_payoff(dims[1], *play) == mx.ExtReal(Fraction(3, 2))
    assert lasso_payoff(dims[0], *play) == mx.ExtReal(Fraction(13, 4))


def test_closed_form_matches_series(two_discounts):
    _model, dims = two_discounts
    for r in range(5):
        prefix = [("s0", "a")] + [("s2", "a")] * (r - 1) + [("s2", "b")] if r else [("s0", "b")]
        for spec in dims:
            closed = lasso_payoff(spec, prefix, [("s3", "a")]).finite
            series = brute_force_discounted(spec.discount, spec.weights, prefix, [("s3", "a")])
            assert abs(closed - series) < Fraction(1, 10**20)


def test_shortest_path_unreached(coin_exit):
    _model, dims = coin_exit
    assert lasso_payoff(dims[0], [], [("s", "b")]) == mx.POS_INF


def test_total_reward_cases(earn_or_exit):
    _model, dims = earn_or_exit
    reach_spec, total_spec = dims
    looping = ([], [("s", "a")])
    assert lasso_payoff(total_spec, *looping) == mx.POS_INF
    assert lasso_payoff(reach_spec, *looping) == mx.ExtReal(0)
    leave = ([("s", "a"), ("s", "a"), ("s", "b")], [("t", "b")])
    assert lasso_payoff(total_spec, *leave) == mx.ExtReal(2)
    assert lasso_payoff(reach_spec, *leave) == mx.ExtReal(1)


def test_buchi_on_cycle_only():
    spec = mx.BuchiIndicator(frozenset({"s"}))
    leave = ([("s", "b")], [("t", "b")])
    assert lasso_payoff(spec, *leave) == mx.ExtReal(0)  # s visited, but finitely often
    stay = ([], [("s", "a")])
    assert lasso_payoff(spec, *stay) == mx.ExtReal(1)


def test_gated_discounted(gated_reward):
    _model, dims = gated_reward
    assert lasso_payoff(dims[0], [], [("s", "b")]) == mx.ExtReal(0)
    for loops in range(4):
        prefix = [("s", "b")] * loops + [("s", "a")]
        tail = 4 * Fraction(3, 4) ** loops  # 3^l / 4^(l-1)
        assert lasso_payoff(dims[0], prefix, [("t", "a")]).finite == 4 - tail
        assert lasso_payoff(dims[1], prefix, [("t", "a")]).finite == tail


def test_rotation_invariance(two_discounts):
    _model, dims = two_discounts
    play = ([("s0", "a")], [("s2", "a"), ("s2", "a")])
    for spec in dims:
        base = lasso_payoff(spec, *play)
        for k in (1, 2, 3):
            assert lasso_payoff(spec, *rotate(*play, k)) == base


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_rotation_invariance_property(two_discounts, loops, rot):
    _model, dims = two_discounts
    prefix = [("s0", "a")]
    cycle = [("s2", "a")] * (loops + 1)
    for spec in dims:
        assert lasso_payoff(spec, *rotate(prefix, cycle, rot)) \
            == lasso_payoff(spec, prefix, cycle)
