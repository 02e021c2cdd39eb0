"""Play-level evaluation: closed forms against independent brute-force sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momix as mx
from momix.errors import MalformedLasso


def brute_force_discounted(lam, weights, play, terms=200):
    """Oracle: numerically exact partial sum of the defining series."""
    steps = play.prefix_steps() + play.cycle_steps() * (
        (terms - len(play.prefix_steps())) // len(play.cycle_steps()) + 1)
    total = Fraction(0)
    power = Fraction(1)
    for s, a in steps[:terms]:
        total += power * weights(s, a)
        power *= lam
    return total


def test_two_discounts_example_first_component(two_discounts):
    model, dims = two_discounts
    play = mx.LassoPlay.check(model, ("s0", "a", "s2"), ("s2", "a"))
    assert mx.eval_play(dims[0], play) == mx.ExtReal(1)
    assert mx.eval_play(dims[1], play) == mx.ExtReal(2)


def test_two_discounts_example_r2_second_component(two_discounts):
    model, dims = two_discounts
    play = mx.LassoPlay.check(model, ("s0", "a", "s2", "a", "s2", "b", "s3"), ("s3", "a"))
    assert mx.eval_play(dims[1], play) == mx.ExtReal(Fraction(3, 2))
    assert mx.eval_play(dims[0], play) == mx.ExtReal(Fraction(13, 4))


def test_closed_form_matches_series(two_discounts):
    model, dims = two_discounts
    for r in range(5):
        prefix = ["s0", "a", "s2"] + ["a", "s2"] * (r - 1) + ["b", "s3"] if r else ["s0", "b", "s3"]
        play = mx.LassoPlay.check(model, tuple(prefix), ("s3", "a"))
        for spec in dims:
            closed = mx.eval_play(spec, play).finite
            series = brute_force_discounted(spec.discount, spec.weights, play)
            assert abs(closed - series) < Fraction(1, 10**20)


def test_shortest_path_unreached(coin_exit):
    model, dims = coin_exit
    play = mx.LassoPlay.check(model, ("s",), ("s", "b"))
    assert mx.eval_play(dims[0], play) == mx.POS_INF


def test_total_reward_cases(earn_or_exit):
    model, dims = earn_or_exit
    reach_spec, total_spec = dims
    looping = mx.LassoPlay.check(model, ("s",), ("s", "a"))
    assert mx.eval_play(total_spec, looping) == mx.POS_INF
    assert mx.eval_play(reach_spec, looping) == mx.ExtReal(0)
    leave = mx.LassoPlay.check(model, ("s", "a", "s", "a", "s", "b", "t"), ("t", "b"))
    assert mx.eval_play(total_spec, leave) == mx.ExtReal(2)
    assert mx.eval_play(reach_spec, leave) == mx.ExtReal(1)


def test_buchi_on_cycle_only(earn_or_exit):
    model, _ = earn_or_exit
    spec = mx.BuchiIndicator(frozenset({"s"}))
    leave = mx.LassoPlay.check(model, ("s", "b", "t"), ("t", "b"))
    assert mx.eval_play(spec, leave) == mx.ExtReal(0)  # s visited, but finitely often
    stay = mx.LassoPlay.check(model, ("s",), ("s", "a"))
    assert mx.eval_play(spec, stay) == mx.ExtReal(1)


def test_gated_discounted(gated_reward):
    model, dims = gated_reward
    never = mx.LassoPlay.check(model, ("s",), ("s", "b"))
    assert mx.eval_play(dims[0], never) == mx.ExtReal(0)
    for loops in range(4):
        prefix = ("s",) + ("b", "s") * loops + ("a", "t")
        play = mx.LassoPlay.check(model, prefix, ("t", "a"))
        tail = 4 * Fraction(3, 4) ** loops  # 3^l / 4^(l-1)
        assert mx.eval_play(dims[0], play).finite == 4 - tail
        assert mx.eval_play(dims[1], play).finite == tail


def test_malformed_lasso(two_discounts):
    model, _ = two_discounts
    with pytest.raises(MalformedLasso):
        mx.LassoPlay.check(model, ("s0", "a", "s1"), ("s1", "a"))  # a goes to s2
    with pytest.raises(MalformedLasso):
        mx.LassoPlay.check(model, ("s0",), ("s2", "a"))  # cycle must start at prefix end


def test_rotation_invariance(two_discounts):
    model, dims = two_discounts
    # a two-state cycle: s2 -b-> s3 ... no; use the self-loop cycle extended
    play = mx.LassoPlay.check(model, ("s0", "a", "s2"), ("s2", "a", "s2", "a"))
    for spec in dims:
        base = mx.eval_play(spec, play)
        for k in (1, 2, 3):
            assert mx.eval_play(spec, play.rotate_cycle(k)) == base


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_rotation_invariance_property(two_discounts, loops, rot):
    model, dims = two_discounts
    prefix = ("s0", "a", "s2")
    cycle = ("s2", "a") * (loops + 1)
    play = mx.LassoPlay.check(model, prefix, cycle)
    for spec in dims:
        assert mx.eval_play(spec, play.rotate_cycle(rot)) == mx.eval_play(spec, play)
