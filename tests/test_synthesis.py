"""Synthesis: achieve / approximate certificates, lexicographic optimization,
support reduction with extended-real components."""

import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import momix as mx
from momix import synthesis
from momix.errors import DimensionMismatch, InfeasibleApproximation, NotAchievable
from momix.evaluate import Pool

from conftest import MODELS, earn_or_exit_stay, earn_or_exit_leave, grid_randomized


@pytest.fixture(scope="module")
def gated_reward_pool(gated_reward):
    model, dims = gated_reward
    return mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4))


@pytest.fixture(scope="module")
def split_reach_pool(split_reach):
    model, dims = split_reach
    return mx.pure_payoff_set(model, "s0", dims, mx.memoryless(model))


def test_targets_of_the_wrong_dimension_are_refused(split_reach_pool):
    points = [v.to_fractions() for _s, v in split_reach_pool]
    too_long = mx.vector(0, 0, 0)
    with pytest.raises(DimensionMismatch):
        mx.achieve(too_long, split_reach_pool, mode="dominates")
    with pytest.raises(DimensionMismatch):
        mx.dominating_face_decomposition(too_long.to_fractions(), points, mode="dominated")
    with pytest.raises(DimensionMismatch):
        mx.approximate(mx.vector(0), Fraction(1, 10), 10, split_reach_pool)
    # a certificate whose realized vector is longer than its target fails its check
    cert = mx.approximate(mx.vector(1, 0), Fraction(1, 10), 10, split_reach_pool)
    assert cert.verify()
    short = mx.MixtureCertificate(cert.mixture, cert.realized, cert.relation, mx.vector(1))
    assert not short.verify()


def test_achieve_gated_reward_target(gated_reward, gated_reward_pool):
    model, dims = gated_reward
    cert = mx.achieve(mx.vector(2, 2), gated_reward_pool, mode="equals")
    assert len(cert.mixture.support) == 2
    assert cert.realized == mx.vector(2, 2)
    assert sorted(cert.mixture.weights) == [Fraction(4, 9), Fraction(5, 9)]
    assert cert.verify()
    # the support members realize the face points (7/4, 9/4) and (37/16, 27/16)
    member_vectors = {mx.expected_payoff(model, s, "s", dims) for s in cert.mixture.support}
    assert member_vectors == {mx.vector(Fraction(7, 4), Fraction(9, 4)),
                              mx.vector(Fraction(37, 16), Fraction(27, 16))}


def test_achieve_pure_vector_dirac(split_reach_pool):
    cert = mx.achieve(mx.vector(Fraction(3, 4), Fraction(3, 4)), split_reach_pool, mode="equals")
    assert len(cert.mixture.support) == 1
    assert cert.mixture.weights == (Fraction(1),)


def test_achieve_above_frontier(split_reach_pool):
    with pytest.raises(NotAchievable):
        mx.achieve(mx.vector(2, 2), split_reach_pool)


def test_achieve_dominates_two_discounts(two_discounts):
    model, dims = two_discounts
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 6))
    cert = mx.achieve(mx.vector(3, 1), pool, mode="dominates")
    assert len(cert.mixture.support) <= 2
    assert cert.realized.dominates(mx.vector(3, 1))
    with pytest.raises(NotAchievable):
        mx.achieve(mx.vector(6, 3), pool, mode="dominates")


def test_corrupted_certificate_raises_under_optimize():
    """The recombination re-check is not an assert: it still runs under -O."""
    script = textwrap.dedent(f"""
        import momix as mx
        assert not __debug__, "run with python -O"
        with open({os.path.join(MODELS, "two_discounts.json")!r}) as fh:
            model, dims = mx.load_problem(fh.read())
        pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 6))
        mx.ExtRealVector.combine = staticmethod(lambda weights, vectors: mx.vector(0, 0))
        try:
            mx.achieve(mx.vector(3, 1), pool, mode="dominates")
        except mx.SelfCheckFailed as exc:
            print("raised:", exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mx.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: exact recombination check failed")


def _three_members(earn_or_exit):
    """A mixture of three members at 1, 2 and 3, and their vectors."""
    members = [earn_or_exit_leave(earn_or_exit[0], r) for r in range(3)]
    return (mx.FiniteMixture.of([(s, Fraction(1, 3)) for s in members]),
            [mx.vector(k) for k in (1, 2, 3)])


# id: (object, attribute, fault, call, message); the fault replaces the one call
# whose answer the check re-checks
SYNTHESIS_FAULTS = {
    "recombination": (
        mx.ExtRealVector, "combine", staticmethod(lambda weights, vectors: mx.vector(0, 0)),
        lambda pool, earn_or_exit: mx.achieve(mx.vector(Fraction(3, 4), Fraction(3, 4)), pool),
        "exact recombination check failed"),
    "reduced-support": (
        synthesis, "caratheodory",
        lambda q, points: mx.Decomposition((0, 1, 2), (Fraction(1, 3),) * 3),
        lambda pool, earn_or_exit: mx.reduce_support(*_three_members(earn_or_exit)),
        "support reduction kept 3 > d + 1 members"),
}


@pytest.mark.parametrize("owner, name, fault, call, message", SYNTHESIS_FAULTS.values(),
                         ids=SYNTHESIS_FAULTS)
def test_synthesis_self_checks_catch_a_faulty_answer(owner, name, fault, call, message,
                                                      split_reach_pool, earn_or_exit, monkeypatch):
    """Each self-check of `synthesis` raises SelfCheckFailed when the one
    call it re-checks answers wrongly."""
    call(split_reach_pool, earn_or_exit)
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(mx.SelfCheckFailed, match=f"^{re.escape(message)}$"):
        call(split_reach_pool, earn_or_exit)


def test_approximate_earn_or_exit(earn_or_exit):
    model, dims = earn_or_exit
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 12))
    for big_m in (Fraction(5), Fraction(10)):
        cert = mx.approximate(mx.vector(1, "+inf"), Fraction(1, 10), big_m, pool)
        assert cert.verify()
        assert cert.realized[0] == mx.ExtReal(1)  # exactly 1, not within-eps only
        assert cert.realized[1] >= mx.ExtReal(big_m)


def test_approximate_all_finite_reduces_to_achieve(split_reach_pool):
    target = mx.vector(Fraction(3, 4), Fraction(3, 4))
    cert = mx.approximate(target, Fraction(1, 100), Fraction(1), split_reach_pool)
    assert cert.verify()
    for got, want in zip(cert.realized, target):
        assert abs(got.finite - want.finite) <= Fraction(1, 100)


@pytest.mark.parametrize("eps, big_m, message", [(0, 10, "eps must be positive"),
                                                  (Fraction(1, 10), 0, "M must be positive"),
                                                  (Fraction(1, 10), -3, "M must be positive")],
                         ids=["eps-zero", "M-zero", "M-negative"])
def test_approximate_rejects_nonpositive_eps_and_m(split_reach_pool, eps, big_m, message):
    with pytest.raises(ValueError, match=message):
        mx.approximate(mx.vector(1, "+inf"), eps, big_m, split_reach_pool)


# id: (call on the split_reach pool, message)
BAD_SYNTHESIS_INPUTS = {
    "achieve-infinite": (lambda pool: mx.achieve(mx.vector(1, "+inf"), pool),
                         "achieve needs a finite target; use approximate"),
    "achieve-mode": (lambda pool: mx.achieve(mx.vector(0, 0), pool, mode="approximates"),
                     "mode must be 'equals' or 'dominates'"),
    "lexopt-empty": (lambda pool: mx.lex_optimize([]), "pool is empty"),
    "reduce-vectors": (lambda pool: mx.reduce_support(
        mx.FiniteMixture.of([(pool[0][0], 1)]), [pool[0][1], pool[1][1]]),
                       "one vector per support member is required"),
}


@pytest.mark.parametrize("call, message", BAD_SYNTHESIS_INPUTS.values(), ids=BAD_SYNTHESIS_INPUTS)
def test_bad_synthesis_inputs_are_refused(split_reach_pool, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(split_reach_pool)


def test_approximate_infeasible_without_witnesses(earn_or_exit):
    model, dims = earn_or_exit
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 2))
    # (+inf, -inf) has neither a -inf witness nor finite members below -M
    with pytest.raises(InfeasibleApproximation):
        mx.approximate(mx.vector("+inf", "-inf"), Fraction(1, 10), Fraction(10), pool)


def test_approximate_uses_witness_when_finite_pool_cannot(earn_or_exit):
    """With only small pure members, the +inf dimension needs the always-a
    witness; the reach dimension then sits within eps of 1."""
    model, dims = earn_or_exit
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 3))
    # members reach at most (1, 3); M = 10 forces mixing the (0, +inf) witness
    eps = Fraction(1, 10)
    cert = mx.approximate(mx.vector(1, "+inf"), eps, Fraction(10), pool)
    assert cert.verify()
    assert cert.realized[1] == mx.POS_INF
    assert abs(cert.realized[0].finite - 1) <= eps


# -- lexicographic ----------------------------------------------------------------------


def test_lexopt_split_reach(split_reach, split_reach_pool):
    result = mx.lex_optimize(split_reach_pool)
    assert result.vector == mx.vector(1, 0)
    assert result.certified


def test_lexopt_split_reach_reversed(split_reach):
    model, dims = split_reach
    swapped = (dims[1], dims[0])
    pool = mx.pure_payoff_set(model, "s0", swapped, mx.memoryless(model))
    result = mx.lex_optimize(pool)
    assert result.vector == mx.vector(1, 0)
    assert mx.expected_payoff(model, result.strategy, "s0", dims) == mx.vector(0, 1)


def test_lexopt_earn_or_exit_pools(earn_or_exit):
    model, dims = earn_or_exit
    for n in (2, 4, 8):
        pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, n))
        result = mx.lex_optimize(pool)
        assert result.vector == mx.vector(1, n)  # never (1, +inf)


def test_lexopt_tie_breaks_to_first(split_reach, split_reach_pool):
    doubled = list(split_reach_pool) + list(split_reach_pool)
    result = mx.lex_optimize(doubled)
    assert result.winner_index < len(split_reach_pool)


def test_check_pure_dominates_lex(split_reach, split_reach_pool):
    """The pool's lexicographic maximum is a pure strategy whose vector is
    lex-greater-or-equal to a mixture's."""
    model, dims = split_reach
    mix = mx.FiniteMixture.of([(split_reach_pool[0][0], Fraction(1, 3)),
                               (split_reach_pool[2][0], Fraction(2, 3))])
    v = mx.mixed_expected_payoff(model, mix, "s0", dims)
    top = mx.lex_optimize(split_reach_pool)
    assert v.le_lex(top.vector)
    assert not mx.vector(2, 2).le_lex(top.vector)


def test_lex_dominance_random_behavioural(split_reach):
    """Theorem check at pool scale: a randomized strategy never lex-beats
    every pure strategy (bounded payoffs)."""
    model, dims = split_reach
    top = mx.lex_optimize(mx.pure_payoff_set(model, "s0", dims, mx.memoryless(model))).vector
    rng = random.Random(123)
    for _ in range(50):
        sigma = grid_randomized(model, mx.memoryless(model), rng)
        v = mx.expected_payoff(model, sigma, "s0", dims)
        assert v.le_lex(top)


# -- support reduction -------------------------------------------------------------------


def test_reduce_support_finite_random(split_reach):
    model, dims = split_reach
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 2))
    rng = random.Random(55)
    for _ in range(25):
        members = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(4, 8))]
        # de-duplicate strategies (mixture supports are lists of objects)
        seen = set()
        chosen = []
        for s, v in members:
            if id(s) not in seen:
                seen.add(id(s))
                chosen.append((s, v))
        raw = [rng.randint(1, 5) for _ in chosen]
        total = sum(raw)
        mix = mx.FiniteMixture.of([(s, Fraction(r, total)) for (s, _v), r in zip(chosen, raw)])
        vectors = [v for _s, v in chosen]
        realized = mx.ExtRealVector.combine(mix.weights, vectors)
        reduced = mx.reduce_support(mix, vectors)
        assert len(reduced.support) <= 3  # d + 1 with d = 2
        kept = [vectors[[s for s, _v in chosen].index(m)] for m in reduced.support]
        assert mx.ExtRealVector.combine(reduced.weights, kept) == realized


def test_reduce_support_dirac_unchanged(earn_or_exit):
    model, dims = earn_or_exit
    sigma = earn_or_exit_leave(model, 2)
    mix = mx.FiniteMixture.dirac(sigma)
    vec = mx.expected_payoff(model, sigma, "s", dims)
    assert mx.reduce_support(mix, [vec]) is mix


def test_reduce_support_with_every_coordinate_infinite(earn_or_exit):
    """Five members realize (-inf, +inf): the first witness of each infinite
    coordinate keeps its weight, renormalized, and the rest is dropped."""
    members = [earn_or_exit_leave(earn_or_exit[0], r) for r in range(5)]
    vectors = [mx.ExtRealVector(v) for v in ([mx.NEG_INF, 0], [3, mx.POS_INF], [1, 1], [2, 2],
                                             [0, 5])]
    mix = mx.FiniteMixture.of([(s, Fraction(1, 5)) for s in members])
    realized = mx.ExtRealVector.combine(mix.weights, vectors)
    assert realized == mx.ExtRealVector([mx.NEG_INF, mx.POS_INF])
    reduced = mx.reduce_support(mix, vectors)
    assert reduced.support == tuple(members[:2])
    assert reduced.weights == (Fraction(1, 2), Fraction(1, 2))
    assert mx.ExtRealVector.combine(reduced.weights, vectors[:2]) == realized


def test_reduce_support_with_infinite_component(earn_or_exit):
    model, dims = earn_or_exit
    members = [earn_or_exit_leave(model, r) for r in range(4)] + [earn_or_exit_stay(model)]
    vectors = [mx.expected_payoff(model, s, "s", dims) for s in members]
    weights = [Fraction(1, 8), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8), Fraction(1, 2)]
    mix = mx.FiniteMixture.of(list(zip(members, weights)))
    realized = mx.ExtRealVector.combine(weights, vectors)
    assert realized == mx.ExtRealVector([mx.ExtReal(Fraction(1, 2)), mx.POS_INF])
    reduced = mx.reduce_support(mix, vectors)
    assert len(reduced.support) <= 3
    kept = [vectors[members.index(m)] for m in reduced.support]
    assert mx.ExtRealVector.combine(reduced.weights, kept) == realized
    # the infinite witness must keep positive weight
    assert any(vectors[members.index(m)][1] == mx.POS_INF for m in reduced.support)


def test_both_paths_take_the_first_of_two_infinite_witnesses(earn_or_exit):
    """Members 1 and 2 are both +inf in the first dimension; `approximate`
    and `reduce_support` share one witness rule and both take member 1.
    In `approximate` the finite sub-mixture puts no weight on member 1, so
    member 1 carries exactly the witness weight eta = 1/16; in
    `reduce_support` the witness comes first and keeps its weight."""
    members = [earn_or_exit_leave(earn_or_exit[0], r) for r in range(5)]
    vectors = [mx.ExtRealVector(v) for v in ([1, 1], [mx.POS_INF, 0], [mx.POS_INF, 2], [0, 1],
                                             [2, 1])]
    cert = mx.approximate(mx.vector("+inf", 1), Fraction(1, 10), Fraction(10),
                          Pool(list(zip(members, vectors))))
    assert cert.mixture.support == tuple(members[:3])
    assert cert.mixture.weights == (Fraction(29, 32), Fraction(1, 16), Fraction(1, 32))
    mix = mx.FiniteMixture.of([(s, Fraction(1, 5)) for s in members])
    reduced = mx.reduce_support(mix, vectors)
    assert reduced.support == (members[1], members[0], members[2])
    assert reduced.weights == (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))


def test_one_witness_covers_two_infinite_dimensions(earn_or_exit):
    """Member 1 is +inf in both infinite dimensions, so it witnesses both:
    `approximate` mixes it in once, at eta = 1/16, and `reduce_support`
    keeps it once, at its weight 1/6, beside a Caratheodory pair for the
    finite dimension."""
    members = [earn_or_exit_leave(earn_or_exit[0], r) for r in range(6)]
    vectors = [mx.ExtRealVector(v) for v in ([0, 0, 1], [mx.POS_INF, mx.POS_INF, 0], [1, 2, 2],
                                             [2, 1, 0], [0, 3, 1], [1, 1, 3])]
    cert = mx.approximate(mx.vector("+inf", "+inf", 1), Fraction(1, 10), Fraction(10),
                          Pool(list(zip(members, vectors))))
    assert cert.mixture.support == tuple(members[:3])
    assert cert.mixture.weights == (Fraction(29, 32), Fraction(1, 16), Fraction(1, 32))
    assert cert.realized == mx.vector("+inf", "+inf", Fraction(31, 32))
    mix = mx.FiniteMixture.of([(s, Fraction(1, 6)) for s in members])
    reduced = mx.reduce_support(mix, vectors)
    assert reduced.support == (members[1], members[0], members[2])
    assert reduced.weights == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))


def test_verify_refuses_every_relation_that_fails(split_reach_pool):
    """`verify` holds exactly when the relation does, for each kind, and a
    target of another length fails every kind."""
    mixture = mx.FiniteMixture.dirac(split_reach_pool[0][0])

    def holds(realized, relation, target):
        return mx.MixtureCertificate(mixture, mx.ExtRealVector(realized), relation,
                                     mx.ExtRealVector(target)).verify()

    tenth = ("approximates", Fraction(1, 10), Fraction(10))
    assert holds([1, 2], ("equals",), [1, 2]) and not holds([1, 2], ("equals",), [1, 3])
    assert holds([1, 2], ("dominates",), [1, 1]) and not holds([1, 2], ("dominates",), [1, 3])
    assert holds([1, 10, -10], tenth, [Fraction(11, 10), mx.POS_INF, mx.NEG_INF])
    for realized, target in (([1], [Fraction(6, 5)]), ([mx.POS_INF], [1]),
                             ([9], [mx.POS_INF]), ([-9], [mx.NEG_INF])):
        assert not holds(realized, tenth, target)
    for relation in (("equals",), ("dominates",), tenth):
        assert not holds([1, 2], relation, [1, 2, 3])
        assert not holds([1, 2, 3], relation, [1, 2])
