"""Payoff catalog and play-level evaluation.

Supported payoff kinds (one per dimension of a multi-payoff):

* ``ReachIndicator(target)``           -- 1 if the target set is visited
* ``BuchiIndicator(target)``           -- 1 if the target is visited infinitely often
* ``DiscountedSum(discount, weights)`` -- sum of lambda^l * w(s_l, a_l)
* ``ReachGatedDiscountedSum``          -- indicator(reach) * discounted sum
* ``TotalRewardNonNeg(weights)``       -- liminf of partial sums, weights >= 0
* ``ShortestPath(target, weights)``    -- accumulated weight up to the first
  visit of the target, +inf if the target is never visited (weights >= 0)

Concrete plays are ultimately periodic ("lasso") plays: a finite prefix
followed by a repeated cycle.  Every play of a finite model induced by a
pure finite-memory strategy with deterministic transitions has this shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Sequence, Tuple, Union

from .errors import MalformedHistory, MalformedLasso, ParseError, SchemaError, UnsupportedKind
from .model import Pomdp, WeightFunction, model_from_dict, require_field
from .rationals import ExtReal, POS_INF, ZERO, parse_rational


# -- payoff kinds ---------------------------------------------------------------


@dataclass(frozen=True)
class ReachIndicator:
    target: frozenset

    def validate(self, model: Pomdp):
        _check_target(model, self.target)


@dataclass(frozen=True)
class BuchiIndicator:
    target: frozenset

    def validate(self, model: Pomdp):
        _check_target(model, self.target)


@dataclass(frozen=True)
class DiscountedSum:
    discount: Fraction
    weights: WeightFunction

    def validate(self, model: Pomdp):
        _check_discount(self.discount)
        _check_weights(model, self.weights)


@dataclass(frozen=True)
class ReachGatedDiscountedSum:
    target: frozenset
    discount: Fraction
    weights: WeightFunction

    def validate(self, model: Pomdp):
        _check_target(model, self.target)
        _check_discount(self.discount)
        _check_weights(model, self.weights)


@dataclass(frozen=True)
class TotalRewardNonNeg:
    weights: WeightFunction

    def validate(self, model: Pomdp):
        _check_weights(model, self.weights, nonneg=True)


@dataclass(frozen=True)
class ShortestPath:
    target: frozenset
    weights: WeightFunction

    def validate(self, model: Pomdp):
        _check_target(model, self.target)
        _check_weights(model, self.weights, nonneg=True)


PayoffSpec = Union[ReachIndicator, BuchiIndicator, DiscountedSum,
                   ReachGatedDiscountedSum, TotalRewardNonNeg, ShortestPath]

#: A multi-payoff is an ordered tuple of payoff dimensions.
MultiPayoff = Tuple[PayoffSpec, ...]


def _check_target(model, target):
    unknown = set(target) - set(model.states)
    if unknown:
        raise SchemaError(f"target references unknown states {sorted(unknown)}")


def _check_discount(discount):
    if not (0 <= discount < 1):
        raise SchemaError(f"discount factor {discount} outside [0, 1)")


def _check_weights(model, weights: WeightFunction, nonneg=False):
    for pair in model.enabled_pairs():
        if pair not in weights.table:
            raise SchemaError(f"weight {weights.name!r} missing enabled pair {pair}")
    if nonneg and any(v < 0 for v in weights.table.values()):
        raise SchemaError(f"weight {weights.name!r} must be non-negative for this payoff")


# -- payoff (de)serialization ------------------------------------------------------

_KIND_NAMES = {
    "reach": ReachIndicator,
    "buchi": BuchiIndicator,
    "discounted_sum": DiscountedSum,
    "reach_gated_discounted_sum": ReachGatedDiscountedSum,
    "total_reward": TotalRewardNonNeg,
    "shortest_path": ShortestPath,
}


def payoff_from_dict(model: Pomdp, entry: Mapping) -> PayoffSpec:
    if not isinstance(entry, dict):
        raise SchemaError(f"a payoff must be an object, got {entry!r}")
    kind = entry.get("kind")
    if kind not in _KIND_NAMES:
        raise SchemaError(f"unknown payoff kind {kind!r}")

    def target():
        states = require_field(entry, "target", list, [])
        if not all(isinstance(s, str) for s in states):
            raise SchemaError(f"the target of payoff kind {kind!r} must list state identifiers")
        return frozenset(states)

    def discount():
        if "lambda" not in entry:
            raise SchemaError(f"payoff kind {kind!r} needs a 'lambda'")
        return parse_rational(entry["lambda"])

    def weights():
        name = entry.get("weights")
        if not isinstance(name, str):
            raise SchemaError(f"payoff kind {kind!r} needs a 'weights' name")
        index = entry.get("windex", 0)
        if type(index) is not int or index < 0:
            raise SchemaError(f"windex must be a non-negative integer, got {index!r}")
        return model.weight_function(name, index)

    if kind == "reach":
        spec = ReachIndicator(target())
    elif kind == "buchi":
        spec = BuchiIndicator(target())
    elif kind == "discounted_sum":
        spec = DiscountedSum(discount(), weights())
    elif kind == "reach_gated_discounted_sum":
        spec = ReachGatedDiscountedSum(target(), discount(), weights())
    elif kind == "total_reward":
        spec = TotalRewardNonNeg(weights())
    else:
        spec = ShortestPath(target(), weights())
    spec.validate(model)
    return spec


def load_problem(text: str):
    """Convenience: parse a document into (model, multi-payoff or None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    model = model_from_dict(doc)
    dims = tuple(payoff_from_dict(model, e) for e in require_field(doc, "payoffs", list, []))
    return model, (dims if dims else None)


# -- lasso plays ------------------------------------------------------------------


@dataclass(frozen=True)
class LassoPlay:
    """An ultimately periodic play: prefix (s0 a0 ... s_m) followed by the
    cycle (s_m b0 t1 b1 ... b_{r-1}) repeated forever.  The prefix ends at
    the state the cycle starts in; the last cycle action returns to it.
    """

    prefix: Tuple[str, ...]  # odd length: s a s ... s
    cycle: Tuple[str, ...]   # even length: s b t b ... b

    @staticmethod
    def check(model: Pomdp, prefix: Sequence[str], cycle: Sequence[str]) -> "LassoPlay":
        prefix = tuple(prefix)
        cycle = tuple(cycle)
        if len(prefix) % 2 == 0 or not prefix:
            raise MalformedLasso("prefix must alternate s a s ... s")
        if len(cycle) % 2 != 0 or not cycle:
            raise MalformedLasso("cycle must be non-empty and alternate s b ... b")
        if cycle[0] != prefix[-1]:
            raise MalformedLasso("cycle must start at the last prefix state")
        play = LassoPlay(prefix, cycle)
        for s, a, t in play.transition_triples():
            if (s, a) not in model.transitions:
                raise MalformedLasso(f"action {a} disabled in {s}")
            if model.dist(s, a).get(t, Fraction(0)) <= 0:
                raise MalformedLasso(f"transition {s} -{a}-> {t} has probability 0")
        return play

    # prefix steps are the (state, action) pairs strictly before the cycle
    def prefix_steps(self) -> List[Tuple[str, str]]:
        return [(self.prefix[i], self.prefix[i + 1]) for i in range(0, len(self.prefix) - 1, 2)]

    def cycle_steps(self) -> List[Tuple[str, str]]:
        return [(self.cycle[i], self.cycle[i + 1]) for i in range(0, len(self.cycle), 2)]

    def cycle_states(self) -> Tuple[str, ...]:
        return self.cycle[0::2]

    def prefix_states(self) -> Tuple[str, ...]:
        return self.prefix[0::2]

    def transition_triples(self):
        """All (s, a, s') transitions of one unrolling (prefix + one cycle pass)."""
        seq = list(self.prefix) + list(self.cycle[1:]) + [self.cycle[0]]
        for i in range(0, len(seq) - 2, 2):
            yield seq[i], seq[i + 1], seq[i + 2]

    def rotate_cycle(self, k: int) -> "LassoPlay":
        """Same play, with the lasso split point moved k cycle steps later."""
        steps = self.cycle_steps()
        k %= len(steps)
        if k == 0:
            return self
        new_prefix = list(self.prefix)
        for i in range(k):
            _, a = steps[i]
            new_prefix += [a, steps[(i + 1) % len(steps)][0]]
        new_cycle: List[str] = []
        for s, a in steps[k:] + steps[:k]:
            new_cycle += [s, a]
        return LassoPlay(tuple(new_prefix), tuple(new_cycle))


def eval_play(spec: PayoffSpec, play: LassoPlay) -> ExtReal:
    """Closed-form payoff of an ultimately periodic play."""
    if isinstance(spec, ReachIndicator):
        hit = any(s in spec.target for s in play.prefix_states() + play.cycle_states())
        return ExtReal(1 if hit else 0)

    if isinstance(spec, BuchiIndicator):
        # the states visited infinitely often are exactly the cycle states
        return ExtReal(1 if any(s in spec.target for s in play.cycle_states()) else 0)

    if isinstance(spec, DiscountedSum):
        return ExtReal(_discounted_value(spec.discount, spec.weights, play))

    if isinstance(spec, ReachGatedDiscountedSum):
        gate = eval_play(ReachIndicator(spec.target), play)
        if gate == ZERO:
            return ZERO
        return ExtReal(_discounted_value(spec.discount, spec.weights, play))

    if isinstance(spec, TotalRewardNonNeg):
        if any(spec.weights(s, a) > 0 for s, a in play.cycle_steps()):
            return POS_INF
        total = sum((spec.weights(s, a) for s, a in play.prefix_steps()), Fraction(0))
        return ExtReal(total)

    if isinstance(spec, ShortestPath):
        acc = Fraction(0)
        for s, a in play.prefix_steps() + play.cycle_steps():
            if s in spec.target:
                return ExtReal(acc)
            acc += spec.weights(s, a)
        # one more chance: the cycle closes on its first state
        if play.cycle_states()[0] in spec.target:
            return ExtReal(acc)
        return POS_INF

    raise UnsupportedKind(type(spec).__name__)


def _discounted_value(discount: Fraction, weights: WeightFunction, play: LassoPlay) -> Fraction:
    lam = Fraction(discount)
    value = Fraction(0)
    power = Fraction(1)
    for s, a in play.prefix_steps():
        value += power * weights(s, a)
        power *= lam
    cycle_sum = Fraction(0)
    cpow = Fraction(1)
    for s, a in play.cycle_steps():
        cycle_sum += cpow * weights(s, a)
        cpow *= lam
    r = len(play.cycle_steps())
    value += power * cycle_sum / (1 - lam ** r)
    return value


# -- histories ---------------------------------------------------------------------


def check_history(model: Pomdp, history: Sequence[str]) -> Tuple[str, ...]:
    history = tuple(history)
    if len(history) % 2 == 0 or not history:
        raise MalformedHistory("a history alternates s a s ... s")
    for i in range(0, len(history) - 2, 2):
        s, a, t = history[i], history[i + 1], history[i + 2]
        if (s, a) not in model.transitions:
            raise MalformedHistory(f"action {a} disabled in {s}")
        if model.dist(s, a).get(t, Fraction(0)) <= 0:
            raise MalformedHistory(f"transition {s} -{a}-> {t} has probability 0")
    if history[0] not in model.states:
        raise MalformedHistory(f"unknown state {history[0]}")
    return history
