"""Payoff catalog and its loader.

Supported payoff kinds (one per dimension of a multi-payoff):

* ``ReachIndicator(target)``           -- 1 if the target set is visited
* ``BuchiIndicator(target)``           -- 1 if the target is visited infinitely often
* ``DiscountedSum(discount, weights)`` -- sum of lambda^l * w(s_l, a_l)
* ``ReachGatedDiscountedSum``          -- indicator(reach) * discounted sum
* ``TotalRewardNonNeg(weights)``       -- liminf of partial sums, weights >= 0
* ``ShortestPath(target, weights)``    -- accumulated weight up to the first
  visit of the target, +inf if the target is never visited (weights >= 0)

The kinds are plain data: `payoff_from_dict` checks each field as it reads
it (target, then lambda, then weights) and raises SchemaError at the first
fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple, Union

from .errors import SchemaError
from .model import Pomdp, WeightFunction, model_from_dict, read_json, require_field
from .rationals import format_rational, parse_rational


# -- payoff kinds ---------------------------------------------------------------


@dataclass(frozen=True)
class ReachIndicator:
    target: frozenset


@dataclass(frozen=True)
class BuchiIndicator:
    target: frozenset


@dataclass(frozen=True)
class DiscountedSum:
    discount: Fraction
    weights: WeightFunction


@dataclass(frozen=True)
class ReachGatedDiscountedSum:
    target: frozenset
    discount: Fraction
    weights: WeightFunction


@dataclass(frozen=True)
class TotalRewardNonNeg:
    weights: WeightFunction


@dataclass(frozen=True)
class ShortestPath:
    target: frozenset
    weights: WeightFunction


PayoffSpec = Union[ReachIndicator, BuchiIndicator, DiscountedSum,
                   ReachGatedDiscountedSum, TotalRewardNonNeg, ShortestPath]

#: A multi-payoff is an ordered tuple of payoff dimensions.
MultiPayoff = Tuple[PayoffSpec, ...]


# -- payoff (de)serialization ------------------------------------------------------

_KIND_NAMES = ("reach", "buchi", "discounted_sum", "reach_gated_discounted_sum", "total_reward",
               "shortest_path")


def payoff_from_dict(model: Pomdp, entry: Mapping) -> PayoffSpec:
    if not isinstance(entry, dict):
        raise SchemaError(f"a payoff must be an object, got {entry!r}")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_NAMES:
        raise SchemaError(f"unknown payoff kind {kind!r}")

    def target():
        states = require_field(entry, "target", list)
        if not all(isinstance(s, str) for s in states):
            raise SchemaError(f"the target of payoff kind {kind!r} must list state identifiers")
        unknown = set(states) - set(model.states)
        if unknown:
            raise SchemaError(f"target references unknown states {sorted(unknown)}")
        return frozenset(states)

    def discount():
        if "lambda" not in entry:
            raise SchemaError(f"payoff kind {kind!r} needs a 'lambda'")
        value = parse_rational(entry["lambda"])
        if not 0 <= value < 1:
            raise SchemaError(f"discount factor {format_rational(value)} outside [0, 1)")
        return value

    def weights(nonneg=False):
        name = entry.get("weights")
        if not isinstance(name, str):
            raise SchemaError(f"payoff kind {kind!r} needs a 'weights' name")
        index = entry.get("windex", 0)
        if type(index) is not int or index < 0:
            raise SchemaError(f"windex must be a non-negative integer, got {index!r}")
        function = model.weight_function(name, index)
        for pair in model.enabled_pairs():
            if pair not in function.table:
                raise SchemaError(f"weight {function.name!r} missing enabled pair {pair}")
        if nonneg and any(v < 0 for v in function.table.values()):
            raise SchemaError(f"weight {function.name!r} must be non-negative for this payoff")
        return function

    if kind == "reach":
        return ReachIndicator(target())
    if kind == "buchi":
        return BuchiIndicator(target())
    if kind == "discounted_sum":
        return DiscountedSum(discount(), weights())
    if kind == "reach_gated_discounted_sum":
        return ReachGatedDiscountedSum(target(), discount(), weights())
    if kind == "total_reward":
        return TotalRewardNonNeg(weights(nonneg=True))
    return ShortestPath(target(), weights(nonneg=True))


def load_problem(text: str):
    """Convenience: parse a document into (model, multi-payoff or None)."""
    doc = read_json(text)
    model = model_from_dict(doc)
    dims = tuple(payoff_from_dict(model, e) for e in require_field(doc, "payoffs", list, []))
    return model, (dims if dims else None)
