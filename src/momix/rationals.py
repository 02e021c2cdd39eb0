"""Exact rational scalars and extended-real vectors.

Everything outside the Monte-Carlo module computes with `fractions.Fraction`.
Payoff values live on the extended real line: a value is either a rational or
one of the two infinities.  Convex combinations use the convention
0 * (+inf) = 0 * (-inf) = 0; adding opposite infinities raises
:class:`momix.errors.UndefinedExpectation`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import SchemaError, UndefinedExpectation

_INF_TOKENS = {"+inf": 1, "inf": 1, "+oo": 1, "-inf": -1, "-oo": -1}

# Largest magnitude of a decimal string's exponent that `parse_rational`
# accepts.  Fraction expands 10**exponent exactly, in time that grows faster
# than the exponent: 0.009 s at 1e100000, 0.32 s at 1e1000000, 2.0 s at
# 1e3000000.
MAX_DECIMAL_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def parse_rational(text) -> Fraction:
    """Parse "p/q", "p" or a decimal string into an exact Fraction.

    Plain ints are accepted for convenience; floats are rejected so that no
    binary rounding can sneak into a model file.  A decimal string whose
    exponent exceeds MAX_DECIMAL_EXPONENT in magnitude is refused before it
    is expanded.
    """
    if isinstance(text, bool):
        raise SchemaError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, float):
        raise SchemaError(f"floats are not accepted as rationals: {text!r}")
    if not isinstance(text, str):
        raise SchemaError(f"not a rational: {text!r}")
    text = text.strip()
    exponent = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise SchemaError(f"the exponent of {text[:40]!r} exceeds the limit of "
                              f"{MAX_DECIMAL_EXPONENT:,} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction in lowest terms as "p/q" (or "p" if integral),
    exactly at any size."""
    text = ("-" if value < 0 else "") + _digits(abs(value.numerator))
    return text if value.denominator == 1 else f"{text}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """The decimal digits of n >= 0.  Past the interpreter's limit on
    int-to-str conversion (4,300 digits by default), n is split by a power
    of ten into halves that convert alone; the limit is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if not limit or n.bit_length() < 3 * limit:  # fewer than limit digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def integer_row(values: Sequence[Fraction]):
    """(ints, scale): the row times the lcm of its denominators, and that
    lcm.  Entries may be Fractions or ints."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class ExtReal:
    """A value in {-inf} + Q + {+inf}.

    Instances are immutable.  `inf` is -1, 0 or +1; `finite` is a Fraction
    and only meaningful when `inf == 0`.
    """

    __slots__ = ("inf", "finite")

    def __init__(self, value: Union[Fraction, int, str] = 0):
        if isinstance(value, str) and value.strip().lower() in _INF_TOKENS:
            object.__setattr__(self, "inf", _INF_TOKENS[value.strip().lower()])
            object.__setattr__(self, "finite", Fraction(0))
            return
        object.__setattr__(self, "inf", 0)
        object.__setattr__(self, "finite", parse_rational(value))

    def __setattr__(self, *_):
        raise AttributeError("ExtReal is immutable")

    # -- predicates ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.inf == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExtReal") -> "ExtReal":
        other = as_ext(other)
        if self.inf and other.inf and self.inf != other.inf:
            raise UndefinedExpectation("(+inf) + (-inf) is undefined")
        if self.inf:
            return self
        if other.inf:
            return other
        return ExtReal(self.finite + other.finite)

    def __neg__(self) -> "ExtReal":
        if self.inf:
            return NEG_INF if self.inf > 0 else POS_INF
        return ExtReal(-self.finite)

    def scale(self, coeff: Fraction) -> "ExtReal":
        """Multiply by a rational, with 0 * (+-inf) = 0."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return ZERO
        if self.inf:
            return self if coeff > 0 else -self
        return ExtReal(self.finite * coeff)

    # -- order ---------------------------------------------------------------

    def _key(self):
        # (-inf) < rationals < (+inf); within rationals use the usual order.
        return (self.inf, self.finite)

    def __eq__(self, other):
        other = as_ext(other)
        return self.inf == other.inf and (self.inf != 0 or self.finite == other.finite)

    def __le__(self, other):
        return self._key() <= as_ext(other)._key()

    def __lt__(self, other):
        return self._key() < as_ext(other)._key()

    def __ge__(self, other):
        return as_ext(other) <= self

    def __gt__(self, other):
        return as_ext(other) < self

    def __hash__(self):
        return hash((self.inf, self.finite))

    # -- io -------------------------------------------------------------------

    def __repr__(self):
        return f"ExtReal({str(self)})"

    def __str__(self):
        if self.inf > 0:
            return "+inf"
        if self.inf < 0:
            return "-inf"
        return format_rational(self.finite)

    def to_float(self) -> float:
        if self.inf > 0:
            return float("inf")
        if self.inf < 0:
            return float("-inf")
        return float(self.finite)

    __float__ = to_float


POS_INF = ExtReal("+inf")
NEG_INF = ExtReal("-inf")
ZERO = ExtReal(0)


def as_ext(value) -> ExtReal:
    if isinstance(value, ExtReal):
        return value
    return ExtReal(value)


def parse_ext(text) -> ExtReal:
    """Parse a rational string or the "+inf"/"-inf" sentinels."""
    return ExtReal(text)


class ExtRealVector:
    """A d-dimensional vector over the extended reals.

    Supports the component-wise (partial) order and the lexicographic (total)
    order used throughout the library, plus exact convex combinations under
    the 0 * inf = 0 convention.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable):
        object.__setattr__(self, "components", tuple(as_ext(c) for c in components))

    def __setattr__(self, *_):
        raise AttributeError("ExtRealVector is immutable")

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, ExtRealVector):
            other = ExtRealVector(other)
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    # -- orders ---------------------------------------------------------------

    def le_componentwise(self, other: "ExtRealVector") -> bool:
        other = _as_vec(other)
        return all(a <= b for a, b in zip(self.components, other.components))

    def dominates(self, other: "ExtRealVector") -> bool:
        """self >= other in every component."""
        return _as_vec(other).le_componentwise(self)

    def le_lex(self, other: "ExtRealVector") -> bool:
        other = _as_vec(other)
        for a, b in zip(self.components, other.components):
            if a != b:
                return a < b
        return True

    def lt_lex(self, other: "ExtRealVector") -> bool:
        return self != other and self.le_lex(other)

    # -- arithmetic -----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return all(c.is_finite for c in self.components)

    def to_fractions(self) -> tuple:
        """Return the components as Fractions; only valid when finite."""
        if not self.is_finite:
            raise ValueError("vector has infinite components")
        return tuple(c.finite for c in self.components)

    def to_floats(self) -> tuple:
        return tuple(c.to_float() for c in self.components)

    @staticmethod
    def combine(weights: Sequence[Fraction], vectors: Sequence["ExtRealVector"]) -> "ExtRealVector":
        """Exact convex (or affine) combination, under `scale`'s rule
        0 * (+-inf) = 0."""
        vectors = [_as_vec(v) for v in vectors]
        if not vectors:
            raise ValueError("empty combination")
        dim = len(vectors[0])
        out = []
        for j in range(dim):
            acc = ZERO
            for w, v in zip(weights, vectors):
                acc = acc + v[j].scale(w)
            out.append(acc)
        return ExtRealVector(out)

    def serialize(self) -> list:
        return [str(c) for c in self.components]


def _as_vec(v) -> ExtRealVector:
    return v if isinstance(v, ExtRealVector) else ExtRealVector(v)


def vector(*components) -> ExtRealVector:
    """Convenience constructor: vector("3/4", "3/4"), vector(1, "+inf"), ..."""
    return ExtRealVector(components)
