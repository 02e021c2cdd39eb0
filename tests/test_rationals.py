"""Extended reals: the 0 * inf = 0 convention of combinations, affine
combinations through infinities, the order, printing and immutability of
ExtReal and ExtRealVector, and the vectors they refuse."""

import math
from fractions import Fraction

import pytest

import momix as mx
from momix.rationals import ExtReal


@pytest.mark.parametrize("infinity", ["+inf", "-inf"])
def test_zero_weight_on_an_infinite_component_counts_zero(infinity):
    """0 * (+-inf) = 0: a member of weight 0 adds nothing, even where its
    vector is infinite, before or after the member that carries the mass."""
    finite = mx.vector(Fraction(1, 2), 3)
    infinite = mx.vector(infinity, 7)
    assert mx.ExtRealVector.combine([1, 0], [finite, infinite]) == finite
    assert mx.ExtRealVector.combine([0, 1], [infinite, finite]) == finite
    assert ExtReal(infinity).scale(0) == 0


def test_affine_combinations_negate_infinities():
    """A negative weight turns +inf into -inf and back; a finite value is
    scaled as a rational."""
    vectors = [mx.vector(1, "+inf", 0), mx.vector(1, "-inf", "+inf")]
    assert mx.ExtRealVector.combine([2, -1], vectors) == mx.vector(1, "+inf", "-inf")
    assert -mx.POS_INF == mx.NEG_INF and -mx.NEG_INF == mx.POS_INF
    assert -ExtReal("3/4") == ExtReal("-3/4")


@pytest.mark.parametrize("value, field", [(ExtReal(1), "inf"), (ExtReal(1), "finite"),
                                          (mx.vector(1, 2), "components")],
                         ids=["inf", "finite", "components"])
def test_extended_reals_are_immutable(value, field):
    with pytest.raises(AttributeError, match="is immutable$"):
        setattr(value, field, 0)


def test_order_printing_and_floats():
    assert ExtReal(2) > 1 and mx.POS_INF > ExtReal(10 ** 9) and not mx.NEG_INF > -(10 ** 9)
    assert repr(ExtReal("-1/3")) == "ExtReal(-1/3)" and repr(mx.POS_INF) == "ExtReal(+inf)"
    assert float(mx.POS_INF) == math.inf and mx.NEG_INF.to_float() == -math.inf
    assert mx.vector(1, "+inf").to_floats() == (1.0, math.inf)
    assert mx.vector(1, "+inf") == [1, "+inf"] and mx.vector(1, 2) != (1, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: mx.vector(1, "-inf").to_fractions(), "vector has infinite components"),
    (lambda: mx.ExtRealVector.combine([], []), "empty combination"),
], ids=["to-fractions", "empty-combination"])
def test_bad_vectors_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
