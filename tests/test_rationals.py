"""Extended reals: the 0 * inf = 0 convention of combinations, affine
combinations through infinities, the order, printing and immutability of
ExtReal and ExtRealVector, the vectors they refuse, and parse_rational
against Fraction(str)."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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


# -- parsing: the int route for "p/q" numerals against Fraction(str) -------------------

_DIGITS = st.text("0123456789", min_size=1, max_size=12)
_PLAIN = st.builds(lambda sign, p, q: sign + p + q, st.sampled_from(["", "-"]), _DIGITS,
                   st.one_of(st.just(""), _DIGITS.map("/".__add__)))
_NUMERALS = st.one_of(
    _PLAIN,
    st.builds("{}{}{}".format, st.sampled_from([" ", "\t", "\n "]), _PLAIN,
              st.sampled_from(["", " ", "\r\n"])),  # whitespace around
    _PLAIN.map("+".__add__),  # a plus sign
    st.builds("{}_{}".format, _DIGITS, _PLAIN),  # underscores
    _PLAIN.map(lambda s: s.replace("/", " / ")),  # spaces around the slash
    st.builds("{}.{}".format, _PLAIN, _DIGITS),  # decimals
    st.builds("{}e{}".format, _PLAIN, st.integers(-300, 300)),  # exponents
    _PLAIN.map(lambda s: s.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),  # non-ASCII
    _PLAIN.map(lambda s: s.split("/")[0] + "/0"),  # a zero denominator
    st.builds(lambda n, den: "7" * n + den, st.integers(4290, 4310),  # past int()'s limit
              st.sampled_from(["", "/3"])),
    st.text("0123456789-+/._ ", max_size=12),  # anything else
)


@given(_NUMERALS)
@example("-12/30")
@example(" 3/4\n")
@example("+5")
@example("1_000/3")
@example("1 / 2")
@example("-2.50")
@example("15E-1")
@example("١/٢")
@example("7/0")
@example("7" * 4301 + "/3")
@example("1/-2")
def test_numerals_parse_as_fraction_does(text):
    """`parse_rational` gives what `Fraction(str)` gives, and a SchemaError
    naming the stripped text where `Fraction(str)` refuses the string."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(mx.SchemaError) as refused:
            mx.parse_rational(text)
        assert str(refused.value) == f"malformed rational {text.strip()!r}"
    else:
        parsed = mx.parse_rational(text)
        assert type(parsed) is Fraction and parsed == expected
