"""QQ keeps integral values as ints: every op returns an int exactly when
its result is an integer, and ints and Fractions of equal value are
interchangeable in matrices and morphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rclkit.category import Morphism
from rclkit.field import QQ
from rclkit.linalg import Mat

# Ints, integral Fractions and proper Fractions, as arguments.
values = st.one_of(st.integers(-5, 5),
                   st.integers(-5, 5).map(Fraction),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


def exact_type(x):
    return int if x.denominator == 1 else Fraction


@given(values, values)
def test_rational_ops_return_int_exactly_when_integral(a, b):
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    if b != 0:
        results += [QQ.div(a, b), QQ.inv(b)]
    for r in results:
        assert type(r) is exact_type(r)


def test_rational_constants_and_parse():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of_int(4)) is int
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.div(1, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("text,value,shown", [("4/2", 2, "2"), ("-3", -3, "-3"),
                                              ("1/3", Fraction(1, 3), "1/3")])
def test_rational_parse_fmt_round_trip(text, value, shown):
    x = QQ.parse(text)
    assert x == value and type(x) is exact_type(x)
    assert QQ.fmt(x) == shown
    assert QQ.parse(QQ.fmt(x)) == x


def test_int_and_fraction_entries_compare_equal(ws_a2):
    assert Mat(QQ, 1, 2, [[1, 0]]) == Mat(QQ, 1, 2, [[Fraction(1), Fraction(0)]])
    cat = ws_a2.categories["A2"]
    obj = ("S1",)
    one = Morphism(cat, obj, obj, (1,))
    assert one.equal(Morphism(cat, obj, obj, (Fraction(1),)))
    assert one.equal(Morphism.identity(cat, obj))
