"""Interval arithmetic sanity: enclosures really enclose, at the fixed precision."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.intervals import (
    ROOT_BITS,
    Interval,
    exp_enclosure,
    pi_enclosure,
    sqrt_enclosure,
)


def test_interval_basics():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.lo <= Fraction(2, 5) <= iv.hi
    assert iv.lo > Fraction(1, 4)
    assert iv.hi < Fraction(3, 5)
    assert not iv.lo > Fraction(1, 3)
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_scale_and_subtract_signs():
    iv = Interval(Fraction(1), Fraction(2))
    assert iv.scale(3) == Interval(Fraction(3), Fraction(6))
    assert iv.scale(0) == Interval.point(0)
    diff = iv - Interval(Fraction(1, 2), Fraction(1))
    assert diff == Interval(Fraction(0), Fraction(3, 2))


def test_scale_by_a_negative_factor_is_an_error():
    with pytest.raises(ValueError, match="inverted interval"):
        Interval(Fraction(1), Fraction(2)).scale(-3)


def test_reciprocal_requires_positive():
    with pytest.raises(ValueError):
        Interval(Fraction(0), Fraction(1)).reciprocal()
    r = Interval(Fraction(2), Fraction(4)).reciprocal()
    assert r == Interval(Fraction(1, 4), Fraction(1, 2))


def _reference(expr: str) -> Fraction:
    # 60-digit reference value from mpmath, independent of the series code
    import mpmath

    with mpmath.workdps(60):
        value = eval(expr, {"mp": mpmath})  # noqa: S307 - fixed test expressions
        return Fraction(mpmath.nstr(value, 55))


def test_pi_enclosure_contains_pi():
    iv = pi_enclosure()
    assert iv.lo <= _reference("mp.pi") <= iv.hi
    assert iv.hi - iv.lo < Fraction(1, 10**20)


@pytest.mark.parametrize("num", [-1, -4, -9, -16])
def test_exp_enclosure_brackets(num):
    x = Fraction(num, 32)
    iv = exp_enclosure(x)
    assert iv.lo <= _reference(f"mp.exp(mp.mpf({num}) / 32)") <= iv.hi
    assert iv.hi - iv.lo < Fraction(4, 10**20)


@given(st.fractions(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_sqrt_enclosure_brackets(x):
    iv = sqrt_enclosure(x)
    assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
    assert iv.hi - iv.lo <= Fraction(1, 2**ROOT_BITS)


def test_sqrt_enclosure_exact_squares():
    iv = sqrt_enclosure(Fraction(9, 16))
    # isqrt(144 * 4^ROOT_BITS) is exact: the upper end is one step, 1/(16 * 2^ROOT_BITS), above
    assert iv == Interval(Fraction(3, 4), Fraction(3, 4) + Fraction(1, 16 << ROOT_BITS))


def test_domain_errors():
    with pytest.raises(ValueError):
        exp_enclosure(Fraction(1, 2))
    with pytest.raises(ValueError):
        exp_enclosure(-1)
    with pytest.raises(ValueError):
        sqrt_enclosure(Fraction(-1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exp_enclosure(-0.25), "x must be an int or a Fraction, got -0.25"),
        (lambda: exp_enclosure(True), "x must be an int or a Fraction, got True"),
        (lambda: sqrt_enclosure(0.25), "x must be an int or a Fraction, got 0.25"),
    ],
    ids=["exp-float", "exp-bool", "sqrt-float"],
)
def test_enclosures_take_only_rationals_and_integer_counts(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_enclosures_take_ints():
    assert exp_enclosure(0) == Interval.point(1)
    assert exp_enclosure(Fraction(0)) == Interval.point(1)
    assert sqrt_enclosure(4) == sqrt_enclosure(Fraction(4))
    assert sqrt_enclosure(0) == Interval.point(0)
