"""Interval arithmetic sanity: enclosures really enclose, and shrink."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.intervals import (
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
    assert iv.scale(-3) == Interval(Fraction(-6), Fraction(-3))
    diff = iv - Interval(Fraction(1, 2), Fraction(1))
    assert diff == Interval(Fraction(0), Fraction(3, 2))


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


@pytest.mark.parametrize("terms", [4, 8, 16])
def test_pi_enclosure_contains_pi(terms):
    iv = pi_enclosure(terms)
    assert iv.lo <= _reference("mp.pi") <= iv.hi


def test_pi_enclosure_shrinks_and_nests():
    ivs = [pi_enclosure(t) for t in (4, 8, 16)]
    widths = [iv.hi - iv.lo for iv in ivs]
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < Fraction(1, 10**20)
    for outer, inner in zip(ivs, ivs[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


@pytest.mark.parametrize("num", [-1, -4, -9, -16])
def test_exp_enclosure_brackets(num):
    x = Fraction(num, 32)
    iv = exp_enclosure(x, 12)
    assert iv.lo <= _reference(f"mp.exp(mp.mpf({num}) / 32)") <= iv.hi
    assert iv.hi - iv.lo < Fraction(1, 10**9)
    tighter = exp_enclosure(x, 24)
    assert tighter.hi - tighter.lo < iv.hi - iv.lo
    assert iv.lo <= tighter.lo and tighter.hi <= iv.hi


@given(st.fractions(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_sqrt_enclosure_brackets(x):
    iv = sqrt_enclosure(x, 40)
    assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
    assert iv.hi - iv.lo <= Fraction(1, 2**39)


def test_sqrt_enclosure_exact_squares():
    iv = sqrt_enclosure(Fraction(9, 16), 20)
    assert iv.lo <= Fraction(3, 4) <= iv.hi


def test_domain_errors():
    with pytest.raises(ValueError):
        exp_enclosure(Fraction(1, 2), 8)
    with pytest.raises(ValueError):
        sqrt_enclosure(Fraction(-1), 8)
    with pytest.raises(ValueError):
        pi_enclosure(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exp_enclosure(-0.25, 8), "x must be an int or a Fraction, got -0.25"),
        (lambda: exp_enclosure(True, 8), "x must be an int or a Fraction, got True"),
        (lambda: sqrt_enclosure(0.25, 8), "x must be an int or a Fraction, got 0.25"),
        (lambda: pi_enclosure(2.5), "terms must be an integer >= 1, got 2.5"),
        (lambda: sqrt_enclosure(Fraction(1, 4), -1), "bits must be an integer >= 0, got -1"),
        (lambda: exp_enclosure(Fraction(0), -3), "terms must be an integer >= 1, got -3"),
    ],
    ids=[
        "exp-float", "exp-bool", "sqrt-float", "pi-float-terms", "sqrt-negative-bits",
        "exp-zero-bad-terms",
    ],
)
def test_enclosures_take_only_rationals_and_integer_counts(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_enclosures_take_ints():
    assert exp_enclosure(0, 3) == Interval.point(1)
    assert sqrt_enclosure(4, 3) == sqrt_enclosure(Fraction(4), 3)
    assert sqrt_enclosure(Fraction(1, 4), 0) == Interval(Fraction(1, 2), Fraction(3, 4))
