"""Certified interval arithmetic over exact rational endpoints.

The tail-estimate verifications need to compare exact binomial ratios against
thresholds involving pi and e^(-j^2/32).  Those two constants are enclosed by
rational bounds (bracketing partial sums of alternating series and scaled
integer square roots), so every decision reduces to exact Fraction
comparisons: there is no floating point and no rounding mode anywhere.  The
enclosures are computed at one fixed precision, `TERMS` series terms and
`ROOT_BITS`-bit square roots, and take their argument only as an int or a
Fraction; anything else is a ValueError.

A comparison against a threshold is decisive only when the whole interval
falls on one side; callers report any other check as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# 16 terms give enclosures at most 4e-20 wide; the narrowest margin is about 1/(8n)
TERMS = 16  # series terms of the pi and e^x enclosures
ROOT_BITS = 64  # bits of the sqrt enclosure


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with Fraction endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Fraction | int) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, c: Fraction | int) -> "Interval":
        """[lo * c, hi * c] for c >= 0; for c < 0 the ends invert, a ValueError unless lo == hi."""
        c = Fraction(c)
        return Interval(self.lo * c, self.hi * c)

    def reciprocal(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("reciprocal requires a strictly positive interval")
        return Interval(1 / self.hi, 1 / self.lo)


def _check_rational(x: Fraction | int) -> Fraction | int:
    """`x` itself if it is an int or a Fraction; bools are not ints here."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"x must be an int or a Fraction, got {x!r}")
    return x


def _arctan_enclosure(x: Fraction, terms: int) -> Interval:
    """Bracketing partial sums of arctan(x) = x - x^3/3 + x^5/5 - ...

    Valid for 0 < x < 1 and terms >= 1, where the terms decrease
    monotonically, so consecutive partial sums straddle the limit.
    """
    prev = s = Fraction(0)
    power = x
    x2 = x * x
    for k in range(terms + 1):
        prev = s
        term = power / (2 * k + 1)
        s = s + term if k % 2 == 0 else s - term
        power *= x2
    return Interval(min(prev, s), max(prev, s))


def pi_enclosure() -> Interval:
    """Rational bounds on pi via pi = 16*arctan(1/5) - 4*arctan(1/239)."""
    a5 = _arctan_enclosure(Fraction(1, 5), TERMS)
    a239 = _arctan_enclosure(Fraction(1, 239), TERMS // 2)
    return a5.scale(16) - a239.scale(4)


def exp_enclosure(x: Fraction) -> Interval:
    """Rational bounds on e^x for -1 < x <= 0 via the alternating Taylor series.

    With |x| < 1 the terms x^k / k! decrease in absolute value from the start,
    so consecutive partial sums bracket the limit.
    """
    x = _check_rational(x)
    if not -1 < x <= 0:
        raise ValueError("exp enclosure implemented for -1 < x <= 0 only")
    prev = s = term = Fraction(1)
    for k in range(1, TERMS + 2):
        prev = s
        term = term * x / k
        s += term
    return Interval(min(prev, s), max(prev, s))


def sqrt_enclosure(x: Fraction) -> Interval:
    """Rational bounds on sqrt(x) with 2^-ROOT_BITS resolution, via integer isqrt."""
    x = _check_rational(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    if x == 0:
        return Interval.point(Fraction(0))
    # sqrt(n/d) = sqrt(n*d)/d; bracket sqrt(n*d * 4^ROOT_BITS) between s and s+1
    n, d = x.numerator, x.denominator
    s = math.isqrt(n * d << (2 * ROOT_BITS))
    den = d << ROOT_BITS
    return Interval(Fraction(s, den), Fraction(s + 1, den))
