"""Exact performance analysis of threshold cut algorithms.

The threshold rule with parameter tau keeps a node's random side while fewer
than tau neighbours agree with it and switches otherwise.  Its expected cut
fraction on any d-regular triangle-free graph is an exact rational.  The
paper's closed form, for tau > d/2,

    alpha(tau, d) = 1/2 + C(d-1, tau-1) * sum_{i=d-tau+1}^{tau-1} C(d-1, i) / 4^(d-1),

holds at every tau in [0, d+1] once the sum is read as signed:

    alpha(tau, d) = 1/2 + C(d-1, tau-1) * (P(tau-1) - P(d-tau)) / 4^(d-1),

with P(k) = sum_{i<k} C(d-1, i) and C(d-1, -1) = C(d-1, d) = 0.  One row of
Pascal's triangle and its prefix sums give every tau at once.  This module
locates optimal thresholds, compares the resulting performance with
the 1/2 + 9/(32 sqrt(d)) guarantee and with Shearer's 1/2 + sqrt(2)/(8 sqrt(d)),
and certifies the binomial tail estimates behind the guarantee.

Irrational bounds are never evaluated in floating point where a decision is
made: comparisons use the squared form ((r - 1/2)^2 * d vs the squared
coefficient), and the tail estimates use rational interval enclosures of pi
and e^(-j^2/32) at one fixed precision, tight enough to decide every check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate
from typing import IO, Iterable, NamedTuple

from .intervals import TERMS, Interval, exp_enclosure, pi_enclosure, sqrt_enclosure
from .ngraph import binomial_row, check_degree, check_integer, check_tau

HALF = Fraction(1, 2)


def _gains(d: int, taus: Iterable[int]) -> list[int]:
    """(alpha(tau, d) - 1/2) * 4^(d-1) for each tau in [0, d+1]; the caller checks d."""
    lead = [0, *binomial_row(d - 1), 0]  # lead[tau] = C(d-1, tau-1)
    prefix = list(accumulate(lead, initial=0))  # prefix[tau] = P(tau-1)
    return [lead[t] * (prefix[t] - prefix[d + 1 - t]) for t in taus]


def alpha_closed_form(tau: int, d: int) -> Fraction:
    """The paper's closed form, literally; requires tau > d/2.

    An independent reference for `alpha`, which reads `_gains` instead.
    """
    d = check_degree(d)
    tau = check_tau(tau, d)
    if 2 * tau <= d:
        raise ValueError(f"closed form requires tau > d/2, got tau={tau}, d={d}")
    lead = math.comb(d - 1, tau - 1) if tau - 1 <= d - 1 else 0
    tail = sum(math.comb(d - 1, i) for i in range(d - tau + 1, tau))
    return HALF + Fraction(lead * tail, 4 ** (d - 1))


def alpha(tau: int, d: int) -> Fraction:
    """Expected cut fraction of the threshold-tau rule at degree d, exactly.

    alpha = 1/2 + C(d-1, tau-1) * (P(tau-1) - P(d-tau)) / 4^(d-1) with
    P(k) = sum_{i<k} C(d-1, i), for every tau in [0, d+1].
    """
    d = check_degree(d)
    return HALF + Fraction(_gains(d, [check_tau(tau, d)])[0], 4 ** (d - 1))


class AlphaValue(NamedTuple):
    degree: int
    tau: int
    value: Fraction


def alpha_sweep(d: int) -> list[AlphaValue]:
    """alpha(tau, d) for every tau in [0, d+1], from one prefix-sum pass."""
    d = check_degree(d)
    taus = range(d + 2)
    gains = _gains(d, taus)
    scale = 4 ** (d - 1)
    return [AlphaValue(d, tau, HALF + Fraction(g, scale)) for tau, g in zip(taus, gains)]


def _optimum_gain(d: int, c: int | None = None) -> tuple[list[int], int]:
    """Every tau maximising alpha(tau, d), ascending, and the maximum gain.

    The gain is (alpha - 1/2) * 4^(d-1), an integer; the caller checks d.
    `c` is C(d-1, floor(d/2)) if the caller has it, else it is computed.
    Walks tau up from floor(d/2) + 1 with c = C(n, tau-1), n = d - 1, and
    the window sum S = P(tau-1) - P(d-tau), so the gain is c * S.  One step adds
    C(n, d-tau-1) = C(n, tau) on the left and C(n, tau-1) on the right.  S
    never exceeds 2^n and c falls as tau grows, so once C(n, tau) * 2^n is
    below the best gain no later tau can reach it; the test is strict, so
    ties are kept.  `_gains` over every tau is the full-scan reference.
    """
    n = d - 1
    tau = d // 2 + 1
    if c is None:
        c = math.comb(n, tau - 1)
    window = c if d % 2 == 0 else 0
    best, winners = c * window, [tau]
    while tau < d:  # tau = d + 1 gains 0
        nxt = c * (n - tau + 1) // tau  # C(n, tau)
        if nxt << n < best:
            break
        window += nxt + c
        c, tau = nxt, tau + 1
        gain = c * window
        if gain > best:
            best, winners = gain, [tau]
        elif gain == best:
            winners.append(tau)
    return winners, best


def optimal_taus(d: int) -> list[int]:
    """Every tau maximising alpha(tau, d), ascending.

    Only tau > d/2 needs scanning.  For tau <= d/2, tau - 1 < d - tau and P
    is non-decreasing, so the signed sum P(tau-1) - P(d-tau) is <= 0 and
    alpha never exceeds 1/2, while the scanned region always contains a
    value strictly above 1/2.
    """
    return _optimum_gain(check_degree(d))[0]


def optimal_tau(d: int) -> tuple[int, Fraction]:
    """The smallest optimal threshold and its exact cut fraction."""
    d = check_degree(d)
    taus, best = _optimum_gain(d)
    return taus[0], HALF + Fraction(best, 4 ** (d - 1))


def tau_formula(d: int) -> int:
    """ceil((d + sqrt(d)) / 2) without floating point.

    Characterised as the smallest integer t with 2t >= d and (2t - d)^2 >= d.
    """
    d = check_degree(d)
    t = (d + math.isqrt(d)) // 2
    while 2 * t < d or (2 * t - d) ** 2 < d:
        t += 1
    return t


# ---------------------------------------------------------------------------
# Lower bounds of the form 1/2 + c / sqrt(d)


class SqrtBound(NamedTuple):
    """The irrational bound 1/2 + sqrt(coeff_sq / d), held by its exact square.

    `_bound_decision` decides a gain against the threshold bound exactly, by
    integers; `to_float` only reports the bound.
    """

    coeff_sq: Fraction
    degree: int

    def to_float(self) -> float:
        return _root_bound_float(float(self.coeff_sq), self.degree)


def _root_bound_float(coeff_sq: float, d: int) -> float:
    """1/2 + sqrt(coeff_sq / d) in floating point, for reporting only."""
    return 0.5 + math.sqrt(coeff_sq / d)


# (9/32)^2 and (sqrt(2)/8)^2
THRESHOLD_COEFF_SQ = Fraction(81, 1024)
SHEARER_COEFF_SQ = Fraction(1, 32)


def threshold_bound(d: int) -> SqrtBound:
    """Proven guarantee 1/2 + 9/(32 sqrt(d)) for the formula threshold."""
    return SqrtBound(THRESHOLD_COEFF_SQ, check_degree(d))


def shearer_bound(d: int) -> SqrtBound:
    """Shearer's guarantee 1/2 + sqrt(2)/(8 sqrt(d))."""
    return SqrtBound(SHEARER_COEFF_SQ, check_degree(d))


class BoundCheck(NamedTuple):
    degree: int
    tau: int
    gain: int  # (alpha - 1/2) * 4^(d-1): exact
    passed: bool
    equality: bool

    @property
    def alpha(self) -> Fraction:
        return HALF + Fraction(self.gain, 4 ** (self.degree - 1))

    @property
    def margin(self) -> int:
        """(alpha - 1/2)^2 * 1024 * d - 81, scaled by 16^(d-1): exact, built when read."""
        return (self.gain * self.gain * self.degree << 10) - (81 << 4 * (self.degree - 1))


class BoundReport(NamedTuple):
    d_max: int
    checks: tuple[BoundCheck, ...]
    all_pass: bool
    equality_degrees: tuple[int, ...]


def _bound_decision(gain: int, d: int) -> tuple[bool, bool]:
    """(margin >= 0, margin == 0) for margin = gain^2 * 1024 * d - 81 * 16^(d-1).

    For a gain >= 0: with k = bit_length - 64, clamped to [0, 2(d-1)], and
    g = gain >> k, g * 2^k <= gain < (g + 1) * 2^k.  Dividing out 4^k,
    gain^2 * 1024 * d lies in [g^2, (g + 1)^2) * 1024 * d, to compare with
    81 * 2^(4(d-1) - 2k): about 150 bits for the theorem's gains.  Only a
    bracket that straddles it (as at d = 4) needs the exact margin.
    """
    k = min(max(0, gain.bit_length() - 64), 2 * (d - 1))
    g = gain >> k
    low, high = g * g * d << 10, (g + 1) * (g + 1) * d << 10
    rhs = 81 << 4 * (d - 1) - 2 * k
    if low > rhs:
        return True, False
    if high <= rhs:
        return False, False
    margin = (gain * gain * d << 10) - (81 << 4 * (d - 1))
    return margin >= 0, margin == 0


def verify_theorem_bound(d_max: int) -> BoundReport:
    """Check alpha(tau_formula(d), d) >= 1/2 + 9/(32 sqrt(d)) for d = 2..d_max.

    Integer arithmetic throughout, no float: with gain
    N = (alpha - 1/2) * 4^(d-1), the inequality is
    N^2 * 1024 * d >= 81 * 16^(d-1).  `_bound_decision` decides it from a
    certified bracket on N's leading 64 bits, which settles every degree to
    10000 but the equality degree d = 4, where the exact margin decides.

    N = C(n, hi) * S with n = d - 1, tau = tau_formula(d), and S the window
    sum of C(n, i) over i = lo..hi, lo = d - tau + 1, hi = tau - 1.  S and the
    edge terms C(n, lo), C(n, hi) are carried from one degree to the next in
    a constant number of big-integer steps:

      * tau_formula(d) is the smallest t with 2t >= d and (2t - d)^2 >= d,
        and tau_formula(d-1) + 1 always qualifies, so tau stays if it still
        qualifies at d and rises by 1 otherwise;
      * lo + hi = d, so on row n - 1 the window either drops its left term
        C(n-1, lo) (tau stays) or gains C(n-1, hi + 1) on the right (tau
        rises);
      * Pascal's rule then moves the window sum to row n,
        S <- 2S - C(n-1, hi) + C(n-1, lo-1);
      * with lo + hi = n + 1, C(n-1, hi-1) = C(n-1, lo-1), so both edges
        step the same way: C(n, k) = C(n-1, k) + C(n-1, lo-1), k = lo, hi.

    The term-by-term walk of each window is the reference.  Each check keeps
    the integer N; its `alpha` Fraction and its `margin` are built only when
    read, so the report holds about 2d bits per degree, not 6d.
    """
    d_max = check_integer(d_max, 2, math.inf, "d_max must be an integer >= 2")
    checks = []
    tau = 2  # tau_formula(2); the window at d = 2 is [1, 1] on row 1
    lo = hi = 1
    s = c_lo = c_hi = 1  # S, C(n, lo), C(n, hi)
    for d in range(2, d_max + 1):
        if d > 2:
            m = d - 2  # the previous row
            if 2 * tau >= d and (2 * tau - d) ** 2 >= d:  # tau stays: drop the left term
                s -= c_lo
                c_lo = c_lo * (m - lo) // (lo + 1)
                lo += 1
            else:  # tau rises: add the right term
                tau += 1
                c_hi = c_hi * (m - hi) // (hi + 1)
                hi += 1
                s += c_hi
            below = c_lo * lo // (m - lo + 1)  # C(m, lo-1) = C(m, hi-1); lo <= m
            s = 2 * s - c_hi + below
            c_lo += below
            c_hi += below
        gain = c_hi * s  # C(n, tau-1) * S = (alpha - 1/2) * 4^n
        passed, equality = _bound_decision(gain, d)
        checks.append(BoundCheck(degree=d, tau=tau, gain=gain, passed=passed, equality=equality))
    return BoundReport(
        d_max=d_max,
        checks=tuple(checks),
        all_pass=all(c.passed for c in checks),
        equality_degrees=tuple(c.degree for c in checks if c.equality),
    )


# ---------------------------------------------------------------------------
# Certified binomial tail estimates

MIN_TAIL_N = 1500
TAIL_J = (1, 2, 3, 4)


def tail_offset(j: int, n: int) -> int:
    """floor(j * sqrt(n / 32)): the largest delta with 32 * delta^2 <= j^2 * n."""
    if j < 1 or n < 1:
        raise ValueError("need j >= 1 and n >= 1")
    return math.isqrt(j * j * n // 32)


def _central_row(n: int, k: int) -> list[int]:
    """[C(2n, n+i) for i = 0..k], walked out from one C(2n, n).

    C(2n, n+i+1) = C(2n, n+i) * (n-i) / (n+i+1), which stays 0 past i = n.
    """
    row = [math.comb(2 * n, n)]
    for i in range(k):
        row.append(row[-1] * (n - i) // (n + i + 1))
    return row


def tail_power(j: int, delta: int) -> Fraction:
    """(1 - j^2 / (32 delta))^delta, the elementary stand-in for e^(-j^2/32)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return (1 - Fraction(j * j, 32 * delta)) ** delta


class EstimateCheck(NamedTuple):
    name: str
    n: int | None
    j: int | None
    lo: Fraction
    hi: Fraction
    threshold: Fraction
    relation: str  # ">" or "<"
    status: str  # "holds" | "fails" | "inconclusive"
    precision: int


class AppendixEstimateReport(NamedTuple):
    checks: tuple[EstimateCheck, ...]
    all_hold: bool
    conclusive: bool


def _decide(
    name: str,
    n: int | None,
    j: int | None,
    iv: Interval,
    threshold: Fraction,
    relation: str,
) -> EstimateCheck:
    """Compare an enclosure with its threshold; never silently passes.

    The check holds or fails only when the whole interval lies on one side of
    the threshold; an interval that straddles it is reported as inconclusive.
    """
    if relation == ">":
        holds, fails = iv.lo > threshold, iv.hi <= threshold
    elif relation == "<":
        holds, fails = iv.hi < threshold, iv.lo >= threshold
    else:
        raise ValueError(f"unknown relation {relation!r}")
    status = "holds" if holds else "fails" if fails else "inconclusive"
    return EstimateCheck(name, n, j, iv.lo, iv.hi, threshold, relation, status, TERMS)


def verify_appendix_estimates(ns: Iterable[int]) -> AppendixEstimateReport:
    """Certify the binomial tail estimates used by the lower-bound proof.

    For each n (all must be >= 1500):
      * central mass: 0.999 < sqrt(pi n) * C(2n,n)/4^n < 1,
      * off-centre mass, j = 1..4: C(2n, n+delta_j) > 0.995 e^(-j^2/32) C(2n, n),
      * window mass at delta_4: above 0.6088, and above 0.5975 without the
        rightmost column.
    Plus, once: the elementary power (1 - j^2/(32 delta))^delta beats
    0.995 e^(-j^2/32) at delta = delta_j(1500).

    Exact rational quantities get zero-width intervals; quantities involving
    pi or e^(-j^2/32) are normalised so the enclosed side carries the
    irrational factor and the threshold stays rational.  pi and each
    e^(-j^2/32) are enclosed once per report, at the fixed precision of
    `intervals` (`TERMS` series terms, `ROOT_BITS`-bit square roots).

    Each n takes one C(2n, n), walked out to delta_4 by small-factor ratios
    (`_central_row`); the window masses are sums of that row, and each
    off-centre ratio is one entry of it over C(2n, n).
    """
    what = f"estimates are only claimed for n >= {MIN_TAIL_N}"
    # integers first, so that sorting compares ints; then the smallest n out of range
    ns = sorted({check_integer(n, -math.inf, math.inf, what) for n in ns})
    if not ns:
        raise ValueError("need at least one n")
    ns = [check_integer(n, MIN_TAIL_N, math.inf, what) for n in ns]

    pi = pi_enclosure()
    # 1 / e^(-j^2/32), so that each off-centre check scales it by a positive rational
    over_gauss = {j: exp_enclosure(Fraction(-j * j, 32)).reciprocal() for j in TAIL_J}
    share = Fraction("0.995")  # of e^(-j^2/32), for the off-centre checks
    entries = []  # (name, n, j, interval, threshold, relation)
    for n in ns:
        delta4 = tail_offset(4, n)
        row = _central_row(n, delta4)  # C(2n, n + i), i = 0..delta_4
        scale = 4**n
        lo, hi = (sqrt_enclosure(end * n) for end in (pi.lo, pi.hi))
        central = Interval(lo.lo, hi.hi).scale(Fraction(row[0], scale))  # sqrt(pi n) C(2n,n)/4^n
        entries.append(("central_mass_lower", n, None, central, Fraction("0.999"), ">"))
        entries.append(("central_mass_upper", n, None, central, Fraction(1), "<"))
        for j in TAIL_J:
            ratio = Fraction(row[tail_offset(j, n)], row[0])
            entries.append(("offcentre_mass", n, j, over_gauss[j].scale(ratio), share, ">"))
        # sum of C(2n, n + i) over |i| < delta_4 by symmetry, then its right column
        inner = row[0] + 2 * sum(row[1:delta4])
        for name, mass, bar in (
            ("window_mass_full", inner + row[delta4], "0.6088"),
            ("window_mass_trimmed", inner, "0.5975"),
        ):
            point = Interval.point(Fraction(mass, scale))
            entries.append((name, n, None, point, Fraction(bar), ">"))

    for j in TAIL_J:
        power = tail_power(j, tail_offset(j, MIN_TAIL_N))
        entries.append(("offcentre_power", None, j, over_gauss[j].scale(power), share, ">"))

    checks = [_decide(*entry) for entry in entries]
    return AppendixEstimateReport(
        checks=tuple(checks),
        all_hold=all(c.status == "holds" for c in checks),
        conclusive=all(c.status != "inconclusive" for c in checks),
    )


# ---------------------------------------------------------------------------
# Emitters

ALPHA_SWEEP_COLUMNS = "d,tau,alpha_num,alpha_den,alpha_float"
TAU_OPT_COLUMNS = "d,tau_opt,tau_formula,alpha_opt_float,our_bound_float,shearer_bound_float"


def fmt_float(x: float) -> str:
    return f"{x:.15g}"


def write_alpha_sweep_csv(fh: IO[str], d_values: Iterable[int]) -> None:
    """Per-tau table: one header, then alpha(tau, d) for every tau of each d."""
    fh.write(ALPHA_SWEEP_COLUMNS + "\n")
    for d in d_values:
        for av in alpha_sweep(d):
            v = av.value
            fh.write(f"{av.degree},{av.tau},{v.numerator},{v.denominator},{fmt_float(float(v))}\n")


def _alpha_float(gain: int, d: int) -> float:
    """float(1/2 + gain / 4^(d-1)) without a Fraction: int / int rounds correctly."""
    return (gain + (1 << (2 * d - 3))) / (1 << (2 * d - 2))


def write_tau_opt_csv(fh: IO[str], d_values: Iterable[int]) -> list[tuple[int, list[int]]]:
    """Optimal-threshold table; returns [(d, taus)] for any degrees with ties.

    C(d-1, floor(d/2)) is carried from one degree to the next, d - 1 to d, as
    C(d-2, floor((d-1)/2)) * (d-1) / floor(d/2); `math.comb` computes it only
    at the first degree and after a gap or a step down.
    """
    fh.write(TAU_OPT_COLUMNS + "\n")
    ours, shearer = float(THRESHOLD_COEFF_SQ), float(SHEARER_COEFF_SQ)  # to_float's, once
    ties = []
    prev = c = 0  # degrees are >= 2, so the first one computes c
    for d in map(check_degree, d_values):
        if d == prev + 1:
            c = c * (d - 1) // (d // 2)
        elif d != prev:
            c = math.comb(d - 1, d // 2)
        prev = d
        taus, best = _optimum_gain(d, c)
        if len(taus) > 1:
            ties.append((d, taus))
        fh.write(
            f"{d},{taus[0]},{tau_formula(d)},{fmt_float(_alpha_float(best, d))},"
            f"{fmt_float(_root_bound_float(ours, d))},"
            f"{fmt_float(_root_bound_float(shearer, d))}\n"
        )
    return ties


def bound_report_json(fh: IO[str], report: BoundReport) -> None:
    """Write the `verify --bound` report to `fh`: `json.dumps(doc, indent=2)` and a newline.

    The indented text is assembled directly, one f-string per check and 64
    checks a write, instead of running the pure-Python encoder over a dict
    of every field.  Floats print as `float.__repr__`, as the encoder prints
    finite floats.
    """
    ours = float(THRESHOLD_COEFF_SQ)  # to_float's, once
    js = ("false", "true")
    checks = report.checks
    degrees = ",\n    ".join(str(d) for d in report.equality_degrees)
    fh.write(
        f'{{\n  "d_max": {report.d_max},\n  "all_pass": {js[report.all_pass]},\n'
        '  "equality_degrees": ' + (f"[\n    {degrees}\n  ]" if degrees else "[]")
        + ',\n  "checks": ' + ("[\n    " if checks else "[]")
    )
    for start in range(0, len(checks), 64):
        fh.write(",\n    " * (start > 0) + ",\n    ".join([
            f'{{\n      "d": {c.degree},\n      "tau": {c.tau},\n'
            f'      "alpha_float": {_alpha_float(c.gain, c.degree)!r},\n'
            f'      "bound_float": {_root_bound_float(ours, c.degree)!r},\n'
            f'      "passed": {js[c.passed]},\n      "equality": {js[c.equality]}\n    }}'
            for c in checks[start:start + 64]
        ]))
    fh.write("\n  ]\n}\n" if checks else "\n}\n")


def appendix_report_json(fh: IO[str], report: AppendixEstimateReport) -> None:
    """Write the `verify --appendix` report to `fh`: `json.dumps(doc, indent=2)` and a newline."""
    doc = {
        "all_hold": report.all_hold,
        "conclusive": report.conclusive,
        "checks": [
            {
                "name": c.name,
                "n": c.n,
                "j": c.j,
                "lo_float": float(c.lo),
                "hi_float": float(c.hi),
                "threshold": f"{c.threshold.numerator}/{c.threshold.denominator}",
                "relation": c.relation,
                "status": c.status,
                "precision": c.precision,
            }
            for c in report.checks
        ],
    }
    fh.write(json.dumps(doc, indent=2) + "\n")
