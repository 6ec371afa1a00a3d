"""Nested maximization of the growth-exponent bound over (a, r, B).

For fixed B the bound on theta - 1 is

    [ log2 + ar log B + (1-ar) log(B+1) - I(ar, 1) - ar I((1-a)/a, B-1)
      - (1-ar) I(r/(1-ar), B) - log(2B+1) + I(2r, 2B) ] / log(2B+1)

maximized first in a over (0, min(1, 1/r)), then in r over [0.5, 2], both
to x-tolerance eps.  The rate solves give every partial of the numerator in
closed form (I'(c) = t*, I''(c) = 1/Var at t*).  The numerator is concave in
a, so the inner search is a safeguarded Newton iteration on its a-slope.  The
outer search is the same Newton loop on the inner maximum V(r): by the
envelope theorem V'(r) is the numerator's r-slope at a*(r), and V''(r) adds
to its r-curvature the cross term's pull through da*/dr.  The rate solves all
run at the one fixed tolerance ratefn.DEFAULT_TOL (1e-12), whatever eps is,
so the eps columns of the result table measure only the 1-D searches.  The
table chains its columns: each row's first cell searches from r = _R_START,
and each later cell from the optimum of the cell before it, so a cell's
evaluations count only the steps that refine that optimum to its own eps.
"""
import math
import warnings
from typing import NamedTuple

from .ratefn import _check_B, _rate_value

#: tolerance columns of the reference table
TABLE_EPS = (1e-4, 1e-6, 1e-8, 1e-10)

_LOG2 = math.log(2.0)
_NEWTON_MAXFUN = 100

#: start of the r-search: the headline B = 5's r*, below r = 1, where the
#: inner maximum of B = 2 turns flat and its slope stops pointing to r = 0.5
_R_START = 0.805


class ThetaPoint(NamedTuple):
    """One evaluation of the bound at (B, r, a)."""

    B: int
    r: float
    a: float
    theta_minus_1: float


class OptimizationReport(NamedTuple):
    """Per-B optimum at a given search tolerance: one table cell.

    r_slope and r_curvature are V'(r*) and V''(r*) of the inner maximum
    V(r) = max_a numerator, divided by log(2B+1) like theta_minus_1: near 0
    and negative at an interior maximum.
    """

    B: int
    epsilon: float
    r_star: float
    a_star: float
    theta_minus_1: float
    evaluations: int
    r_slope: float
    r_curvature: float


def _check_eps(eps) -> None:
    # the a-bracket [eps, min(1, 1/r) - eps] is empty for eps >= 0.25 at r = 2
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps must be a real in (0, 0.25), got {eps!r}")


def theta_objective(B: int, r: float, a: float) -> ThetaPoint:
    """Evaluate the bound at a single point (B, r, a).

    a must lie strictly inside (0, min(1, 1/r)): both endpoints are poles of
    the rate arguments.  For B = 1 the inner rate I(., 0) is identically
    zero (single-point support).
    """
    _check_B(B)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    if not 0.0 < a < min(1.0, 1.0 / r):
        raise ValueError(f"a={a!r} outside the open interval (0, min(1, 1/r)) for r={r!r}")
    theta_minus_1 = _numerator(_log_diff_rate(a, r, B)[0], r, B)[0] / math.log(2 * B + 1)
    if not math.isfinite(theta_minus_1):
        raise ArithmeticError(f"non-finite objective at B={B}, r={r}, a={a}")
    return ThetaPoint(B, r, a, theta_minus_1)


def _newton_max(F, x: float, lo: float, hi: float, eps: float) -> tuple[float, tuple, int]:
    """(x_max, F(x_max), evaluations) of a safeguarded Newton search from x on [lo, hi].

    F(x) returns a tuple that starts (f, f', f''); the rest rides along to the
    caller.  f must be unimodal on [lo, hi], so the sign of f' at each point
    says on which side the maximum lies.  A Newton step that leaves that open
    sign bracket, or is taken where f'' >= 0, is replaced by bisection.  The
    search stops at f' = 0, at a step that would not move x, at a bracket
    that admits no new point, once a step of at most eps is taken (returning
    the better of its two ends), or after _NEWTON_MAXFUN evaluations.
    """
    y = F(x)
    num = 1
    while y[1] != 0.0 and num < _NEWTON_MAXFUN:
        if y[1] > 0.0:
            lo = x
        else:
            hi = x
        step = x - y[1] / y[2] if y[2] < 0.0 else math.nan
        if step == x:
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        y_step = F(step)
        num += 1
        if abs(step - x) <= eps:
            if y_step[0] > y[0]:
                x, y = step, y_step
            break
        x, y = step, y_step
    return x, y, num


def _log_diff_rate(a: float, r: float, B: int) -> tuple[float, float, float, float, float, float]:
    """(f, f_a, f_aa, f_r, f_rr, f_ar): the six a-dependent numerator terms and their partials.

    f(a, r) = log2 + ar*log(B) + (1-ar)*log(B+1) - I1 - ar*I2 - (1-ar)*I3 with
    I1 = I(ar, 1), I2 = I((1-a)/a, B-1), I3 = I(r/(1-ar), B).  With t_i =
    I_i' and k_i = I_i'' >= 0 from the rate solves, s = 1 - ar,
    g = log(B/(B+1)) - t1 - I2 + I3 and h = g + t2/a - r*t3/s,

        f_a  = r*h                   f_aa = -r^2*k1 - r*k2/a^3 - r^4*k3/s^3 <= 0
        f_r  = a*g - t3/s            f_rr = -(a^2*k1 + k3/s^3)
        f_ar = h - r*(a*k1 + r*k3/s^3)

    so f is concave in a; I is C^1 across c = B/2, so the slopes are
    continuous there and only the curvatures jump.
    """
    ar = a * r
    s = 1.0 - ar
    i1, t1, k1 = _rate_value(ar, 1)[:3]
    i2, t2, k2 = _rate_value((1.0 - a) / a, B - 1)[:3]
    i3, t3, k3 = _rate_value(r / s, B)[:3]
    v = _LOG2
    v += ar * math.log(B)
    v += s * math.log(B + 1)
    v -= i1
    v -= ar * i2
    v -= s * i3
    g = math.log(B / (B + 1)) - t1 - i2 + i3
    h = g + t2 / a - r * t3 / s
    k3s = k3 / (s * s * s)
    f_aa = -r * (r * k1 + k2 / (a * a * a) + r * r * r * k3s)
    return v, r * h, f_aa, a * g - t3 / s, -(a * a * k1 + k3s), h - r * (a * k1 + r * k3s)


def _numerator(a_terms: float, r: float, B: int) -> tuple[float, float, float]:
    """(N, N_r - f_r, N_rr - f_rr) of the bound numerator N = a_terms - log(2B+1) + I(2r, 2B).

    The one I(2r, 2B) solve gives the value and, from its tilt t4 and
    curvature k4, that term's r-slope 2*t4 and r-curvature 4*k4.
    """
    i4, t4, k4 = _rate_value(2.0 * r, 2 * B)[:3]
    return (a_terms - math.log(2 * B + 1)) + i4, 2.0 * t4, 4.0 * k4


def _search_a(B: int, r: float, eps: float, a: float | None) -> tuple[float, float, float, float, float, int]:
    """(V, V', V'', a_star, da*/dr, evaluations) of the a-search at fixed (B, r).

    The bracket is inset by max(eps, 1e-12) from the poles 0 and 1/r.  The
    Newton loop runs on f_a from the start a (clipped into the bracket; None
    starts at its midpoint); f is concave in a, so f_a's sign brackets the
    maximum.  V is the numerator at a_star.  By the envelope theorem
    V'(r) = N_r there, and with da*/dr = -f_ar/f_aa (0 where f_aa = 0),
    V''(r) = N_rr + f_ar*da*/dr.
    """
    lo = max(eps, 1e-12)
    hi = min(1.0, 1.0 / r) - lo
    if not lo < hi:
        raise ValueError(f"eps={eps!r} leaves no a-bracket [{lo!r}, {hi!r}] at r={r!r}")
    a = 0.5 * (lo + hi) if a is None else min(max(a, lo), hi)
    a, (f, _, f_aa, f_r, f_rr, f_ar), num = _newton_max(lambda x: _log_diff_rate(x, r, B), a, lo, hi, eps)
    value, n_r, n_rr = _numerator(f, r, B)
    da_dr = -f_ar / f_aa if f_aa < 0.0 else 0.0
    return value, f_r + n_r, f_rr + n_rr + f_ar * da_dr, a, da_dr, num


def maximize_a(B: int, r: float, eps: float) -> tuple[float, float]:
    """Maximize the bound numerator in a at fixed (B, r).

    Returns (a_star, numerator value).  Dividing the value by log(2B+1)
    gives theta - 1 at (B, r, a_star).
    """
    _check_B(B)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    _check_eps(eps)
    value, _, _, a_star, _, _ = _search_a(B, r, eps, None)
    return a_star, value


def _search_r(B: int, eps: float, r0: float, a0: float | None) -> OptimizationReport:
    """The outer r-search of maximize_r, started at r0 with its first inner search at a0.

    a0 = None starts that inner search at its bracket's midpoint.  Each later
    inner search starts at the a* of the r searched before it, moved along
    its tangent da*/dr.  evaluations counts the objective evaluations of
    every inner search; r* is one of the points the outer search evaluated,
    so its inner result is kept, not searched again.
    """
    evaluations = 0
    last = None if a0 is None else (r0, a0, 0.0)

    def outer(r):
        nonlocal evaluations, last
        a = None if last is None else last[1] + last[2] * (r - last[0])
        y = _search_a(B, r, eps, a)
        evaluations += y[5]
        last = (r, y[3], y[4])
        return y

    r_star, (value, slope, curvature, a_star, _, _), _ = _newton_max(outer, r0, 0.5, 2.0, eps)
    margin = 10.0 * max(eps, 1e-8)
    if r_star - 0.5 < margin or 2.0 - r_star < margin:
        # stacklevel 3: the caller of maximize_r or table1
        warnings.warn(f"r* = {r_star} sits at the edge of [0.5, 2] for B={B}", stacklevel=3)
    log_q = math.log(2 * B + 1)
    return OptimizationReport(
        B, eps, r_star, a_star, value / log_q, evaluations, slope / log_q, curvature / log_q
    )


def maximize_r(B: int, eps: float) -> OptimizationReport:
    """Maximize over r in [0.5, 2] of the inner a-maximum V(r) at tolerance eps.

    The outer search is the inner search's safeguarded Newton loop, run on
    V'(r) and V''(r) from r = _R_START, with the first inner search started
    at its bracket's midpoint (see _search_r).
    """
    _check_B(B)
    _check_eps(eps)
    return _search_r(B, eps, _R_START, None)


def table1(
    eps_list: tuple[float, ...] = TABLE_EPS,
    b_range: tuple[int, int] = (3, 10),
) -> list[list[OptimizationReport]]:
    """The reference table: one row per B, one column per eps.

    Rows are B = b_range[0]..b_range[1] (within 1..10), columns follow
    eps_list; evaluation order is row-major and the output is deterministic.
    The columns of a row are chained: the first cell is maximize_r(B, eps),
    and each later cell's r-search starts from the previous cell's
    (r_star, a_star), an optimum to the previous column's eps.  Each cell's
    evaluations counts its own search only.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must be nonempty")
    lo, hi = b_range
    if not (1 <= lo <= hi <= 10):
        raise ValueError(f"b_range must satisfy 1 <= lo <= hi <= 10, got {b_range!r}")
    for eps in eps_list:
        _check_eps(eps)
    rows = []
    for B in range(lo, hi + 1):
        row = []
        r, a = _R_START, None
        for eps in eps_list:
            cell = _search_r(B, eps, r, a)
            r, a = cell.r_star, cell.a_star
            row.append(cell)
        rows.append(row)
    return rows
