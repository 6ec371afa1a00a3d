"""Nested maximization of the growth-exponent bound over (a, r, B).

For fixed B the bound on theta - 1 is

    [ log2 + ar log B + (1-ar) log(B+1) - I(ar, 1) - ar I((1-a)/a, B-1)
      - (1-ar) I(r/(1-ar), B) - log(2B+1) + I(2r, 2B) ] / log(2B+1)

maximized first in a over (0, min(1, 1/r)), then in r over [0.5, 2], both
to x-tolerance eps.  The numerator is concave in a, and the rate solves give
its slope and curvature in closed form (I'(c) = t*, I''(c) = 1/Var at t*), so
the inner search is a safeguarded Newton iteration; the outer search in r is
a bracketed derivative-free (Brent) search.  The rate solves all run at the
one fixed tolerance ratefn.DEFAULT_TOL (1e-12), whatever eps is, so the eps
columns of the result table measure only the 1-D searches.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .ratefn import MAX_B, _rate_value

#: tolerance columns of the reference table
TABLE_EPS = (1e-4, 1e-6, 1e-8, 1e-10)

_LOG2 = math.log(2.0)
_SQRT_EPS = math.sqrt(2.220446049250313e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500
_NEWTON_MAXFUN = 100


class ThetaPoint(NamedTuple):
    """One evaluation of the bound at (B, r, a)."""

    B: int
    r: float
    a: float
    theta_minus_1: float


class OptimizationReport(NamedTuple):
    """Per-B optimum at a given search tolerance: one table cell."""

    B: int
    epsilon: float
    r_star: float
    a_star: float
    theta_minus_1: float
    evaluations: int


def _check_B(B) -> None:
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    # the numerator solves I(2r, 2B)
    if 2 * B > MAX_B:
        raise ValueError(f"2B = {2 * B} exceeds the rate solve's limit of {MAX_B}")


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
    theta_minus_1 = _numerator(_log_diff_rate(a, r, B)[0], r, B) / math.log(2 * B + 1)
    if not math.isfinite(theta_minus_1):
        raise ArithmeticError(f"non-finite objective at B={B}, r={r}, a={a}")
    return ThetaPoint(B, r, a, theta_minus_1)


def _brent_min(f, x1: float, x2: float, xatol: float):
    """Bracketed 1-D minimizer: golden section with parabolic acceleration.

    Classic Forsythe-Malcolm-Moler bounded search.  Never evaluates the
    endpoints; stops once the best point sits within
    2*(sqrt(machine eps)*|x| + xatol/3) of the bracket midpoint.

    Returns (x_min, f_min, evaluations).
    """
    a, b = x1, x2
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = p / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        si = 1.0 if rat >= 0.0 else -1.0
        x = xf + si * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


def _log_diff_rate(a: float, r: float, B: int) -> tuple[float, float, float]:
    """(f, f', f'') in a of the six a-dependent numerator terms, the a-search's objective.

    f(a) = log2 + ar*log(B) + (1-ar)*log(B+1) - I1 - ar*I2 - (1-ar)*I3 with
    I1 = I(ar, 1), I2 = I((1-a)/a, B-1), I3 = I(r/(1-ar), B).  With t_i =
    I_i' and k_i = I_i'' >= 0 from the rate solves,

        f'  = r*(log(B/(B+1)) - t1 - I2 + t2/a + I3 - r*t3/(1-ar))
        f'' = -r^2*k1 - r*k2/a^3 - r^4*k3/(1-ar)^3 <= 0,

    so f is concave; I is C^1 across c = B/2, so f' is continuous there.
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
    d1 = r * (math.log(B / (B + 1)) - t1 - i2 + t2 / a + i3 - r * t3 / s)
    d2 = -r * (r * k1 + k2 / (a * a * a) + r * r * r * k3 / (s * s * s))
    return v, d1, d2


def _numerator(a_terms: float, r: float, B: int) -> float:
    """The bound numerator: _log_diff_rate's a_terms - log(2B+1) + I(2r, 2B)."""
    return (a_terms - math.log(2 * B + 1)) + _rate_value(2.0 * r, 2 * B)[0]


def _search_a(B: int, r: float, eps: float, a: float | None) -> tuple[float, float, int]:
    """(a_star, numerator value, evaluations) of the a-search at fixed (B, r).

    The bracket is inset by max(eps, 1e-12) from the poles 0 and 1/r.
    Safeguarded Newton on f' from the start a (clipped into the bracket; None
    starts at its midpoint).  f is concave, so the sign of f' at each point
    says on which side the maximum lies; a step that leaves that sign bracket,
    or meets f'' = 0, is replaced by bisection.  Once a step is at most eps it
    is taken and the better of its two ends returned.
    """
    lo = max(eps, 1e-12)
    hi = min(1.0, 1.0 / r) - lo
    if not lo < hi:
        raise ValueError(f"eps={eps!r} leaves no a-bracket [{lo!r}, {hi!r}] at r={r!r}")
    a = 0.5 * (lo + hi) if a is None else min(max(a, lo), hi)
    f, d1, d2 = _log_diff_rate(a, r, B)
    num = 1
    while d1 != 0.0 and num < _NEWTON_MAXFUN:
        if d1 > 0.0:
            lo = a
        else:
            hi = a
        step = a - d1 / d2 if d2 < 0.0 else math.nan
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        f_step, d1, d2 = _log_diff_rate(step, r, B)
        num += 1
        if abs(step - a) <= eps:
            if f_step > f:
                a, f = step, f_step
            break
        a, f = step, f_step
    return a, _numerator(f, r, B), num


def maximize_a(B: int, r: float, eps: float) -> tuple[float, float]:
    """Maximize the bound numerator in a at fixed (B, r).

    Returns (a_star, numerator value).  Dividing the value by log(2B+1)
    gives theta - 1 at (B, r, a_star).
    """
    _check_B(B)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    _check_eps(eps)
    a_star, value, _ = _search_a(B, r, eps, None)
    return a_star, value


def maximize_r(B: int, eps: float) -> OptimizationReport:
    """Maximize over r in [0.5, 2] of the inner a-maximum at tolerance eps.

    The outer search is derivative-free (Brent) in r; each inner Newton
    search starts from the a* of the r searched before it.  evaluations
    counts the objective evaluations of every inner search; r* is one of the
    points the outer search evaluated, so its inner result is kept, not
    searched again.
    """
    _check_B(B)
    _check_eps(eps)
    evaluations = 0
    searched = {}
    a_prev = None

    def outer(r):
        nonlocal evaluations, a_prev
        a_prev, value, num = searched[r] = _search_a(B, r, eps, a_prev)
        evaluations += num
        return -value

    r_star, _, _ = _brent_min(outer, 0.5, 2.0, eps)
    a_star, value, _ = searched[r_star]
    margin = 10.0 * max(eps, 1e-8)
    if r_star - 0.5 < margin or 2.0 - r_star < margin:
        warnings.warn(f"r* = {r_star} sits at the edge of [0.5, 2] for B={B}", stacklevel=2)
    theta_minus_1 = value / math.log(2 * B + 1)
    return OptimizationReport(B, eps, r_star, a_star, theta_minus_1, evaluations)


def table1(
    eps_list: tuple[float, ...] = TABLE_EPS,
    b_range: tuple[int, int] = (3, 10),
) -> list[list[OptimizationReport]]:
    """The reference table: one row per B, one column per eps.

    Rows are B = b_range[0]..b_range[1] (within 1..10), columns follow
    eps_list; evaluation order is row-major and the output is deterministic.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must be nonempty")
    lo, hi = b_range
    if not (1 <= lo <= hi <= 10):
        raise ValueError(f"b_range must satisfy 1 <= lo <= hi <= 10, got {b_range!r}")
    for eps in eps_list:
        _check_eps(eps)
    return [[maximize_r(B, eps) for eps in eps_list] for B in range(lo, hi + 1)]
