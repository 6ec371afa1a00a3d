"""Joint maximization of the growth-exponent bound over (a, r) for each B.

For fixed B the bound on theta - 1 is N(a, r) / log(2B+1), with numerator

    N = log2 + ar log B + (1-ar) log(B+1) - I(ar, 1) - ar I((1-a)/a, B-1)
        - (1-ar) I(r/(1-ar), B) - log(2B+1) + I(2r, 2B)

on 0 < r < B/2 (past it I(2r, 2B) = 0) and 0 < a < min(1, 1/r).  The rate
solves give every partial of N in closed form (I'(c) = t*, I''(c) = 1/Var at
t*), so one evaluation, four rate solves, yields N, its gradient and its
Hessian, and one safeguarded Newton loop climbs (a, r) jointly; eps bounds
its last step in both coordinates and the gradient's norm there.  At B = 1,
I((1-a)/a, 0) is identically 0, so a = 1 is no pole: for r <= 1/3 the
a-terms are the entropy H(ar, r, 1-ar-r), which grows in a up to a = 1, so
the search holds a = 1 and runs in r alone, to r* = (3 - sqrt 3)/6.  The
rate solves all run at the one fixed tolerance ratefn.DEFAULT_TOL (1e-12),
whatever eps is, so the eps columns of the result table measure only the
search.
"""
import math
from typing import NamedTuple

from .ratefn import _check_B, _rate_value

#: tolerance columns of the reference table
TABLE_EPS = (1e-4, 1e-6, 1e-8, 1e-10)

_LOG2 = math.log(2.0)
_NEWTON_MAXFUN = 100


class ThetaPoint(NamedTuple):
    """One evaluation of the bound at (B, r, a)."""

    B: int
    r: float
    a: float
    theta_minus_1: float


class OptimizationReport(NamedTuple):
    """Per-B optimum at a given search tolerance: one table cell.

    grad_norm is |grad N| at the optimum and curvature the larger eigenvalue
    of N's Hessian there (at B = 1, on the face a = 1: |N_r| and N_rr), both
    divided by log(2B+1) like theta_minus_1: near 0 and negative at a
    maximum.  evaluations counts evaluations of N, four rate solves each.
    """

    B: int
    epsilon: float
    r_star: float
    a_star: float
    theta_minus_1: float
    evaluations: int
    grad_norm: float
    curvature: float


def _check_eps(eps) -> None:
    # eps insets the a-range to [eps, min(1, 1/r) - eps], which is empty for
    # eps >= 0.25 at r = 2, inside the r-domain (0, B/2) of every B >= 5
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps must be a real in (0, 0.25), got {eps!r}")


def theta_objective(B: int, r: float, a: float) -> ThetaPoint:
    """Evaluate the bound at a single point (B, r, a).

    a must lie strictly inside (0, min(1, 1/r)): both endpoints are poles of
    the rate arguments, except a = 1 at B = 1 and r < 1, where the inner rate
    I(., 0) is identically zero (single-point support).
    """
    _check_B(B)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    if not (0.0 < a < 1.0 / r and (a < 1.0 or a == 1.0 and B == 1)):
        raise ValueError(f"a={a!r} outside (0, min(1, 1/r)), or a = 1 at B = 1, for r={r!r}")
    theta_minus_1 = _numerator(_log_diff_rate(a, r, B)[0], r, B)[0] / math.log(2 * B + 1)
    if not math.isfinite(theta_minus_1):
        raise ArithmeticError(f"non-finite objective at B={B}, r={r}, a={a}")
    return ThetaPoint(B, r, a, theta_minus_1)


def _joint_newton(F, x: tuple[float, float], clip, eps: float) -> tuple[tuple[float, float], tuple, int]:
    """(x_max, F(*x_max), evaluations) of a safeguarded Newton search for a maximum from x.

    F(a, r) returns (f, f_a, f_r, f_aa, f_ar, f_rr); a coordinate held fixed
    has zero slope and cross term.  Where the Hessian H is negative definite
    the step is Newton's, -H^-1 grad f, elsewhere grad f over H's largest
    entry in size.  clip(a, r) moves a trial point into the domain, or
    returns None.  A step is halved until its trial point is in the domain
    and better: higher f, or f equal up to rounding and a smaller gradient.
    The search stops once a step of at most eps in both coordinates reaches
    a gradient of norm at most eps, at a trial point that equals x or is
    within eps of it and not better, at a step halved to 0 (a non-finite
    one), or after _NEWTON_MAXFUN evaluations.
    """
    y = F(*x)
    num = 1
    while num < _NEWTON_MAXFUN:
        f, f_a, f_r, f_aa, f_ar, f_rr = y
        det = f_aa * f_rr - f_ar * f_ar
        if f_aa < 0.0 and det > 0.0:
            d = ((f_ar * f_r - f_rr * f_a) / det, (f_ar * f_a - f_aa * f_r) / det)
        else:
            scale = max(abs(f_aa), abs(f_ar), abs(f_rr)) or 1.0
            d = (f_a / scale, f_r / scale)
        # values within slack of f differ by rounding only; the gradient decides between them
        slack, g_norm = 1e-14 * (1.0 + abs(f)), math.hypot(f_a, f_r)
        lam = 1.0
        while True:
            trial = clip(x[0] + lam * d[0], x[1] + lam * d[1])
            if trial == x or not lam:
                return x, y, num
            if trial is not None:
                step = max(abs(trial[0] - x[0]), abs(trial[1] - x[1]))
                y_trial = F(*trial)
                num += 1
                if y_trial[0] > f + slack or y_trial[0] >= f - slack and math.hypot(*y_trial[1:3]) < g_norm:
                    break
                if step <= eps or num >= _NEWTON_MAXFUN:
                    return x, y, num
            lam *= 0.5
        x, y = trial, y_trial
        if step <= eps and math.hypot(*y[1:3]) <= eps:
            break
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


def _search(B: int, eps: float, a: float, r: float, hold_r: bool) -> tuple[tuple[float, float], tuple, int]:
    """((a_max, r_max), F there, evaluations) of the joint search from (a, r); see _joint_newton.

    The domain is 0 < r < B/2 (any r with hold_r) and a in [lo, min(1, 1/r) - lo],
    lo = max(eps, 1e-12), inset from the poles, or [lo, 1] at B = 1 and r < 1.
    """
    lo = max(eps, 1e-12)
    hold_a = B == 1 and not hold_r

    def clip(a, r):
        if not (hold_r or 0.0 < r < 0.5 * B):
            return None
        top = 1.0 if B == 1 and r < 1.0 else min(1.0, 1.0 / r) - lo
        return (min(max(a, lo), top), r) if lo <= top else None

    def F(a, r):
        f, f_a, f_aa, f_r, f_rr, f_ar = _log_diff_rate(a, r, B)
        value, n_r, n_rr = _numerator(f, r, B)
        if hold_a:
            f_a = f_ar = 0.0
        if hold_r:
            f_r = n_r = f_ar = 0.0
        return value, f_a, f_r + n_r, f_aa, f_ar, f_rr + n_rr

    start = clip(1.0 if hold_a else a, r)
    if start is None:
        raise ValueError(f"eps={eps!r} leaves no a-bracket at r={r!r}")
    return _joint_newton(F, start, clip, eps)


def maximize_a(B: int, r: float, eps: float) -> tuple[float, float]:
    """Maximize the bound numerator in a at fixed (B, r).

    Returns (a_star, numerator value).  Dividing the value by log(2B+1)
    gives theta - 1 at (B, r, a_star).  The search is maximize_r's with r
    held, from the middle of the a-range.
    """
    _check_B(B)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    _check_eps(eps)
    (a_star, _), y, _ = _search(B, eps, 0.5 * min(1.0, 1.0 / r), r, True)
    return a_star, y[0]


def _cell(B: int, eps: float, a: float, r: float) -> OptimizationReport:
    """The report of the joint search from (a, r)."""
    (a_star, r_star), (value, n_a, n_r, n_aa, n_ar, n_rr), num = _search(B, eps, a, r, False)
    # H's smaller eigenvalue, without cancellation, is <= n_aa <= 0; the larger is
    # det H over it, or n_rr on the face a = 1 of B = 1 or where n_aa = n_ar = 0
    low = 0.5 * (n_aa + n_rr) - math.hypot(0.5 * (n_aa - n_rr), n_ar)
    top = n_rr if B == 1 or not low else (n_aa * n_rr - n_ar * n_ar) / low
    log_q = math.log(2 * B + 1)
    return OptimizationReport(B, eps, r_star, a_star, value / log_q, num, math.hypot(n_a, n_r) / log_q, top / log_q)


def maximize_r(B: int, eps: float) -> OptimizationReport:
    """Maximize the bound jointly over (a, r) at tolerance eps.

    The search starts at r = 0.4 B/ln(B+2), near r* from B = 1 to 10**4 and
    kept below 0.25/eps, where the inset a-range is nonempty, with a in the
    middle of that range.
    """
    _check_B(B)
    _check_eps(eps)
    r = min(0.4 * B / math.log(B + 2), 0.25 / max(eps, 1e-12))
    return _cell(B, eps, 0.5 * min(1.0, 1.0 / r), r)


def table1(
    eps_list: tuple[float, ...] = TABLE_EPS,
    b_range: tuple[int, int] = (3, 10),
) -> list[list[OptimizationReport]]:
    """The reference table: one row per B, one column per eps.

    Rows are B = b_range[0]..b_range[1] (within 1..10), columns follow
    eps_list; evaluation order is row-major and the output is deterministic.
    The columns of a row are chained: the first cell is maximize_r(B, eps),
    and each later cell's search starts from the previous cell's optimum.
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
        row = [maximize_r(B, eps_list[0])]
        for eps in eps_list[1:]:
            row.append(_cell(B, eps, row[-1].a_star, row[-1].r_star))
        rows.append(row)
    return rows
