"""Maximization of the growth-exponent bound over (a, r) for each B, as one search in a tilt.

For fixed B the bound on theta - 1 is N(a, r) / log(2B+1), with numerator

    N = log2 + ar log B + (1-ar) log(B+1) - I(ar, 1) - ar I((1-a)/a, B-1)
        - (1-ar) I(r/(1-ar), B) - log(2B+1) + I(2r, 2B)

on r > 0 and 0 < a < min(1, 1/r), or a = 1 at B = 1, r < 1, where I(., 0)
vanishes.  At fixed r, max_a N = I(2r, 2B) - J(2r), J the rate function of
|Y| for Y uniform on {-B..B}, at a*r = P(Y < 0) under Y tilted through |Y|
to mean 2r.  At the maximum over r both tilts are one t < 0, so with x = e^t

    theta(B) - 1 = max_t f(t) / log(2B+1),   f = log[(1 + x - 2x^(B+1)) / (1 - x^(2B+1))].

maximize_r finds the root of f' by ratefn's safeguarded Newton loop, stopped
at |f'| <= eps, takes r* = E|Y|/2 and a* = P(Y < 0)/r* there, and reports
the paper's N at (a*, r*).  Its rate solves run at the fixed tolerance
ratefn.DEFAULT_TOL whatever eps is, so the eps columns of the result table
measure only the search.
"""
import math
from typing import NamedTuple

from . import ratefn
from .ratefn import _check_B, _moments, _newton_root, _rate_value

#: tolerance columns of the reference table
TABLE_EPS = (1e-4, 1e-6, 1e-8, 1e-10)

_LOG2 = math.log(2.0)


class ThetaPoint(NamedTuple):
    """One evaluation of the bound at (B, r, a)."""

    B: int
    r: float
    a: float
    theta_minus_1: float


class OptimizationReport(NamedTuple):
    """Per-B optimum at a given search tolerance: one table cell.

    t_star is the tilt of the optimum (x* = e^t_star rounds to 1.0 from
    B ~ 8e17 on).  grad_norm is |f'| and curvature f'' at t_star, both
    divided by log(2B+1) like theta_minus_1: at most eps over log(2B+1), and
    negative, at a maximum.  evaluations counts evaluations of f, each O(1).
    """

    B: int
    epsilon: float
    r_star: float
    a_star: float
    t_star: float
    theta_minus_1: float
    evaluations: int
    grad_norm: float
    curvature: float


def _check_eps(eps) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be a real in (0, 1), got {eps!r}")


def _check_r(r) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")


def theta_objective(B: int, r: float, a: float) -> ThetaPoint:
    """Evaluate the bound at a single point (B, r, a), 0 < a < min(1, 1/r), or a = 1 at B = 1, r < 1."""
    _check_B(B)
    _check_r(r)
    if not (0.0 < a < min(1.0, 1.0 / r) or a == 1.0 and B == 1 and r < 1.0):
        raise ValueError(f"a={a!r} outside (0, min(1, 1/r)), or a = 1 at B = 1, for r={r!r}")
    theta_minus_1 = _objective(a, r, B) / math.log(2 * B + 1)
    if not math.isfinite(theta_minus_1):
        raise ArithmeticError(f"non-finite objective at B={B}, r={r}, a={a}")
    return ThetaPoint(B, r, a, theta_minus_1)


def _objective(a: float, r: float, B: int) -> float:
    """N(a, r), the bound's numerator, from four rate solves."""
    ar = a * r
    s = 1.0 - ar
    v = _LOG2
    v += ar * math.log(B)
    v += s * math.log(B + 1)
    v -= _rate_value(ar, 1)[0]
    v -= ar * _rate_value((1.0 - a) / a, B - 1)[0]
    v -= s * _rate_value(r / s, B)[0]
    return (v - math.log(2 * B + 1)) + _rate_value(2.0 * r, 2 * B)[0]


def _folded(t: float, B: int) -> tuple[float, float, float, float, float]:
    """(f', f'', mean, var, P(Y < 0)) at the tilt t < 0, |Y| for Y uniform on {-B..B}.

    With x = e^t, e_k = 1 - x^k = -expm1(k t), n = 2B + 1 and
    A = 1 + x - 2x^(B+1) = e_1 + 2x e_B, so that f = log(A/e_n):

        f'  = A'/A + n x^n/e_n,    A'  = x (1 - 2(B+1) x^B),
        f'' = A''/A - (A'/A)^2 + n^2 x^n/e_n^2,    A'' = x (1 - 2(B+1)^2 x^B).

    Taken as mean(|Y|) - mean(uniform on {0..2B}), f' would lose its
    relative precision in t from B ~ 1e7 on.  The tilted |Y| is 0 with
    probability e_1/A and otherwise 1 + K, with K the tilted uniform law on
    {0..B-1} (mean m, variance v from _moments), so P(Y < 0) = x e_B/A is
    half of P(|Y| > 0), mean = 2P(Y < 0)(1 + m) and
    var = 2P(Y < 0)(v + (1 + m)^2 e_1/A), each a sum of positive terms.
    """
    x = math.exp(t)
    xb = math.exp(B * t)
    e1 = -math.expm1(t)
    eb = -math.expm1(B * t)
    n = 2 * B + 1
    en = -math.expm1(n * t)
    tail = n * math.exp(n * t) / en
    A = e1 + 2.0 * x * eb
    g = x * (1.0 - 2.0 * (B + 1) * xb) / A
    slope = g + tail
    curvature = x * (1.0 - 2.0 * (B + 1) * ((B + 1) * xb)) / A - g * g + tail * (n / en)
    p = x * eb / A
    m, v, _ = _moments(t, B - 1)
    return slope, curvature, 2.0 * p * (1.0 + m), 2.0 * p * (v + (1.0 + m) ** 2 * (e1 / A)), p


def _root(F, t: float, eps: float) -> tuple[float, tuple, int]:
    """_newton_root(F, t, eps), which raises ArithmeticError where the step cap ends it short of eps."""
    t, y, steps = _newton_root(F, t, eps)
    if steps == ratefn._MAX_ITER and not abs(y[0]) <= eps:
        raise ArithmeticError(f"the search ended at its step cap, {steps} steps, with |h| = {abs(y[0])!r} > eps = {eps!r}")
    return t, y, steps


def maximize_a(B: int, r: float, eps: float) -> tuple[float, float]:
    """Maximize the bound numerator in a at fixed (B, r).

    Returns (a_star, numerator value).  Dividing the value by log(2B+1)
    gives theta - 1 at (B, r, a_star).  a_star = P(Y < 0)/(mean(|Y|)/2) at
    the tilt where mean(|Y|) = 2r, to within eps; from
    2r >= B(B+1)/(2B+1), the untilted mean, a_star*r = B/(2B+1).
    """
    _check_B(B)
    _check_r(r)
    _check_eps(eps)
    c = 2.0 * r
    if c >= B * (B + 1) / (2 * B + 1):
        a = B / ((2 * B + 1) * r)
    else:

        def F(t):
            _, _, mean, var, p = _folded(t, B)
            return mean - c, var, mean, p

        # the tilt of the B -> inf law, whose mean at x = r/(1+r) is below 2r
        _, (_, _, mean, p), _ = _root(F, math.log(r / (1.0 + r)), eps)
        a = p / (0.5 * mean)
    return a, _objective(a, r, B)


def maximize_r(B: int, eps: float) -> OptimizationReport:
    """Maximize the bound over (a, r) at tolerance eps: the root of f' in t, from t = -log(2B)/B."""
    _check_B(B)
    _check_eps(eps)

    def F(t):
        slope, curvature, mean, _, p = _folded(t, B)
        return -slope, -curvature, mean, p

    t, (h, dh, mean, p), steps = _root(F, -math.log(2 * B) / B, eps)
    r, log_q = 0.5 * mean, math.log(2 * B + 1)
    point = theta_objective(B, r, p / r)
    return OptimizationReport(B, eps, r, point.a, t, point.theta_minus_1, steps + 1, abs(h) / log_q, -dh / log_q)


def table1(
    eps_list: tuple[float, ...] = TABLE_EPS,
    b_range: tuple[int, int] = (3, 10),
) -> list[list[OptimizationReport]]:
    """The reference table: one row per B, one column per eps, each cell maximize_r(B, eps).

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
