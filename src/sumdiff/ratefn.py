"""Large-deviation rate function of the uniform distribution on {0,...,B}.

I(c, B) is zero for c >= B/2 (the event is typical) and otherwise the
Legendre transform sup_t (t*c - log((1 + e^t + ... + e^{Bt})/(B+1))),
attained at the negative tilt t* where the tilted mean equals c.  t* is
found by a safeguarded Newton iteration whose derivative is the tilted
variance (d/dt tilted_mean = Var_t); B = 1 has a closed form.  The tilted
law is a truncated geometric law, so each step takes its mean and variance
in closed form, in O(1) for any B, and the log-MGF is taken once, at t*;
within 1e-2 of t = 0, where that form cancels, the B + 1 terms are summed
directly.  It governs
the exponential decay of the probability that m uniform draws sum to at most
c*m, hence the growth rate of the bounded simplex counts:

    log |W(m, floor(r*m), B)| / m  ->  log(B+1) - I(r, B).
"""
from __future__ import annotations

import math
from typing import NamedTuple

#: the one rate-solve tolerance, which no caller sets: the tilt t* is found
#: to about this absolute accuracy, fixed independently of any outer search
DEFAULT_TOL = 1e-12

#: hard cap on the steps of one rate solve
_MAX_ITER = 100

#: tilts with |t| below this are summed term by term: there the closed-form
#: mean's error of about 2*2^-52/|t| is at most 4.4e-14, under a tenth of
#: the solve's stop test DEFAULT_TOL*min(1, c), as c > 0.49 there
_SUM_BELOW = 1e-2

#: largest support bound B of a rate solve; a step within _SUM_BELOW of
#: t = 0 still sums B + 1 terms, so B is checked before any solve starts
MAX_B = 10_000


class RateQuery(NamedTuple("RateQuery", [("c", float), ("B", int)])):
    """Target mean c and support bound B, with 0 <= B <= MAX_B.

    B = 0 (single-point support, mean 0) is admitted so that callers can
    treat the inner rate term uniformly; every c >= 0 then sits on the zero
    branch.
    """

    __slots__ = ()

    def __new__(cls, c: float, B: int):
        if not isinstance(B, int) or isinstance(B, bool) or B < 0:
            raise ValueError(f"B must be a nonnegative integer, got {B!r}")
        _check_max_B(B)
        if not (c >= 0.0 and math.isfinite(c)):
            raise ValueError(f"c must be a nonnegative finite real, got {c!r}")
        return super().__new__(cls, c, B)


class RateResult(NamedTuple):
    """I(c, B) with solver diagnostics.

    t_star is the optimal tilt: None on the zero branch (no solve), -inf for
    c = 0 (supremum approached only in the limit), a finite negative number
    for interior c.  iterations counts the solver's steps (0 for the closed
    forms) and residual is |tilted_mean(t_star, B) - c| at the returned
    t_star.
    """

    value: float
    t_star: float | None
    iterations: int
    residual: float


def _moments(t: float, B: int) -> tuple[float, float]:
    """(mean, variance) of the tilted distribution, in O(1) for |t| >= _SUM_BELOW.

    Tilted by t = -u < 0, the uniform law on {0..B} is a truncated geometric
    law.  With n = B + 1, x = e^-u and x^n = e^-nu:

        mean = x/(1-x) - n x^n/(1-x^n),    var = x/(1-x)^2 - n^2 x^n/(1-x^n)^2

    x and x^n come from exp and 1 - x, 1 - x^n from expm1, so each keeps its
    relative precision at every u.  t > 0 follows by the symmetry j -> B - j:
    the mean is B - mean(-t) and the variance is unchanged.  Near t = 0 the
    two mean terms, each about 1/u, cancel to about B/2 with an absolute
    error of about 2*2^-52/u, so below _SUM_BELOW the moments are summed
    over j = 0..B directly instead, in O(B).
    """
    u = abs(t)
    n = B + 1
    if u < _SUM_BELOW:
        s0 = 0.0
        s1 = 0.0
        s2 = 0.0
        for j in range(n):
            e = math.exp(-j * u)
            s0 += e
            je = j * e
            s1 += je
            s2 += j * je
        mean = s1 / s0
        var = s2 / s0 - mean * mean
    else:
        x = math.exp(-u)
        xn = math.exp(-n * u)
        a = -math.expm1(-u)
        b = -math.expm1(-n * u)
        mean = x / a - n * xn / b
        var = x / (a * a) - n * n * xn / (b * b)
    if t > 0.0:
        return B - mean, var
    return mean, var


def _log_mgf(t: float, B: int) -> float:
    """log of the mean of e^(j*t) over j = 0..B, in the closed form of _moments.

    For t = -u < 0 it is log(expm1(-nu)/expm1(-u)) - log n, summed directly
    below _SUM_BELOW; t > 0 adds B*t to the value at -t.
    """
    u = abs(t)
    n = B + 1
    if u < _SUM_BELOW:
        lmgf = math.log(sum(math.exp(-j * u) for j in range(n)) / n)
    else:
        lmgf = math.log(math.expm1(-n * u) / math.expm1(-u)) - math.log(n)
    return lmgf + B * t if t > 0.0 else lmgf


def _rate_value(c: float, B: int) -> tuple[float, float, int, float]:
    """(value, t_star, iterations, residual) of I(c, B); t_star is NaN on the zero branch.

    B == 0 is on the zero branch for every c, and B == 1 has the closed
    form I(c, 1) = log 2 - H(c) at t* = log(c/(1-c)).  Otherwise Newton's
    method runs on tilted_mean(t) - c, whose derivative is the tilted
    variance, both from _moments in O(1) per step away from t = 0, from the
    smaller of the small-tilt guess (c - B/2)*12/(B(B+2))
    and the small-c guess log(c).  Every evaluation tightens a bracket
    [t_lo, 0] around the root; a step that leaves it is replaced by
    bisection, or by doubling t while t_lo is still -inf.  The solve stops
    once |tilted_mean(t) - c| <= DEFAULT_TOL*min(1, c), which puts t within
    about DEFAULT_TOL of t* at every c > 0, or once the bracket admits no
    new point, or after _MAX_ITER steps.  The log-MGF in the value t*c - log_mgf(t*) is
    taken at the returned t* alone.  residual is |tilted_mean(t*) - c| at
    the returned t*.
    """
    if B <= 0 or c >= 0.5 * B:
        return (0.0, math.nan, 0, 0.0)
    if c <= 0.0:
        return (math.log(B + 1), -math.inf, 0, 0.0)
    if B == 1:
        t = math.log(c / (1.0 - c))
        value = math.log(2.0) + c * math.log(c) + (1.0 - c) * math.log1p(-c)
        return (max(value, 0.0), t, 0, abs(_moments(t, 1)[0] - c))
    target = DEFAULT_TOL * min(1.0, c)
    t_lo = -math.inf
    t_hi = 0.0
    t = min((c - 0.5 * B) * 12.0 / (B * (B + 2)), math.log(c))
    iterations = 0
    while True:
        mean, var = _moments(t, B)
        resid = mean - c
        if abs(resid) <= target or iterations == _MAX_ITER:
            break
        if resid < 0.0:
            t_lo = t
        else:
            t_hi = t
        step = t - resid / var if var > 0.0 else -math.inf
        if not t_lo < step < t_hi:
            # safeguard: bisect, or double outward while t_lo is unknown
            step = 2.0 * t if t_lo == -math.inf else 0.5 * (t_lo + t_hi)
            if not t_lo < step < t_hi:
                break
        t = step
        iterations += 1
    return (max(t * c - _log_mgf(t, B), 0.0), t, iterations, abs(resid))


def log_mgf(t: float, B: int) -> float:
    """log of the mean of e^(j*t) over j = 0..B, stable for any finite t."""
    _check_t_B(t, B)
    return _log_mgf(t, B)


def tilted_mean(t: float, B: int) -> float:
    """Mean of the tilted distribution; strictly increasing in t, B/2 at t=0."""
    _check_t_B(t, B)
    return _moments(t, B)[0]


def rate_I(q: RateQuery) -> RateResult:
    """I(c, B) via the dual solve.

    c >= B/2 returns 0 without iterating; c = 0 returns log(B+1) and
    B = 1 returns log 2 - H(c), both analytically; other interior c solves
    tilted_mean(t, B) = c by safeguarded Newton on t < 0 and returns
    t*c - log_mgf(t*, B).  The solve stops once
    |tilted_mean(t, B) - c| <= DEFAULT_TOL*min(1, c), so t* is accurate to
    about DEFAULT_TOL even for c far below it.
    """
    value, t_star, iterations, residual = _rate_value(q.c, q.B)
    if math.isnan(t_star):
        t_star = None
    return RateResult(value, t_star, iterations, residual)


def log_W_rate_limit(q: RateQuery) -> float:
    """Limiting growth rate log(B+1) - I(c, B) of the bounded simplex counts."""
    return math.log(q.B + 1) - rate_I(q).value


def _check_max_B(B: int) -> None:
    if B > MAX_B:
        raise ValueError(f"B = {B} exceeds the rate solve's limit of {MAX_B}")


def _check_t_B(t: float, B: int):
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    _check_max_B(B)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
