"""Large-deviation rate function of the uniform distribution on {0,...,B}.

I(c, B) is zero for c >= B/2 (the event is typical) and otherwise the
Legendre transform sup_t (t*c - log((1 + e^t + ... + e^{Bt})/(B+1))),
attained at the negative tilt t* where the tilted mean equals c.  It governs
the exponential decay of the probability that m uniform draws sum to at most
c*m, hence the growth rate of the bounded simplex counts:

    log |W(m, floor(r*m), B)| / m  ->  log(B+1) - I(r, B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: bisection tolerance on the tilt; fixed independently of any outer search
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class RateQuery:
    """Target mean c and support bound B.

    B = 0 (single-point support, mean 0) is admitted so that callers can
    treat the inner rate term uniformly; every c >= 0 then sits on the zero
    branch.
    """

    c: float
    B: int

    def __post_init__(self):
        if not isinstance(self.B, int) or isinstance(self.B, bool) or self.B < 0:
            raise ValueError(f"B must be a nonnegative integer, got {self.B!r}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be a nonnegative finite real, got {self.c!r}")


@dataclass(frozen=True)
class RateResult:
    """I(c, B) with solver diagnostics.

    t_star is the optimal tilt: None on the zero branch (no solve), -inf for
    c = 0 (supremum approached only in the limit), a finite negative number
    for interior c.
    """

    value: float
    t_star: float | None
    iterations: int
    residual: float


def _log_mgf(t: float, B: int) -> float:
    # The max exponent max(0, B*t) is shifted out before exponentiating, so
    # the sum stays in range for any representable t; underflow of far terms
    # is harmless.
    shift = B * t if t > 0.0 else 0.0
    s = 0.0
    for j in range(B + 1):
        s += math.exp(j * t - shift)
    return shift + math.log(s) - math.log(B + 1)


def _tilted_mean(t: float, B: int) -> float:
    shift = B * t if t > 0.0 else 0.0
    num = 0.0
    den = 0.0
    for j in range(B + 1):
        e = math.exp(j * t - shift)
        den += e
        num += j * e
    return num / den


def _rate_value(c: float, B: int, tol: float) -> tuple[float, float, int, float]:
    """(value, t_star, iterations, residual) of I(c, B); t_star is NaN on the zero branch.

    B == 0 is on the zero branch for every c.  For interior c the initial
    bracket low end -2*log(B+1)/max(c, 0.01) is expanded geometrically until
    it straddles the root.
    """
    if B <= 0 or c >= 0.5 * B:
        return (0.0, math.nan, 0, 0.0)
    if c <= 0.0:
        return (math.log(B + 1), -math.inf, 0, 0.0)
    iterations = 0
    t_lo = -2.0 * math.log(B + 1) / max(c, 0.01)
    while _tilted_mean(t_lo, B) >= c:
        t_lo *= 2.0
        iterations += 1
        if t_lo < -1e306:
            break
    t_hi = 0.0
    while t_hi - t_lo > tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            break
        if _tilted_mean(t_mid, B) < c:
            t_lo = t_mid
        else:
            t_hi = t_mid
        iterations += 1
    t_star = 0.5 * (t_lo + t_hi)
    value = t_star * c - _log_mgf(t_star, B)
    if value < 0.0:
        value = 0.0
    residual = abs(_tilted_mean(t_star, B) - c)
    return (value, t_star, iterations, residual)


def log_mgf(t: float, B: int) -> float:
    """log of the mean of e^(j*t) over j = 0..B, stable for any finite t."""
    _check_t_B(t, B)
    return _log_mgf(t, B)


def tilted_mean(t: float, B: int) -> float:
    """Mean of the tilted distribution; strictly increasing in t, B/2 at t=0."""
    _check_t_B(t, B)
    return _tilted_mean(t, B)


def rate_I(q: RateQuery, tol: float = DEFAULT_TOL) -> RateResult:
    """I(c, B) via the dual solve.

    c >= B/2 returns 0 without iterating; c = 0 returns log(B+1)
    analytically; interior c solves tilted_mean(t, B) = c by bisection on
    t in [t_lo, 0] and returns t*c - log_mgf(t*, B).
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    value, t_star, iterations, residual = _rate_value(q.c, q.B, tol)
    if math.isnan(t_star):
        t_star = None
    return RateResult(value, t_star, iterations, residual)


def log_W_rate_limit(q: RateQuery, tol: float = DEFAULT_TOL) -> float:
    """Limiting growth rate log(B+1) - I(c, B) of the bounded simplex counts."""
    return math.log(q.B + 1) - rate_I(q, tol).value


def _check_t_B(t: float, B: int):
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
