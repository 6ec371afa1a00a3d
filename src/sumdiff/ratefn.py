"""Large-deviation rate function of the uniform distribution on {0,...,B}.

I(c, B) is zero for c >= B/2 (the event is typical) and otherwise the
Legendre transform sup_t (t*c - log((1 + e^t + ... + e^{Bt})/(B+1))),
attained at the negative tilt t* where the tilted mean equals c.  t* is
found by _newton_root, a safeguarded Newton loop on t < 0 that optimize's
one-variable searches share, here with the tilted variance as derivative
(d/dt tilted_mean = Var_t); B = 1 has a closed form.  The tilted
law is a truncated geometric law, so each step takes its mean, variance and
log-MGF in O(1) for any B: in closed form, or near t = 0, where that form
cancels, from the Bernoulli series of coth.  It governs
the exponential decay of the probability that m uniform draws sum to at most
c*m, hence the growth rate of the bounded simplex counts:

    log |W(m, floor(r*m), B)| / m  ->  log(B+1) - I(r, B).
"""
import math
from typing import NamedTuple

#: the one rate-solve tolerance, which no caller sets: the tilt t* is found
#: to about this absolute accuracy, fixed independently of any outer search
DEFAULT_TOL = 1e-12

#: hard cap on the steps of one _newton_root search
_MAX_ITER = 100

#: B_2k/(2k)! for k = 1..7, the coefficients of h(x) = coth(x/2)/2 - 1/x =
#: sum_k B_2k x^(2k-1)/(2k)! (Abramowitz & Stegun 4.5.67, radius 2*pi); at
#: x < 1/4 the first omitted term is below 1e-18 of h, h' and k
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


class RateQuery(NamedTuple("RateQuery", [("c", float), ("B", int)])):
    """Target mean c and support bound B >= 0.

    B = 0 (single-point support, mean 0) is admitted so that callers can
    treat the inner rate term uniformly; every c >= 0 then sits on the zero
    branch.
    """

    __slots__ = ()

    def __new__(cls, c: float, B: int):
        if not isinstance(B, int) or isinstance(B, bool) or B < 0:
            raise ValueError(f"B must be a nonnegative integer, got {B!r}")
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


def _series(x: float) -> tuple[float, float, float]:
    """(h(x), h'(x), k(x)) for 0 <= x < 1/4, by the Bernoulli series in _BERNOULLI.

    h(x) = coth(x/2)/2 - 1/x and k(x) = log(sinh(x/2)/(x/2)), whose slope is h.
    """
    y = x * x
    h = dh = k = 0.0
    for i in range(len(_BERNOULLI) - 1, -1, -1):
        c = _BERNOULLI[i]
        h = h * y + c
        dh = dh * y + (2 * i + 1) * c
        k = k * y + c / (2 * i + 2)
    return h * x, dh, k * y


def _moments(t: float, B: int) -> tuple[float, float, float]:
    """(mean, variance, log-MGF) of the tilted distribution, in O(1) for any B.

    Tilted by t = -u < 0, the uniform law on {0..B} is a truncated geometric
    law.  With n = B + 1, x = e^-u and x^n = e^-nu, for nu >= 1/4:

        mean = x/(1-x) - n x^n/(1-x^n),    var = x/(1-x)^2 - n^2 x^n/(1-x^n)^2,
        log-MGF = log((1-x^n)/(n(1-x))),

    x and x^n come from exp and 1 - x, 1 - x^n from expm1, so each keeps its
    relative precision at every u.  Near t = 0 the two mean terms, each about
    1/u, cancel to about B/2, so below nu = 1/4, where they cancel by at most
    a factor of about 8, the same law is written with h and k of _series:

        mean = B/2 + h(u) - n h(nu),    var = n^2 h'(nu) - h'(u),
        log-MGF = k(nu) - k(u) - Bu/2.

    The branch is on nu, not u, so the cancellation stays bounded at any B.
    t > 0 follows by the symmetry j -> B - j: the mean is B - mean(-t), the
    variance is unchanged and the log-MGF adds B*t.
    """
    u = abs(t)
    n = B + 1.0
    nu = n * u
    if nu < 0.25:
        h, dh, k = _series(u)
        hn, dhn, kn = _series(nu)
        mean = 0.5 * B + h - n * hn
        var = n * n * dhn - dh
        lmgf = kn - k - 0.5 * B * u
    else:
        x = math.exp(-u)
        xn = math.exp(-nu)
        a = -math.expm1(-u)
        b = -math.expm1(-nu)
        mean = x / a - n * xn / b
        var = x / (a * a) - n * n * xn / (b * b)
        lmgf = math.log(b / (a * n))
    if t > 0.0:
        return B - mean, var, lmgf + B * t
    return mean, var, lmgf


def _newton_root(F, t: float, eps: float) -> tuple[float, tuple, int]:
    """(t, F(t), steps) of a safeguarded Newton search for the root of h in t < 0.

    F(t) returns (h, h', ...), where h changes sign once on t < 0, from
    negative to positive; t = 0 is never evaluated.  Every evaluation
    tightens a bracket [t_lo, 0] around the root; a Newton step that leaves
    it, or that h' <= 0 leaves undefined, is replaced by bisection, or by
    doubling t while t_lo is still -inf.  It stops once |h| <= eps or the
    bracket admits no new point, and raises ArithmeticError at _MAX_ITER steps.
    """
    t_lo, t_hi, steps = -math.inf, 0.0, 0
    while True:
        y = F(t)
        h, dh = y[0], y[1]
        if abs(h) <= eps:
            break
        if steps == _MAX_ITER:
            raise ArithmeticError(f"the search ended at its step cap, {steps} steps, with |h| = {abs(h)!r} > eps = {eps!r}")
        if h < 0.0:
            t_lo = t
        else:
            t_hi = t
        step = t - h / dh if dh > 0.0 else -math.inf
        if not t_lo < step < t_hi:
            # safeguard: bisect, or double outward while t_lo is unknown
            step = 2.0 * t if t_lo == -math.inf else 0.5 * (t_lo + t_hi)
            if not t_lo < step < t_hi:
                break
        t = step
        steps += 1
    return t, y, steps


def _rate_value(c: float, B: int) -> tuple[float, float, int, float]:
    """(value, t_star, iterations, residual) of I(c, B).

    t_star is the slope I'(c): 0 on the zero branch, the only branch with
    t_star = 0.  B == 0 is on the zero branch for every c, and B == 1 has
    the closed form I(c, 1) = log 2 - H(c) at t* = log(c/(1-c)).  Otherwise
    _newton_root runs on tilted_mean(t) - c, whose derivative is the tilted
    variance, both from _moments in O(1) per step, from the smaller of the
    small-tilt guess (c - B/2)*12/(B(B+2)) and the tilt log(c/(1+c)) of the
    geometric law with mean c, the limit B -> inf.  Past B(B+2) ~ 1.8e308,
    where the variance B(B+2)/12 at t = 0 overflows too, that guess raises
    OverflowError.  The solve stops once |tilted_mean(t) - c| <=
    DEFAULT_TOL*min(1, c), which puts t within about DEFAULT_TOL of t* at
    every c > 0.  The value t*c - log_mgf(t*) and residual
    |tilted_mean(t*) - c| take the last step's moments, at the returned t*.
    """
    if B <= 0 or c >= 0.5 * B:
        return (0.0, 0.0, 0, 0.0)
    if c <= 0.0:
        return (math.log(B + 1), -math.inf, 0, 0.0)
    if B == 1:
        t = math.log(c / (1.0 - c))
        value = math.log(2.0) + c * math.log(c) + (1.0 - c) * math.log1p(-c)
        return (max(value, 0.0), t, 0, abs(_moments(t, 1)[0] - c))

    def F(t):
        mean, var, lmgf = _moments(t, B)
        return mean - c, var, lmgf

    t = min((c - 0.5 * B) * 12.0 / (B * (B + 2)), math.log(c / (1.0 + c)))
    t, (resid, _, lmgf), iterations = _newton_root(F, t, DEFAULT_TOL * min(1.0, c))
    return (max(t * c - lmgf, 0.0), t, iterations, abs(resid))


def log_mgf(t: float, B: int) -> float:
    """log of the mean of e^(j*t) over j = 0..B, stable for any finite t."""
    _check_t_B(t, B)
    return _moments(t, B)[2]


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
    if t_star == 0.0:
        t_star = None
    return RateResult(value, t_star, iterations, residual)


def log_W_rate_limit(q: RateQuery) -> float:
    """Limiting growth rate log(B+1) - I(c, B) of the bounded simplex counts."""
    return math.log(q.B + 1) - rate_I(q).value


def _check_B(B) -> None:
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")


def _check_t_B(t: float, B: int):
    _check_B(B)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
