import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiff.ratefn import (
    _MAX_ITER,
    DEFAULT_TOL,
    RateQuery,
    RateResult,
    _moments,
    _rate_value,
    log_W_rate_limit,
    log_mgf,
    rate_I,
    tilted_mean,
)
from sumdiff.wcount import log_count_rate


def entropy(c):
    return -c * math.log(c) - (1 - c) * math.log(1 - c)


def sum_moments(t, B):
    """Oracle: (mean, variance, log-MGF) of the tilted law by the direct sum over j = 0..B.

    The max exponent max(0, B*t) is shifted out before exponentiating, so
    the sums stay in range for any finite t, and each sum is rounded once
    (math.fsum), so at B = 10^4 it is not off by the rounding of 10^4 steps.
    """
    shift = B * t if t > 0.0 else 0.0
    terms = [math.exp(j * t - shift) for j in range(B + 1)]
    s0 = math.fsum(terms)
    mean = math.fsum(j * e for j, e in enumerate(terms)) / s0
    s2 = math.fsum(j * j * e for j, e in enumerate(terms))
    return mean, s2 / s0 - mean * mean, shift + math.log(s0) - math.log(B + 1)


def bisect_rate(c, B, tol=DEFAULT_TOL):
    """Oracle: I(c, B) for interior c by monotone bisection on sum_moments' mean.

    The bracket's low end -2*log(B+1)/max(c, 0.01) is doubled until it
    straddles the root, then the bracket is halved down to width tol in t.
    """
    t_lo = -2.0 * math.log(B + 1) / max(c, 0.01)
    while sum_moments(t_lo, B)[0] >= c:
        t_lo *= 2.0
    t_hi = 0.0
    while t_hi - t_lo > tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            break
        if sum_moments(t_mid, B)[0] < c:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t = 0.5 * (t_lo + t_hi)
    return max(t * c - sum_moments(t, B)[2], 0.0)


@st.composite
def interior_queries(draw):
    """(c, B) with 0 < c < B/2, weighted toward tiny c and c just below B/2."""
    B = draw(st.integers(1, 40))
    half = B / 2
    c = draw(
        st.one_of(
            st.floats(0.0, half, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(1.0, 300.0).map(lambda u: 10.0 ** -u),
            st.floats(0.0, 1e-6, exclude_min=True).map(lambda d: half - d).filter(lambda c: c < half),
        )
    )
    return c, B


def golden_max(f, lo, hi, iters=200):
    """Independent oracle: plain golden-section maximization, no parabolic steps."""
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


class TestLogMgf:
    def test_zero_tilt(self):
        for B in range(1, 12):
            assert log_mgf(0.0, B) == 0.0

    def test_golden(self):
        assert math.isclose(log_mgf(1.0, 1), math.log((1 + math.e) / 2), rel_tol=1e-14)

    def test_deep_negative_tilt_asymptote(self):
        # sum collapses to the j=0 term
        assert abs(log_mgf(-50.0, 3) - (-math.log(4))) < 1e-12

    def test_large_positive_tilt_stable(self):
        # taken at -t by symmetry, so exp stays in range: asymptote B*t - log(B+1)
        B, t = 4, 500.0
        assert math.isclose(log_mgf(t, B), B * t - math.log(B + 1), rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_mgf(math.inf, 2)
        with pytest.raises(ValueError):
            log_mgf(0.0, 0)


class TestTiltedMean:
    def test_uniform_mean_at_zero(self):
        for B in range(1, 12):
            assert tilted_mean(0.0, B) == B / 2

    def test_golden(self):
        assert math.isclose(tilted_mean(1.0, 1), math.e / (1 + math.e), rel_tol=1e-14)

    def test_limits(self):
        assert tilted_mean(-800.0, 5) == 0.0
        assert math.isclose(tilted_mean(800.0, 5), 5.0, rel_tol=1e-12)

    # Past t ~ 28.7 neighbouring tilts can round to the same double (B <= 10,
    # dt >= 0.01), so strictness is checked only where doubles resolve it.
    @given(st.integers(1, 10), st.floats(-30, 20), st.floats(0.01, 5))
    def test_strictly_increasing(self, B, t, dt):
        assert tilted_mean(t, B) < tilted_mean(t + dt, B)

    @given(st.integers(1, 10), st.floats(-30, 30), st.floats(0.01, 5))
    def test_nondecreasing(self, B, t, dt):
        assert tilted_mean(t, B) <= tilted_mean(t + dt, B)


class TestClosedForm:
    # Tolerances from the worst case of 600,000 random draws plus these
    # examples, taken on an earlier kernel that summed near t = 0: mean
    # 5.6e-14 relative, variance 1.7e-11 relative, log-MGF 1.3e-15 *
    # max(1, |log-MGF|).  300,000 draws of this kernel gave 3.6e-15, 1.0e-13
    # and 1.0e-15.  The examples sit at its branch point n|t| = 1/4, n = B + 1.
    @settings(max_examples=300)
    @given(st.integers(1, 40), st.floats(-700.0, 700.0))
    @example(10_000, 1 / (4 * 10_001))
    @example(10_000, -1 / (4 * 10_001))
    @example(10_000, math.nextafter(-1 / (4 * 10_001), 0.0))
    @example(10_000, 0.0)
    @example(10_000, 700.0)
    @example(10_000, -700.0)
    @example(1, 1 / 8)
    @example(1, -1 / 8)
    @example(1, math.nextafter(-1 / 8, 0.0))
    @example(2, math.nextafter(-1 / 12, 0.0))
    @example(40, 0.0)
    def test_matches_direct_sum(self, B, t):
        mean, var, lmgf = _moments(t, B)
        s_mean, s_var, s_lmgf = sum_moments(t, B)
        assert abs(mean - s_mean) <= 1e-13 * s_mean
        assert abs(lmgf - s_lmgf) <= 4e-15 * max(1.0, abs(s_lmgf))
        assert log_mgf(t, B) == lmgf
        # the direct sum's variance cancels for t > 0, so compare on t <= 0
        if t <= 0.0:
            assert abs(var - s_var) <= 5e-11 * s_var

    @settings(max_examples=300)
    @given(st.integers(1, 40), st.floats(-700.0, 700.0))
    @example(36, 28.72)
    @example(36, 31.72)
    def test_variance_positive(self, B, t):
        # the direct sum's s2/s0 - mean^2 cancels at large t: 0.0 at
        # (t, B) = (28.72, 36) and -6.8e-13 at (31.72, 36)
        assert _moments(t, B)[1] > 0.0


class TestRateI:
    def test_zero_branch_exact(self):
        for B in range(1, 11):
            for c in (B / 2, B / 2 + 0.3, float(B), 10.0 * B):
                res = rate_I(RateQuery(c, B))
                assert res == RateResult(0.0, None, 0, 0.0)

    def test_support_bound_zero_is_identically_zero(self):
        for c in (0.0, 0.5, 3.0):
            assert rate_I(RateQuery(c, 0)).value == 0.0

    def test_c_zero_analytic(self):
        for B in range(1, 11):
            res = rate_I(RateQuery(0.0, B))
            assert res.value == math.log(B + 1)
            assert res.t_star == -math.inf
            assert res.iterations == 0

    @given(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    @example(0.05)
    @example(1e-300)
    @example(0.5 - 1e-12)
    def test_closed_form_B1(self, c):
        res = rate_I(RateQuery(c, 1))
        assert abs(res.value - (math.log(2) - entropy(c))) <= 1e-15
        # optimal tilt is log(c/(1-c)), taken without iterating
        assert res.t_star == math.log(c / (1 - c))
        assert res.iterations == 0
        assert res.residual == abs(tilted_mean(res.t_star, 1) - c)

    @settings(max_examples=300, deadline=None)
    @given(interior_queries())
    @example((1e-300, 5))
    @example((1e-300, 40))
    @example((5e-324, 2))
    @example((20.0 - 1e-7, 40))
    def test_newton_matches_bisection_oracle(self, query):
        c, B = query
        res = rate_I(RateQuery(c, B))
        oracle = bisect_rate(c, B)
        assert abs(res.value - oracle) <= 1e-14 * max(1.0, oracle)
        assert res.residual <= 10 * DEFAULT_TOL
        assert res.residual == abs(tilted_mean(res.t_star, B) - c)
        assert res.iterations <= _MAX_ITER

    def test_slope_and_curvature(self):
        # I'(c) = t* and I''(c) = 1/Var at t*: against central differences of I
        h = 1e-5
        for B in range(1, 11):
            for frac in (0.05, 0.3, 0.6, 0.95):
                c = frac * B / 2
                _, t, _, _ = _rate_value(c, B)
                kappa = 1.0 / _moments(t, B)[1]
                dI = (_rate_value(c + h, B)[0] - _rate_value(c - h, B)[0]) / (2 * h)
                d2I = (_rate_value(c + h, B)[1] - _rate_value(c - h, B)[1]) / (2 * h)
                assert abs(t - dI) <= 1e-8 * max(1.0, abs(t))
                assert abs(kappa - d2I) <= 1e-5 * kappa
        for c, B in [(1.0, 2), (2.5, 5), (3.0, 0)]:
            assert _rate_value(c, B)[1] == 0.0

    def test_monotone_nonincreasing_in_c(self):
        for B in range(1, 11):
            grid = [B / 2 * k / 100 for k in range(101)]
            values = [rate_I(RateQuery(c, B)).value for c in grid]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12

    def test_boundary_continuity(self):
        # numeric restatement of upper semicontinuity at c -> B/2
        for B in range(1, 11):
            assert rate_I(RateQuery(B / 2 - 1e-3, B)).value <= 1e-5

    def test_dual_vs_direct(self):
        # oracle: maximize t*c - log_mgf(t, B) directly over the bracket
        for c, B in [(0.3, 1), (0.4, 2), (1.1, 3), (0.07, 4), (2.3, 7), (4.0, 10)]:
            assert c < B / 2
            dual = rate_I(RateQuery(c, B)).value
            _, direct = golden_max(lambda t: t * c - log_mgf(t, B), -2 * math.log(B + 1) / c, 0.0)
            assert abs(dual - direct) < 1e-9

    @settings(max_examples=200)
    @given(st.integers(1, 10), st.floats(0.001, 0.999))
    def test_duality_residual(self, B, frac):
        c = frac * B / 2
        res = rate_I(RateQuery(c, B))
        assert res.residual <= 10 * DEFAULT_TOL
        assert res.t_star < 0

    def test_strictly_positive_below_half(self):
        for B in range(1, 11):
            for frac in (0.1, 0.5, 0.9):
                assert rate_I(RateQuery(frac * B / 2, B)).value > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateQuery(-0.1, 2)
        with pytest.raises(ValueError):
            RateQuery(0.5, -1)

    def test_large_B_near_zero_tilt(self):
        # B = 10^6 and |t| <= 1e-9: the limits B/2, (n^2 - 1)/12 and 0 as t -> 0,
        # with the first cumulant terms, against the O(1) kernel
        B = 10**6
        v0 = ((B + 1) ** 2 - 1) / 12
        for t in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9):
            mean, var, lmgf = _moments(t, B)
            assert abs(mean - (B / 2 + v0 * t)) <= 1e-11 * B
            assert abs(var - v0) <= 1e-7 * v0
            assert abs(lmgf - (B * t / 2 + v0 * t * t / 2)) <= 1e-12 * abs(B * t)
            assert tilted_mean(t, B) == mean and log_mgf(t, B) == lmgf

    @pytest.mark.parametrize("B", [10**6, 10**15, 10**30, 10**100])
    def test_large_B_converges(self, B):
        # the start log(c/(1+c)) is the tilt of the geometric law with mean c,
        # the B -> inf limit, whose entropy at c = 1 is 2 log 2
        res = rate_I(RateQuery(1.0, B))
        assert res.iterations <= 10
        assert res.residual <= 1e-15
        assert math.isclose(res.value, math.log(B + 1) - 2 * math.log(2), rel_tol=1e-13)


class TestLogWRateLimit:
    def test_zero_branch_gives_log_B1(self):
        assert log_W_rate_limit(RateQuery(1.0, 2)) == math.log(3)
        assert log_W_rate_limit(RateQuery(5.0, 2)) == math.log(3)

    def test_c_zero_gives_zero(self):
        assert log_W_rate_limit(RateQuery(0.0, 2)) == 0.0

    def test_finite_m_rate_approaches_limit(self):
        # Mirrors the empirical convergence acceptance check at smaller m.
        limit = log_W_rate_limit(RateQuery(0.5, 2))
        err = abs(log_count_rate(400, 0.5, 2) - limit)
        assert err < 0.01
        assert err < abs(log_count_rate(50, 0.5, 2) - limit)
