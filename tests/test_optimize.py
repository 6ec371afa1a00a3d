import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sumdiff import optimize, ratefn
from sumdiff.optimize import (
    TABLE_EPS,
    OptimizationReport,
    maximize_a,
    maximize_r,
    table1,
    theta_objective,
)
from sumdiff.ratefn import _MAX_ITER, DEFAULT_TOL, RateQuery, _newton_root, rate_I

from test_acceptance import TABLE_COLUMN_1E10


class TestThetaObjective:
    def test_all_rate_terms_vanish_case(self):
        # B=1, r=1, a=0.5: every I term sits on its zero branch, so
        # theta - 1 = (1.5*log2 - log3)/log3
        point = theta_objective(1, 1.0, 0.5)
        expected = (1.5 * math.log(2) - math.log(3)) / math.log(3)
        assert math.isclose(point.theta_minus_1, expected, rel_tol=1e-14)
        for c, B in [(0.5, 1), (1.0, 0), (2.0, 1), (2.0, 2)]:
            assert rate_I(RateQuery(c, B)).value == 0

    def test_term_by_term_oracle(self):
        # recompute the numerator term by term through the public rate_I,
        # accumulated in the same order, so the two agree bit for bit
        B, r, a = 2, 1.0, 0.9
        point = theta_objective(B, r, a)
        ar = a * r
        numer = math.log(2)
        numer += ar * math.log(B)
        numer += (1 - ar) * math.log(B + 1)
        numer -= rate_I(RateQuery(ar, 1)).value
        numer -= ar * rate_I(RateQuery((1 - a) / a, B - 1)).value
        numer -= (1 - ar) * rate_I(RateQuery(r / (1 - ar), B)).value
        numer -= math.log(2 * B + 1)
        numer += rate_I(RateQuery(2 * r, 2 * B)).value
        assert point.theta_minus_1 == numer / math.log(2 * B + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_objective(5, 2.0, 0.6)  # a >= 1/r
        with pytest.raises(ValueError):
            theta_objective(5, 0.5, 0.0)
        with pytest.raises(ValueError):
            theta_objective(5, 0.5, 1.0)
        with pytest.raises(ValueError):
            theta_objective(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            theta_objective(5, -1.0, 0.5)


def dec_f(t, B):
    """Oracle: f_B(t) = log[(1 + x - 2x^(B+1)) / (1 - x^(2B+1))], x = e^t, in 50-digit decimal.

    t is taken exactly (a float or a Decimal); each x^k is exp(k t).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t)
        return ((1 + t.exp() - 2 * ((B + 1) * t).exp()) / (1 - ((2 * B + 1) * t).exp())).ln()


def dec_folded(t, B):
    """Oracle: (mean, variance, P(Y < 0)) of |Y|, Y uniform on {-B..B} tilted by e^(t|Y|), by direct sums."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t)
        terms = [(k * t).exp() for k in range(B + 1)]
        weights = [terms[0]] + [2 * e for e in terms[1:]]
        s0 = sum(weights)
        mean = sum(k * w for k, w in enumerate(weights)) / s0
        var = sum(k * k * w for k, w in enumerate(weights)) / s0 - mean * mean
        return mean, var, sum(terms[1:]) / s0


def dec_rate(weights, c):
    """Oracle: (rate, slope, curvature) in c of the law P(J = j) ~ weights[j] at mean c.

    The rate sup_t (t c - log E e^(tJ)) is 0 from c >= E J; otherwise the
    tilt, the slope, is found by bisection on the tilted mean to 1e-25, in
    50-digit decimal, and the curvature is 1/Var there.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        c = Decimal(c)
        total = sum(Decimal(w) for w in weights)

        def moments(t):
            terms = [w * (j * t).exp() for j, w in enumerate(weights)]
            s0 = sum(terms)
            mean = sum(j * e for j, e in enumerate(terms)) / s0
            return mean, sum(j * j * e for j, e in enumerate(terms)) / s0 - mean * mean, (s0 / total).ln()

        if c >= moments(Decimal(0))[0]:
            return Decimal(0), Decimal(0), Decimal(0)
        lo, hi = Decimal(-1), Decimal(0)
        while moments(lo)[0] >= c:
            lo *= 2
        while hi - lo > Decimal("1e-25"):
            mid = (lo + hi) / 2
            if moments(mid)[0] < c:
                lo = mid
            else:
                hi = mid
        _, var, lmgf = moments(lo)
        return lo * c - lmgf, lo, 1 / var


def inner_max(B, r):
    """Oracle: (I(2r, 2B) - J_B(2r), its slope in r, its curvature in r), from dec_rate."""
    i, t_i, k_i = dec_rate([1] * (2 * B + 1), 2 * r)
    j, t_j, k_j = dec_rate([1] + [2] * B, 2 * r)
    return i - j, 2 * (t_i - t_j), 4 * (k_i - k_j)


def P(x, B):
    """The integer polynomial whose root in (0, 1) is x* = e^t*; positive below it."""
    return 1 - 2 * (B + 1) * x**B + (2 * B + 1) * x ** (2 * B) + 2 * B * x ** (2 * B + 1) - 2 * B * x ** (3 * B + 1)


class TestObjectiveDerivatives:
    def test_match_central_differences(self):
        # f' and f'' of _folded against 50-digit central differences of f, and
        # the mean, variance and P(Y < 0) of |Y| against direct sums, on tilts
        # with x^B from 0.9 down to 1e-6, and x^B = 1/(2B + 2) near t*
        for B in (1, 2, 3, 5, 10, 40, 10**6, 10**12):
            for xb in (0.9, 0.5, 1 / (2 * B + 2), 1e-3, 1e-6):
                t = math.log(xb) / B
                slope, curvature, mean, var, p = optimize._folded(t, B)
                with localcontext() as ctx:
                    ctx.prec = 50
                    T = Decimal(t)
                    h1, h2 = Decimal("1e-20") * abs(T), Decimal("1e-10") * abs(T)
                    d1 = (dec_f(T + h1, B) - dec_f(T - h1, B)) / (2 * h1)
                    d2 = (dec_f(T + h2, B) - 2 * dec_f(T, B) + dec_f(T - h2, B)) / (h2 * h2)
                # near t*, where f' is tiny, its error stays below 1e-15 at any B
                assert abs(slope - float(d1)) <= 1e-14 * abs(float(d1)) + 1e-15
                assert abs(curvature - float(d2)) <= 1e-12 * abs(float(d2))
                if B <= 40:
                    oracle = dec_folded(t, B)
                    for got, want in zip((mean, var, p), oracle):
                        assert abs(got - float(want)) <= 1e-14 * float(want)

    def test_inner_maximum_slope_and_curvature(self):
        # V(r) = max_a N = I(2r, 2B) - J(2r), so V' = 2(t_I - t_J) and
        # V'' = 4(1/Var_I - 1/Var_J) at the two tilts (J = 0 past its mean,
        # as at B = 3, r = 1.4): against central differences of maximize_a's values
        h1, h2 = 1e-5, 1e-4
        for B in range(3, 11):
            for r in (0.6, 0.805, 1.4):
                _, slope, curvature = inner_max(B, r)
                mid = maximize_a(B, r, 1e-12)[1]
                up, down = (maximize_a(B, r + d, 1e-12)[1] for d in (h1, -h1))
                assert abs(float(slope) - (up - down) / (2 * h1)) <= 1e-8
                up, down = (maximize_a(B, r + d, 1e-12)[1] for d in (h2, -h2))
                assert abs(float(curvature) - (up - 2 * mid + down) / (h2 * h2)) <= 1e-5 * max(1.0, abs(float(curvature)))

    @given(st.integers(1, 40), st.floats(0.01, 50.0))
    def test_slope_changes_sign_once(self, B, k):
        # f' > 0 left of t* and < 0 right of it, the one sign change the root loop needs
        assume(abs(k - 1.0) > 1e-6)
        t_star = maximize_r(B, 1e-12).t_star
        slope = optimize._folded(k * t_star, B)[0]
        assert slope > 0.0 if k > 1.0 else slope < 0.0


class TestNewtonMax:
    # _newton_root on h = -f' = atan(d) + 0.6 sin(d), d = t - C, for an f whose
    # one maximum is at C < 0; |h| > 0.97 away from it, and h' < 0 near d = +-pi
    C = -8.0

    @classmethod
    def bump(cls, t):
        d = t - cls.C
        return math.atan(d) + 0.6 * math.sin(d), 1.0 / (1.0 + d * d) + 0.6 * math.cos(d)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-300])
    @pytest.mark.parametrize("start", [1.0, -1.0, 3.0, -3.5, 0.95, 5.9])
    def test_safeguards_reach_the_maximum(self, start, eps):
        # starts at C + start on both sides of C, two of them (3.0, -3.5) where
        # h' < 0; eps = 1e-300 asks for h = 0 or a bracket that admits no new point
        calls = []

        def F(t):
            calls.append(t)
            return self.bump(t)

        t, y, steps = _newton_root(F, self.C + start, eps)
        assert abs(t - self.C) <= max(2 * eps, 2 * math.ulp(self.C))
        assert calls[-1] == t and y == self.bump(t)
        assert steps + 1 == len(calls) and steps < _MAX_ITER
        assert all(c < 0.0 for c in calls)

    def test_non_finite_step_ends(self):
        # h' = 0 makes every Newton step infinite: doubling finds t_lo, then
        # bisection narrows the bracket on the jump of h at -3 until it admits
        # no new point
        def F(t):
            return (1.0 if t > -3.0 else -1.0), 0.0

        t, y, steps = _newton_root(F, -1.0, 1e-8)
        assert abs(t + 3.0) <= math.ulp(3.0) and y == F(t)
        assert steps < _MAX_ITER

    @pytest.mark.parametrize("call", [lambda: maximize_r(5, 1e-10), lambda: maximize_a(5, 0.8, 1e-10)])
    def test_step_cap_raises(self, monkeypatch, call):
        # a search that the step cap ends short of eps reports no optimum
        monkeypatch.setattr(ratefn, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="eps"):
            call()


class TestOneVariable:
    @pytest.mark.parametrize("B", range(1, 41))
    def test_closed_form_maximum(self, B):
        # theta - 1 (the paper's N at (a*, r*)) is max f_B / log(2B+1): P_B
        # changes sign across x* (1 +- 1e-12) in exact rationals, so t* is the
        # maximum, where f_B in decimal is stationary to about 1e-24
        rep = maximize_r(B, 1e-12)
        x = Fraction(math.exp(rep.t_star))
        assert P(x * (1 - Fraction(1, 10**12)), B) > 0 > P(x * (1 + Fraction(1, 10**12)), B)
        top = dec_f(rep.t_star, B) / Decimal(2 * B + 1).ln()
        assert abs(rep.theta_minus_1 - float(top)) <= 1e-15
        assert abs(rep.r_star - 0.5 * float(dec_folded(rep.t_star, B)[0])) <= 1e-14 * rep.r_star
        assert rep.grad_norm <= 1e-12 and rep.curvature < 0.0

    def test_B1_closed_form(self):
        rep = maximize_r(1, 1e-12)
        assert abs(math.exp(rep.t_star) - (math.sqrt(3) - 1) / 2) <= 1e-15
        assert rep.a_star == 1.0

    @pytest.mark.parametrize("k", range(3, 16))
    def test_large_B_deficit(self, k):
        # f_B -> log 2 with deficit (1 + log 2B)/(2B) (1 + O(log B / B))
        B = 10**k
        rep = maximize_r(B, 1e-10)
        assert rep.evaluations <= 40
        assert rep.grad_norm <= 1e-10 and rep.curvature < 0.0
        assert rep.theta_minus_1 < math.log(2) / math.log(2 * B + 1)
        with localcontext() as ctx:
            ctx.prec = 50
            deficit = Decimal(2).ln() - dec_f(rep.t_star, B)
        assert abs(float(deficit) / ((1 + math.log(2 * B)) / (2 * B)) - 1.0) <= 0.01

    @pytest.mark.parametrize("B", [10**20, 10**50, 10**100])
    def test_past_float_resolution_of_x(self, B):
        # x* = e^t* rounds to 1.0 here; the search runs in t and still converges
        rep = maximize_r(B, 1e-10)
        assert rep.evaluations <= 40
        assert rep.grad_norm <= 1e-10 and rep.curvature < 0.0
        assert 0.0 < rep.theta_minus_1 < 1.0


class TestMaximizeA:
    def test_domain_shape(self):
        a_star, value = maximize_a(1, 2.0, 1e-8)
        assert 0 < a_star < 0.5
        assert math.isfinite(value)

    def test_tolerance_refinement(self):
        _, coarse = maximize_a(3, 1.0, 1e-6)
        _, fine = maximize_a(3, 1.0, 1e-10)
        assert abs(coarse - fine) < 1e-5

    def test_at_least_grid_maximum(self):
        # oracle: the best of a 3,999-point grid inside the a-interval (0, top)
        eps = 1e-10
        for B in range(3, 11):
            for r in (0.6, 0.805, 1.4):
                top = min(1.0, 1.0 / r)
                a_star, value = maximize_a(B, r, eps)
                grid = max(optimize._objective(top * k / 4000, r, B) for k in range(1, 4000))
                assert value >= grid - 1e-12
                assert value / math.log(2 * B + 1) == theta_objective(B, r, a_star).theta_minus_1
                # these optima are interior, where the slope vanishes
                assert 1e-6 < a_star < top - 1e-6
                h = 1e-6
                up, down = (optimize._objective(a_star + d, r, B) for d in (h, -h))
                assert abs(up - down) / (2 * h) <= 1e-8

    def test_value_is_I_minus_J(self):
        # the inner maximum in closed form, in 50-digit decimal: tilted cells,
        # and untilted ones (2r past the mean of |Y|) with I(2r, 2B) > 0 and = 0
        for B, r in [(1, 0.2), (2, 0.3), (3, 0.6), (5, 0.805), (7, 1.4), (10, 0.05), (10, 3.0), (3, 2.0)]:
            value = maximize_a(B, r, 1e-12)[1]
            assert abs(value - float(inner_max(B, r)[0])) <= 1e-14

    def test_value_consistent_with_objective(self):
        # the search and the point evaluation share one numerator
        r, eps = 0.805, 1e-10
        for B in range(3, 11):
            a_star, value = maximize_a(B, r, eps)
            point = theta_objective(B, r, a_star)
            assert value / math.log(2 * B + 1) == point.theta_minus_1


class TestMaximizeR:
    def test_reference_cells(self):
        assert abs(maximize_r(3, 1e-6).theta_minus_1 - 0.168700179627153) < 1e-8
        assert abs(maximize_r(10, 1e-10).theta_minus_1 - 0.168465310634737) < 1e-8
        # coarse-tolerance optima depend on optimizer internals: looser match
        assert abs(maximize_r(5, 1e-4).theta_minus_1 - 0.173077285664668) < 1e-6

    def test_report_reevaluates(self):
        for B in range(3, 11):
            rep = maximize_r(B, 1e-10)
            point = theta_objective(rep.B, rep.r_star, rep.a_star)
            assert rep.theta_minus_1 == point.theta_minus_1

    def test_at_least_grid_maximum(self):
        # oracle: the best inner maximum on a 150-point grid over the whole
        # r-domain (0, B/2), where a* = 1 at B = 1 for r <= 1/3
        for B in (*range(1, 11), 20, 40):
            best = max(maximize_a(B, 0.5 * B * k / 151, 1e-10)[1] for k in range(1, 151))
            assert maximize_r(B, 1e-10).theta_minus_1 * math.log(2 * B + 1) >= best - 1e-12

    def test_slope_and_curvature_at_optimum(self):
        for B in range(1, 11):
            rep = maximize_r(B, 1e-10)
            assert rep.grad_norm <= 1e-8
            assert rep.curvature < 0.0

    def test_B1_optimum_on_the_face(self):
        # on a = 1 the a-terms are the entropy H(r, r, 1 - 2r), and with the
        # closed form of I(2r, 2), N_r = 0 at r* = (3 - sqrt 3)/6; eps bounds
        # |f'|, so eps = 1e-12 puts r* within about 1e-13
        rep = maximize_r(1, 1e-12)
        assert rep.a_star == 1.0
        assert abs(rep.r_star - (3 - math.sqrt(3)) / 6) <= 1e-12
        assert round(rep.theta_minus_1, 6) == 0.130930
        assert rep.theta_minus_1 == theta_objective(1, rep.r_star, 1.0).theta_minus_1
        a_star, value = maximize_a(1, rep.r_star, 1e-12)
        assert a_star == 1.0 and value / math.log(3) == rep.theta_minus_1

    @pytest.mark.parametrize(
        "B, r_star, theta_minus_1",
        [(2, 0.3808, 0.159182), (20, 2.4548, 0.156919), (100, 9.1863, 0.124856), (1000, 65.53, 0.090622)],
    )
    def test_whole_domain_optima(self, B, r_star, theta_minus_1):
        # optima on both sides of the small-B range r* = 0.53..1.41 of the table
        rep = maximize_r(B, 1e-10)
        digits = 4 if B < 1000 else 2
        assert round(rep.r_star, digits) == r_star
        assert round(rep.theta_minus_1, 6) == theta_minus_1
        assert rep.grad_norm <= 1e-8 and rep.curvature < 0.0

    def test_theta_peaks_at_B5(self):
        best = maximize_r(5, 1e-10).theta_minus_1
        for B in (*range(1, 5), *range(6, 41), 100, 1000):
            assert maximize_r(B, 1e-10).theta_minus_1 < best

    def test_ends_at_tiny_eps(self):
        # eps far below float spacing: the search ends on a bracket that
        # admits no new point, before the step cap
        rep = maximize_r(5, 1e-300)
        assert rep.evaluations <= _MAX_ITER
        assert abs(rep.theta_minus_1 - maximize_r(5, 1e-10).theta_minus_1) <= 1e-15

    def test_deterministic(self):
        assert maximize_r(6, 1e-8) == maximize_r(6, 1e-8)

    def test_evaluates_each_point_once(self, monkeypatch):
        # t* is a tilt the search evaluated, so it is not evaluated again,
        # and evaluations counts every evaluation of f
        points = []
        evaluate = optimize._folded

        def counting(t, B):
            points.append(t)
            return evaluate(t, B)

        monkeypatch.setattr(optimize, "_folded", counting)
        rep = maximize_r(5, 1e-8)
        assert rep.t_star in points
        assert len(points) == len(set(points)) == rep.evaluations

    @pytest.mark.parametrize("B, eps", [(100, 0.1), (1000, 0.1), (3000, 0.01)])
    def test_coarse_eps_reaches_interior_optimum(self, B, eps):
        # a* ~ 0.5/r* lies below these eps: eps only stops the search
        rep = maximize_r(B, eps)
        assert rep.evaluations <= _MAX_ITER
        assert rep.grad_norm <= eps
        assert abs(rep.theta_minus_1 - maximize_r(B, 1e-10).theta_minus_1) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_r(0, 1e-8)
        with pytest.raises(ValueError):
            maximize_r(3, -1e-8)

    def test_large_B(self):
        # every tilt costs O(1), so B = 5001, whose numerator solves I(2r, 2B)
        # at 2B = 10,002, runs like B = 5, to its r* = 271.2
        B = 5001
        rep = maximize_r(B, 1e-4)
        assert 0.0 < rep.theta_minus_1 < 1.0
        assert rep.r_star > 2.0 and rep.grad_norm <= 1e-6 and rep.curvature < 0.0
        assert rep.evaluations <= _MAX_ITER
        _, value = maximize_a(B, rep.r_star, 1e-4)
        assert abs(value / math.log(2 * B + 1) - rep.theta_minus_1) <= 1e-6
        assert math.isfinite(theta_objective(B, 1.0, 0.5).theta_minus_1)
        assert maximize_r(B, 1e-10).grad_norm <= 1e-6
        assert maximize_r(10**4, 1e-10).grad_norm <= 1e-6


class TestTable1:
    @pytest.fixture(scope="class")
    def fine_columns(self):
        return table1(eps_list=(1e-8, 1e-10), b_range=(3, 10))

    def test_reference_column(self, fine_columns):
        for row in fine_columns:
            cell = row[1]
            assert cell.epsilon == 1e-10
            assert abs(cell.theta_minus_1 - TABLE_COLUMN_1E10[cell.B]) < 1e-8

    def test_argmax_is_B5_and_headline_bound(self, fine_columns):
        best = max((row[1] for row in fine_columns), key=lambda c: c.theta_minus_1)
        assert best.B == 5
        assert 1 + best.theta_minus_1 >= 1.173077

    def test_last_two_tolerance_columns_stabilize(self, fine_columns):
        for row in fine_columns:
            assert abs(row[0].theta_minus_1 - row[1].theta_minus_1) < 1e-10

    def test_interior_optima(self, fine_columns):
        for row in fine_columns:
            cell = row[1]
            assert 0.5 < cell.r_star < 2.0
            assert 0.0 < cell.a_star < min(1.0, 1.0 / cell.r_star)

    def test_default_table_evaluations(self):
        # a guard on the search cost that needs no timing
        assert sum(cell.evaluations for row in table1() for cell in row) <= 250

    def test_cells_are_cold_searches(self):
        # no cell starts from another's optimum
        for row in table1():
            for cell in row:
                assert cell == maximize_r(cell.B, cell.epsilon)

    def test_row_major_shape(self):
        rows = table1(eps_list=(1e-4, 1e-6), b_range=(1, 2))
        assert [[c.B for c in row] for row in rows] == [[1, 1], [2, 2]]
        assert [[c.epsilon for c in row] for row in rows] == [[1e-4, 1e-6]] * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            table1(eps_list=())
        with pytest.raises(ValueError):
            table1(b_range=(0, 5))
        with pytest.raises(ValueError):
            table1(b_range=(3, 11))


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.inf, math.nan, 1.0])
def test_entry_points_reject_eps_without_a_bracket(eps):
    # only 0 < eps < 1 is accepted
    with pytest.raises(ValueError, match="eps"):
        maximize_a(5, 0.8, eps)
    with pytest.raises(ValueError, match="eps"):
        maximize_r(5, eps)
    with pytest.raises(ValueError, match="eps"):
        table1((1e-4, eps), (5, 5))


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_entry_points_accept_coarse_eps(eps):
    # eps only stops the search, so a coarse one still reaches an interior a*
    a_star, value = maximize_a(5, 2.0, eps)
    assert 0.0 < a_star < 0.5 and math.isfinite(value)
    assert maximize_r(5, eps).grad_norm <= eps
    assert table1((1e-4, eps), (5, 5))[0][1].grad_norm <= eps


def test_maximize_a_range_is_never_empty():
    # eps only stops the search, so the a-range (0, 1/r) holds an optimum at
    # any r, even where 1/r is below eps or below 1e-12
    for r, eps in [(10.0, 0.1), (1e13, 1e-14)]:
        a_star, value = maximize_a(5, r, eps)
        assert 0.0 < a_star < 1.0 / r
        assert math.isfinite(value)


def test_default_eps_columns_match_published_layout():
    assert TABLE_EPS == (1e-4, 1e-6, 1e-8, 1e-10)
    assert DEFAULT_TOL == 1e-12
    assert set(maximize_r(3, 1e-4)._asdict().keys()) == {
        "B",
        "epsilon",
        "r_star",
        "a_star",
        "t_star",
        "theta_minus_1",
        "evaluations",
        "grad_norm",
        "curvature",
    }
