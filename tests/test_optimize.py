import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumdiff import optimize
from sumdiff.optimize import (
    TABLE_EPS,
    OptimizationReport,
    maximize_a,
    maximize_r,
    table1,
    theta_objective,
)
from sumdiff.ratefn import DEFAULT_TOL, RateQuery, rate_I

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


class TestObjectiveDerivatives:
    def test_match_central_differences(self):
        # a grid across the a-bracket, skipping the kinks c = B/2 of the three
        # rate terms, where I'' jumps; every term is on its zero branch somewhere
        h1, h2 = 1e-6, 1e-5
        f = optimize._log_diff_rate

        def check(exact, difference, rel):
            assert abs(exact - difference) <= rel * max(1.0, abs(exact))

        on_zero_branch = [0, 0, 0]
        for B in range(1, 11):
            for r in (0.5, 0.805, 1.4, 2.0):
                top = min(1.0, 1.0 / r)
                kinks = (0.5 / r, 2.0 / (B + 1), 1.0 / r - 2.0 / B)
                for k in range(1, 40):
                    a = top * k / 40
                    if any(abs(a - kink) < 1e-3 for kink in kinks):
                        continue
                    on_zero_branch[0] += a * r >= 0.5
                    on_zero_branch[1] += (1 - a) / a >= (B - 1) / 2
                    on_zero_branch[2] += r / (1 - a * r) >= B / 2
                    _, f_a, f_aa, f_r, f_rr, f_ar = f(a, r, B)
                    up, down = f(a + h1, r, B), f(a - h1, r, B)
                    check(f_a, (up[0] - down[0]) / (2 * h1), 1e-8)
                    up, down = f(a, r + h1, B), f(a, r - h1, B)
                    check(f_r, (up[0] - down[0]) / (2 * h1), 1e-8)
                    up, down = f(a + h2, r, B), f(a - h2, r, B)
                    check(f_aa, (up[1] - down[1]) / (2 * h2), 1e-5)
                    check(f_ar, (up[3] - down[3]) / (2 * h2), 1e-5)
                    up, down = f(a, r + h2, B), f(a, r - h2, B)
                    check(f_rr, (up[3] - down[3]) / (2 * h2), 1e-5)
                    check(f_ar, (up[1] - down[1]) / (2 * h2), 1e-5)
        assert min(on_zero_branch) > 0

    def test_inner_maximum_slope_and_curvature(self):
        # V(r) = max_a N: by the envelope theorem V' = N_r at a*(r), and V'' is
        # N_rr - N_ar^2/N_aa there, from the gradient and Hessian that the joint
        # search climbs by, against central differences of maximize_a's values
        h1, h2 = 1e-5, 1e-4
        for B in range(3, 11):
            for r in (0.6, 0.805, 1.4):
                a, mid = maximize_a(B, r, 1e-12)
                _, _, f_aa, f_r, f_rr, f_ar = optimize._log_diff_rate(a, r, B)
                _, n_r, n_rr = optimize._numerator(0.0, r, B)
                v1, v2 = f_r + n_r, f_rr + n_rr - f_ar * f_ar / f_aa
                up, down = (maximize_a(B, r + d, 1e-12)[1] for d in (h1, -h1))
                assert abs(v1 - (up - down) / (2 * h1)) <= 1e-8
                up, down = (maximize_a(B, r + d, 1e-12)[1] for d in (h2, -h2))
                assert abs(v2 - (up - 2 * mid + down) / (h2 * h2)) <= 1e-5 * max(1.0, abs(v2))

    @given(st.integers(1, 40), st.floats(0.1, 10.0), st.floats(1e-6, 1.0 - 1e-6))
    def test_concave(self, B, r, frac):
        a = frac * min(1.0, 1.0 / r)
        _, d1, d2 = optimize._log_diff_rate(a, r, B)[:3]
        assert math.isfinite(d1)
        assert d2 <= 0.0


class TestNewtonMax:
    # exp(-(a^2 + r^2)/2) has its maximum at 0; its Hessian is negative
    # definite only inside the unit circle, and f_aa = 0 exactly at a = +-1
    @staticmethod
    def bump(a, r):
        e = math.exp(-0.5 * (a * a + r * r))
        return e, -a * e, -r * e, (a * a - 1.0) * e, a * r * e, (r * r - 1.0) * e

    @staticmethod
    def clip(a, r):
        return (a, r) if -4.0 < a < 6.0 and -4.0 < r < 6.0 else None

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-300])
    @pytest.mark.parametrize("start", [1.0, -1.0, 3.0, -3.5, 0.95, 5.9])
    def test_safeguards_reach_the_maximum(self, start, eps):
        # starts on f_aa = 0, in the tails where H is indefinite, and at
        # (0.95, 0.1), where the Newton step lands at a = -9.9, outside the domain
        calls = []

        def F(a, r):
            calls.append((a, r))
            return self.bump(a, r)

        x, y, num = optimize._joint_newton(F, (start, 0.1), self.clip, eps)
        assert max(abs(x[0]), abs(x[1])) <= eps
        assert y == self.bump(*x)
        assert x in calls and num == len(calls) < optimize._NEWTON_MAXFUN
        assert all(self.clip(*c) for c in calls)

    def test_non_finite_step_ends(self):
        # an infinite step leaves the domain however far it is halved
        def F(a, r):
            return 0.0, math.inf, 1.0, -1.0, 0.0, -1.0

        assert optimize._joint_newton(F, (0.5, 0.5), self.clip, 1e-8) == ((0.5, 0.5), F(0.5, 0.5), 1)


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
        # oracle: the best of a 4,001-point grid on the search bracket
        eps = 1e-10
        for B in range(3, 11):
            for r in (0.6, 0.805, 1.4):
                lo, hi = eps, min(1.0, 1.0 / r) - eps
                a_star, value = maximize_a(B, r, eps)
                grid = max(optimize._log_diff_rate(lo + (hi - lo) * k / 4000, r, B)[0] for k in range(4001))
                assert value >= optimize._numerator(grid, r, B)[0] - 1e-12
                assert value / math.log(2 * B + 1) == theta_objective(B, r, a_star).theta_minus_1
                # these optima are interior, where the slope vanishes
                assert lo + 1e-6 < a_star < hi - 1e-6
                assert abs(optimize._log_diff_rate(a_star, r, B)[1]) <= 1e-8

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
        # closed form of I(2r, 2), N_r = 0 at r* = (3 - sqrt 3)/6
        rep = maximize_r(1, 1e-10)
        assert rep.a_star == 1.0
        assert abs(rep.r_star - (3 - math.sqrt(3)) / 6) <= 1e-12
        assert round(rep.theta_minus_1, 6) == 0.130930
        assert rep.theta_minus_1 == theta_objective(1, rep.r_star, 1.0).theta_minus_1
        a_star, value = maximize_a(1, rep.r_star, 1e-10)
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
        # eps far below float spacing: the searches end on a step that would
        # not move x or on a bracket that admits no new point
        rep = maximize_r(5, 1e-300)
        assert rep.evaluations < optimize._NEWTON_MAXFUN
        assert abs(rep.theta_minus_1 - maximize_r(5, 1e-10).theta_minus_1) <= 1e-15

    def test_deterministic(self):
        assert maximize_r(6, 1e-8) == maximize_r(6, 1e-8)

    def test_evaluates_each_point_once(self, monkeypatch):
        # (a*, r*) is a point the search evaluated, so it is not evaluated again,
        # and evaluations counts every evaluation
        points = []
        evaluate = optimize._log_diff_rate

        def counting(a, r, B):
            points.append((a, r))
            return evaluate(a, r, B)

        monkeypatch.setattr(optimize, "_log_diff_rate", counting)
        rep = maximize_r(5, 1e-8)
        assert (rep.a_star, rep.r_star) in points
        assert len(points) == len(set(points)) == rep.evaluations

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_r(0, 1e-8)
        with pytest.raises(ValueError):
            maximize_r(3, -1e-8)

    def test_large_B(self):
        # every tilt costs O(1), so B = 5001, whose numerator solves I(2r, 2B)
        # at 2B = 10,002, runs like B = 5; the search starts near its r* = 271.2
        B = 5001
        rep = maximize_r(B, 1e-4)
        assert 0.0 < rep.theta_minus_1 < 1.0
        assert rep.r_star > 2.0 and rep.grad_norm <= 1e-6 and rep.curvature < 0.0
        assert rep.evaluations < optimize._NEWTON_MAXFUN
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

    def test_chained_columns_match_cold_searches(self):
        # each later column starts from the previous column's optimum: that
        # start must not carry a cell away from its own cold search
        for row in table1():
            assert row[0] == maximize_r(row[0].B, row[0].epsilon)
            for cell in row[1:]:
                cold = maximize_r(cell.B, cell.epsilon)
                assert abs(cell.theta_minus_1 - cold.theta_minus_1) < 1e-12
                assert abs(cell.r_star - cold.r_star) < 10 * cell.epsilon

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


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.25, 1.0])
def test_entry_points_reject_eps_without_a_bracket(eps):
    # r = 2 lies in the r-domain (0, B/2) of B = 5, where [eps, 1/r - eps] is
    # empty for eps >= 0.25
    with pytest.raises(ValueError, match="eps"):
        maximize_a(5, 0.8, eps)
    with pytest.raises(ValueError, match="eps"):
        maximize_r(5, eps)
    with pytest.raises(ValueError, match="eps"):
        table1((1e-4, eps), (5, 5))


def test_maximize_a_rejects_empty_bracket_at_large_r():
    # (10, 0.1): 1/r = 0.1, so [0.1, 1/r - 0.1] is empty.
    # (1e13, 1e-14): eps passes, but the search insets by max(eps, 1e-12),
    # which leaves [1e-12, 1e-13 - 1e-12] empty.
    for r, eps in [(10.0, 0.1), (1e13, 1e-14)]:
        with pytest.raises(ValueError, match="a-bracket"):
            maximize_a(5, r, eps)


def test_default_eps_columns_match_published_layout():
    assert TABLE_EPS == (1e-4, 1e-6, 1e-8, 1e-10)
    assert DEFAULT_TOL == 1e-12
    assert set(maximize_r(3, 1e-4)._asdict().keys()) == {
        "B",
        "epsilon",
        "r_star",
        "a_star",
        "theta_minus_1",
        "evaluations",
        "grad_norm",
        "curvature",
    }
