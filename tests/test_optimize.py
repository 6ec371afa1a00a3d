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
        # V(r) = max_a numerator: V' and V'' of the a-search against central
        # differences of maximize_a's values
        h1, h2 = 1e-5, 1e-4
        for B in range(3, 11):
            for r in (0.6, 0.805, 1.4):
                _, v1, v2, _, _, _ = optimize._search_a(B, r, 1e-12, None)
                up, mid, down = (maximize_a(B, r + d, 1e-12)[1] for d in (h1, 0.0, -h1))
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
    # exp(-x^2/2) is unimodal with its maximum at 0, convex for |x| > 1 and
    # has f'' = 0 exactly at x = +-1
    @staticmethod
    def bump(x):
        e = math.exp(-0.5 * x * x)
        return e, -x * e, (x * x - 1.0) * e

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-300])
    @pytest.mark.parametrize("start", [1.0, -1.0, 3.0, -3.5, 0.95, 5.9])
    def test_safeguards_reach_the_maximum(self, start, eps):
        # starts at f'' = 0, in both convex tails, and at 0.95, where the
        # Newton step lands at -8.8, outside the bracket
        calls = []

        def F(x):
            calls.append(x)
            return self.bump(x)

        x, y, num = optimize._newton_max(F, start, -4.0, 6.0, eps)
        assert abs(x) <= eps
        assert y == self.bump(x)
        assert x in calls and num == len(calls) < optimize._NEWTON_MAXFUN
        assert all(-4.0 < c < 6.0 for c in calls[1:])


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
        # oracle: the best inner maximum on a 151-point grid over the r-bracket
        for B in range(3, 11):
            best = max(maximize_a(B, 0.5 + 1.5 * k / 150, 1e-10)[1] for k in range(151))
            assert maximize_r(B, 1e-10).theta_minus_1 * math.log(2 * B + 1) >= best - 1e-12

    def test_slope_and_curvature_at_optimum(self):
        for B in range(3, 11):
            rep = maximize_r(B, 1e-10)
            assert abs(rep.r_slope) <= 1e-8
            assert rep.r_curvature < 0.0

    def test_ends_at_tiny_eps(self):
        # eps far below float spacing: the searches end on a step that would
        # not move x or on a bracket that admits no new point
        rep = maximize_r(5, 1e-300)
        assert rep.evaluations < optimize._NEWTON_MAXFUN
        assert abs(rep.theta_minus_1 - maximize_r(5, 1e-10).theta_minus_1) <= 1e-15

    def test_deterministic(self):
        assert maximize_r(6, 1e-8) == maximize_r(6, 1e-8)

    def test_searches_each_r_once(self, monkeypatch):
        # r* is a point the outer search evaluated, so its a-search is not repeated
        searched = []
        inner = optimize._search_a

        def counting(B, r, eps, a):
            searched.append(r)
            return inner(B, r, eps, a)

        monkeypatch.setattr(optimize, "_search_a", counting)
        rep = maximize_r(5, 1e-8)
        assert rep.r_star in searched
        assert len(searched) == len(set(searched))

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_r(0, 1e-8)
        with pytest.raises(ValueError):
            maximize_r(3, -1e-8)

    def test_large_B(self):
        # every tilt costs O(1), so B = 5001, whose numerator solves I(2r, 2B)
        # at 2B = 10,002, runs like B = 5; its r* sits on the bracket edge
        B = 5001
        with pytest.warns(UserWarning, match="edge"):
            rep = maximize_r(B, 1e-4)
        assert 0.0 < rep.theta_minus_1 < 1.0
        assert rep.evaluations < optimize._NEWTON_MAXFUN
        _, value = maximize_a(B, rep.r_star, 1e-4)
        assert abs(value / math.log(2 * B + 1) - rep.theta_minus_1) <= 1e-6
        assert math.isfinite(theta_objective(B, 1.0, 0.5).theta_minus_1)


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
    # r reaches 2 in the r-search, where [eps, 1/r - eps] is empty for eps >= 0.25
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
        "r_slope",
        "r_curvature",
    }
