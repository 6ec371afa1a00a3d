import math

import pytest

from sumdiff import optimize
from sumdiff.optimize import (
    TABLE_EPS,
    OptimizationReport,
    maximize_a,
    maximize_r,
    table1,
    theta_objective,
)
from sumdiff.ratefn import DEFAULT_TOL, MAX_B, RateQuery, rate_I

# reference column at eps = 1e-10 (fourth column of the published table)
REFERENCE_1E10 = {
    3: 0.168700179627163,
    4: 0.172137890014121,
    5: 0.173077279785136,
    6: 0.172855932676998,
    7: 0.172060243360376,
    8: 0.170975345189401,
    9: 0.169749936705623,
    10: 0.168465310634737,
}


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


class TestMaximizeA:
    def test_domain_shape(self):
        a_star, value = maximize_a(1, 2.0, 1e-8)
        assert 0 < a_star < 0.5
        assert math.isfinite(value)

    def test_tolerance_refinement(self):
        _, coarse = maximize_a(3, 1.0, 1e-6)
        _, fine = maximize_a(3, 1.0, 1e-10)
        assert abs(coarse - fine) < 1e-5

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

    def test_deterministic(self):
        assert maximize_r(6, 1e-8) == maximize_r(6, 1e-8)

    def test_searches_each_r_once(self, monkeypatch):
        # r* is a point the outer search evaluated, so its a-search is not repeated
        searched = []
        inner = optimize._search_a

        def counting(B, r, eps):
            searched.append(r)
            return inner(B, r, eps)

        monkeypatch.setattr(optimize, "_search_a", counting)
        rep = maximize_r(5, 1e-8)
        assert rep.r_star in searched
        assert len(searched) == len(set(searched))

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_r(0, 1e-8)
        with pytest.raises(ValueError):
            maximize_r(3, -1e-8)

    def test_refuses_B_past_rate_limit(self):
        # the numerator solves I(2r, 2B), so 2B is held to the rate solve's limit
        B = MAX_B // 2 + 1
        for call in (
            lambda: maximize_r(B, 1e-4),
            lambda: maximize_a(B, 1.0, 1e-4),
            lambda: theta_objective(B, 1.0, 0.5),
        ):
            with pytest.raises(ValueError, match=str(MAX_B)):
                call()


class TestTable1:
    @pytest.fixture(scope="class")
    def fine_columns(self):
        return table1(eps_list=(1e-8, 1e-10), b_range=(3, 10))

    def test_reference_column(self, fine_columns):
        for row in fine_columns:
            cell = row[1]
            assert cell.epsilon == 1e-10
            assert abs(cell.theta_minus_1 - REFERENCE_1E10[cell.B]) < 1e-8

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
    }
