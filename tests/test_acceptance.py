"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""
import math
import random
import time

import pytest

from sumdiff import (
    RateQuery,
    WParams,
    binomial,
    count_W,
    log_count_rate,
    log_W_rate_limit,
    rate_I,
    table1,
    tilted_mean,
    verify_injectivity,
    verify_triple,
)
from sumdiff.ratefn import DEFAULT_TOL

# the eps = 1e-10 column of the published table (its fourth column), also
# imported by test_optimize.py
TABLE_COLUMN_1E10 = {
    3: 0.168700179627163,
    4: 0.172137890014121,
    5: 0.173077279785136,
    6: 0.172855932676998,
    7: 0.172060243360376,
    8: 0.170975345189401,
    9: 0.169749936705623,
    10: 0.168465310634737,
}


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fine_table():
    started = time.perf_counter()
    rows = table1(eps_list=(1e-8, 1e-10), b_range=(3, 10))
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_1_table_reproduction(fine_table):
    rows, elapsed = fine_table
    worst = 0.0
    for row in rows:
        cell = row[1]
        worst = max(worst, abs(cell.theta_minus_1 - TABLE_COLUMN_1E10[cell.B]))
    report(
        "criterion 1 (table at eps=1e-10, B=3..10)",
        worst <= 1e-8,
        f"max |deviation| = {worst:.3e} (tolerance 1e-8), computed in {elapsed:.2f}s",
    )


def test_criterion_2_headline_bound(fine_table):
    rows, _ = fine_table
    best = max((row[1] for row in rows), key=lambda c: c.theta_minus_1)
    ok = best.B == 5 and 1.0 + best.theta_minus_1 >= 1.173077
    report(
        "criterion 2 (headline bound)",
        ok,
        f"argmax B = {best.B}, 1 + theta_minus_1 = {1 + best.theta_minus_1:.15f} >= 1.173077",
    )


def test_criterion_3_tolerance_stabilization(fine_table):
    rows, _ = fine_table
    worst = max(abs(row[0].theta_minus_1 - row[1].theta_minus_1) for row in rows)
    report(
        "criterion 3 (eps=1e-8 vs 1e-10 stabilization)",
        worst <= 1e-10,
        f"max |difference| = {worst:.3e} (tolerance 1e-10)",
    )


def test_criterion_4_counting_identities():
    started = time.perf_counter()
    failures = []
    checked = 0
    for m in range(5):
        for L in range(6):
            for B in (1, 2, 3):
                sumset_ok, diffset_ok, _ = verify_triple(WParams(m, L, B))
                if not sumset_ok:
                    failures.append(("sumset", m, L, B))
                if not diffset_ok:
                    failures.append(("diffset", m, L, B))
                checked += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 4 (exact identities, m<=4, L<=5, B in 1..3)",
        not failures,
        f"{checked} triples, failures = {failures or 'none'}, {elapsed:.2f}s",
    )


def test_criterion_5_injectivity():
    failures = []
    for m in range(5):
        for L in range(6):
            for B in (1, 2, 3):
                if not verify_injectivity(WParams(m, L, B), "g"):
                    failures.append(("g", m, L, B))
    report(
        "criterion 5 (digit-map injectivity on pair sums/differences)",
        not failures,
        f"failures = {failures or 'none'}",
    )


def test_criterion_6_rate_function_exact_cases():
    def entropy(c):
        return -c * math.log(c) - (1 - c) * math.log(1 - c)

    worst_closed_form = max(
        abs(rate_I(RateQuery(0.05 * k, 1)).value - (math.log(2) - entropy(0.05 * k)))
        for k in range(1, 10)
    )
    zero_branch_exact = all(
        rate_I(RateQuery(c, B)).value == 0.0
        for B in range(1, 11)
        for c in (B / 2, B / 2 + 0.25, float(B))
    )
    c0_exact = all(rate_I(RateQuery(0.0, B)).value == math.log(B + 1) for B in range(1, 11))
    ok = worst_closed_form <= 1e-10 and zero_branch_exact and c0_exact
    report(
        "criterion 6 (closed form B=1, zero branch, c=0 analytic)",
        ok,
        f"closed-form max err = {worst_closed_form:.3e}, zero branch exact = {zero_branch_exact}, "
        f"I(0,B)=log(B+1) exact = {c0_exact}",
    )


def test_criterion_7_empirical_convergence():
    started = time.perf_counter()
    details = []
    ok = True
    for r, B in [(0.5, 2), (1.0, 3)]:
        limit = log_W_rate_limit(RateQuery(r, B))
        err_small = abs(log_count_rate(100, r, B) - limit)
        err_large = abs(log_count_rate(800, r, B) - limit)
        ok = ok and err_large < err_small and err_large < 0.05
        details.append(f"(r={r}, B={B}): err(m=100)={err_small:.4f} err(m=800)={err_large:.4f}")
    elapsed = time.perf_counter() - started
    report(
        "criterion 7 (finite-m rate converges to the limit)",
        ok,
        "; ".join(details) + f", {elapsed:.2f}s",
    )


def test_criterion_8_counting_invariant_sweep():
    rng = random.Random(20250810)
    failures = []
    for _ in range(500):
        m = rng.randint(0, 9)
        L = rng.randint(0, 25)
        B = rng.randint(0, 5)
        n = count_W(WParams(m, L, B)).exact
        if n != count_W(WParams(m, min(L, m * B), B)).exact:
            failures.append(("saturation", m, L, B))
        if L < m * B and n + count_W(WParams(m, m * B - L - 1, B)).exact != (B + 1) ** m:
            failures.append(("complement", m, L, B))
        if B >= L and n != math.comb(m + L, m):
            failures.append(("unbounded", m, L, B))
        k = min(L, m)
        if B >= 1 and sum(binomial(m, j).exact for j in range(k + 1)) != count_W(
            WParams(m, k, 1)
        ).exact:
            failures.append(("binomial-prefix", m, k))
    report(
        "criterion 8 (counting invariants on 500 random triples)",
        not failures,
        f"failures = {failures or 'none'}",
    )


def test_criterion_9_duality_residual():
    rng = random.Random(97)
    worst = 0.0
    for _ in range(1000):
        B = rng.randint(1, 10)
        c = (0.001 + 0.998 * rng.random()) * B / 2
        res = rate_I(RateQuery(c, B))
        worst = max(worst, res.residual)
        assert abs(tilted_mean(res.t_star, B) - c) == res.residual
    report(
        "criterion 9 (duality residual over 1000 interior queries)",
        worst <= 10 * DEFAULT_TOL,
        f"max residual = {worst:.3e} (tolerance {10 * DEFAULT_TOL:.0e})",
    )
