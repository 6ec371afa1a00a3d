import math
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiff import exactcount, wcount
from sumdiff.ratefn import RateQuery, log_W_rate_limit
from sumdiff.exactcount import MAX_COUNT_WORK
from sumdiff.wcount import (
    CountValue,
    EnumerationCapError,
    WParams,
    binomial,
    count_W,
    enumerate_W,
    log_count_rate,
)


def brute_count(m, L, B):
    """Independent oracle: full cartesian enumeration."""
    return sum(1 for x in product(range(B + 1), repeat=m) if sum(x) <= L)


def dp_count(m, L, B):
    """Independent oracle: the coordinate-peeling recurrence.

    count(i, l) = sum_{j=0}^{min(B,l)} count(i-1, l-j) with count(0, .) = 1,
    one rolling row over l with window sums by prefix sums: O(m*L)
    big-integer additions.
    """
    L = min(L, m * B)
    row = [1] * (L + 1)
    for _ in range(m):
        prefix = list(accumulate(row))
        row = [prefix[l] - (prefix[l - B - 1] if l > B else 0) for l in range(L + 1)]
    return row[L]


def ie_count(m, L, B):
    """Independent oracle: inclusion-exclusion, each term by math.comb.

    sum_k (-1)^k C(m, k) C(L - k(B+1) + m, m) over k <= min(m, L//(B+1)),
    after L is saturated at m*B; no term is carried from another.
    """
    L = min(L, m * B)
    return sum(
        (-1) ** k * math.comb(m, k) * math.comb(L - k * (B + 1) + m, m)
        for k in range(min(m, L // (B + 1)) + 1)
    )


def block_steps(m, L, B):
    """Steps a block of ``_count`` at most, by the rule of its docstring:
    divisors under _BLOCK_BITS from factors of at most m*(L+m)^a bits, and a
    factor wider than _WIDE_BITS, or a first term shorter than _SHORT_BITS,
    one step alone."""
    L = min(L, m * B)
    K = min(m, L // (B + 1))
    width = m.bit_length() + min(m, B + 1) * (L + m).bit_length()
    first = math.comb(m, K) * math.comb(L - K * (B + 1) + m, m)
    if width > exactcount._WIDE_BITS or first.bit_length() < exactcount._SHORT_BITS:
        return 1
    return exactcount._BLOCK_BITS // width


def pascal(m, k):
    """Independent oracle for binomials: Pascal's recurrence."""
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if k <= m else 0


class TestCountW:
    @pytest.mark.parametrize(
        "m,L,B,expected",
        [
            (2, 2, 1, 4),  # L >= m*B: full cube (B+1)^m
            (3, 2, 5, 10),  # B >= L: C(m+L, m) = C(5,3)
            (2, 1, 2, 3),  # {(0,0),(1,0),(0,1)}
            (0, 5, 2, 1),
            (3, 0, 4, 1),
            (4, 0, 0, 1),
        ],
    )
    def test_golden(self, m, L, B, expected):
        assert count_W(WParams(m, L, B)).exact == expected

    def test_against_brute_force(self):
        for m in range(5):
            for L in range(9):
                for B in range(4):
                    p = WParams(m, L, B)
                    assert count_W(p).exact == brute_count(m, L, B), (m, L, B)

    @settings(deadline=None)
    @given(st.integers(0, 60), st.integers(0, 200), st.integers(0, 12))
    @example(400, 400, 3)
    @example(300, 1000, 7)
    @example(1000, 1000, 3)
    @example(1200, 900, 5)
    @example(40, 3000, 200)  # B + 1 > m: the ratio runs over m factors
    def test_against_dp(self, m, L, B):
        assert count_W(WParams(m, L, B)).exact == dp_count(m, L, B)

    def test_log_value_consistent(self):
        cv = count_W(WParams(6, 9, 3))
        assert cv.exact > 0
        assert math.isclose(cv.log_value, math.log(cv.exact), rel_tol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WParams(-1, 2, 2)
        with pytest.raises(ValueError):
            WParams(1, 2, -2)

    @given(st.integers(0, 8), st.integers(0, 20), st.integers(0, 4))
    def test_saturation(self, m, L, B):
        p = WParams(m, L, B)
        clamped = count_W(WParams(m, min(L, m * B), B)).exact
        assert count_W(p).exact == clamped
        if L >= m * B:
            assert count_W(p).exact == (B + 1) ** m

    @given(st.integers(1, 7), st.integers(0, 20), st.integers(1, 4))
    @example(3000, 4000, 3)
    def test_complement_symmetry(self, m, L, B):
        # coordinate reflection x -> B - x pairs sums <= L with sums > mB - L - 1
        if L >= m * B:
            return
        total = count_W(WParams(m, L, B)).exact + count_W(WParams(m, m * B - L - 1, B)).exact
        assert total == (B + 1) ** m

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 12))
    def test_unbounded_case_is_binomial(self, m, L, extra):
        B = L + extra  # any B >= L removes the coordinate bound
        assert count_W(WParams(m, L, B)).exact == math.comb(m + L, m)

    @given(st.integers(0, 6), st.integers(0, 10), st.integers(0, 3))
    def test_monotone_in_L_and_B(self, m, L, B):
        base = count_W(WParams(m, L, B)).exact
        assert count_W(WParams(m, L + 1, B)).exact >= base
        assert count_W(WParams(m, L, B + 1)).exact >= base


class TestBlockedCount:
    # m > B + 1 (ratios of B+1 factors) twice, m <= B + 1 (of m factors) twice,
    # and a ratio too wide to block; each swept over every K up to its largest,
    # then past saturation at L = mB
    @pytest.mark.parametrize("block_bits", [256, 1024])
    @pytest.mark.parametrize("m, B", [(100, 2), (61, 1), (10, 10), (9, 20), (20, 30)])
    def test_every_K_across_block_ends(self, monkeypatch, block_bits, m, B):
        monkeypatch.setattr(exactcount, "_BLOCK_BITS", block_bits)
        monkeypatch.setattr(exactcount, "_SHORT_BITS", 0)  # blocks from the shortest terms
        names = ("0", "1", "g-1", "g", "g+1", "2g+1")
        reached = set()
        for L in range(m * B + 3):
            assert exactcount._count(m, L, B) == ie_count(m, L, B), (m, L, B)
            K = min(m, L // (B + 1))
            g = block_steps(m, L, B)
            # K at and around a block's end; odd and even K come with every K
            reached.update(n for n, x in zip(names, (0, 1, g - 1, g, g + 1, 2 * g + 1)) if x == K)
        if block_bits == 256:  # short blocks: every K of names is in reach
            assert reached == set(names)

    def test_several_blocks_against_dp(self):
        m, L, B = 1000, 2000, 3
        assert min(m, L // (B + 1)) > 5 * block_steps(m, L, B) > 5
        assert exactcount._count(m, L, B) == dp_count(m, L, B)

    @pytest.mark.parametrize("m, L, B", [
        (40, 3000, 200),  # a ratio too wide to block
        (100, 50, 2),  # a first term too short to block
        (300, 600, 3),
    ])
    def test_one_step_a_block(self, m, L, B):
        assert block_steps(m, L, B) == 1
        assert exactcount._count(m, L, B) == ie_count(m, L, B)


class TestWorkLimit:
    """An exact count refuses, before any big-integer work, past MAX_COUNT_WORK."""

    @pytest.fixture
    def no_big_integers(self, monkeypatch):
        def fail(*args):
            raise AssertionError("big-integer work past the work limit")

        monkeypatch.setattr(math, "comb", fail)
        monkeypatch.setattr(math, "perm", fail)

    @pytest.mark.parametrize("call", [
        lambda: count_W(WParams(10**6, 10**6, 3)),
        lambda: enumerate_W(WParams(10**6, 10**6, 3)),
        lambda: log_count_rate(10**6, 1.0, 3),
        lambda: count_W(WParams(40_000, 10**6, 10_000)),  # 99 steps, but wide ratios
        lambda: count_W(WParams(10**6, 10**6, 10**6)),  # no step: K = 0
    ])
    def test_refused_before_counting(self, no_big_integers, call):
        with pytest.raises(ValueError, match="units of work") as exc:
            call()
        assert not isinstance(exc.value, EnumerationCapError)
        assert f"{MAX_COUNT_WORK:.3g}" in str(exc.value)

    @pytest.mark.parametrize("m, L, B", [
        (20000, 32000, 10),  # the README's count
        (10000, 10000, 3),  # log_count_rate's largest point
        (1800, 1800, 3),  # the counts benchmark's sizes
        (1600, 1600, 5),
        (80_000, 80_000, 3),
    ])
    def test_accepted_sizes(self, m, L, B):
        assert 0 < exactcount._count_work(m, L, B) < MAX_COUNT_WORK

    def test_estimate_grows_with_the_ratio_width(self):
        # the same count bits, B+1 = 1001 factors a ratio: 5x the plain steps x bits
        steps, bits = 99, 500 * math.log2(1001)
        assert exactcount._count_work(500, 100_000, 1000) > 5 * steps * bits

    def test_estimate_charges_the_first_binomials(self):
        # K = 0: the count is the one binomial C(30000, 15000), of 29,992 bits
        assert math.isclose(exactcount._count_work(15000, 15000, 15001), 29_992**2 / 32, rel_tol=1e-3)
        assert exactcount._count_work(0, 5, 2) == 0.0
        # K = 1: C(15000, 1) C(15000 + 7499, 15000), of 13.9 + 20,653 bits, then a step
        assert exactcount._count_work(15000, 15000, 7500) > 20_666**2 / 32

    @given(st.integers(0, 10**6), st.integers(0, 10**7), st.integers(0, 10**6))
    @example(1, 0, 0)
    @example(2, 2, 1)
    def test_estimate_below_the_skip_bound(self, m, L, B):
        # _count skips the estimate when z^3 is under the limit, z = m*bits(L'+m)
        z = m * (min(L, m * B) + m).bit_length()
        assert exactcount._count_work(m, L, B) <= z**3


class TestBinomial:
    @pytest.mark.parametrize("m,k,expected", [(5, 2, 10), (7, 0, 1), (6, 3, 20), (3, 5, 0)])
    def test_golden(self, m, k, expected):
        assert binomial(m, k).exact == expected

    def test_against_pascal(self):
        for m in range(13):
            for k in range(m + 2):
                assert binomial(m, k).exact == pascal(m, k)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_prefix_sums_count_binary_vectors(self, m, k):
        if k > m:
            return
        prefix = sum(binomial(m, j).exact for j in range(k + 1))
        assert prefix == count_W(WParams(m, k, 1)).exact


class TestEnumerateW:
    def test_golden(self):
        assert enumerate_W(WParams(2, 1, 1)) == [(0, 0), (0, 1), (1, 0)]
        assert enumerate_W(WParams(1, 2, 2)) == [(0,), (1,), (2,)]
        assert enumerate_W(WParams(2, 2, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_lexicographic_and_complete(self):
        for m, L, B in [(3, 4, 2), (4, 3, 1), (2, 6, 3)]:
            vs = enumerate_W(WParams(m, L, B))
            assert vs == sorted(vs)
            assert len(vs) == len(set(vs)) == count_W(WParams(m, L, B)).exact
            assert all(len(v) == m and sum(v) <= L and max(v, default=0) <= B for v in vs)

    def test_cap_error_gives_a_long_count_by_its_bits(self, monkeypatch):
        # |W(9000, 9000, 3)| has 5,017 digits, past the 4,300 that str() converts
        # by default
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_W(WParams(9000, 9000, 3))
        assert exc.value.count == count_W(WParams(9000, 9000, 3)).exact
        assert exc.value.count.bit_length() == 16_665
        assert str(exc.value) == (
            "enumeration of a 16,665-bit number of vectors exceeds the cap of 10000000"
        )
        monkeypatch.setattr(wcount, "ENUM_CAP", 5)
        assert str(EnumerationCapError(2**64 - 1)) == (
            "enumeration of 18446744073709551615 vectors exceeds the cap of 5"
        )
        assert "a 65-bit number of pairs" in str(EnumerationCapError(2**64, "pairs"))

    def test_log2_lower_bounds_the_count(self):
        for m in range(7):
            for L in range(12):
                for B in range(5):
                    p = WParams(m, L, B)
                    assert wcount._log2_lower(p) <= math.log2(count_W(p).exact) + 1e-12

    def test_cap_error_names_cap_and_count(self, monkeypatch):
        monkeypatch.setattr(wcount, "ENUM_CAP", 100)
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_W(WParams(10, 20, 3))
        assert exc.value.cap == 100
        assert exc.value.count == count_W(WParams(10, 20, 3)).exact
        assert "100" in str(exc.value)


class TestLogCountRate:
    def test_golden(self):
        assert math.isclose(log_count_rate(1, 2.0, 1), math.log(2), rel_tol=1e-15)
        assert math.isclose(log_count_rate(2, 1.0, 1), math.log(4) / 2, rel_tol=1e-15)

    def test_log_of_exact_count_at_large_m(self):
        for m, r, B in [(1100, 1.0, 2), (3000, 1.0, 3)]:
            exact = count_W(WParams(m, math.floor(r * m), B)).exact
            assert log_count_rate(m, r, B) == math.log(exact) / m
        limit = log_W_rate_limit(RateQuery(1.0, 3))
        assert abs(log_count_rate(10_000, 1.0, 3) - limit) < abs(log_count_rate(800, 1.0, 3) - limit)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_count_rate(0, 1.0, 2)
        with pytest.raises(ValueError):
            log_count_rate(5, -1.0, 2)
        with pytest.raises(ValueError):
            log_count_rate(5, 1.0, 0)

    @pytest.mark.parametrize("m, B", [(True, 2), (5, True), (False, 2)])
    def test_rejects_bool(self, m, B):
        # bool is an int subclass, but WParams and RateQuery refuse it too
        with pytest.raises(ValueError, match="positive integer"):
            log_count_rate(m, 0.5, B)


def test_count_value_of_zero():
    assert CountValue.of(0).exact == 0
    assert CountValue.of(0).log_value == -math.inf


def test_wparams_is_immutable():
    p = WParams(3, 2, 5)
    with pytest.raises(AttributeError):
        p.m = 4
    assert p == WParams(3, 2, 5)
