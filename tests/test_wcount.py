import math

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
    count_W,
    enumerate_W,
    log_count_rate,
)

from oracles import count_brute, count_row, pascal


def block_steps(m, L, B):
    """Steps a block of ``_count`` at most, by the rule of its docstring:
    divisors under _BLOCK_BITS from factors of at most m*(L+m)^a bits, and a
    factor wider than _WIDE_BITS one step alone."""
    L = min(L, m * B)
    width = m.bit_length() + min(m, B + 1) * (L + m).bit_length()
    return 1 if width > exactcount._WIDE_BITS else exactcount._BLOCK_BITS // width


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
                    assert count_W(p).exact == count_brute(m, L, B), (m, L, B)

    @settings(deadline=None)
    @given(st.integers(0, 60), st.integers(0, 200), st.integers(0, 12))
    @example(400, 400, 3)
    @example(300, 1000, 7)
    @example(1000, 1000, 3)
    @example(1200, 900, 5)
    @example(40, 3000, 200)  # B + 1 > m: the ratio runs over m factors
    def test_against_dp(self, m, L, B):
        assert count_W(WParams(m, L, B)).exact == count_row(m, L, B)[L]

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
        names = ("0", "1", "g-1", "g", "g+1", "2g+1")
        reached = set()
        row = count_row(m, m * B + 2, B)
        for L in range(m * B + 3):
            assert exactcount._count(m, L, B) == row[L], (m, L, B)
            K = min(m, L // (B + 1))
            g = block_steps(m, L, B)
            # K at and around a block's end; odd and even K come with every K
            reached.update(n for n, x in zip(names, (0, 1, g - 1, g, g + 1, 2 * g + 1)) if x == K)
        if block_bits == 256:  # short blocks: every K of names is in reach
            assert reached == set(names)

    def test_several_blocks_against_dp(self):
        m, L, B = 1000, 2000, 3
        assert min(m, L // (B + 1)) > 5 * block_steps(m, L, B) > 5
        assert exactcount._count(m, L, B) == count_row(m, L, B)[L]

    @pytest.mark.parametrize("m, L, B", [
        (40, 3000, 200),  # a ratio too wide to block
        (1000, 3000, 12),  # 166 bits wide, from a first term of 851 bits
    ])
    def test_one_step_a_block(self, m, L, B):
        assert block_steps(m, L, B) == 1
        assert exactcount._count(m, L, B) == count_row(m, L, B)[L]


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
        lambda: log_count_rate(10**6, 2.0, 3),
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
    @given(st.integers(0, 12), st.integers(0, 12))
    def test_prefix_sums_count_binary_vectors(self, m, k):
        if k > m:
            return
        prefix = sum(pascal(m, j) for j in range(k + 1))
        assert prefix == count_W(WParams(m, k, 1)).exact


def _no_call(*args):
    raise AssertionError("counted exactly past the cap")


def _log_uniform(top: float):
    return st.one_of(st.integers(0, 400), st.floats(0, math.log10(top)).map(lambda e: round(10**e)))


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
        # the cube {0, 1}^9000 in W(9000, 9000, 3): at least 9000 * 2^8999
        # coordinates, refused with no exact count
        with monkeypatch.context() as patched, pytest.raises(EnumerationCapError) as exc:
            patched.setattr(exactcount, "_count", _no_call)
            enumerate_W(WParams(9000, 9000, 3))
        assert (exc.value.count, exc.value.exact) == (9000 << 8999, False)
        assert str(exc.value) == (
            "enumeration of at least a 9,013-bit number of coordinates exceeds the cap of 10000000"
        )
        # |W(9000, 9000, 3)| has 5,017 digits, past the 4,300 that str() converts by default
        assert str(EnumerationCapError(count_W(WParams(9000, 9000, 3)).exact)) == (
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

    @settings(max_examples=300, deadline=None)
    @given(_log_uniform(1e8), _log_uniform(1e12), _log_uniform(1e15), st.sampled_from([1, 2]))
    @example(24, 47, 2, 1)  # the largest estimate found, 596 units
    def test_an_exact_count_past_the_lower_bound_is_cheap(self, m, L, B, power):
        # per = 1 lets the most through, so this covers enumerate_W's max(m, 1) too
        try:
            wcount._check_cap(WParams(m, L, B), power, "vectors")
        except EnumerationCapError as exc:
            if not exc.exact:
                return  # refused on the lower bound, with no exact count
        assert exactcount._count_work(m, L, B) <= 1e4

    def test_cap_error_names_cap_and_count(self, monkeypatch):
        monkeypatch.setattr(wcount, "ENUM_CAP", 100)
        # on the lower bound: W(10, 20, 3) holds the cube {0, 1, 2}^10, over 10 * 2^14 coordinates
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_W(WParams(10, 20, 3))
        assert (exc.value.cap, exc.value.count, exc.value.exact) == (100, 10 << 14, False)
        assert str(exc.value) == "enumeration of at least 163840 coordinates exceeds the cap of 100"
        # on the exact count: the bound, 2 * 2^5, passes, and 2 * |W(2, 20, 9)| = 200 does not
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_W(WParams(2, 20, 9))
        assert (exc.value.cap, exc.value.count, exc.value.exact) == (100, 200, True)
        assert str(exc.value) == "enumeration of 200 coordinates exceeds the cap of 100"


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

    def test_saturates_past_float_range(self):
        # r*m overflows a float, but the count saturates at L = m*B
        assert log_count_rate(10, 1e308, 3) == math.log(4**10) / 10

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
