import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiff import construct, exactcount, wcount
from sumdiff.construct import (
    _low_diffs,
    _pack,
    _sums,
    build_U,
    diff_count,
    diffset,
    encode_g,
    max_U,
    sumset,
    theta_bound,
    theta_bound_exact,
    verify_diffset_identity,
    verify_injectivity,
    verify_sumset_identity,
    verify_triple,
)
from sumdiff.wcount import EnumerationCapError, WParams, count_W, enumerate_W, log_count_rate

from oracles import colliding_g, count_row, full_pairs


def bound_batch(p):
    """The counts that ``_counted`` takes for p: |U+U|, |U|, then the convolution's terms at k >= 1."""
    m, L, B = p
    batch = [(m, 2 * L, 2 * B), (m, L, B)]
    for k in range(1, min(m, L) + 1):
        batch += [(k, L - k, B - 1), (m - k, L, B)]
    return batch


class TestEncodeG:
    @pytest.mark.parametrize(
        "x,B,expected",
        [
            ((0, 0, 0), 2, 0),
            ((2, 1), 2, 7),  # 2 + 1*5
            ((1, 0, 3), 3, 148),  # 1 + 0*7 + 3*49
            ((-1, 2), 1, 5),  # -1 + 2*3: negative digits allowed
        ],
    )
    def test_golden(self, x, B, expected):
        assert encode_g(x, B) == expected

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            encode_g((5,), 2)
        with pytest.raises(ValueError):
            encode_g((-5,), 2)
        with pytest.raises(ValueError):
            encode_g((1,), 0)
        with pytest.raises(ValueError):
            encode_g((1, 2), True)  # bool is an int subclass, refused as by WParams


class TestBuildU:
    @pytest.mark.parametrize(
        "m,L,B,expected",
        [
            (1, 2, 2, (0, 1, 2)),
            (2, 1, 2, (0, 1, 5)),
            (2, 2, 1, (0, 1, 3, 4)),
        ],
    )
    def test_golden(self, m, L, B, expected):
        assert build_U(WParams(m, L, B)) == expected

    def test_contains_zero_and_respects_max_bound(self):
        for m, L, B in [(1, 2, 2), (3, 4, 2), (4, 5, 3), (2, 9, 1)]:
            U = build_U(WParams(m, L, B))
            assert U[0] == 0
            assert U[-1] <= B * ((2 * B + 1) ** m - 1) // (2 * B)

    def test_raises_on_a_map_that_collides_on_W(self, monkeypatch):
        # W(2, 2, 1) = {00, 10, 01, 11}: the digit sums 0, 1, 1, 2 collide
        monkeypatch.setattr(construct, "encode_g", lambda x, B: sum(x))
        with pytest.raises(AssertionError, match="collided"):
            build_U(WParams(2, 2, 1))

    def test_size_certifies_injectivity_on_W(self):
        for m, L, B in [(3, 4, 2), (4, 3, 1), (2, 6, 3)]:
            p = WParams(m, L, B)
            assert len(build_U(p)) == len(enumerate_W(p))


class TestSumDiff:
    def test_golden(self):
        assert sumset((0,)) == (0,)
        assert sumset((0, 1, 3)) == (0, 1, 2, 3, 4, 6)
        assert sumset((0, 1, 5)) == (0, 1, 2, 5, 6, 10)
        assert diffset((0,)) == (0,)
        assert diffset((0, 1, 3)) == (-3, -2, -1, 0, 1, 2, 3)
        assert diffset((0, 1, 5)) == (-5, -4, -1, 0, 1, 4, 5)

    def test_diffset_symmetric_and_odd(self):
        for m, L, B in [(2, 2, 1), (3, 3, 2), (2, 4, 3)]:
            D = diffset(build_U(WParams(m, L, B)))
            assert D == tuple(sorted(-x for x in D))
            assert len(D) % 2 == 1


class TestThetaBound:
    def test_golden(self):
        rep = theta_bound_exact((0, 1, 2))
        assert (rep.d.exact, rep.s.exact, rep.q) == (5, 5, 5)
        assert rep.theta == 1.0

        rep = theta_bound_exact((0, 1))
        assert (rep.d.exact, rep.s.exact, rep.q) == (3, 3, 3)
        assert rep.theta == 1.0

    def test_on_built_set(self):
        # brute-force over all pairs of U = g(W(2,2,1))
        U = build_U(WParams(2, 2, 1))
        rep = theta_bound_exact(U)
        sums, diffs = full_pairs(U)
        assert rep.q == 2 * max(U) + 1 == 9
        assert (rep.d.exact, rep.s.exact) == (len(diffs), len(sums))
        assert rep.theta == 1.0 + (math.log(rep.d.exact) - math.log(rep.s.exact)) / math.log(9)

    def test_pair_cap_checked_before_pairing(self, monkeypatch):
        # 3163^2 = 10,004,569 pairs, just past the default cap of 10^7
        with pytest.raises(EnumerationCapError) as exc:
            theta_bound_exact(tuple(range(3163)))
        assert (exc.value.count, exc.value.cap) == (3163**2, 10**7)
        assert "pairs" in str(exc.value)
        monkeypatch.setattr(wcount, "ENUM_CAP", 8)
        with pytest.raises(EnumerationCapError):
            sumset((0, 1, 3))
        with pytest.raises(EnumerationCapError):
            diffset((0, 1, 3))
        with pytest.raises(EnumerationCapError):
            verify_injectivity(WParams(2, 1, 1), "g")  # 3 vectors, 9 pairs of 2 coordinates
        monkeypatch.setattr(wcount, "ENUM_CAP", 9)
        assert len(sumset((0, 1, 3))) == 6
        assert len(diffset((0, 1, 3))) == 7

    def test_rejections(self):
        with pytest.raises(ValueError):
            theta_bound_exact(())
        with pytest.raises(ValueError):
            theta_bound_exact((1, 2))
        with pytest.raises(ValueError):
            theta_bound_exact((0,))
        # a repeat would count in set_size, and U is a set in increasing order
        with pytest.raises(ValueError, match="strictly increasing"):
            theta_bound_exact((0, 1, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            theta_bound_exact((1, 0))


class TestCountedBound:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 8), st.integers(0, 4))
    # the certificate benchmark's shapes, |U| = 924, 1716 and 3003
    @example(6, 6, 8)
    @example(7, 6, 6)
    @example(6, 8, 13)
    @example(3, 12, 2)  # the full cube: every digit of max U is B
    def test_matches_brute_force(self, m, L, B):
        p = WParams(m, L, B)
        U = build_U(p)
        assert len(U) == count_W(p).exact
        assert max_U(p) == max(U)
        if max(U) < 1:
            with pytest.raises(ValueError):
                theta_bound(p)
            with pytest.raises(ValueError):
                theta_bound_exact(U)
            return
        counted, paired = theta_bound(p), theta_bound_exact(U)
        assert counted == paired
        assert counted.theta == paired.theta
        # the exact sandwich |U - U| <= 2^m |U + U|
        assert paired.d.exact <= 2**m * paired.s.exact

    @pytest.mark.parametrize("m, L, B", [(120, 96, 5), (60, 90, 3), (80, 50, 1)])
    def test_counted_past_brute_force(self, m, L, B):
        # C(m, k) stepped against math.comb at each k, and every count against the
        # peeling DP; L > m at (60, 90, 3), and each B - 1 factor is 1 at B = 1
        d = sum(math.comb(m, k) * count_row(k, L, B - 1)[L - k] * count_row(m - k, L, B)[L]
                for k in range(min(m, L) + 1))
        n, s = count_row(m, L, B)[L], count_row(m, 2 * L, 2 * B)[2 * L]
        assert construct._counted(WParams(m, L, B)) == (n, d, s)
        assert (n, s) == (count_W(WParams(m, L, B)).exact, count_W(WParams(m, 2 * L, 2 * B)).exact)

    def test_finite_m_bound_grows_past_alphaevolve(self):
        # B = 5 with L near 0.8m, the best L of a scan at each m
        thetas = [theta_bound(WParams(m, L, 5)).theta for m, L in [(50, 42), (100, 82), (200, 164), (400, 320)]]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert thetas[0] > 1.1584
        assert thetas[-1] < 1.173077


class TestWorkLimit:
    """theta_bound sums the estimated work of its counts and refuses past the limit."""

    @pytest.mark.parametrize("p", [
        # both ran for over half a minute under the old limit of 4,000 convolution terms
        WParams(4000, 8000, 5),
        WParams(500, 5_000_000, 10_000),
        # every count at K = 0 or 1: the first binomials are most of the work
        WParams(15000, 15000, 15001),
        WParams(15000, 15000, 7500),
    ])
    def test_refused_before_counting(self, monkeypatch, p):
        def no_call(*args):
            raise AssertionError("counted past the work limit")

        monkeypatch.setattr(exactcount, "_count", no_call)
        monkeypatch.setattr(construct, "max_U", no_call)
        with pytest.raises(ValueError, match="units of work"):
            theta_bound(p)

    def test_baseline_accepted(self, monkeypatch):
        # bound --m 4000 --L 3220 --B 5 runs in seconds, not minutes: it stays
        # accepted; the counts are stubbed, so only the work check runs
        monkeypatch.setattr(exactcount, "_count", lambda m, L, B: 1)
        monkeypatch.setattr(construct, "max_U", lambda p: 1)
        theta_bound(WParams(4000, 3220, 5))
        theta_bound(WParams(1000, 805, 5))
        monkeypatch.setattr(exactcount, "MAX_COUNT_WORK", 1e9)
        with pytest.raises(ValueError, match="3202 exact counts"):
            theta_bound(WParams(2000, 1600, 5))

    def test_diff_count_refused_before_counting(self, monkeypatch):
        # no one of its 8,002 counts is estimated past 1.5e7 units, but together they are at 4.5e10
        def no_call(*args):
            raise AssertionError("counted past the work limit")

        monkeypatch.setattr(exactcount, "_count", no_call)
        with pytest.raises(ValueError, match="8002 exact counts: .* units of work"):
            diff_count(WParams(4000, 8000, 5))

    @pytest.fixture
    def priced(self, monkeypatch):
        """(the batches given to the work check, the triples whose work it estimated), as they come."""
        checks, estimates = [], []
        check_work, count_work = exactcount._check_work, exactcount._count_work
        monkeypatch.setattr(exactcount, "_check_work", lambda t: checks.append(list(t)) or check_work(t))
        monkeypatch.setattr(exactcount, "_count_work", lambda *t: estimates.append(t) or count_work(*t))
        return checks, estimates

    @pytest.mark.parametrize("call, batch", [
        (count_W, lambda p: [p]),
        (lambda p: log_count_rate(p.m, 0.8, p.B), lambda p: [p]),
        (diff_count, bound_batch),
        (theta_bound, bound_batch),
    ])
    def test_each_call_prices_its_counts_once(self, priced, call, batch):
        # one work check a call, and each count of its batch estimated once: |U| =
        # |W(m, L, B)| is the convolution's k = 0 term, and |W(0, L, B-1)| = 1 is not counted
        checks, estimates = priced
        p = WParams(300, 240, 5)  # m*bits(L+m) cubed is past the limit alone: no batch skips the estimates
        call(p)
        assert checks == [batch(p)]
        assert sorted(estimates) == sorted(map(tuple, batch(p)))
        assert estimates.count(p) == 1 and (0, p.L, p.B - 1) not in estimates

    def test_verify_prices_its_counts_once(self, priced, monkeypatch):
        # the pair cap's exact |W| is a batch of one, then the identities' counts are
        # one more.  Under a limit between the estimates' sum, 14.6 units, and the
        # batch's z^3 sum, 2,969, the estimates run; the cap's z^3 = 729 still skips them
        checks, estimates = priced
        monkeypatch.setattr(exactcount, "MAX_COUNT_WORK", 1000)
        p = WParams(3, 3, 2)
        verify_triple(p)
        assert checks == [[p], bound_batch(p)]
        assert sorted(estimates) == sorted(bound_batch(p))
        assert estimates.count(p) == 1 and (0, p.L, p.B - 1) not in estimates

    def test_diff_count_on_the_verify_grid(self):
        # against every pair of U; test_matches_brute_force has the certificate triples
        for m in range(5):
            for L in range(6):
                for B in range(1, 4):
                    p = WParams(m, L, B)
                    assert diff_count(p).exact == len(full_pairs(build_U(p))[1])


class TestIdentities:
    @pytest.mark.parametrize("m,L,B", [(1, 2, 2), (2, 2, 1), (0, 0, 1), (3, 2, 2), (2, 5, 3)])
    def test_sumset_identity(self, m, L, B):
        assert verify_sumset_identity(WParams(m, L, B))

    @pytest.mark.parametrize("m,L,B", [(1, 2, 2), (2, 2, 1), (3, 0, 2), (3, 2, 2), (2, 5, 3)])
    def test_diffset_identity(self, m, L, B):
        assert verify_diffset_identity(WParams(m, L, B))

    def test_diffset_identity_hand_evaluation(self):
        # (1,2,2): 5 = C(1,0)*|W(0,2,1)|*|W(1,2,2)| + C(1,1)*|W(1,1,1)|*|W(0,2,2)|
        U = build_U(WParams(1, 2, 2))
        assert len(diffset(U)) == 1 * 1 * 3 + 1 * 2 * 1 == 5

    def test_diffset_identity_needs_positive_B(self):
        # every check runs the one pass, which refuses B = 0 before enumerating
        checks = [verify_sumset_identity, verify_diffset_identity, verify_injectivity, verify_triple]
        for check in checks:
            with pytest.raises(ValueError, match="B >= 1"):
                check(WParams(2, 2, 0))

    def test_pair_cap_checked_before_enumeration(self, monkeypatch):
        # |W(10, 15, 3)| = 582,440 vectors, 3.39e11 pairs: refused with none built
        def no_call(*args):
            raise AssertionError("enumerated past the pair cap")

        monkeypatch.setattr(construct, "_vectors", no_call)
        with pytest.raises(EnumerationCapError) as exc:
            verify_triple(WParams(10, 15, 3))
        assert (exc.value.count, exc.value.cap) == (10 * 582_440**2, 10**7)

    def test_pair_coordinates_held_to_the_cap(self, monkeypatch):
        # |W(1300, 1, 1)| = 1301, so 1.7e6 pairs but 2.2e9 coordinates, each pair
        # a 1300-digit integer: held to pairs alone it took 2.55 s and 338 MB
        def no_call(*args):
            raise AssertionError("enumerated past the pair cap")

        monkeypatch.setattr(construct, "_vectors", no_call)
        with pytest.raises(EnumerationCapError, match="pair coordinates") as exc:
            verify_triple(WParams(1300, 1, 1))
        assert exc.value.count > exc.value.cap

    def test_pair_cap_refused_on_a_lower_bound(self, monkeypatch):
        # |W(80000, 80000, 3)| is an exact count of over a second: refused without it
        def no_call(*args):
            raise AssertionError("counted exactly past the pair cap")

        monkeypatch.setattr(exactcount, "_count", no_call)
        with pytest.raises(EnumerationCapError, match="at least a .* pair coordinates") as exc:
            verify_triple(WParams(80000, 80000, 3))
        assert not exc.value.exact
        assert exc.value.count > 10**7

    def test_vector_pass_memory(self):
        # one packed integer per pair sum and difference; sets of 200-tuples peaked at 34 MiB
        tracemalloc.start()
        try:
            assert verify_triple(WParams(200, 1, 1)) == (True, True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestInjectivity:
    @pytest.mark.parametrize("m,L,B", [(2, 2, 1), (1, 3, 2), (3, 3, 2), (2, 4, 3)])
    def test_g(self, m, L, B):
        assert verify_injectivity(WParams(m, L, B), "g")

    def test_image_cardinalities_match_vector_oracle(self):
        # second oracle: sums/differences taken coordinate-wise on vectors
        p = WParams(3, 3, 2)
        vectors = enumerate_W(p)
        U = build_U(p)
        vec_sums, vec_diffs = full_pairs(vectors)
        assert len(sumset(U)) == len(vec_sums)
        assert len(diffset(U)) == len(vec_diffs)

    def test_rejects_unknown_encoding(self):
        for encoding in ("h", "f"):  # "f", the radix map of V(m, L), is gone
            with pytest.raises(ValueError, match="encoding"):
                verify_injectivity(WParams(2, 2, 1), encoding)


# equal-length vectors of one dimension 0..3 per list, coordinates in [0, B], and B
packable = st.tuples(st.integers(1, 5), st.integers(0, 3)).flatmap(
    lambda bk: st.tuples(st.lists(st.tuples(*[st.integers(0, bk[0])] * bk[1]), max_size=30), st.just(bk[0]))
)


class TestPairCounters:
    """The i <= j counters behind the pair sets and the verify checks, against full-pair oracles."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-20, 20), max_size=40))
    @example([])
    @example(build_U(WParams(3, 3, 2)))
    def test_integers_match_sumset_and_diffset(self, items):
        sums, diffs = full_pairs(items)
        assert sumset(tuple(items)) == tuple(sorted(sums))
        assert diffset(tuple(items)) == tuple(sorted(diffs))
        # theta_bound_exact needs a strictly increasing U holding 0 and a positive member
        U = tuple(sorted({*items, 0, 1}))
        sums, diffs = full_pairs(U)
        report = theta_bound_exact(U)
        assert (report.d.exact, report.s.exact) == (len(diffs), len(sums))

    @settings(max_examples=200, deadline=None)
    @given(packable)
    # the vectors of test_image_cardinalities_match_vector_oracle
    @example((enumerate_W(WParams(3, 3, 2)), 2))
    def test_packed_vectors_match_full_pair_sets(self, case):
        items, B = case
        sums, diffs = full_pairs(items)
        packed = _pack(items, B)
        assert len(_sums(packed)) == len(sums)
        # diffs is symmetric about the zero vector, which it holds once
        assert len(_low_diffs(packed)) == (len(diffs) + 1) // 2

    def test_packed_sums_hash_apart(self):
        # an int hashes to its value mod 2^61 - 1; in a power-of-two base the
        # fields of W(100, 1, 1)'s pair sums fold onto 61 positions
        packed = _pack(enumerate_W(WParams(100, 1, 1)), 1)
        sums = {x + y for i, x in enumerate(packed) for y in packed[i:]}
        assert len(sums) == 5151
        assert len({hash(v) for v in sums}) == 5151

    def test_checks_fail_on_a_colliding_map(self, monkeypatch):
        monkeypatch.setattr(construct, "encode_g", colliding_g)
        p = WParams(2, 2, 1)
        assert not verify_injectivity(p, "g")
        assert not verify_sumset_identity(p)
