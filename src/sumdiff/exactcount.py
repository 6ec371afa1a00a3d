"""The exact count |W(m, L, B)| by inclusion-exclusion, and its work estimate.

|W(m, L, B)| = sum_k (-1)^k C(m, k) C(L - k(B+1) + m, m) over the k
coordinates that exceed B.  ``_count`` sums its terms swept down from the
last, in blocks with one pair of big-integer divisions a block and as many
steps a block as the width of a ratio factor allows (one, past
``_WIDE_BITS``); ``_count_work`` estimates that work in O(1) float
arithmetic.  ``_counts`` is the one way in: ``_check_work`` prices its batch
once -- one count for ``count_W``, a convolution's for ``diff_count``, a
bound's for ``theta_bound`` -- and refuses it past ``MAX_COUNT_WORK``.
Kept apart from ``wcount`` so that each module compiles on its own: a cold
``count`` with no cached bytecode compiles both, and its peak memory is the
larger compile's, not their sum.
"""
import math
from collections.abc import Iterator, Sequence


#: bit budget of a block's divisor, the product of its ratio denominators
_BLOCK_BITS = 1024

#: wider ratio factors step alone: past about four machine words, a wider
#: divisor costs more than it saves
_WIDE_BITS = 128

#: largest ``_count_work`` of the counts that ``_check_work`` is given
#: together: 8-26 s at the 0.5-1.7 ns a unit measured
MAX_COUNT_WORK = 15_000_000_000


def _log2_comb(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


def _count_work(m: int, L: int, B: int) -> float:
    """Estimated cost of ``_count(m, L, B)``, in O(1) float work.

    The first term's binomials, C(m, K) and C(m + rho, m), cost the square of
    their bits over 32 (``math.comb`` is about quadratic in them); each of
    the K steps, the bits of the count, min((B+1)^m, C(L+m, m)), times the
    width of a ratio factor in units of ``_WIDE_BITS`` once it is wider: a
    step divides a number of about those bits by that factor.
    """
    L = min(L, m * B)
    s = B + 1
    K = min(m, L // s)
    start = _log2_comb(m, K) + _log2_comb(L - K * s + m, m)
    bits = min(m * math.log2(s), _log2_comb(L + m, m))
    width = m.bit_length() + min(m, s) * (L + m).bit_length()
    return start * start / 32 + K * bits * max(1.0, width / _WIDE_BITS)


def _check_work(triples: Sequence[tuple[int, int, int]]) -> None:
    """Raise ``ValueError`` when the counts of the triples (m, L, B) are
    estimated by ``_count_work`` at more than ``MAX_COUNT_WORK`` together.

    With L saturated at m*B, z = m*bits(L+m) bounds K, the ratio width and
    the bits of every term by 2z, as C(m, k) < 2^m and C(n, m) <= (L+m)^m:
    each estimate is below z^3, so a batch whose z^3 sum is within the
    limit skips the estimates.
    """
    if sum((m * (min(L, m * B) + m).bit_length()) ** 3 for m, L, B in triples) <= MAX_COUNT_WORK:
        return
    work = 0.0
    for p in triples:
        work += _count_work(*p)
        if work > MAX_COUNT_WORK:
            counts = f"the count of W{tuple(p)}" if len(triples) == 1 else f"{len(triples)} exact counts"
            raise ValueError(f"{counts}: estimated at more than the limit of {MAX_COUNT_WORK:.3g} units of work")


def _count(m: int, L: int, B: int) -> int:
    """|W(m, L, B)| by inclusion-exclusion over the coordinates above B.

    |W(m, L, B)| = sum_k (-1)^k C(m, k) C(L - k(B+1) + m, m), over
    k <= K = min(m, floor(L/(B+1))) after L is saturated at m*B, swept down
    from k = K, each term carried to the one before by a ratio of two small
    products.  The steps run in blocks of ``_BLOCK_BITS // width``, for width
    the bits that bound every ratio factor, so a block's ratio denominators
    multiply to under ``_BLOCK_BITS`` bits and it divides the big terms
    twice, not once a step; past ``_WIDE_BITS`` of width a block is one
    step.  Unchecked: reached only through ``_counts``.
    """
    L = min(L, m * B)
    s = B + 1
    K = min(m, L // s)
    if not K:
        return math.comb(L + m, m)
    # C(n, m) / C(n-s, m) = perm(n, s) / perm(n-m, s) = perm(n, m) / perm(n-s, m):
    # the shorter of the two products, a factors each, all of them >= 1
    a, b = (s, m) if s < m else (m, s)
    n = L - K * s + m  # term t_k = (-1)^k C(m, k) C(n, m), here k = K
    term = math.comb(m, K) * math.comb(n, m)
    if K & 1:
        term = -term
    total = term
    width = m.bit_length() + a * (L + m).bit_length()  # bits of m*(L+m)^a, above any factor's
    g = _BLOCK_BITS // width if width <= _WIDE_BITS else 1  # steps a block
    # A step carries t_k to t_{k-1} = t_k * -k C(n+s, m) / ((m-k+1) C(n, m)),
    # its factors gathered in Q and P.  In a block from term = t_i down to
    # t_j, Q/P = t_j/term and, by Horner's rule, T/P = (t_{i-1} + ... +
    # t_{j+1})/term, the terms in between.  From T = -1 the first step leaves
    # T = 0, so a one-step block has T = 0 and divides once, as a lone step.
    P = Q = 1
    T = -1
    for k in range(K, 0, -1):
        n += s
        p = (m - k + 1) * math.perm(n - b, a)
        P *= p
        T = (T + Q) * p
        Q *= -k * math.perm(n, a)
        if (k - 1) % g:
            continue
        # the block ends at t_{k-1}, k-1 a multiple of g; both quotients are
        # sums of terms, so both divisions are exact
        if T:
            total += term * T // P
        term = term * Q // P
        total += term
        P = Q = 1
        T = -1
    return total


def _counts(triples: Sequence[tuple[int, int, int]]) -> Iterator[int]:
    """|W(m, L, B)| of each triple, counted as taken, once ``_check_work`` has passed them all."""
    _check_work(triples)
    return (_count(*t) for t in triples)
