"""Integer sets built from bounded simplex vectors by the carry-free digit map g.

The base-(2B+1) map g sends (x_1,...,x_m) to sum_k x_k (2B+1)^k.  Digit
windows of width 2B+1 make vector addition and subtraction carry-free, so g
is injective on W+W and W-W and the sumset/difference-set cardinalities of
U = g(W(m,L,B)) equal lattice counts:

    |U+U| = |W(m, 2L, 2B)|
    |U-U| = sum_k C(m,k) |W(k, L-k, B-1)| |W(m-k, L, B)|

``theta_bound`` certifies the exponent bound of U from these counts and a
greedy fill of the top digits for max U, without building U or forming a
pair; it refuses at once a q = 2*max(U) + 1 of more than ``MAX_Q_DIGITS``
decimal digits, since printing it takes time quadratic in them.  The
brute-force path (``build_U``, ``sumset``, ``diffset``,
``theta_bound_exact``) is its oracle: it enumerates U and forms its pairs,
with |U|^2 held to the enumeration cap before any pair is formed.
``verify_triple`` checks both identities and the injectivity of g at desk
scale in one pass: it enumerates W once, encodes each vector once by g and
once packed in the base 2B + 3, and counts distinct sums and differences
over the packed vectors and over their images.  Both paths form only the
pairs i <= j (``_sums``, ``_low_diffs``), since x + y = y + x and, over
sorted items, x_j - x_i is the negation of x_i - x_j.
"""
import math
from itertools import combinations_with_replacement, pairwise, starmap
from operator import add, sub
from typing import Iterator, NamedTuple

from .exactcount import _counts
from .wcount import (
    CountValue,
    LatticeVector,
    WParams,
    _check_cap,
    _refuse_past_cap,
    _vectors,
    count_W,
    enumerate_W,
)

#: strictly increasing tuple of integers
IntegerSet = tuple[int, ...]

#: largest m*log10(2B+1), about the decimal digits of q = 2*max(U) + 1, that
#: ``theta_bound`` accepts: every integer of its report is at most q, and
#: printing one takes time quadratic in its digits
MAX_Q_DIGITS = 100_000


class BoundReport(NamedTuple):
    """Difference/sum counts of U and the exponent bound they certify."""

    set_size: CountValue  # |U|
    d: CountValue  # |U - U|
    s: CountValue  # |U + U|
    q: int  # 2*max(U) + 1
    theta: float  # 1 + (log d - log s)/log q


def _horner(x: LatticeVector, base: int) -> int:
    """sum_k x_k base^k, by Horner's rule from the top coordinate."""
    value = 0
    for coord in reversed(x):
        value = value * base + coord
    return value


def encode_g(x: LatticeVector, B: int) -> int:
    """Base-(2B+1) positional value of x.

    Injective on any vector family whose coordinates stay inside a fixed
    window of width 2B+1; accepts [-2B, 2B], which covers sums of two
    W-vectors as well as their differences.
    """
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    for coord in x:
        if not -2 * B <= coord <= 2 * B:
            raise ValueError(f"coordinate {coord} outside the injectivity window [-{2*B}, {2*B}]")
    return _horner(x, 2 * B + 1)


def build_U(p: WParams) -> IntegerSet:
    """U = g(W(m, L, B)), sorted ascending.

    |U| must equal |W(m, L, B)|, certifying injectivity of g on W itself.
    """
    vectors = enumerate_W(p)
    if p.m == 0 or p.B == 0:
        return (0,)
    U = tuple(sorted(encode_g(x, p.B) for x in vectors))
    if len(U) != len(vectors):
        raise AssertionError(f"digit map collided on W{(p.m, p.L, p.B)}")
    return U


def _sums(items) -> set:
    """{x + y : x, y in items} from the pairs i <= j alone, since x + y = y + x."""
    return set(starmap(add, combinations_with_replacement(items, 2)))


def _low_diffs(items) -> set:
    """{x_i - x_j : i <= j} over the sorted items, the differences <= 0.

    Every x_j - x_i with i <= j is the negation of one of them, so for this
    set A the full set {x - y : x, y in items} is the union of A and -A,
    which meet only in 0: 2|A| - 1 members, duplicates or not, when items
    is nonempty.
    """
    return set(starmap(sub, combinations_with_replacement(sorted(items), 2)))


def sumset(U: IntegerSet) -> IntegerSet:
    """{u + v : u, v in U}, deduplicated and sorted."""
    _refuse_past_cap(len(U) ** 2, "pairs")
    return tuple(sorted(_sums(U)))


def diffset(U: IntegerSet) -> IntegerSet:
    """{u - v : u, v in U}, sorted; symmetric about 0."""
    _refuse_past_cap(len(U) ** 2, "pairs")
    low = sorted(_low_diffs(U))  # ends in 0 when U is nonempty
    return tuple(low + [-d for d in reversed(low[:-1])])


def _pack(vectors: list[LatticeVector], B: int) -> list[int]:
    """Each vector as one integer in the odd base 2B + 3, apart from g's base 2B + 1.

    For coordinates in [0, B], each digit of a packed sum lies in [0, 2B],
    and a packed difference plus the pack of (B, ..., B) has every digit in
    [0, 2B]: in any base >= 2B + 1 no digit carries or borrows, so the packed
    sums (differences) are distinct exactly when the vector sums
    (differences) are.  The base is odd because an int's hash is its value
    mod 2^61 - 1, which folds the powers of a power of two onto 61 values.
    """
    base = 2 * B + 3
    return [_horner(x, base) for x in vectors]


def _report(n: int, d: int, s: int, q: int) -> BoundReport:
    # the one theta expression, so the counted and paired bounds agree bit for bit
    theta = 1.0 + (math.log(d) - math.log(s)) / math.log(q)
    return BoundReport(CountValue.of(n), CountValue.of(d), CountValue.of(s), q, theta)


def theta_bound_exact(U: IntegerSet) -> BoundReport:
    """Exponent bound 1 + log(|U-U|/|U+U|) / log(2*max(U)+1) for a concrete U, strictly increasing."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    if any(u >= v for u, v in pairwise(U)):
        raise ValueError("U must be strictly increasing: no repeats, in sorted order")
    if 0 not in U:
        raise ValueError("U must contain zero")
    if max(U) < 1:
        raise ValueError("U = {0} has no meaningful scale (log q = 0)")
    _refuse_past_cap(len(U) ** 2, "pairs")
    return _report(len(U), 2 * len(_low_diffs(U)) - 1, len(_sums(U)), 2 * max(U) + 1)


def diff_count(p: WParams) -> CountValue:
    """|U-U| for U = g(W(m, L, B)), by the convolution

    |U-U| = sum_{k=0}^{min(m,L)} C(m,k) |W(k, L-k, B-1)| |W(m-k, L, B)|

    over the number k of negative coordinates of a difference vector: their
    magnitudes less 1 each form a member of W(k, L-k, B-1), and the other m-k
    coordinates a member of W(m-k, L, B).  These 2(min(m, L) + 1) counts
    are one batch of ``exactcount._counts``, refused together before any starts.
    """
    if p.B < 1:
        raise ValueError("the convolution formula needs B >= 1")
    return CountValue.of(_convolve(p.m, _counts(_convolution(p))))


def _convolution(p: WParams) -> list[WParams]:
    """The triples of diff_count's convolution, W(k, L-k, B-1) then W(m-k, L, B) for each k."""
    return [q for k in range(min(p.m, p.L) + 1) for q in (WParams(k, p.L - k, p.B - 1), WParams(p.m - k, p.L, p.B))]


def _convolve(m: int, counts: Iterator[int]) -> int:
    """sum_k C(m, k) |W(k, L-k, B-1)| |W(m-k, L, B)|, over the counts of ``_convolution`` taken two at a time."""
    return sum(math.comb(m, k) * neg * rest for k, (neg, rest) in enumerate(zip(counts, counts)))


def max_U(p: WParams) -> int:
    """max g(W(m, L, B)): fill the digits from the top, each up to B, until L is spent.

    The digits are nonnegative and below the base, so the greatest value has
    the lexicographically greatest digit string, most significant first: t =
    min(m, L//B) top digits equal to B, then the remainder L - tB if t < m,
    then zeros.  That string is summed in closed form, not digit by digit.
    """
    m, L, B = p.m, p.L, p.B
    if B == 0:
        return 0
    base = 2 * B + 1
    t = min(m, L // B)
    value = B * (base**t - 1) // (base - 1) * base ** (m - t)
    if t < m:
        value += (L - t * B) * base ** (m - t - 1)
    return value


def theta_bound(p: WParams) -> BoundReport:
    """The exponent bound of U = g(W(m, L, B)) from exact counts alone.

    Equal, field for field and bit for bit in theta, to
    ``theta_bound_exact(build_U(p))``, with no set built and no pair formed.
    Raises ``ValueError`` before counting when m*log10(2B+1) exceeds
    ``MAX_Q_DIGITS`` or ``exactcount._counts`` refuses its counts, one
    batch: |U|, |U+U| and the |U-U| convolution's, convolved here.
    """
    if min(p) < 1:  # then max U = 0
        raise ValueError("U = {0} has no meaningful scale (log q = 0)")
    digits = p.m * math.log10(2 * p.B + 1)
    if digits > MAX_Q_DIGITS:
        raise ValueError(
            f"m*log10(2B+1) = {digits:.0f} exceeds the counted bound's limit of "
            f"{MAX_Q_DIGITS} decimal digits of q"
        )
    counts = _counts([p, WParams(p.m, 2 * p.L, 2 * p.B), *_convolution(p)])  # |U|, |U+U|, then |U-U|'s terms
    n, s = next(counts), next(counts)
    return _report(n, _convolve(p.m, counts), s, 2 * max_U(p) + 1)


def _check_pairs(p: WParams) -> None:
    """Refuse past ``ENUM_CAP`` the max(m, 1)|W|^2 coordinates of ``verify_triple``'s pairs, before any is formed."""
    _check_cap(p, 2, "pair coordinates", max(p.m, 1))


def verify_triple(p: WParams) -> tuple[bool, bool, bool]:
    """Check (sumset identity, difference-set identity, injectivity of g) on p.

    U + U and U - U are counted over the images g(x) and compared with
    |W(m, 2L, 2B)| and ``diff_count(p)``; g is injective on W+W and W-W
    exactly when those counts equal the ones over the vectors, whose sums and
    differences are taken on their ``_pack``ed base-(2B+3) values, a map
    apart from g.  B >= 1 and ``_check_pairs`` come before anything is
    enumerated; the latter bounds max(m, 1)|W| too, so W is enumerated with
    no second check.
    """
    if p.B < 1:
        raise ValueError("the difference-set convolution needs B >= 1")
    _check_pairs(p)
    vectors = list(_vectors(*p))
    images = [encode_g(x, p.B) for x in vectors]
    packed = _pack(vectors, p.B)
    sums, low = len(_sums(images)), len(_low_diffs(images))  # W holds 0: images is nonempty
    return (
        sums == count_W(WParams(p.m, 2 * p.L, 2 * p.B)).exact,
        2 * low - 1 == diff_count(p).exact,
        sums == len(_sums(packed)) and low == len(_low_diffs(packed)),
    )


def verify_sumset_identity(p: WParams) -> bool:
    """|U+U| = |W(m, 2L, 2B)|: the first check of ``verify_triple``."""
    return verify_triple(p)[0]


def verify_diffset_identity(p: WParams) -> bool:
    """|U-U| = ``diff_count(p)``: the second check of ``verify_triple``."""
    return verify_triple(p)[1]


def verify_injectivity(p: WParams, encoding: str = "g") -> bool:
    """g injective on W+W and W-W: the third check of ``verify_triple``; g is the only encoding."""
    if encoding != "g":
        raise ValueError(f"encoding must be 'g', got {encoding!r}")
    return verify_triple(p)[2]
