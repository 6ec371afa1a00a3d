"""Integer sets built from bounded simplex vectors by carry-free digit maps.

The base-(2B+1) map g sends (x_1,...,x_m) to sum_k x_k (2B+1)^k.  Digit
windows of width 2B+1 make vector addition and subtraction carry-free, so g
is injective on W+W and W-W and the sumset/difference-set cardinalities of
U = g(W(m,L,B)) equal lattice counts:

    |U+U| = |W(m, 2L, 2B)|
    |U-U| = sum_k C(m,k) |W(k, L-k, B-1)| |W(m-k, L, B)|

``theta_bound`` certifies the exponent bound of U from these counts and a
greedy fill of the top digits for max U, without building U or forming a
pair.  The brute-force path (``build_U``, ``sumset``, ``diffset``,
``theta_bound_exact``) is its oracle: it enumerates U and all |U|^2 pairs,
held to the enumeration cap, which is checked before any pair is formed.
The ``verify_*`` checks compare the two at desk scale; they hold n^2 pairs to
the cap but form only the pairs i <= j, since x + y = y + x and, over sorted
items, x_j - x_i is the negation of x_i - x_j.  The legacy radix map
f with weights w_0 = 1, w_k = 2L*w_{k-1} + 1 plays the same role for the
unbounded sets V(m, L).
"""
from __future__ import annotations

import math
from itertools import repeat
from operator import add, sub
from typing import NamedTuple

from .wcount import (
    CountValue,
    EnumerationCapError,
    LatticeVector,
    WParams,
    binomial,
    count_W,
    enum_cap,
    enumerate_W,
)

#: strictly increasing tuple of integers
IntegerSet = tuple[int, ...]

#: largest min(m, L) that ``theta_bound`` accepts: the |U-U| convolution has
#: min(m, L) + 1 terms, each an exact count
MAX_CONVOLUTION_TERMS = 4_000

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


def encode_g(x: LatticeVector, B: int) -> int:
    """Base-(2B+1) positional value of x.

    Injective on any vector family whose coordinates stay inside a fixed
    window of width 2B+1; accepts [-2B, 2B], which covers sums of two
    W-vectors as well as their differences.
    """
    if not isinstance(B, int) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    base = 2 * B + 1
    value = 0
    for coord in reversed(x):
        if not -2 * B <= coord <= 2 * B:
            raise ValueError(f"coordinate {coord} outside the injectivity window [-{2*B}, {2*B}]")
        value = value * base + coord
    return value


def encode_f(x: LatticeVector, L: int) -> int:
    """Radix value of x under the weights w_0 = 1, w_k = 2L*w_{k-1} + 1.

    Coordinate x[i] is paired with weight w_i.
    """
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    value = 0
    weight = 1
    for coord in x:
        if not 0 <= coord <= L:
            raise ValueError(f"coordinate {coord} outside [0, {L}]")
        value += coord * weight
        weight = 2 * L * weight + 1
    return value


def build_U(p: WParams, cap: int | None = None) -> IntegerSet:
    """U = g(W(m, L, B)), sorted ascending.

    |U| must equal |W(m, L, B)|, certifying injectivity of g on W itself.
    """
    vectors = enumerate_W(p, cap)
    if p.m == 0 or p.B == 0:
        return (0,)
    U = tuple(sorted(encode_g(x, p.B) for x in vectors))
    if len(U) != len(vectors):
        raise AssertionError(f"digit map collided on W{(p.m, p.L, p.B)}")
    return U


def _check_pairs(n: int, cap: int | None) -> None:
    cap = enum_cap(cap)
    if n * n > cap:
        raise EnumerationCapError(n * n, cap, "pairs")


def sumset(U: IntegerSet, cap: int | None = None) -> IntegerSet:
    """{u + v : u, v in U} over all pairs, deduplicated and sorted."""
    _check_pairs(len(U), cap)
    return tuple(sorted({u + v for u in U for v in U}))


def diffset(U: IntegerSet, cap: int | None = None) -> IntegerSet:
    """{u - v : u, v in U}; symmetric about 0."""
    _check_pairs(len(U), cap)
    return tuple(sorted({u - v for u in U for v in U}))


def _half_pairs(op, items) -> set:
    """{op(x_i, x_j) : i <= j} over a sequence, with op taken coordinate by coordinate on tuples."""
    out = set()
    for i, x in enumerate(items):
        if isinstance(x, tuple):
            out.update(tuple(map(op, x, y)) for y in items[i:])
        else:
            out.update(map(op, repeat(x), items[i:]))
    return out


def _distinct_sums(items) -> int:
    """|{x + y : x, y in items}| from the pairs i <= j alone, since x + y = y + x."""
    return len(_half_pairs(add, items))


def _distinct_diffs(items) -> int:
    """|{x - y : x, y in items}| from the pairs i <= j of the sorted items.

    Sorted, every x_i - x_j with i <= j is <= 0 (lexicographically, for
    tuples) and its negation is >= 0, so for the set A of those differences
    the full set is the union of A and -A, which meet only in 0: 2|A| - 1
    members, duplicates or not.  Empty items have none.
    """
    items = sorted(items)
    return 2 * len(_half_pairs(sub, items)) - 1 if items else 0


def _report(n: int, d: int, s: int, q: int) -> BoundReport:
    # the one theta expression, so the counted and paired bounds agree bit for bit
    theta = 1.0 + (math.log(d) - math.log(s)) / math.log(q)
    return BoundReport(CountValue.of(n), CountValue.of(d), CountValue.of(s), q, theta)


def theta_bound_exact(U: IntegerSet, cap: int | None = None) -> BoundReport:
    """Exponent bound 1 + log(|U-U|/|U+U|) / log(2*max(U)+1) for a concrete U."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    if 0 not in U:
        raise ValueError("U must contain zero")
    if max(U) < 1:
        raise ValueError("U = {0} has no meaningful scale (log q = 0)")
    d = len(diffset(U, cap))
    s = len(sumset(U, cap))
    return _report(len(U), d, s, 2 * max(U) + 1)


def diff_count(p: WParams) -> CountValue:
    """|U-U| for U = g(W(m, L, B)), by the convolution

    |U-U| = sum_{k=0}^{min(m,L)} C(m,k) |W(k, L-k, B-1)| |W(m-k, L, B)|

    over the number k of negative coordinates of a difference vector: their
    magnitudes less 1 each form a member of W(k, L-k, B-1), and the other m-k
    coordinates a member of W(m-k, L, B).
    """
    if p.B < 1:
        raise ValueError("the convolution formula needs B >= 1")
    total = 0
    for k in range(min(p.m, p.L) + 1):
        total += (
            binomial(p.m, k).exact
            * count_W(WParams(k, p.L - k, p.B - 1)).exact
            * count_W(WParams(p.m - k, p.L, p.B)).exact
        )
    return CountValue.of(total)


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
    Raises ``ValueError`` before counting when min(m, L) exceeds
    ``MAX_CONVOLUTION_TERMS`` or m*log10(2B+1) exceeds ``MAX_Q_DIGITS``.
    """
    terms = min(p.m, p.L)
    if terms > MAX_CONVOLUTION_TERMS:
        raise ValueError(
            f"min(m, L) = {terms} exceeds the counted bound's limit of "
            f"{MAX_CONVOLUTION_TERMS} convolution terms, each an exact count"
        )
    digits = p.m * math.log10(2 * p.B + 1)
    if digits > MAX_Q_DIGITS:
        raise ValueError(
            f"m*log10(2B+1) = {digits:.0f} exceeds the counted bound's limit of "
            f"{MAX_Q_DIGITS} decimal digits of q"
        )
    top = max_U(p)
    if top < 1:
        raise ValueError("U = {0} has no meaningful scale (log q = 0)")
    return _report(
        count_W(p).exact,
        diff_count(p).exact,
        count_W(WParams(p.m, 2 * p.L, 2 * p.B)).exact,
        2 * top + 1,
    )


def verify_sumset_identity(p: WParams, cap: int | None = None) -> bool:
    """Check |U+U| = |W(m, 2L, 2B)| by exhaustive pair enumeration.

    The cap holds |U|^2 pairs, but only the pairs i <= j are formed, since
    u + v = v + u.
    """
    U = build_U(p, cap)
    _check_pairs(len(U), cap)
    lhs = _distinct_sums(U)
    rhs = count_W(WParams(p.m, 2 * p.L, 2 * p.B)).exact
    return lhs == rhs


def verify_diffset_identity(p: WParams, cap: int | None = None) -> bool:
    """Check the difference-set convolution ``diff_count`` by exhaustive enumeration.

    The cap holds |U|^2 pairs, but only the pairs i <= j of sorted U are
    formed, since U - U is those differences and their negations.
    """
    rhs = diff_count(p).exact
    U = build_U(p, cap)
    _check_pairs(len(U), cap)
    return _distinct_diffs(U) == rhs


def verify_injectivity(p: WParams, encoding: str = "g", cap: int | None = None) -> bool:
    """Check that the digit map separates pairwise sums and differences.

    encoding "g": base-(2B+1) map on W(m, L, B).
    encoding "f": legacy radix map on V(m, L) (i.e. W with B = L).
    A map is injective on W+W exactly when distinct vector sums get distinct
    integers, so cardinalities of the two images are compared; likewise W-W.
    Vector sums and differences are taken coordinate by coordinate, never
    through a digit map.  The cap holds |W|^2 pairs, but only the pairs
    i <= j are formed, for sums by symmetry and for differences over sorted
    items by negation.
    """
    if encoding == "g":
        vectors = enumerate_W(p, cap)
        if p.B >= 1:
            images = [encode_g(x, p.B) for x in vectors]
        else:
            images = [0] * len(vectors)  # B = 0: W is the single zero vector
    elif encoding == "f":
        if p.L < 1:
            raise ValueError("the radix map needs L >= 1")
        vectors = enumerate_W(WParams(p.m, p.L, p.L), cap)
        images = [encode_f(x, p.L) for x in vectors]
    else:
        raise ValueError(f"encoding must be 'g' or 'f', got {encoding!r}")
    _check_pairs(len(vectors), cap)
    if _distinct_sums(vectors) != _distinct_sums(images):
        return False
    return _distinct_diffs(vectors) == _distinct_diffs(images)
