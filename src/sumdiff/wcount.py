"""Exact counting and enumeration of bounded simplex sets.

W(m, L, B) is the set of vectors x in N^m with every coordinate <= B and
coordinate sum <= L; V(m, L) = W(m, L, L) is the unbounded special case with
|V(m, L)| = C(m+L, m).  Counts are exact arbitrary-precision integers, by
inclusion-exclusion over the coordinates that exceed B (``exactcount``); the
finite-m growth rate is the logarithm of the same count.
"""
import math
from typing import Iterator, NamedTuple

from .exactcount import MAX_COUNT_WORK, _count, _count_work, _log2_comb

#: coordinate vector of a lattice point
LatticeVector = tuple[int, ...]

#: the most vectors, or pairs, that any enumeration builds; read at call time
#: in this module alone, so a test patches this one name
ENUM_CAP = 10_000_000

#: ``_check_cap`` refuses past the cap on a lower bound of |W| alone once the
#: exact count is estimated at more than this (about 0.1-0.25 s); below it the
#: refusal names the exact count
_EXACT_REFUSAL_WORK = MAX_COUNT_WORK // 100


class EnumerationCapError(ValueError):
    """Raised when an enumeration would exceed ``ENUM_CAP``.

    ``cap`` is ``ENUM_CAP`` as it stood when raised.  ``count`` is exact, or a lower bound when ``exact`` is false; the message
    gives a count of more than 64 bits by its number of bits, since an exact
    count may be too long to print.
    """

    def __init__(self, count: int, what: str = "vectors", exact: bool = True):
        self.count = count
        self.cap = ENUM_CAP
        self.exact = exact
        bits = count.bit_length()
        shown = str(count) if bits <= 64 else f"a {bits:,}-bit number of"
        super().__init__(f"enumeration of {'' if exact else 'at least '}{shown} {what} exceeds the cap of {self.cap}")


class WParams(NamedTuple("WParams", [("m", int), ("L", int), ("B", int)])):
    """Parameter triple (m, L, B): dimension, sum bound, coordinate bound."""

    __slots__ = ()

    def __new__(cls, m: int, L: int, B: int):
        for name, v in (("m", m), ("L", L), ("B", B)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        return super().__new__(cls, m, L, B)


class CountValue(NamedTuple):
    """An exact nonnegative integer count with its natural logarithm."""

    exact: int
    log_value: float

    @classmethod
    def of(cls, n: int) -> "CountValue":
        return cls(n, math.log(n) if n > 0 else -math.inf)


def count_W(p: WParams) -> CountValue:
    """Exact |W(m, L, B)| by inclusion-exclusion (see ``exactcount._count``).

    Saturates the sum bound at m*B first; counts are invariant under that
    replacement.
    """
    return CountValue.of(_count(p.m, p.L, p.B))


def binomial(m: int, k: int) -> CountValue:
    """Exact binomial coefficient C(m, k); zero for k > m."""
    if k > m:
        return CountValue.of(0)
    return CountValue.of(math.comb(m, k))


def _vectors(m: int, L: int, B: int) -> Iterator[LatticeVector]:
    # lexicographic odometer: bump the rightmost coordinate that stays
    # within both bounds, zero everything after it
    if m == 0:
        yield ()
        return
    x = [0] * m
    prefix = [0] * (m + 1)  # prefix[i] = x[0] + ... + x[i-1]
    while True:
        yield tuple(x)
        for i in range(m - 1, -1, -1):
            if x[i] < B and prefix[i] + x[i] + 1 <= L:
                x[i] += 1
                prefix[i + 1] = prefix[i] + x[i]
                for j in range(i + 1, m):
                    x[j] = 0
                    prefix[j + 1] = prefix[j]
                break
        else:
            return


def _log2_lower(p: WParams) -> float:
    """A lower bound on log2 |W(m, L, B)| in O(1) float work.

    W holds the cube {0, ..., t}^m with t = min(B, L // m), and for B >= 1
    the 0/1 vectors with min(L, m // 2) ones.
    """
    m, L, B = p
    if m == 0:
        return 0.0
    return max(m * math.log2(min(B, L // m) + 1), _log2_comb(m, min(L, m // 2)) if B else 0.0)


def _refuse_past_cap(n: int, what: str, exact: bool = True) -> None:
    """Raise ``EnumerationCapError`` when n (or, not exact, at least n) exceeds ``ENUM_CAP``."""
    if n > ENUM_CAP:
        raise EnumerationCapError(n, what, exact)


def _check_cap(p: WParams, power: int = 1, what: str = "vectors") -> None:
    """Refuse |W(m, L, B)|**power past ``ENUM_CAP``.

    Checked against the exact count, or, when that count would cost more
    than ``_EXACT_REFUSAL_WORK`` (but not past ``MAX_COUNT_WORK``, which
    ``_count`` refuses as such), first against ``_log2_lower``.
    """
    if _EXACT_REFUSAL_WORK < _count_work(*p) <= MAX_COUNT_WORK:
        # a bit of margin for the floats
        _refuse_past_cap(1 << power * max(0, math.floor(_log2_lower(p)) - 1), what, exact=False)
    _refuse_past_cap(_count(p.m, p.L, p.B) ** power, what)


def enumerate_W(p: WParams) -> list[LatticeVector]:
    """All members of W(m, L, B) in lexicographic order.

    ``ENUM_CAP`` is checked by ``_check_cap`` before any vector is built.
    """
    _check_cap(p)
    return list(_vectors(p.m, p.L, p.B))


def log_count_rate(m: int, r: float, B: int) -> float:
    """log |W(m, floor(r*m), B)| / m, the finite-m growth rate.

    The logarithm of the exact count; it tends to log(B+1) - I(r, B) as m
    grows.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not isinstance(B, int) or isinstance(B, bool) or B < 1:
        raise ValueError(f"B must be a positive integer, got {B!r}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be a positive finite real, got {r!r}")
    return math.log(_count(m, math.floor(r * m), B)) / m
