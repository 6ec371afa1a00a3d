"""Exact counting and enumeration of bounded simplex sets.

W(m, L, B) is the set of vectors x in N^m with every coordinate <= B and
coordinate sum <= L; V(m, L) = W(m, L, L) is the unbounded special case with
|V(m, L)| = C(m+L, m).  Counts are exact arbitrary-precision integers, by
inclusion-exclusion over the coordinates that exceed B (``exactcount``); the
finite-m growth rate is the logarithm of the same count.  ``ENUM_CAP`` holds
every enumeration to 10^7 coordinates, or pairs, checked before anything is
built: in O(1) on a lower bound of |W|, then on the exact count.
"""
import math
from typing import Iterator, NamedTuple

from .exactcount import _counts, _log2_comb

#: coordinate vector of a lattice point
LatticeVector = tuple[int, ...]

#: the most coordinates, or pairs, that any enumeration builds; read at call
#: time in this module alone, so a test patches this one name
ENUM_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Raised when an enumeration would exceed ``ENUM_CAP``.

    ``cap`` is ``ENUM_CAP`` as it stood when raised.  ``count`` is exact, or
    a lower bound when ``exact`` is false, held as ``count << shift`` until
    read: a bound of |W| may have as many bits as W's vectors have
    coordinates.  The message gives a count past 64 bits by its bits.
    """

    def __init__(self, count: int, what: str = "vectors", exact: bool = True, shift: int = 0):
        self._count, self._shift = count, shift
        self.cap = ENUM_CAP
        self.exact = exact
        bits = count.bit_length() + shift if count else 0
        shown = str(self.count) if bits <= 64 else f"a {bits:,}-bit number of"
        super().__init__(f"enumeration of {'' if exact else 'at least '}{shown} {what} exceeds the cap of {self.cap}")

    count = property(lambda self: self._count << self._shift)


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
    """Exact |W(m, L, B)| by inclusion-exclusion, a batch of one for ``exactcount._counts``."""
    return CountValue.of(next(_counts([p])))


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


def _refuse_past_cap(n: int, what: str) -> None:
    """Raise ``EnumerationCapError`` when the exact count n exceeds ``ENUM_CAP``."""
    if n > ENUM_CAP:
        raise EnumerationCapError(n, what)


def _check_cap(p: WParams, power: int, what: str, per: int = 1) -> None:
    """Refuse per * |W(m, L, B)|**power past ``ENUM_CAP``: first, in O(1), on
    the lower bound per << shift from ``_log2_lower``, by its shift alone past
    the cap's bits, never built; then on the exact count, cheap once that
    bound passes (at most 10^4 units of estimated work over m <= 10^8,
    L <= 10^12 and B <= 10^15).
    """
    shift = power * max(0, math.floor(_log2_lower(p)) - 1)  # a bit of margin for the floats
    if shift >= ENUM_CAP.bit_length() or per << shift > ENUM_CAP:
        raise EnumerationCapError(per, what, exact=False, shift=shift)
    _refuse_past_cap(per * count_W(p).exact ** power, what)


def enumerate_W(p: WParams) -> list[LatticeVector]:
    """All members of W(m, L, B) in lexicographic order, with their
    max(m, 1)|W| coordinates held to ``ENUM_CAP`` before any is built."""
    _check_cap(p, 1, "coordinates", max(p.m, 1))
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
    # saturated before floor, which an r*m past the float range would overflow
    L = m * B if r >= B else math.floor(r * m)
    return count_W(WParams(m, L, B)).log_value / m
