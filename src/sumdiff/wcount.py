"""Exact counting and enumeration of bounded simplex sets.

W(m, L, B) is the set of vectors x in N^m with every coordinate <= B and
coordinate sum <= L; V(m, L) = W(m, L, L) is the unbounded special case with
|V(m, L)| = C(m+L, m).  Counts are exact arbitrary-precision integers, by
inclusion-exclusion over the coordinates that exceed B; the finite-m growth
rate is the logarithm of the same count.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

#: coordinate vector of a lattice point
LatticeVector = tuple[int, ...]

DEFAULT_ENUM_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Raised when an enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "vectors"):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} {what} exceeds the cap of {cap}")


def enum_cap(cap: int | None = None) -> int:
    """The given cap, else the default of 10^7."""
    return DEFAULT_ENUM_CAP if cap is None else cap


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


def _count(m: int, L: int, B: int) -> int:
    """|W(m, L, B)| by inclusion-exclusion over the coordinates above B.

    |W(m, L, B)| = sum_k (-1)^k C(m, k) C(L - k(B+1) + m, m), over
    k <= min(m, floor(L/(B+1))) after L is saturated at m*B.  One carried
    term: min(m, L//(B+1)) steps, each one small product (of min(m, B+1)
    factors) and one exact division.
    """
    L = min(L, m * B)
    s = B + 1
    # C(n-s, m) / C(n, m) = perm(n-m, s) / perm(n, s) = perm(n-s, m) / perm(n, m):
    # the shorter of the two products, a factors each, all of them >= 1
    a, b = sorted((s, m))
    n = L + m  # the k-th term is (-1)^k C(m, k) C(n, m) with n = L - k*s + m
    term = math.comb(n, m)
    total = term
    for k in range(1, min(m, L // s) + 1):
        # t_k / t_{k-1} = (m-k+1)/k * C(n-s, m)/C(n, m); the division is
        # exact because t_k is an integer
        num = (m - k + 1) * math.perm(n - b, a)
        den = k * math.perm(n, a)
        term = -term * num // den
        n -= s
        total += term
    return total


def count_W(p: WParams) -> CountValue:
    """Exact |W(m, L, B)| by inclusion-exclusion (see ``_count``).

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


def enumerate_W(p: WParams, cap: int | None = None) -> list[LatticeVector]:
    """All members of W(m, L, B) in lexicographic order.

    The cap (default 10^7) is checked against the exact count before any
    vector is built.
    """
    cap = enum_cap(cap)
    n = _count(p.m, p.L, p.B)
    if n > cap:
        raise EnumerationCapError(n, cap)
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
