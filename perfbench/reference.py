"""Reference computations made apart from the sumdiff package.

Nothing here imports sumdiff.  Each function uses a different method from
the program it checks:

* rate_I: Brent root-finding (scipy.optimize.brentq) on the tilted mean,
  where sumdiff bisects;
* count_W: inclusion-exclusion over the coordinates forced above B, where
  sumdiff runs a prefix-sum DP;
* max_U: the greedy top-digit fill, where sumdiff enumerates the set;
* theta_objective / coarse_scan: the paper's bound assembled from rate_I,
  and a grid scan of its (r, a) domain.

Run ``python3 perfbench/reference.py`` to run the self-tests at desk scale.
"""
from __future__ import annotations

import itertools
import math


def _tilted_sums(t: float, B: int) -> tuple[float, float]:
    """(sum_j e^{jt}, sum_j j e^{jt}) over j = 0..B, for t <= 0."""
    weights = [math.exp(j * t) for j in range(B + 1)]
    return math.fsum(weights), math.fsum(j * w for j, w in enumerate(weights))


def tilted_mean(t: float, B: int) -> float:
    """Mean of the uniform distribution on {0..B} tilted by e^{jt}, t <= 0."""
    z, zj = _tilted_sums(t, B)
    return zj / z


def rate_I(c: float, B: int) -> float:
    """Large-deviation rate I(c, B) of the uniform distribution on {0..B}.

    0 for c >= B/2, log(B+1) at c = 0, otherwise t*c - log(mean e^{jt*})
    with t* < 0 the root of tilted_mean(t, B) = c, found by Brent's method.
    """
    if B <= 0 or c >= 0.5 * B:
        return 0.0
    if c <= 0.0:
        return math.log(B + 1)
    from scipy.optimize import brentq  # here, so that importing this module loads no scipy

    lo = -1.0
    while tilted_mean(lo, B) >= c:
        lo *= 2.0
    t = brentq(lambda s: tilted_mean(s, B) - c, lo, 0.0, xtol=1e-15, rtol=1e-15, maxiter=500)
    z, _ = _tilted_sums(t, B)
    return max(0.0, t * c - math.log(z / (B + 1)))


def count_W(m: int, L: int, B: int) -> int:
    """|W(m, L, B)| by inclusion-exclusion.

    sum_k (-1)^k C(m, k) C(L - k(B+1) + m, m); each binomial is updated from
    the previous one by small-integer factors, so m = 10^4 takes well under
    a second where calling math.comb per term takes over ten.
    """
    if m == 0:
        return 1
    s = B + 1
    a = 1  # C(m, k)
    n = L + m  # C(n, m) is the k-th unrestricted count
    b = math.comb(n, m)
    total = 0
    k = 0
    while True:
        total += -a * b if k & 1 else a * b
        k += 1
        if k > m or L - k * s < 0:
            return total
        a = a * (m - k + 1) // k
        num = den = 1
        for j in range(s):
            num *= n - m - j
            den *= n - j
        b = b * num // den
        n -= s


def count_W_comb(m: int, L: int, B: int) -> int:
    """The same inclusion-exclusion with one math.comb per term (self-test only)."""
    return sum(
        (-1) ** k * math.comb(m, k) * math.comb(L - k * (B + 1) + m, m)
        for k in range(min(m, L // (B + 1)) + 1)
    )


def count_W_brute(m: int, L: int, B: int) -> int:
    """|W(m, L, B)| by listing {0..B}^m (self-test only)."""
    return sum(1 for x in itertools.product(range(B + 1), repeat=m) if sum(x) <= L)


def diff_count(m: int, L: int, B: int) -> int:
    """|U - U| by the convolution sum_k C(m,k) |W(k, L-k, B-1)| |W(m-k, L, B)|."""
    return sum(
        math.comb(m, k) * count_W(k, L - k, B - 1) * count_W(m - k, L, B)
        for k in range(min(m, L) + 1)
    )


def max_U(m: int, L: int, B: int) -> int:
    """Largest base-(2B+1) image of W(m, L, B): fill the top digits first."""
    base = 2 * B + 1
    left = L
    value = 0
    for k in reversed(range(m)):
        digit = min(B, left)
        left -= digit
        value += digit * base**k
    return value


def theta_objective(B: int, r: float, a: float) -> float:
    """theta - 1 of the limiting construction at (B, r, a), from rate_I."""
    ar = a * r
    num = (
        math.log(2.0)
        + ar * math.log(B)
        + (1.0 - ar) * math.log(B + 1)
        - rate_I(ar, 1)
        - ar * rate_I((1.0 - a) / a, B - 1)
        - (1.0 - ar) * rate_I(r / (1.0 - ar), B)
        - math.log(2 * B + 1)
        + rate_I(2.0 * r, 2 * B)
    )
    return num / math.log(2 * B + 1)


def coarse_scan(B: int, r_points: int = 16, a_points: int = 16) -> float:
    """Best theta - 1 on a grid of r in [0.5, 2] and interior a in (0, min(1, 1/r))."""
    best = -math.inf
    for i in range(r_points):
        r = 0.5 + 1.5 * i / (r_points - 1)
        a_hi = min(1.0, 1.0 / r)
        for j in range(1, a_points + 1):
            best = max(best, theta_objective(B, r, a_hi * j / (a_points + 1)))
    return best


def self_test() -> None:
    """Check each reference against an independent closed form or brute force."""

    def entropy(c):
        return -c * math.log(c) - (1 - c) * math.log(1 - c)

    for k in range(1, 50):
        c = 0.01 * k
        if abs(rate_I(c, 1) - (math.log(2) - entropy(c))) > 1e-13:
            raise RuntimeError(f"rate_I({c}, 1) differs from log 2 - H(c)")
    for B in range(1, 21):
        if rate_I(0.0, B) != math.log(B + 1) or rate_I(B / 2, B) != 0.0:
            raise RuntimeError(f"rate_I boundary values wrong at B={B}")
        # the dual value is a supremum over t: no grid tilt may beat it
        c = 0.3 * B / 2
        value = rate_I(c, B)
        for i in range(1, 200):
            t = -0.05 * i
            z, _ = _tilted_sums(t, B)
            if t * c - math.log(z / (B + 1)) > value + 1e-14:
                raise RuntimeError(f"rate_I({c}, {B}) is below the dual at t={t}")
    for m in range(6):
        for L in range(13):
            for B in range(4):
                brute = count_W_brute(m, L, B)
                if count_W(m, L, B) != brute or count_W_comb(m, L, B) != brute:
                    raise RuntimeError(f"count_W({m}, {L}, {B}) != {brute}")
    for m, L, B in [(3, 4, 2), (4, 5, 3), (5, 3, 1)]:
        vectors = [x for x in itertools.product(range(B + 1), repeat=m) if sum(x) <= L]
        base = 2 * B + 1

        def g(x):
            return sum(v * base**k for k, v in enumerate(x))

        U = [g(x) for x in vectors]
        if max(U) != max_U(m, L, B):
            raise RuntimeError(f"max_U({m}, {L}, {B}) != {max(U)}")
        if len({u - v for u in U for v in U}) != diff_count(m, L, B):
            raise RuntimeError(f"diff_count({m}, {L}, {B}) disagrees with brute force")
        if len({u + v for u in U for v in U}) != count_W(m, 2 * L, 2 * B):
            raise RuntimeError(f"|U+U| != |W(m, 2L, 2B)| at ({m}, {L}, {B})")
    if count_W(400, 400, 3) != count_W_comb(400, 400, 3):
        raise RuntimeError("incremental inclusion-exclusion drifts at m = 400")


if __name__ == "__main__":
    self_test()
    print("reference self-tests passed")
