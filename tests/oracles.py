"""The references the tests compare the program against, each written once,
and the one fault they plant in it, ``colliding_g``.

Two rules keep an oracle from sharing the bug it should catch: this module
imports only the standard library, nothing from sumdiff, and no oracle uses
the program's own method (closed-form moments, Newton, inclusion-exclusion,
pairs i <= j); they take direct sums, bisection, a prefix-sum recurrence,
enumeration and all |items|^2 pairs instead.
"""
import math
import operator
from decimal import Context, Decimal, localcontext
from itertools import accumulate, product

#: the eps = 1e-10 column of the published table: theta(B) - 1 for B = 3..10
PAPER_COLUMN = {3: 0.168700179627163, 4: 0.172137890014121, 5: 0.173077279785136, 6: 0.172855932676998,
                7: 0.172060243360376, 8: 0.170975345189401, 9: 0.169749936705623, 10: 0.168465310634737}

#: the arithmetic of a direct sum, (conversion, exp, log, sum, the width in t
#: where bisection stops): floats, each sum rounded once by math.fsum, and
#: decimals, for use inside ``localcontext(DIGITS50)``
FLOAT = (float, math.exp, math.log, math.fsum, 1e-12)
DECIMAL = (Decimal, Decimal.exp, Decimal.ln, sum, Decimal("1e-25"))
DIGITS50 = Context(prec=50)


def entropy(c):
    """The entropy, in nats, of a coin that shows heads with probability c."""
    return -c * math.log(c) - (1 - c) * math.log(1 - c)


def law(weights, t, arith=FLOAT):
    """(mean, variance, log-MGF, P(J = 0)) of P(J = j) ~ weights[j] e^(jt), by direct sums over j.

    The log-MGF is log E e^(tJ) under the untilted weights.  The largest exponent,
    max(0, (len(weights) - 1) t), is shifted out first, so the sums stay in range at any t.
    """
    num, exp, log, add, _ = arith
    t = num(t)
    shift = (len(weights) - 1) * t if t > 0 else num(0)
    terms = [num(w) * exp(j * t - shift) for j, w in enumerate(weights)]
    s0 = add(terms)
    mean = add([j * e for j, e in enumerate(terms)]) / s0
    var = add([j * j * e for j, e in enumerate(terms)]) / s0 - mean * mean
    return mean, var, shift + log(s0) - log(add([num(w) for w in weights])), terms[0] / s0


def bisect_rate(weights, c, arith=FLOAT):
    """(rate, tilt) at mean c of P(J = j) ~ weights[j]: sup_t (t c - log E e^(tJ)) and its maximizer.

    Both are 0 from c >= E J on.  Below it, t_lo = -1 is doubled until law's mean falls below c,
    then [t_lo, 0] is halved down to width tol, or until it admits no new point; the tilt is its midpoint.
    """
    num, *_, tol = arith
    c, zero = num(c), num(0)
    if c >= law(weights, zero, arith)[0]:
        return zero, zero
    lo, hi = num(-1), zero
    while law(weights, lo, arith)[0] >= c:
        lo *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if law(weights, mid, arith)[0] < c:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    return max(t * c - law(weights, t, arith)[2], zero), t


def golden_max(f, lo, hi, iters=200):
    """(x, f(x)) at the maximum of a unimodal f on [lo, hi], by plain golden-section search."""
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(iters):
        x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if f(x1) < f(x2):
            lo = x1
        else:
            hi = x2
    x = 0.5 * (lo + hi)
    return x, f(x)


def folded(B):
    """The weights of |Y| for Y uniform on {-B..B}: 1 at 0 and 2 at each of 1..B."""
    return [1] + [2] * B


def dec_f(t, B):
    """f_B(t) = log[(1 + x - 2x^(B+1)) / (1 - x^(2B+1))] in 50-digit decimal, each x^k = exp(k t), t taken exactly."""
    with localcontext(DIGITS50):
        t = Decimal(t)
        return ((1 + t.exp() - 2 * ((B + 1) * t).exp()) / (1 - ((2 * B + 1) * t).exp())).ln()


def inner_max(B, r):
    """(I(2r, 2B) - J_B(2r), its slope in r, its curvature in r) in 50-digit decimal, J_B the rate of folded(B).

    A rate's slope in c is its tilt, and its curvature 1/Var there, or 0 past the mean.
    """
    with localcontext(DIGITS50):
        parts = []
        for weights in ([1] * (2 * B + 1), folded(B)):
            value, t = bisect_rate(weights, 2 * r, DECIMAL)
            parts.append((value, t, 1 / law(weights, t, DECIMAL)[1] if t else 0))
        (i, t_i, k_i), (j, t_j, k_j) = parts
        return i - j, 2 * (t_i - t_j), 4 * (k_i - k_j)


def P(x, B):
    """The integer polynomial whose root in (0, 1) is x* = e^t*; positive below it."""
    return 1 - 2 * (B + 1) * x**B + (2 * B + 1) * x ** (2 * B) + 2 * B * x ** (2 * B + 1) - 2 * B * x ** (3 * B + 1)


def count_brute(m, L, B):
    """|W(m, L, B)| by enumerating the whole cube {0..B}^m."""
    return sum(1 for x in product(range(B + 1), repeat=m) if sum(x) <= L)


def count_row(m, L_max, B):
    """[|W(m, L, B)| for L = 0..L_max] by the recurrence that peels one coordinate at a time.

    count(i, l) = sum_{j=0}^{min(B,l)} count(i-1, l-j), count(0, .) = 1, one row over l by
    prefix sums: O(m*L_max) big-integer additions.  Past L = mB the count stays (B+1)^m.
    """
    top = min(L_max, m * B)
    row = [1] * (top + 1)
    for _ in range(m):
        prefix = list(accumulate(row))
        row = list(map(operator.sub, prefix, [0] * (B + 1) + prefix))
    return row + row[-1:] * (L_max - top)


def pascal(m, k):
    """C(m, k) by Pascal's recurrence."""
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if k <= m else 0


def colliding_g(x, B):
    """x in base 2B, in place of the digit map's 2B + 1: injective on W, whose digits
    are at most B < 2B, but not on W + W, where a digit may reach 2B and carry."""
    return sum(c * (2 * B) ** k for k, c in enumerate(x))


def full_pairs(items):
    """(sums, differences) over all |items|^2 ordered pairs: of integers, or of vectors coordinate by coordinate."""
    if items and isinstance(items[0], tuple):
        return (
            {tuple(map(operator.add, x, y)) for x in items for y in items},
            {tuple(map(operator.sub, x, y)) for x in items for y in items},
        )
    return {x + y for x in items for y in items}, {x - y for x in items for y in items}
