"""Exact rational regret and pseudoregret for rational eps.

With eps = a/b every transition probability is rational: the xi_r walk
W steps up w.p. p = (b + a)/(2b) and down w.p. q = (b - a)/(2b), so each
probability below is an integer sum of binomial weights, built row by
row by Pascal's rule, divided by a power of 2b. The values come from the
walk decomposition of the lattice recursion (README "Implementation
notes": values are linear in eta, and the law of (d xi_r, d zeta) does
not depend on the arm pulled), summed directly over the binomial laws:

* vbar = 2 eps sum_{j<T} [P(W_j < 0) + P(W_j = 0)/2];
* v = E|zeta_T/2| - eps sum_{j<T} [P(W_j > 0) - P(W_j < 0)], where
  zeta_T/2 = X - T with X ~ Bin(2T, p).

One pass over the rows of W gives every horizon k <= T
(`exact_values_upto`): the sums over j < k are prefix sums over j, and
X ~ Bin(2k, p) counts the up steps of W_2k. It neither pairs steps,
telescopes a tail nor uses v - vbar = 2E[(T-X)^+], the identities the
production route in `symbandit.dp` rests on; `shortfall` gives the right
side of that identity, from math.comb, so the tests can check it.
T = 400 takes 0.3-0.45 s.
"""

from fractions import Fraction
from math import comb


def exact_values_upto(T: int, eps: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """(v, vbar) of the k-round game at its origin for every k = 0..T, as
    two lists of exact fractions indexed by k."""
    eps = Fraction(eps)
    if not (isinstance(T, int) and T >= 1 and 0 <= eps < 1):
        raise ValueError(f"need an integer T >= 1 and 0 <= eps < 1, got T={T!r}, eps={eps}")
    a, b = eps.numerator, eps.denominator

    def advance(row):  # the weights P(i up steps in n) * (2b)^n, from n to n + 1
        return [lo * (b + a) + hi * (b - a) for lo, hi in zip([0] + row, row + [0])]

    walk = [1]  # the weights of W_n, n = 0, 1, ..., 2T
    v, vbar, signs = [Fraction(0)], [Fraction(0)], []
    # numerators of the sums over j <= n, over the common denominator (2b)^n
    behind = 0  # sum_j P(W_j < 0) + P(W_j = 0)/2, doubled
    sign = 0    # sum_j P(W_j > 0) - P(W_j < 0)
    for n in range(2 * T + 1):
        if n < T:  # W_n enters the sums of every horizon k > n
            below = sum(walk[: (n + 1) // 2])
            level = walk[n // 2] if n % 2 == 0 else 0
            above = (2 * b) ** n - below - level  # the weights of W_n sum to (2b)^n
            behind = 2 * b * behind + 2 * below + level
            sign = 2 * b * sign + above - below
            vbar.append(eps * Fraction(behind, (2 * b) ** n))
            signs.append(Fraction(sign, (2 * b) ** n))
        if n and n % 2 == 0:  # E|zeta_k/2| = E|X - k| from the row of W_2k
            k = n // 2
            abs_zeta = Fraction(sum(abs(i - k) * w for i, w in enumerate(walk)), (2 * b) ** n)
            v.append(abs_zeta - eps * signs[k - 1])
        walk = advance(walk)
    return v, vbar


def exact_values(T: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(v, vbar) at the origin of the T-round game, as exact fractions."""
    v, vbar = exact_values_upto(T, eps)
    return v[T], vbar[T]


def shortfall(T: int, eps: Fraction) -> Fraction:
    """E[(T - X)^+] with X ~ Bin(2T, (1 + eps)/2), as an exact fraction."""
    eps = Fraction(eps)
    a, b = eps.numerator, eps.denominator
    total = sum((T - x) * comb(2 * T, x) * (b + a) ** x * (b - a) ** (2 * T - x)
                for x in range(T))
    return Fraction(total, (2 * b) ** (2 * T))


def relative_error(approx: float, exact: Fraction) -> float:
    """|approx - exact| / |exact|, evaluated exactly; absolute at exact = 0."""
    diff = abs(Fraction(approx) - exact)
    return float(diff / abs(exact)) if exact else float(diff)


def bayes_value(T: int, eps: Fraction) -> Fraction:
    """The Bayes lower bound of `symbandit.dp.bayes_pseudoregret` as an exact
    fraction, in posterior form: the oracle of the production F8 sum
    eps sum_k sum_x min(P_p(W_k = x), P_q(W_k = x)), computed instead as the
    backward recursion V_k(x) = 2 eps min(post, 1 - post) + up V_{k+1}(x + 1)
    + (1 - up) V_{k+1}(x - 1), V_T = 0, with the rational posterior
    post = P(arm 1 safe | xi_r = x) = (1 + eps)^x / ((1 + eps)^x + (1 - eps)^x)
    and up = 1/2 + eps (post - 1/2)."""
    eps, half = Fraction(eps), Fraction(1, 2)
    post = {x: (1 + eps) ** x / ((1 + eps) ** x + (1 - eps) ** x) for x in range(-T, T + 1)}
    up = {x: half + eps * (p - half) for x, p in post.items()}
    value = [Fraction(0)] * (T + 1)  # V_T at x = -T, -T + 2, ..., T
    for k in range(T - 1, -1, -1):  # V_k at x = -k + 2j from V_{k+1} at x - 1 and x + 1
        value = [2 * eps * min(post[x], 1 - post[x]) + up[x] * value[j + 1]
                 + (1 - up[x]) * value[j]
                 for j, x in enumerate(range(-k, k + 1, 2))]
    return value[0]
