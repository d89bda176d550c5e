"""Slow high-precision error-function oracle (committed test fixture).

Maclaurin series evaluated in 60-digit Decimal arithmetic:
erf(x) = (2/sqrt(pi)) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)).
The alternating series loses ~x^2/ln(10) digits to cancellation (~16 at
x = 6), leaving > 40 correct digits, far beyond the 1e-14 budget this
oracle certifies. Independent of everything in src/.
"""

from decimal import Decimal, getcontext

getcontext().prec = 60


def _pi_dec() -> Decimal:
    """Machin's formula with Decimal arctangents of 1/5 and 1/239."""

    def arctan_inv(n: int) -> Decimal:
        x = Decimal(1) / n
        term = x
        total = x
        x2 = x * x
        k = 1
        while True:
            term *= x2
            delta = term / (2 * k + 1)
            total += -delta if k % 2 else delta
            if abs(delta) < Decimal(10) ** -58:
                return total
            k += 1

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


PI = _pi_dec()
_TWO_OVER_SQRT_PI = Decimal(2) / PI.sqrt()


def erf_oracle(x: float) -> Decimal:
    """erf(x) as a Decimal, accurate to ~40+ digits on |x| <= 6."""
    xd = Decimal(x)  # exact binary-to-decimal conversion of the float
    if xd == 0:
        return Decimal(0)
    x2 = xd * xd
    term = xd  # n = 0 term: x / (0! * 1)
    total = term
    n = 0
    while True:
        n += 1
        # t_n / t_{n-1} = -x^2 (2n - 1) / (n (2n + 1))
        term *= -x2 * (2 * n - 1) / (n * (2 * n + 1))
        total += term
        if abs(term) < Decimal(10) ** -55:
            break
    return _TWO_OVER_SQRT_PI * total


def erf_oracle_float(x: float) -> float:
    return float(erf_oracle(x))
