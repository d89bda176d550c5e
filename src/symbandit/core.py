"""The rules of the game, shared by every other module.

One home per rule: the reward law of the two arms, the final-time
payoff, the validation of a game's parameters, and the line syntax of
both input files, a sweep config and a strategy table: '#' starts a
comment (`content_lines`). The error function is the standard library's;
the test suite checks it against a slow high-precision series oracle.
"""

from __future__ import annotations

import math
import numbers
from math import erf, erfc  # noqa: F401  (bench/ times them as core.erf, core.erfc)

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def terminal_payoff(eta: float, xi_h: float, xi_r: float) -> float:
    """Final-time payoff mu = (eta + |xi_r + xi_h|) / 2.

    Equals the best single arm's cumulative reward minus the player's,
    and is linear in eta with slope 1/2 (the property the dynamic
    program's state reduction rests on).
    """
    return 0.5 * (eta + abs(xi_r + xi_h))


def arm_probs(eps: float, safe_arm: int = 1) -> tuple[float, float]:
    """(P(g1 = +1), P(g2 = +1)): the safe arm pays +1 w.p. (1 + eps)/2,
    the risky arm w.p. (1 - eps)/2, independently."""
    high, low = (1.0 + eps) / 2.0, (1.0 - eps) / 2.0
    return (high, low) if safe_arm == 1 else (low, high)


def check_gap(eps: float) -> float:
    """Validate the half-gap parameter; returns it for chaining."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"gap must satisfy 0 <= eps < 1, got eps={eps}")
    return eps


def check_game(T: int, eps: float, safe_arm: int = 1) -> None:
    """Validate horizon, gap and safe-arm label of one game."""
    if isinstance(T, bool) or not isinstance(T, numbers.Integral) or T < 1:
        raise ValueError(f"horizon must be a positive integer, got {T!r}")
    check_gap(eps)
    if safe_arm not in (1, 2):
        raise ValueError(f"safe_arm must be 1 or 2, got {safe_arm}")


def content_lines(path) -> list[tuple[str, str, str]]:
    """(path:lineno, text before any '#' stripped, the line) per line with more than a comment."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [(f"{path}:{n}", body, line) for n, line in enumerate(lines, 1)
            if (body := line.split("#", 1)[0].strip())]
