"""README's "Numerical findings", recomputed at the digits README prints.

Each test parses one bullet's numbers from README and recomputes them,
so an edit to either the bullet or the program's numbers fails.
"""

import math
import re
from pathlib import Path

from symbandit import dp

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"([0-9.]+(?:e[+-]?[0-9]+)?)"


def finding(start):
    """The bullet of "Numerical findings" that begins with `start`, on one line."""
    section = README.read_text().split("\n## Numerical findings\n", 1)[1].split("\n## ", 1)[0]
    (bullet,) = [b for b in section.split("\n* ") if b.startswith(start)]
    return " ".join(bullet.split())


def test_myopic_pseudoregret_meets_the_bayes_bound():
    # the relative gaps of `symbandit verify`'s Bayes lines, printed as it
    # prints them (three significant digits)
    text = finding("The myopic pseudoregret meets Le Cam's lower bound")
    pattern = (rf"at `T = (\d+)` with relative gaps {NUMBER}, {NUMBER} and {NUMBER} at "
               rf"gamma {NUMBER}, {NUMBER} and {NUMBER}, and {NUMBER} at "
               rf"`\(T, eps\) = \((\d+), {NUMBER}\)`")
    T, *gaps_and_gammas, last_gap, last_T, last_eps = re.search(pattern, text).groups()
    gaps, gammas = gaps_and_gammas[:3], gaps_and_gammas[3:]
    cells = [(int(T), float(g) / math.sqrt(int(T))) for g in gammas]
    cells.append((int(last_T), float(last_eps)))
    for (T, eps), printed in zip(cells, [*gaps, last_gap]):
        bound, vbar = dp.bayes_pseudoregret(T, eps), dp.values(T, eps)[1]
        assert f"{abs(vbar - bound) / bound:.2e}" == printed, (T, eps)
