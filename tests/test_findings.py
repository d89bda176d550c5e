"""README's "Numerical findings", recomputed at the digits README prints.

Each test parses one bullet's numbers from README and recomputes them,
so an edit to either the bullet or the program's numbers fails.
"""

import math
import re
from pathlib import Path

from symbandit import dp, pde

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"([0-9.]+(?:e[+-]?[0-9]+)?)"


def finding(start):
    """The bullet of "Numerical findings" that begins with `start`, on one line."""
    section = README.read_text().split("\n## Numerical findings\n", 1)[1].split("\n## ", 1)[0]
    (bullet,) = [b for b in section.split("\n* ") if b.startswith(start)]
    return " ".join(bullet.split())


def agrees(x, printed):
    """`x` rounded to as many significant digits as `printed` has reads `printed`."""
    digits = len(printed.split("e")[0].replace(".", "").lstrip("0"))
    return float(f"{x:.{digits}g}") == float(printed)


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


def test_regret_saturates_at_one_over_eps():
    text = finding("Both values rise to exactly `1/eps`")
    scales = re.search(r"at `T eps\^2` = ([0-9, ]+):", text).group(1).split(",")
    rows = re.findall(rf"{NUMBER}, {NUMBER}, {NUMBER}, {NUMBER} and {NUMBER} "
                      rf"at `eps = {NUMBER}`", text)
    assert len(scales) == 5 and len(rows) == 2
    for *printed, eps in rows:
        eps = float(eps)
        for scale, p in zip(scales, printed):
            T = round(int(scale) / eps**2)
            assert agrees((1 / eps - dp.values(T, eps)[0]) * eps, p), (T, eps)


def test_second_order_term_of_the_regret():
    text = finding("The second-order term of the regret")
    pattern = rf"at `gamma = {NUMBER}` reads {NUMBER} at `T` = {NUMBER}, {NUMBER} and {NUMBER}"
    gamma, printed, *horizons = re.search(pattern, text).groups()
    gamma = float(gamma)
    for T in (int(float(h)) for h in horizons):
        v = dp.values(T, gamma / math.sqrt(T))[0]
        assert agrees(math.sqrt(T) * (v - pde.prefactor_c(gamma) * math.sqrt(T)), printed), T
