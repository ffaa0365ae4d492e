"""Exact reference arithmetic for the benchmark, independent of gvmot.

Polynomials in t (any integer power) and s (power >= 0) are dicts mapping
(t_exponent, s_exponent) to nonzero int or Fraction coefficients.  Every
reference value the benchmark checks gvmot's output against is computed here
or in workloads.py from integers and Fractions; nothing imports gvmot.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# -- bivariate Laurent polynomials -----------------------------------------------


def p_clean(p: dict) -> dict:
    return {k: c for k, c in p.items() if c != 0}


def p_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return p_clean(out)


def p_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return p_clean(out)


def p_scale(p: dict, c) -> dict:
    return p_clean({k: v * c for k, v in p.items()})


def p_shift(p: dict, dt: int) -> dict:
    return {(a + dt, b): c for (a, b), c in p.items()}


def p_pow(p: dict, n: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(n):
        out = p_mul(out, p)
    return out


def t_poly(coeffs: list[int]) -> dict:
    """sum coeffs[i] t^i as a polynomial dict."""
    return p_clean({(i, 0): c for i, c in enumerate(coeffs)})


def p_from_json(terms: list) -> dict:
    """Read gvmot's [t_exp, s_exp, "coeff"] triples."""
    out: dict = {}
    for a, b, c in terms:
        out[(a, b)] = out.get((a, b), 0) + Fraction(c)
    return p_clean({k: (int(v) if v.denominator == 1 else v) for k, v in out.items()})


def p_to_json(p: dict) -> list:
    return [[a, b, str(c)] for (a, b), c in sorted(p.items())]


def same_fraction(num: dict, den: dict, ref_num: dict, ref_den: dict) -> bool:
    """num/den == ref_num/ref_den, decided by cross-multiplication."""
    if not den:
        return False
    return p_mul(num, ref_den) == p_mul(ref_num, den)


# -- Jordan censuses and the closed-form genus count ------------------------------


def flat_census(p: dict) -> dict:
    """Cells (alpha, l) -> count read off a polynomial invariant.

    The weighted degree max(a + 2b) is removed as a dimension shift, then
    t^alpha s^(l-1) is one Jordan string of size l starting at degree alpha.
    """
    top = max(a + 2 * b for (a, b) in p)
    if top % 2:
        raise ValueError("odd weighted degree")
    return {(a - top // 2, b + 1): c for (a, b), c in p.items()}


def genus_count(cells: dict, g: int) -> int:
    """Genus-g count of a census by the closed binomial formula.

    A string of size l from degree alpha contributes
    (-1)^(alpha+g) l [C(alpha+l+g, 2g+1) - C(alpha+l+g-2, 2g+1)], with
    C(n, k) = 0 outside 0 <= k <= n; strings with alpha + l < 1 contribute 0.
    """

    def c(n: int, k: int) -> int:
        return comb(n, k) if 0 <= k <= n else 0

    total = 0
    for (alpha, l), n in cells.items():
        if alpha + l < 1:
            continue
        m = alpha + l + g
        sign = -1 if (alpha + g) % 2 else 1
        total += sign * l * n * (c(m, 2 * g + 1) - c(m - 2, 2 * g + 1))
    return total


def bispin_census(content: list) -> dict:
    """Cells of the right raising operator on (2jL, 2jR, mult) summands."""
    cells: dict = {}
    for two_jl, two_jr, m in content:
        for w in range(-two_jl, two_jl + 1, 2):
            key = (w - two_jr, two_jr + 1)
            cells[key] = cells.get(key, 0) + m
    return {k: n for k, n in cells.items() if n}


# -- the 2 sin(u/2) series ---------------------------------------------------------


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, from the standard recurrence."""
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        b[m] = -sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1)
    return b


class SinPowers:
    """Coefficients c(g, j) of u^(2g-2+2j) in (2 sin(u/2))^(2g-2).

    Genus 0 uses the Bernoulli closed form (-1)^(j+1) B_2j (2j-1)/(2j)!;
    higher genus raises the sinc series 2 sin(u/2)/u to the power 2g-2.
    """

    def __init__(self, order: int):
        from math import factorial

        self.order = order
        b = bernoulli(2 * order)
        self.genus0 = [
            (-1) ** (j + 1) * b[2 * j] * (2 * j - 1) / factorial(2 * j) for j in range(order + 1)
        ]
        self.sinc = [Fraction((-1) ** n, 4**n * factorial(2 * n + 1)) for n in range(order + 1)]
        self.powers: dict[int, list[Fraction]] = {0: [Fraction(1)] + [Fraction(0)] * order}

    def _power(self, e: int) -> list[Fraction]:
        if e not in self.powers:
            prev = self._power(e - 1)
            out = [Fraction(0)] * (self.order + 1)
            for i, x in enumerate(prev):
                if x:
                    for j in range(self.order + 1 - i):
                        out[i + j] += x * self.sinc[j]
            self.powers[e] = out
        return self.powers[e]

    def coeff(self, g: int, j: int) -> Fraction:
        if g == 0:
            return self.genus0[j]
        return self._power(2 * g - 2)[j]


# -- unit-triangular integer matrices -----------------------------------------------


def mat_mul(a: list, b: list) -> list:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unit_upper_inverse(u: list) -> list:
    """Exact inverse of a unit upper-triangular integer matrix by back substitution."""
    n = len(u)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        row = inv[i]
        for k in range(i + 1, n):
            c = u[i][k]
            if c:
                other = inv[k]
                for j in range(k, n):
                    row[j] -= c * other[j]
    return inv
