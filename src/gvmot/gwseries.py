"""The BPS/Gromov-Witten generating-function transform on truncated exact series.

An integer table n_g^beta expands into a rational series via

    sum n_g^beta / k * (2 sin(k lambda / 2))^{2g-2} q^{k beta},

with the sine powers Laurent-expanded exactly: genus 0 contributes orders
from lambda^{-2} up, genus 1 exactly lambda^0, higher genus a power series.
The inverse transform solves triangularly, ordered by omega-degree of beta
and then genus; integrality of the solved values is conjectural and
non-integer results are reported alongside the table, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import ConeNotPointedError, InsufficientTruncationError
from .linalg import dot

Beta = tuple[int, ...]


# -- exact expansion of (2 sin(u/2))^{2g-2} -----------------------------------
#
# With y = u^2, (2 sin(u/2))^2 = 2(1 - cos u) = y * V(y) where
# V(y) = sum_{n>=0} 2 (-1)^n y^n / (2n+2)!, so the genus-g factor is
# y^{g-1} V(y)^{g-1} and its coefficients are powers of V.

_SERIES_CACHE: dict[int, list[Fraction]] = {}


def _v_series(order: int) -> list[Fraction]:
    from math import factorial

    return [Fraction(2 * (-1) ** n, factorial(2 * n + 2)) for n in range(order + 1)]


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(a: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if i < len(a):
                acc += a[i] * out[n - i]
        out[n] = -acc / a[0]
    return out


def sin_power_coefficient(g: int, j: int) -> Fraction:
    """Coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}, exact."""
    if g < 0 or j < 0:
        return Fraction(0)
    series = _SERIES_CACHE.get(g)
    if series is None or j >= len(series):
        order = max(j + 8, 16)
        v = _v_series(order)
        if g == 0:
            series = _series_inv(v, order)
        else:
            series = [Fraction(1)] + [Fraction(0)] * order
            for _ in range(g - 1):
                series = _series_mul(series, v, order)
        _SERIES_CACHE[g] = series
    return series[j]


# -- tables and series ---------------------------------------------------------


@dataclass(frozen=True)
class GVTable:
    """Integer counts indexed by (genus, curve class), with truncation data."""

    entries: dict[tuple[int, Beta], int]
    genus_max: int
    degree_max: Fraction
    omega: tuple[Fraction, ...]

    def __init__(self, entries: Mapping[tuple[int, Beta], int], genus_max: int, degree_max, omega):
        omega = tuple(Fraction(x) for x in omega)
        degree_max = Fraction(degree_max)
        clean: dict[tuple[int, Beta], int] = {}
        for (g, beta), n in entries.items():
            g = int(g)
            beta = tuple(int(b) for b in beta)
            if g < 0:
                raise ValueError("genus must be nonnegative")
            if g > genus_max:
                raise ValueError(f"entry at genus {g} beyond cutoff {genus_max}")
            if all(b == 0 for b in beta):
                raise ValueError("curve class must be nonzero")
            deg = dot(omega, beta)
            if deg <= 0:
                raise ConeNotPointedError(f"class {beta} has nonpositive degree")
            if deg > degree_max:
                raise ValueError(f"class {beta} beyond degree cutoff {degree_max}")
            if int(n) != 0:
                clean[(g, beta)] = int(n)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "genus_max", int(genus_max))
        object.__setattr__(self, "degree_max", degree_max)
        object.__setattr__(self, "omega", omega)

    def count(self, g: int, beta: Beta) -> int:
        return self.entries.get((g, tuple(beta)), 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GVTable) and self.entries == other.entries

    __hash__ = None


@dataclass(frozen=True)
class GWSeries:
    """Rational coefficients indexed by (curve class, lambda exponent)."""

    coeffs: dict[tuple[Beta, int], Fraction]
    degree_max: Fraction
    lambda_max: int
    omega: tuple[Fraction, ...]

    def __init__(self, coeffs: Mapping[tuple[Beta, int], Fraction], degree_max, lambda_max: int, omega):
        omega = tuple(Fraction(x) for x in omega)
        degree_max = Fraction(degree_max)
        clean: dict[tuple[Beta, int], Fraction] = {}
        for (beta, lam), c in coeffs.items():
            beta = tuple(int(b) for b in beta)
            lam = int(lam)
            if lam < -2 or lam % 2 != 0:
                raise ValueError("lambda exponents are even integers >= -2")
            if lam > lambda_max:
                raise ValueError(f"lambda order {lam} beyond cutoff {lambda_max}")
            if all(b == 0 for b in beta):
                raise ValueError("curve class must be nonzero")
            deg = dot(omega, beta)
            if deg <= 0:
                raise ConeNotPointedError(f"class {beta} has nonpositive degree")
            if deg > degree_max:
                raise ValueError(f"class {beta} beyond degree cutoff {degree_max}")
            c = Fraction(c)
            if c != 0:
                clean[(beta, lam)] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "degree_max", degree_max)
        object.__setattr__(self, "lambda_max", int(lambda_max))
        object.__setattr__(self, "omega", omega)

    def coefficient(self, beta: Beta, lam: int) -> Fraction:
        return self.coeffs.get((tuple(beta), int(lam)), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GWSeries) and self.coeffs == other.coeffs

    __hash__ = None


@dataclass
class InversionResult:
    """Inverse-transform output: the integer table plus any non-integral values.

    Integrality is conjectural for arbitrary input series, so violations are
    reported as data instead of being rounded or raised.
    """

    table: GVTable
    nonintegral: dict[tuple[int, Beta], Fraction] = field(default_factory=dict)


def gv_to_gw(
    table: GVTable,
    degree_max=None,
    lambda_max: int | None = None,
) -> GWSeries:
    """Forward transform, truncated at the given degree and lambda order."""
    degree_max = table.degree_max if degree_max is None else Fraction(degree_max)
    if lambda_max is None:
        lambda_max = 2 * table.genus_max - 2
    coeffs: dict[tuple[Beta, int], Fraction] = {}
    for (g, beta), n in sorted(table.entries.items()):
        deg = dot(table.omega, beta)
        k = 1
        while k * deg <= degree_max:
            kbeta = tuple(k * b for b in beta)
            lam = 2 * g - 2
            while lam <= lambda_max:
                j = (lam - (2 * g - 2)) // 2
                c = sin_power_coefficient(g, j)
                if c != 0:
                    key = (kbeta, lam)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(n, k) * c * Fraction(k) ** lam
                lam += 2
            k += 1
    return GWSeries(coeffs, degree_max, lambda_max, table.omega)


def _candidate_classes(series: GWSeries, degree_max: Fraction) -> list[Beta]:
    """Support closed under integer division and multiplication within the cut.

    Closure matters: a class whose whole coefficient column cancels against
    multiple-cover terms is invisible in the support but still determined.
    """
    from math import gcd

    current: set[Beta] = {beta for (beta, _) in series.coeffs}
    while True:
        fresh: set[Beta] = set()
        for beta in current:
            g = 0
            for b in beta:
                g = gcd(g, abs(b))
            for k in range(2, g + 1):
                if g % k == 0:
                    fresh.add(tuple(b // k for b in beta))
            deg = dot(series.omega, beta)
            k = 2
            while k * deg <= degree_max:
                fresh.add(tuple(k * b for b in beta))
                k += 1
        if fresh <= current:
            break
        current |= fresh
    return sorted(current, key=lambda b: (dot(series.omega, b), b))


def gw_to_gv(
    series: GWSeries,
    genus_max: int | None = None,
    degree_max=None,
) -> InversionResult:
    """Triangular inversion of the forward transform.

    Solves n_g^beta in increasing omega-degree, then genus, subtracting the
    already-known multiple-cover and lower-genus contributions from each
    coefficient.  Requesting values beyond the stored truncation raises
    InsufficientTruncationError.
    """
    max_solvable_genus = (series.lambda_max + 2) // 2
    if genus_max is None:
        genus_max = max_solvable_genus
    if genus_max > max_solvable_genus:
        raise InsufficientTruncationError(
            f"solving genus {genus_max} needs lambda order {2 * genus_max - 2}, "
            f"series stops at {series.lambda_max}"
        )
    degree_max = series.degree_max if degree_max is None else Fraction(degree_max)
    if degree_max > series.degree_max:
        raise InsufficientTruncationError(
            f"degree {degree_max} beyond the stored cutoff {series.degree_max}"
        )

    from math import gcd

    known: dict[tuple[int, Beta], Fraction] = {}
    for beta in _candidate_classes(series, degree_max):
        if dot(series.omega, beta) > degree_max:
            continue
        divisibility = 0
        for b in beta:
            divisibility = gcd(divisibility, abs(b))
        for g in range(genus_max + 1):
            target = series.coefficient(beta, 2 * g - 2)
            covers = Fraction(0)
            for g_prime in range(g + 1):
                c = sin_power_coefficient(g_prime, g - g_prime)
                if c == 0:
                    continue
                for k in range(1, divisibility + 1):
                    if (k, g_prime) == (1, g) or divisibility % k != 0:
                        continue
                    divided = tuple(b // k for b in beta)
                    prior = known.get((g_prime, divided))
                    if prior:
                        covers += Fraction(prior, k) * c * Fraction(k) ** (2 * g - 2)
            value = target - covers
            if value:
                known[(g, beta)] = value

    entries: dict[tuple[int, Beta], int] = {}
    nonintegral: dict[tuple[int, Beta], Fraction] = {}
    for key, value in known.items():
        if value.denominator == 1:
            entries[key] = int(value)
        else:
            nonintegral[key] = value
    table = GVTable(entries, genus_max, degree_max, series.omega)
    return InversionResult(table=table, nonintegral=nonintegral)
