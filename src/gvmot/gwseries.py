"""The BPS/Gromov-Witten generating-function transform on truncated exact series.

One multiple-cover kernel carries the counts of a class beta into the series,

    sum_k (1/k) f_beta(k lambda) q^{k beta},
    f_beta(lambda) = sum_g n_g^beta (2 sin(lambda / 2))^{2g-2},

with the sine powers Laurent-expanded exactly.  Since f_beta(k lambda) only
rescales the coefficient of lambda^e by k^e, the genera of a class are summed
once and the sum is pushed to every cover k.  The forward transform pushes
each class of the table through it.  The inverse walks classes by
omega-degree, then genus: each value is its coefficient minus the covers that
earlier classes pushed onto that key and minus its own class's k = 1 series
of the genera solved so far; once a class is solved, its series is pushed for
k >= 2.  Integrality of the solved values is conjectural; non-integer results
are reported alongside the table, never rounded.  Each transform spends one
Ledger, counting its work from the cuts before doing any: per-entry kernel
terms (an over-count of the per-class push), candidate classes and sin-table
products all add up against the one cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping

from .errors import ConeNotPointedError, InsufficientTruncationError, Ledger
from .linalg import dot

Beta = tuple[int, ...]


# -- exact expansion of (2 sin(u/2))^{2g-2} -----------------------------------


def _sin_powers(genus_max: int, order: int, ledger: Ledger) -> list[list[Fraction]]:
    """Rows g = 0..genus_max; row[g][j] is the coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}.

    With y = u^2, (2 sin(u/2))^2 = 2(1 - cos u) = y V(y) where V(y) =
    sum_{n>=0} 2 (-1)^n y^n / (2n+2)!, so row g is V^{g-1} to y^order: row 0
    inverts V (V(0) = 1), and each further row is the one before times V.
    """
    ledger.spend("sin table", (genus_max + 1) * (order + 1) * (order + 2) // 2, "products")
    v = [Fraction(2 * (-1) ** n, factorial(2 * n + 2)) for n in range(order + 1)]
    row = [Fraction(1)]
    for n in range(1, order + 1):
        row.append(-sum(v[i] * row[n - i] for i in range(1, n + 1)))
    rows = [row]
    for _ in range(genus_max):
        rows.append([sum(rows[-1][i] * v[n - i] for i in range(n + 1)) for n in range(order + 1)])
    return rows


def sin_power_coefficient(g: int, j: int) -> Fraction:
    """Coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}, exact."""
    if g < 0 or j < 0:
        return Fraction(0)
    return _sin_powers(g, j, Ledger())[g][j]


def _cover_count(degree: Fraction, degree_max: Fraction) -> int:
    """Number of k >= 1 with k beta inside the degree cut, for beta of the given omega-degree."""
    return max(int(degree_max // degree), 0)


def _order_count(g: int, lambda_max: int) -> int:
    """Number of j >= 0 with 2g-2+2j inside the lambda cut."""
    return max((lambda_max - 2 * g + 2) // 2 + 1, 0)


def _add_genus(f: dict[int, Fraction], g: int, n, lambda_max: int, sin) -> None:
    """Add n (2 sin(lambda/2))^{2g-2} to a class's series f, up to the lambda cut."""
    for j in range(_order_count(g, lambda_max)):
        c = sin[g][j]
        if c:
            e = 2 * g - 2 + 2 * j
            f[e] = f.get(e, 0) + n * c


def _push(acc: dict, beta: Beta, f: dict[int, Fraction], covers: range) -> None:
    """The multiple-cover kernel: add f[e] k^{e-1} at (k beta, e) for each k in covers."""
    for k in covers:
        kbeta = tuple(k * b for b in beta)
        for e, c in f.items():
            if c:
                key = (kbeta, e)
                acc[key] = acc.get(key, 0) + c * Fraction(k) ** (e - 1)


# -- tables and series ---------------------------------------------------------


def _check_class(beta, omega: tuple[Fraction, ...], degree_max: Fraction) -> Beta:
    """A nonzero integer class of positive omega-degree inside the degree cut."""
    beta = tuple(int(b) for b in beta)
    if all(b == 0 for b in beta):
        raise ValueError("curve class must be nonzero")
    deg = dot(omega, beta)
    if deg <= 0:
        raise ConeNotPointedError(f"class {beta} has nonpositive degree")
    if deg > degree_max:
        raise ValueError(f"class {beta} beyond degree cutoff {degree_max}")
    return beta


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
        checked: dict = {}
        for (g, beta), n in entries.items():
            g = int(g)
            if g < 0:
                raise ValueError("genus must be nonnegative")
            if g > genus_max:
                raise ValueError(f"entry at genus {g} beyond cutoff {genus_max}")
            if beta not in checked:
                checked[beta] = _check_class(beta, omega, degree_max)
            beta = checked[beta]
            if int(n) != 0:
                clean[(g, beta)] = int(n)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "genus_max", int(genus_max))
        object.__setattr__(self, "degree_max", degree_max)
        object.__setattr__(self, "omega", omega)

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
        checked: dict = {}
        for (beta, lam), c in coeffs.items():
            lam = int(lam)
            if lam < -2 or lam % 2 != 0:
                raise ValueError("lambda exponents are even integers >= -2")
            if lam > lambda_max:
                raise ValueError(f"lambda order {lam} beyond cutoff {lambda_max}")
            if beta not in checked:
                checked[beta] = _check_class(beta, omega, degree_max)
            beta = checked[beta]
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
    genera: dict[Beta, dict[int, int]] = {}
    for (g, beta), n in table.entries.items():
        genera.setdefault(beta, {})[g] = n
    covers = {beta: _cover_count(dot(table.omega, beta), degree_max) for beta in genera}
    terms = genus_top = order = 0
    for g, beta in table.entries:
        orders = _order_count(g, lambda_max)
        if covers[beta] and orders:
            terms += covers[beta] * orders
            genus_top, order = max(genus_top, g), max(order, orders - 1)
    ledger = Ledger()
    ledger.spend("gw forward", terms, "kernel terms")
    sin = _sin_powers(genus_top, order, ledger)
    coeffs: dict[tuple[Beta, int], Fraction] = {}
    for beta, counts in genera.items():
        if covers[beta]:
            f: dict[int, Fraction] = {}
            for g, n in counts.items():
                _add_genus(f, g, n, lambda_max, sin)
            _push(coeffs, beta, f, range(1, covers[beta] + 1))
    return GWSeries(coeffs, degree_max, lambda_max, table.omega)


def gw_to_gv(
    series: GWSeries,
    genus_max: int | None = None,
    degree_max=None,
) -> InversionResult:
    """Triangular inversion of the forward transform.

    Solves n_g^beta in increasing omega-degree, then genus: each value is
    its coefficient minus the covers (k >= 2) that earlier classes pushed onto
    the same key, minus the k = 1 series of the class's lower genera.  A
    solved class pushes its series for k >= 2 only, since its k = 1 cover
    feeds nothing but its own higher genera.  Only multiples of support
    classes are walked, since a class outside the support gets a nonzero
    value only as a multiple of one that has one.  Requesting values beyond
    the stored truncation raises InsufficientTruncationError.
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

    degree = {beta: dot(series.omega, beta) for beta, _ in series.coeffs}
    covers = {beta: _cover_count(d, degree_max) for beta, d in degree.items()}
    ledger = Ledger()
    ledger.spend("gw inverse", sum(covers.values()), "candidate classes")
    for beta, d in list(degree.items()):
        for k in range(2, covers[beta] + 1):
            kbeta = tuple(k * b for b in beta)
            if kbeta not in degree:
                degree[kbeta] = k * d
                covers[kbeta] = _cover_count(k * d, degree_max)
    candidates = sorted((beta for beta in degree if covers[beta]), key=lambda b: (degree[b], b))
    genera = max(genus_max + 1, 0)
    terms = sum(covers[beta] for beta in candidates) * genera * (genera + 1) // 2
    ledger.spend("gw inverse", terms, "kernel terms")
    sin = _sin_powers(genus_max, genus_max, ledger) if terms else []

    lambda_max = 2 * genus_max - 2
    pushed: dict[tuple[Beta, int], Fraction] = {}
    entries: dict[tuple[int, Beta], int] = {}
    nonintegral: dict[tuple[int, Beta], Fraction] = {}
    for beta in candidates:
        f: dict[int, Fraction] = {}
        for g in range(genus_max + 1):
            e = 2 * g - 2
            value = series.coefficient(beta, e) - pushed.get((beta, e), 0) - f.get(e, 0)
            if value:
                _add_genus(f, g, value, lambda_max, sin)
                if value.denominator == 1:
                    entries[(g, beta)] = int(value)
                else:
                    nonintegral[(g, beta)] = value
        _push(pushed, beta, f, range(2, covers[beta] + 1))
    return InversionResult(table=GVTable(entries, genus_max, degree_max, series.omega), nonintegral=nonintegral)
