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
are reported alongside the table, never rounded.

The kernel works in integers.  The sine table is read off closed forms as
integer numerators over one denominator D_e per lambda exponent e (Bernoulli
numbers from tangent numbers for genus 0, central factorial numbers above).
The series at a key (gamma, e) is held as an int times D_e c(gamma)^max(0, 1-e),
c(gamma) the gcd of gamma's entries: as c(k beta) = k c(beta), cover k of beta
adds f[e] k^{e-1} for e >= 2 and f[e] c(beta)^{1-e} for e <= 0, integers both.
A Fraction is built once per output coefficient; the inverse reads each input
coefficient times its scale once and divides out the scale with one divmod,
and a nonintegral value simply stays a Fraction in the same sums.

Each transform spends one Ledger, counting its work from the cuts before
doing any: per-entry kernel terms (an over-count of the per-class push),
candidate classes and sin-table products all add up against the one cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, perm
from typing import Mapping

from .errors import ConeNotPointedError, InsufficientTruncationError, Ledger
from .linalg import dot

Beta = tuple[int, ...]


# -- exact expansion of (2 sin(u/2))^{2g-2} -----------------------------------


def _tangent_bernoulli(n_max: int) -> list[Fraction]:
    """B_0, B_2, ..., B_{2 n_max}, read off the tangent numbers in O(n_max^2) integer steps.

    t[k] is the tangent number T_k (tan x = sum_k T_k x^{2k-1} / (2k-1)!),
    built by Brent and Harvey's in-place recurrence (arXiv:1108.0286), and
    B_2k = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1] + [0] * (n_max - 1)
    for k in range(2, n_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n_max + 1):
        for j in range(k, n_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(1)] + [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n_max + 1)]


def _sin_table(genus_max: int, order: int, ledger: Ledger) -> tuple[list[list[int]], list[int]]:
    """Rows g = 0..genus_max of (2 sin(u/2))^{2g-2} to j = order, as integer numerators.

    rows[g][j] / den[g + j] is the coefficient of u^{2g-2+2j}: every row
    shares the denominator den[n] at u^{2n-2}.  Row 0 is sum_n (-1)^{n+1}
    (2n-1) B_2n u^{2n-2} / (2n)!.  Row m + 1 is (2 - 2 cos u)^m =
    sum_{|k|<=m} (-1)^k C(2m, m+k) e^{iku}, whose u^{2m+2j} coefficient is
    (-1)^j (2m)! T(2m+2j, 2m) / (2m+2j)!, T the central factorial numbers:
    T(2m+2j, 2m) = T(2m+2j-2, 2m-2) + m^2 T(2m+2j-2, 2m), one integer step
    each.  den[n] is (2n)! den(B_2n) up to n = order, where row 0 stops;
    beyond, it is (2n-2)! / (2n-2-2 order)!, the largest denominator
    (2n-2)! / (2m)! that a row m + 1 reaching u^{2n-2} needs.
    """
    ledger.spend("sin table", (genus_max + 1) * (order + 1) * (order + 2) // 2, "products")
    bernoulli = _tangent_bernoulli(order)
    den, factorial_2n = [], 1
    for n, b in enumerate(bernoulli):
        factorial_2n *= max(2 * n * (2 * n - 1), 1)
        den.append(factorial_2n * b.denominator)
    den += [perm(2 * n - 2, 2 * order) for n in range(order + 1, genus_max + order + 1)]
    rows = [[(-1) ** (n + 1) * (2 * n - 1) * b.numerator for n, b in enumerate(bernoulli)]]
    central = [1] + [0] * order  # T(2m+2j, 2m) for j = 0..order, at m = 0
    for m in range(genus_max):
        for j in range(1, order + 1):
            central[j] += m * m * central[j - 1]
        rows.append([(-1) ** j * t * (den[m + 1 + j] // perm(2 * m + 2 * j, 2 * j)) for j, t in enumerate(central)])
    return rows, den


def sin_power_coefficient(g: int, j: int) -> Fraction:
    """Coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}, exact."""
    if g < 0 or j < 0:
        return Fraction(0)
    rows, den = _sin_table(g, j, Ledger())
    return Fraction(rows[g][j], den[g + j])


def _cover_count(degree: Fraction, degree_max: Fraction) -> int:
    """Number of k >= 1 with k beta inside the degree cut, for beta of the given omega-degree."""
    return max(int(degree_max // degree), 0)


def _order_count(g: int, lambda_max: int) -> int:
    """Number of j >= 0 with 2g-2+2j inside the lambda cut."""
    return max((lambda_max - 2 * g + 2) // 2 + 1, 0)


def _lift(beta: Beta, e: int) -> int:
    """c(beta)^max(0, 1-e): the per-class factor of the scale at (beta, e), c the gcd of beta's entries."""
    return gcd(*beta) ** max(0, 1 - e)


def _add_genus(f: dict[int, int], g: int, n, lambda_max: int, rows: list[list[int]]) -> None:
    """Add n (2 sin(lambda/2))^{2g-2} to a class's series f, up to the lambda cut.

    f[e] holds the coefficient of lambda^e times the sine table's denominator at e.
    """
    for j in range(_order_count(g, lambda_max)):
        c = rows[g][j]
        if c:
            e = 2 * g - 2 + 2 * j
            f[e] = f.get(e, 0) + n * c


def _push(acc: dict, beta: Beta, f: dict[int, int], covers: range) -> None:
    """The multiple-cover kernel: add f[e] k^{e-1} at (k beta, e) for each k in covers.

    acc holds each key (gamma, e) scaled by c(gamma)^max(0, 1-e) on top of
    f's scale; as c(k beta) = k c(beta), that turns k^{e-1} into c(beta)^{1-e}
    for e <= 0, so every term is f[e] times an int.
    """
    lifts = {e: _lift(beta, e) for e in f if e <= 0}
    for k in covers:
        kbeta = tuple(k * b for b in beta)
        for e, c in f.items():
            if c:
                key = (kbeta, e)
                acc[key] = acc.get(key, 0) + c * (lifts[e] if e <= 0 else k ** (e - 1))


def _quotient(num: int | Fraction, den: int) -> int | Fraction:
    """num / den: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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
            c = c if type(c) is Fraction else Fraction(c)
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
    rows, den = _sin_table(genus_top, order, ledger)
    acc: dict[tuple[Beta, int], int] = {}
    for beta, counts in genera.items():
        if covers[beta]:
            f: dict[int, int] = {}
            for g, n in counts.items():
                _add_genus(f, g, n, lambda_max, rows)
            _push(acc, beta, f, range(1, covers[beta] + 1))
    coeffs = {(beta, e): Fraction(c, den[e // 2 + 1] * _lift(beta, e)) for (beta, e), c in acc.items() if c}
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

    degree = {beta: dot(series.omega, beta) for beta in dict.fromkeys(beta for beta, _ in series.coeffs)}
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
    rows, den = _sin_table(genus_max, genus_max, ledger) if terms else ([], [])

    lambda_max = 2 * genus_max - 2
    pushed: dict[tuple[Beta, int], int] = {}
    entries: dict[tuple[int, Beta], int] = {}
    nonintegral: dict[tuple[int, Beta], Fraction] = {}
    for beta in candidates:
        f: dict[int, int] = {}
        for g in range(genus_max + 1):
            e = 2 * g - 2
            # the key's scale is den[g] * lift, and the class's own k = 1 cover adds f[e] * lift
            lift = _lift(beta, e)
            scale = den[g] * lift
            c = series.coefficient(beta, e)
            value = _quotient(
                c.numerator * scale - c.denominator * (pushed.get((beta, e), 0) + f.get(e, 0) * lift),
                c.denominator * scale,
            )
            if value:
                _add_genus(f, g, value, lambda_max, rows)
                if value.denominator == 1:
                    entries[(g, beta)] = int(value)
                else:
                    nonintegral[(g, beta)] = value
        _push(pushed, beta, f, range(2, covers[beta] + 1))
    return InversionResult(table=GVTable(entries, genus_max, degree_max, series.omega), nonintegral=nonintegral)
