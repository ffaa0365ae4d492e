"""The BPS/Gromov-Witten generating-function transform on truncated exact series.

One multiple-cover kernel carries the counts of a class beta into the series,

    F_gamma = sum_{k | gamma} T_k f_{gamma/k},   (T_k f)(lambda) = f(k lambda) / k,
    f_beta(lambda) = sum_g n_g^beta (2 sin(lambda / 2))^{2g-2},

with the sine powers Laurent-expanded exactly.  Since f_beta(k lambda) only
rescales the coefficient of lambda^e by k^e, the genera of a class are summed
once and the sum is pushed to every cover k.  The forward transform pushes
each class of the table through it.  As T_a T_b = T_ab, Moebius inversion
gives the inverse in closed form, f_gamma = sum_{k | gamma} mu(k) T_k
F_{gamma/k}: the inverse pushes each class's input series through the same
kernel to its squarefree covers, signed by mu(k), and solves each class it
reaches for its genera against its own sine rows.  No class waits on
another's solved values.  Integrality of the solved values is conjectural;
non-integer results are reported alongside the table, never rounded.

The kernel works in integers, on slot rows.  A class's series is a list of
slots h, slot h holding the coefficient of lambda^e, e = 2h - 2; it runs from
the class's lowest genus up to the top slot of the lambda cut, so every list
ends at the top slot and none holds the zero slots below its class.  The
sine table is read off closed forms as integer numerators over one
denominator D_h per slot (Bernoulli numbers from tangent numbers for genus 0,
central factorial numbers above), and row g of it starts at slot g, so a
genus is added into a class's series slot by slot.  Slot h of the series at
gamma is held as an int times D_h c(gamma)^max(0, 1-e), c(gamma) the gcd of
gamma's entries.  As c(k beta) = k c(beta), cover k of beta adds slot h
times c(beta)^3 at h = 0, c(beta) at h = 1 and k^{2h-3} above: the multiplier
row (c^3, c, k, k^3, ..., k^{2h-3}), integers all.  Its class part is
applied once per class, as a lift of the class's series before the kernel
takes it, and its cover part (1, 1, k, k^3, ...), signed by mu(k) in the
inverse, is built once per k, from the lowest slot that a class with k
covers or more holds.  A Fraction is built once per output coefficient; the
inverse reads each input coefficient times its scale once, so a series the
forward made stays in ints, and divides out the scale with one divmod per
solved value; a nonintegral value simply stays a Fraction in the same sums.
The results are built inside the cuts, so they are returned without a
second check (_built).

Each transform spends one Ledger, counting its work from the cuts before
doing any: candidate classes, kernel terms and sin-table products all add
up against the one cap.  The forward's kernel terms, covers times slots from
the entry's genus up, bound both the products of the per-class push and the
slots of the cover rows.  The inverse's are one push per (class, squarefree
cover) and one triangular solve per class it may reach.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, perm
from operator import add, mul
from typing import Iterable, Mapping

from .errors import ConeNotPointedError, InsufficientTruncationError, Ledger, check_int, check_rational

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


def _sin_table(genus_max: int, order: int, ledger: Ledger, top: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Rows g = 0..genus_max of (2 sin(u/2))^{2g-2} as integer numerators, row g to j = min(order, top - g).

    rows[g][j] / den[g + j] is the coefficient of u^{2g-2+2j}: every row
    shares the denominator den[n] at u^{2n-2}, for n = 0..top.  By default
    top = genus_max + order, and every row runs to j = order: the square
    table.  A transform reads row g only up to its top slot, so it asks for
    the triangle g + j <= top, whose rows are prefixes of the square's rows
    and whose den is the square's up to slot top.  Row 0 is sum_n
    (-1)^{n+1} (2n-1) B_2n u^{2n-2} / (2n)!.  Row m + 1 is (2 - 2 cos u)^m =
    sum_{|k|<=m} (-1)^k C(2m, m+k) e^{iku}, whose u^{2m+2j} coefficient is
    (-1)^j (2m)! T(2m+2j, 2m) / (2m+2j)!, T the central factorial numbers:
    T(2m+2j, 2m) = T(2m+2j-2, 2m-2) + m^2 T(2m+2j-2, 2m), one integer step
    each, for the j that the rows from m + 1 on still hold.  den[n] is
    (2n)! den(B_2n) up to n = order, where row 0 stops; beyond, it is
    (2n-2)! / (2n-2-2 order)!, the largest denominator (2n-2)! / (2m)! that
    a row m + 1 reaching u^{2n-2} needs.  A row of n entries is charged
    n (n + 1) / 2 products.
    """
    top = genus_max + order if top is None else top
    lengths = [max(min(order, top - g) + 1, 0) for g in range(genus_max + 1)]
    ledger.spend("sin table", sum(n * (n + 1) // 2 for n in lengths), "products")
    bernoulli = _tangent_bernoulli(lengths[0] - 1) if lengths[0] else []
    den, factorial_2n = [], 1
    for n, b in enumerate(bernoulli):
        factorial_2n *= max(2 * n * (2 * n - 1), 1)
        den.append(factorial_2n * b.denominator)
    den += [perm(2 * n - 2, 2 * order) for n in range(order + 1, top + 1)]
    rows = [[(-1) ** (n + 1) * (2 * n - 1) * b.numerator for n, b in enumerate(bernoulli)]]
    central = [1] + [0] * order  # T(2m+2j, 2m) for j = 0..order, at m = 0
    for m, n in enumerate(lengths[1:]):
        del central[n:]
        for j in range(1, n):
            central[j] += m * m * central[j - 1]
        rows.append([(-1) ** j * t * (den[m + 1 + j] // perm(2 * m + 2 * j, 2 * j)) for j, t in enumerate(central)])
    return rows, den


def sin_power_coefficient(g: int, j: int) -> Fraction:
    """Coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}, exact."""
    if g < 0 or j < 0:
        return Fraction(0)
    rows, den = _sin_table(g, j, Ledger())
    return Fraction(rows[g][j], den[g + j])


def _cover_count(degree: int, top: int) -> int:
    """Number of k >= 1 with k beta inside the degree cut, for beta of the given omega-degree (both as in _weights)."""
    return max(top // degree, 0)


def _lifts(c: int, lo: int, slots: int) -> list[int]:
    """(c^3, c, 1, ..., 1) on slots lo..slots-1: the per-class factor c^max(0, 1-e) of the scale at slot h, e = 2h-2."""
    return ([c**3, c][lo:] + [1] * (slots - max(lo, 2)))[: slots - lo]


def _mobius(n: int) -> list[int]:
    """mu(0), ..., mu(n), mu(0) = 0, by the Dirichlet-inverse sieve: sum_{d | m} mu(d) is 0 for every m > 1."""
    mu = [0, 1, *[0] * (n - 1)][: n + 1]
    for i in range(1, n // 2 + 1):
        s = mu[i]
        if s:  # mu(i) is final here, as every proper divisor of i came before it
            mu[2 * i :: i] = [m - s for m in mu[2 * i :: i]]
    return mu


def _cover_rows(start: Mapping[int, int], slots: int, mu: list[int] | None = None) -> list[list[int]]:
    """Row k is cover k's multiplier (1, 1, k, k^3, ..., k^(2h-3)) on slots lo_k..slots-1 of a lifted class series.

    start[m] is the lowest slot a class with m covers starts at, and lo_k the
    lowest start[m] over m >= k, so row k holds exactly the slots that the
    classes pushing cover k reach.  Given mu, row k is signed by mu[k], and
    left empty where mu[k] is 0: the inverse's rows.
    """
    k_max = max(start, default=0)
    rows, lo = [[]] * (k_max + 1), slots
    for k in range(k_max, 0, -1):
        lo = min(lo, start.get(k, slots))
        sign = 1 if mu is None else mu[k]
        if sign:
            row, p = [sign, sign][lo:], sign * k ** (2 * max(lo, 2) - 3)
            for _ in range(slots - max(lo, 2)):
                row.append(p)
                p *= k * k
            rows[k] = row[: slots - lo]
    return rows


def _add_row(f: list, i: int, n, row: list[int]) -> None:
    """Add n times a sine row to a class series f, the row's first entry at f[i], up to f's last slot.

    Every sine row reaches the last slot, since the table is sized from the cuts.
    """
    f[i:] = map(add, f[i:], map(n.__mul__, row))


def _push(acc: dict[Beta, list], beta: Beta, lifted: list, covers: Iterable[int], cover_rows: list[list[int]]) -> None:
    """The multiple-cover kernel: add cover k of a lifted class series at k beta, for each k in covers.

    lifted holds the top len(lifted) slots of beta's series, slot h times
    its class factor c(beta)^max(0, 1-e) (_lifts).  Cover k multiplies it
    slot by slot with the top len(lifted) slots of its row, and adds the
    products into the top slots of the series at k beta.  A series of zeros
    pushes nothing.
    """
    if not any(lifted):
        return
    n = len(lifted)
    for k in covers:
        kbeta = tuple([k * b for b in beta])
        row = cover_rows[k]
        terms = map(mul, lifted, row if len(row) == n else row[len(row) - n :])
        old = acc.get(kbeta)
        if old is None:
            acc[kbeta] = list(terms)
        elif len(old) == n:
            acc[kbeta] = list(map(add, old, terms))
        else:  # both end at the top slot: add the shorter into the top of the longer
            short, long = sorted((old, list(terms)), key=len)
            i = len(long) - len(short)
            acc[kbeta] = long[:i] + list(map(add, long[i:], short))


def _quotient(num: int | Fraction, den: int) -> int | Fraction:
    """num / den: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


# -- tables and series ---------------------------------------------------------


def _weights(omega: tuple[Fraction, ...], degree_max: Fraction) -> tuple[tuple[int, ...], int]:
    """omega and the degree cut as integer numerators over one common denominator."""
    den = lcm(degree_max.denominator, *(w.denominator for w in omega))
    return tuple(int(w * den) for w in omega), int(degree_max * den)


def _degree(weights: tuple[int, ...], beta: Beta) -> int:
    """The omega-degree of beta times the denominator of _weights."""
    return sum(map(mul, weights, beta))


def check_genus(g: int, genus_max: int) -> None:
    """The rule of a table's genus: 0 <= g <= genus_max.  Raises ValueError."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g > genus_max:
        raise ValueError(f"entry at genus {g} beyond cutoff {genus_max}")


def check_lambda(lam: int, lambda_max: int) -> None:
    """The rule of a series' lambda exponent: even, -2 <= lam <= lambda_max.  Raises ValueError."""
    if lam < -2 or lam % 2 != 0:
        raise ValueError("lambda exponents are even integers >= -2")
    if lam > lambda_max:
        raise ValueError(f"lambda order {lam} beyond cutoff {lambda_max}")


class ClassRule:
    """The rule of a curve class under the cuts: nonzero, one entry per omega
    entry, of positive omega-degree inside the degree cut.

    Calling it on a tuple of ints checks the class and returns it, raising
    ValueError, or ConeNotPointedError for a nonpositive degree.  seen maps
    each class accepted so far to itself, so a class is checked once; its
    entries' types are the caller's to check, since (1.0,) and (True,) equal
    (1,).
    """

    __slots__ = ("weights", "top", "degree_max", "seen")

    def __init__(self, omega: tuple[Fraction, ...], degree_max: Fraction):
        self.weights, self.top = _weights(omega, degree_max)
        self.degree_max = degree_max
        self.seen: dict[Beta, Beta] = {}

    def __call__(self, beta: Beta) -> Beta:
        hit = self.seen.get(beta)
        if hit is not None:
            return hit
        if all(b == 0 for b in beta):
            raise ValueError("curve class must be nonzero")
        if len(beta) != len(self.weights):
            raise ValueError(f"class {beta} has {len(beta)} entries, omega has {len(self.weights)}")
        deg = _degree(self.weights, beta)
        if deg <= 0:
            raise ConeNotPointedError(f"class {beta} has nonpositive degree")
        if deg > self.top:
            raise ValueError(f"class {beta} beyond degree cutoff {self.degree_max}")
        self.seen[beta] = beta
        return beta


def _class(rule: ClassRule, beta) -> Beta:
    """A class given to a constructor: its entries must be ints, then it must keep the rule."""
    for b in beta:
        check_int(b, "class entry")
    return rule(beta)


@dataclass(frozen=True)
class GVTable:
    """Integer counts indexed by (genus, curve class), with truncation data.

    The constructor checks every key; a document reader or a transform that
    has checked them builds the table with _built instead.
    """

    entries: dict[tuple[int, Beta], int]
    genus_max: int
    degree_max: Fraction
    omega: tuple[Fraction, ...]

    def __init__(self, entries: Mapping[tuple[int, Beta], int], genus_max: int, degree_max, omega):
        omega = tuple(check_rational(x, "omega entry") for x in omega)
        degree_max = check_rational(degree_max, "degree_max")
        genus_max = check_int(genus_max, "genus_max")
        classes = ClassRule(omega, degree_max)
        clean: dict[tuple[int, Beta], int] = {}
        for (g, beta), n in entries.items():
            g, n = check_int(g, "genus"), check_int(n, "count")
            check_genus(g, genus_max)
            beta = _class(classes, beta)
            if n:
                clean[(g, beta)] = n
        vars(self).update(entries=clean, genus_max=genus_max, degree_max=degree_max, omega=omega)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GVTable) and self.entries == other.entries

    __hash__ = None


@dataclass(frozen=True)
class GWSeries:
    """Rational coefficients indexed by (curve class, lambda exponent).

    The constructor checks every key; a document reader or a transform that
    has checked them builds the series with _built instead.
    """

    coeffs: dict[tuple[Beta, int], Fraction]
    degree_max: Fraction
    lambda_max: int
    omega: tuple[Fraction, ...]

    def __init__(self, coeffs: Mapping[tuple[Beta, int], Fraction], degree_max, lambda_max: int, omega):
        omega = tuple(check_rational(x, "omega entry") for x in omega)
        degree_max = check_rational(degree_max, "degree_max")
        lambda_max = check_int(lambda_max, "lambda_max")
        classes = ClassRule(omega, degree_max)
        clean: dict[tuple[Beta, int], Fraction] = {}
        for (beta, lam), c in coeffs.items():
            lam = check_int(lam, "lambda exponent")
            check_lambda(lam, lambda_max)
            beta = _class(classes, beta)
            c = c if type(c) is Fraction else check_rational(c, "coefficient")
            if c:
                clean[(beta, lam)] = c
        vars(self).update(coeffs=clean, degree_max=degree_max, lambda_max=lambda_max, omega=omega)

    def coefficient(self, beta: Beta, lam: int) -> Fraction:
        return self.coeffs.get((tuple(beta), int(lam)), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GWSeries) and self.coeffs == other.coeffs

    __hash__ = None


def _built(cls, **fields):
    """A GVTable or GWSeries whose keys were checked where they were made, not checked again:
    int entries or Fraction coefficients, none zero, on classes the cuts admit; omega a tuple
    of Fractions, degree_max a Fraction."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


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
    slots = max(lambda_max // 2 + 2, 0)
    genera: dict[Beta, dict[int, int]] = {}
    for (g, beta), n in table.entries.items():
        genera.setdefault(beta, {})[g] = n
    weights, top = _weights(table.omega, degree_max)
    covers = {beta: _cover_count(_degree(weights, beta), top) for beta in genera}
    terms = genus_top = order = 0
    start: dict[int, int] = {}  # cover count -> the lowest slot a class with that many covers starts at
    for g, beta in table.entries:
        m = covers[beta]
        if m and g < slots:
            terms += m * (slots - g)
            genus_top, order, start[m] = max(genus_top, g), max(order, slots - g - 1), min(start.get(m, g), g)
    ledger = Ledger()
    ledger.spend("gw forward", terms, "kernel terms")
    rows, den = _sin_table(genus_top, order, ledger, slots - 1)
    cover_rows = _cover_rows(start, slots)
    acc: dict[Beta, list[int]] = {}
    for beta, counts in genera.items():
        if covers[beta]:
            lo = min(counts)  # the class series starts at its lowest genus; it is empty if that is past the cut
            f = [0] * (slots - lo)
            for g, n in counts.items():
                if g < slots:
                    _add_row(f, g - lo, n, rows[g])
            _push(acc, beta, list(map(mul, f, _lifts(gcd(*beta), lo, slots))), range(1, covers[beta] + 1), cover_rows)
    coeffs = {}
    for gamma, series in acc.items():
        lo = slots - len(series)
        for h, (c, scale) in enumerate(zip(series, map(mul, den[lo:slots], _lifts(gcd(*gamma), lo, slots))), lo):
            if c:
                coeffs[(gamma, 2 * h - 2)] = Fraction(c, scale)
    return _built(GWSeries, coeffs=coeffs, degree_max=degree_max, lambda_max=int(lambda_max), omega=table.omega)


def gw_to_gv(
    series: GWSeries,
    genus_max: int | None = None,
    degree_max=None,
) -> InversionResult:
    """Inverse of the forward transform by its Moebius divisor sum.

    Each class of the series with a cover inside the degree cut is read once
    and pushed to its squarefree covers k, its own series at k = 1, signed by
    mu(k): the sum at gamma is then f_gamma, the class series of gamma's
    counts, and its genera are solved in increasing order against gamma's own
    sine rows.  A class outside every squarefree multiple of the series'
    classes gets no value.  Requesting values beyond the stored truncation
    raises InsufficientTruncationError.
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

    weights, top = _weights(series.omega, degree_max)
    covers = {beta: _cover_count(_degree(weights, beta), top) for beta in dict.fromkeys(beta for beta, _ in series.coeffs)}
    ledger = Ledger()
    ledger.spend("gw inverse", sum(covers.values()), "candidate classes")
    k_max = max(covers.values(), default=0)
    mu = _mobius(k_max)
    squarefree = [k for k, m in enumerate(mu) if m]
    pairs = sum(bisect(squarefree, m) for m in covers.values())
    slots = max(genus_max + 1, 0)
    terms = pairs * slots * (slots + 3) // 2  # per pair, a push of every slot and a triangular solve of the class it may reach
    ledger.spend("gw inverse", terms, "kernel terms")
    rows, den = _sin_table(genus_max, genus_max, ledger, genus_max) if terms else ([], [])
    cover_rows = _cover_rows({k_max: 0} if terms else {}, slots, mu)

    read: dict[Beta, list] = {}
    for (beta, lam), c in series.coeffs.items():
        h = lam // 2 + 1
        if h < slots and covers[beta]:
            f = read.get(beta)
            if f is None:
                f = read[beta] = [0] * slots
            f[h] = c
    acc: dict[Beta, list] = {}
    for beta, f in read.items():
        scales = map(mul, den, _lifts(gcd(*beta), 0, slots))
        lifted = [_quotient(c.numerator * scale, c.denominator) for c, scale in zip(f, scales)]
        _push(acc, beta, lifted, squarefree[: bisect(squarefree, covers[beta])], cover_rows)

    entries: dict[tuple[int, Beta], int] = {}
    nonintegral: dict[tuple[int, Beta], Fraction] = {}
    for gamma, total in acc.items():
        f = [0] * slots
        for g, (lift, d, p) in enumerate(zip(_lifts(gcd(*gamma), 0, slots), den, total)):
            # slot g holds f_gamma at lambda^(2g-2) times d * lift, and the genera below g add f[g] * lift
            value = _quotient(p - f[g] * lift, d * lift)
            if value:
                _add_row(f, g, value, rows[g])
                if value.denominator == 1:
                    entries[(g, gamma)] = value
                else:
                    nonintegral[(g, gamma)] = value
    table = _built(GVTable, entries=entries, genus_max=int(genus_max), degree_max=degree_max, omega=series.omega)
    return InversionResult(table=table, nonintegral=nonintegral)
