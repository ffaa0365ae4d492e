"""Exact arithmetic in Z[t^{+-1}, s] and the fraction field Q(t, s).

A LaurentPoly maps exponent pairs (a, b) to nonzero coefficients, where a is
the (possibly negative) power of t and b >= 0 is the power of s.  The zero
polynomial is the empty map.  Coefficients are Python ints, so a
LaurentPoly lies in Z[t^{+-1}, s]; rationals live in RationalFn as integer
fractions.  Nothing in this module (or package) touches floating point.

The weighted degree of a term is a + 2b; this weighting drives both the
canonical printing order and the flattening operation used to read Jordan
cell data off a polynomial invariant.  word_sum adds sums of products of
fractions with one packed int per numerator (linalg's Kronecker
substitution); rational_sum is its one-letter case.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, Mapping

from .errors import (
    Frozen,
    NotPolynomialError,
    OddWeightedDegreeError,
    ZeroPolynomialError,
    check_rational,
)
from .linalg import _slot_width, _unpack

# word_sum packs its numerators while their slots number at most this many
# times the terms of the parts: about the lowest ratio at which, timed on
# sparse numerators and on spread defects, the packed walk stops being faster
SLOTS_PER_TERM = 16


class LaurentPoly(Frozen):
    """Immutable sparse Laurent polynomial in t (any power) and s (power >= 0):
    its map of nonzero terms, whose order in items() and terms is unspecified
    (format_poly and poly_to_json fix the printed order)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                # bool is an int subclass; neither it nor a Fraction is a coefficient
                if type(c) is not int:
                    raise TypeError(f"coefficient must be int, got {type(c).__name__}")
                if type(a) is not int or type(b) is not int:
                    raise TypeError(f"exponents must be ints, got {(a, b)!r}")
                if b < 0:
                    raise ValueError("s never appears with negative exponent")
                if c:
                    clean[(a, b)] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _built(cls, terms: dict[tuple[int, int], int]) -> "LaurentPoly":
        """A polynomial of terms a ring op made from checked ones, not checked
        again: int exponent pairs with s-exponent >= 0 and int coefficients.
        Zero terms are dropped, as the constructor does."""
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", terms)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "LaurentPoly":
        return cls({(a, b): c})

    @classmethod
    def t(cls, power: int = 1) -> "LaurentPoly":
        return cls({(power, 0): 1})

    @classmethod
    def s(cls, power: int = 1) -> "LaurentPoly":
        return cls({(0, power): 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_t_only(self) -> bool:
        return all(b == 0 for (_, b) in self._terms)

    def is_s_only(self) -> bool:
        return all(a == 0 for (a, _) in self._terms)

    def min_t_exponent(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(a for (a, _) in self._terms)

    def min_s_exponent(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(b for (_, b) in self._terms)

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        return gcd(*self._terms.values())

    def min_lex_exponent(self) -> tuple[int, int]:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(self._terms)

    def leading_term(self) -> tuple[tuple[int, int], int]:
        """Term with the lex-largest exponent pair (a, b)."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        key = max(self._terms)
        return key, self._terms[key]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly", sign: int = 1) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + sign * c
        return LaurentPoly._built(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.__add__(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._built({key: -c for key, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly._built(out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "LaurentPoly":
        if type(c) is not int:
            raise TypeError(f"scalar must be int, got {type(c).__name__}")
        if c == 0:
            return LaurentPoly()
        return LaurentPoly._built({key: v * c for key, v in self._terms.items()})

    def shift(self, dt: int, ds: int = 0) -> "LaurentPoly":
        """Multiply by the monomial t^dt s^ds."""
        if type(dt) is not int or type(ds) is not int:
            raise TypeError(f"exponents must be ints, got {(dt, ds)!r}")
        if ds < 0 and self._terms and self.min_s_exponent() + ds < 0:
            raise ValueError("s never appears with negative exponent")
        return LaurentPoly._built({(a + dt, b + ds): c for (a, b), c in self._terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers live in RationalFn")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structural equality -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # lets RationalFn handle mixed comparisons
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def weighted_degree(q: LaurentPoly) -> int:
    """max{a + 2b} over stored terms; undefined on zero."""
    if q.is_zero():
        raise ZeroPolynomialError("weighted degree of the zero polynomial")
    return max(a + 2 * b for (a, b) in q.terms)


def flat(q: LaurentPoly) -> LaurentPoly:
    """Shift every t-exponent by -weighted_degree(q)/2, stripping the dimension shift.

    Requires the weighted degree to be even; geometric inputs always satisfy
    this, and an odd degree is reported rather than rounded.
    """
    m = weighted_degree(q)
    if m % 2 != 0:
        raise OddWeightedDegreeError(f"weighted degree {m} is odd")
    return q.shift(-m // 2)


# -- printing ---------------------------------------------------------------


def _print_order_key(term: tuple[tuple[int, int], int]):
    (a, b), _ = term
    return (-(a + 2 * b), (a, b))


def _format_monomial(a: int, b: int, c: int) -> str:
    parts = []
    if a != 0:
        parts.append("t" if a == 1 else f"t^{a}")
    if b != 0:
        parts.append("s" if b == 1 else f"s^{b}")
    if not parts:
        return str(c)
    body = "*".join(parts)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


def format_poly(q: LaurentPoly) -> str:
    """Canonical rendering: descending in a + 2b, ties broken lex on (a, b)."""
    if q.is_zero():
        return "0"
    pieces = []
    for (a, b), c in sorted(q.items(), key=_print_order_key):
        text = _format_monomial(a, b, c)
        if not pieces:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append("- " + text[1:])
        else:
            pieces.append("+ " + text)
    return " ".join(pieces)


# -- exact division and gcd helpers -----------------------------------------


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Return num/den when den divides num exactly in Z[t^{+-1}, s], else None.

    Division with remainder by a single divisor under the lex monomial order:
    the quotient exists iff every step divides in Z and the remainder comes
    out zero.  A valid quotient's lex-minimal exponent equals min(num) -
    min(den) (the lex-minimal term of a product never cancels), which bounds
    the descent and forces termination.

    One remainder is updated in place, so a step costs the divisor's length
    plus a heap operation per new remainder term: a heap of negated
    exponents finds the leading term, and an exponent whose term has
    cancelled is skipped when it comes up.  Each step cancels the leading
    term and adds only terms below it, so the leading term falls.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly()
    (la, lb), lc = den.leading_term()
    na, nb = num.min_lex_exponent()
    ma, mb = den.min_lex_exponent()
    floor = (na - ma, nb - mb)
    below = [(key, c) for key, c in den.items() if key != (la, lb)]
    quotient: dict[tuple[int, int], int] = {}
    rem = dict(num.items())
    heap = [(-a, -b) for a, b in rem]
    heapify(heap)
    while heap:
        ra, rb = heappop(heap)
        rc = rem.pop((-ra, -rb), 0)
        if not rc:
            continue
        da, db = -ra - la, -rb - lb
        if db < 0 or (da, db) < floor:
            return None
        factor, r = divmod(rc, lc)
        if r:
            return None
        quotient[(da, db)] = factor
        for (a, b), c in below:  # factor times the leading term cancels rc
            key = (a + da, b + db)
            value = rem.get(key, 0) - factor * c
            if value:
                if key not in rem:
                    heappush(heap, (-key[0], -key[1]))
                rem[key] = value
            else:
                del rem[key]
    return LaurentPoly._built(quotient)


def _divide_content(p: LaurentPoly, c: int) -> LaurentPoly:
    """p with every coefficient divided by c, which must divide them all."""
    return LaurentPoly._built({key: v // c for key, v in p.items()})


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [c // g for c in v]


def _prem(u: list[int], v: list[int]) -> list[int]:
    """Primitive pseudo-remainder of u by v, dense coefficients lowest power first.

    A step scales u by v's lead over the gcd of the two leads and subtracts
    a shifted multiple of v; the scaling is skipped when it is 1, so dividing
    by a monic v costs len(v) per step.
    """
    u = u[:]
    while len(u) >= len(v):
        g = gcd(u[-1], v[-1])
        mu, mv = v[-1] // g, u[-1] // g
        shift = len(u) - len(v)
        if mu != 1:
            u = [c * mu for c in u]
        for i, c in enumerate(v):
            u[shift + i] -= mv * c
        while u and u[-1] == 0:
            u.pop()
    return _primitive(u)


def _uni_gcd(p: LaurentPoly, q: LaurentPoly, var: str) -> LaurentPoly:
    """Primitive gcd, leading coefficient positive, of two nonzero polynomials
    univariate in var, ignoring monomial factors.

    A primitive pseudo-remainder sequence over int (Knuth, TAOCP vol. 2
    4.6.1; Brown, JACM 1971): each pseudo-remainder is divided by its
    content, so no step leaves Z and the coefficients stay small.
    """

    def dense(x: LaurentPoly) -> list[int]:
        # coefficients lowest power first, from the lowest power present
        exps = {(a if var == "t" else b): c for (a, b), c in x.items()}
        lo, hi = min(exps), max(exps)
        return _primitive([exps.get(e, 0) for e in range(lo, hi + 1)])

    a, b = dense(p), dense(q)
    while b:
        a, b = b, _prem(a, b)
    if a[-1] < 0:
        a = [-c for c in a]
    if var == "t":
        return LaurentPoly({(i, 0): c for i, c in enumerate(a) if c})
    return LaurentPoly({(0, i): c for i, c in enumerate(a) if c})


class RationalFn(Frozen):
    """Element of Q(t, s) as a normalized fraction of Laurent polynomials.

    Both parts lie in Z[t^{+-1}, s], so a rational scalar such as 1/2 is the
    pair (1, 2), and normalization uses integer arithmetic only: common
    monomial factors cancelled (den anchored at t- and s-exponent zero),
    coprime contents, den's leading coefficient positive, exact polynomial
    division applied when it succeeds, and a univariate gcd cancelled when
    both parts share a single variable.  Equal values always compare equal
    via cross-multiplication, so full canonicity is not required, only
    compactness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _normalize_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "RationalFn":
        return cls(LaurentPoly.one())

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "RationalFn":
        value = check_rational(value, "value")
        return cls(
            LaurentPoly.constant(value.numerator),
            LaurentPoly.constant(value.denominator),
        )

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        return cls(p)

    # -- field operations --------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        other = _coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        other = _coerce(other)
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other) -> "RationalFn":
        other = _coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = _coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFn":
        if self.num.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return RationalFn(self.den, self.num)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> LaurentPoly:
        """The underlying polynomial, requiring integer coefficients.

        Raises NotPolynomialError when the denominator does not divide out or
        a coefficient is not an integer.
        """
        if self.den == LaurentPoly.one():
            return self.num
        # normalisation leaves den = 1 whenever den divides num over Z, and den
        # divides num over Q exactly when it divides content(den) * num over Z
        if exact_div(self.num.scale(self.den.content()), self.den) is None:
            raise NotPolynomialError(f"{self} is not a polynomial")
        raise NotPolynomialError(f"{self} has non-integer coefficients")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = _coerce(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is by cross-multiplication, not structure

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __repr__(self) -> str:
        return f"RationalFn({self!s})"

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


def _unpacked(value: int, width: int, n: int, span: int, low: int, step: int = 1) -> LaurentPoly:
    """The polynomial whose coefficient of t^(low + step (j % span)) s^(j // span)
    is slot j of value's n packed slots of width bits (linalg._unpack)."""
    return LaurentPoly._built({(low + step * (j % span), j // span): c for j, c in enumerate(_unpack(value, width, n)) if c})


def word_sum(letters: Mapping, words: Iterable[tuple[Fraction | int, int, tuple]]) -> RationalFn:
    """Exact sum over words (c, e, w) of c t^e times the product over the
    letters of w of the sum of letters[letter]'s fractions num/den.

    A part is split once: num = t^low p, and den = unit t^dt key with unit
    den's content signed as its leading coefficient.  By Gauss's lemma the
    fraction of a choice of one part per letter is then t^(e + sum(low - dt))
    c prod p / (d prod unit prod key), in the bucket of prod key.  One
    depth-first walk per word, in the order of the choices' part indices,
    multiplies each prefix once.  A bucket keeps one numerator over its key
    times the lcm m of the units seen in it: a choice enters times m / its
    unit, after the bucket is rescaled to a grown lcm.  The nonzero buckets
    are normalised and added as RationalFn values in the order they opened;
    normalising a normalised fraction returns it unchanged, so a bucket
    that cancels changes no byte of the sum.

    Each p is packed into one int, p at t = 2^w and s = 2^(w span)
    (linalg's Kronecker substitution), so a product or a bucket sum is one
    int operation.  span holds every choice's t-extent, and w is
    linalg._slot_width of a bound on every bucket's coefficients: the sum
    over words of |c| prod over letters of the sum of the parts' |p|_1,
    times the lcm over words of d prod over letters of the lcm of |unit|.
    The slots must number at most SLOTS_PER_TERM times the terms of the
    parts' p; otherwise (a sparse p, or words whose t-shifts e lie far
    apart) the same walk runs on the p as LaurentPoly values.
    """
    parts, sizes, count = {}, {}, 0
    for letter, pairs in letters.items():
        parts[letter], stats = [], []
        for num, den in pairs:
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            if num:
                unit = den.content() if den.leading_term()[1] > 0 else -den.content()
                dt, low = den.min_t_exponent(), num.min_t_exponent()
                p = num.shift(-low)
                parts[letter].append((p, low - dt, unit, _divide_content(den.shift(-dt), unit)))
                stats.append((low - dt, low - dt + p.leading_term()[0][0], max(b for (_, b), _ in p.items()), sum(abs(c) for _, c in p.items()), unit))
                count += len(p.items())
        if stats:  # the letter's lowest and highest t-exponent, top s-exponent, sum of |p|_1 and lcm of |unit|
            lo, hi, ds, norm, unit = zip(*stats)
            sizes[letter] = (min(lo), max(hi), max(ds), sum(norm), lcm(*unit))
    words = [(Fraction(c), e, w) for c, e, w in words if all(parts[letter] for letter in w)]
    if not words:
        return RationalFn.zero()
    extents = []
    for c, e, w in words:
        size = [sizes[letter] for letter in w]
        extents.append((e + sum(x[0] for x in size), e + sum(x[1] for x in size), sum(x[2] for x in size),
                        abs(c.numerator) * prod(x[3] for x in size), c.denominator * prod(x[4] for x in size)))
    lows, highs, s_tops, norms, units = zip(*extents)
    low, span = min(lows), max(highs) - min(lows) + 1
    n = span * (max(s_tops) + 1)
    if n <= SLOTS_PER_TERM * count:
        width = _slot_width(sum(norms) * lcm(*units))
        value = lambda p: sum(c << (width * (a + span * b)) for (a, b), c in p.items())
        start, lift = int, lambda x, o: x << (width * o)
        finish = lambda x: _unpacked(x, width, n, span, low)
    else:
        value, start, lift, finish = (lambda p: p), LaurentPoly.constant, LaurentPoly.shift, (lambda x: x.shift(low))
    parts = {letter: [(value(p), lo, unit, key) for p, lo, unit, key in split] for letter, split in parts.items()}
    products: dict[tuple[LaurentPoly, LaurentPoly], LaurentPoly] = {}  # (key, part's key) -> their product
    buckets: dict[LaurentPoly, tuple] = {}  # key -> (lcm m of the units seen, numerator sum over key m)
    one = LaurentPoly.one()
    for c, e, w in words:
        stack = [(0, start(c.numerator), e - low, c.denominator, one)]
        while stack:
            depth, num, o, unit, key = stack.pop()
            if depth < len(w):
                for p, dlo, dunit, dkey in reversed(parts[w[depth]]):
                    product = products.get((key, dkey))
                    if product is None:
                        product = products[key, dkey] = key * dkey
                    stack.append((depth + 1, num * p, o + dlo, unit * dunit, product))
                continue
            m, acc = buckets.get(key, (1, start(0)))
            m_new = lcm(m, unit)
            buckets[key] = (m_new, acc * (m_new // m) + lift(num * (m_new // unit), o))
    total = None
    for key, (m, acc) in buckets.items():
        if acc:
            part = RationalFn(finish(acc), key.scale(m))
            total = part if total is None else total + part
    return RationalFn.zero() if total is None else total


def rational_sum(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> RationalFn:
    """Exact sum of the fractions num/den over (num, den) pairs, not yet
    normalised: word_sum over one word of one letter, so each bucket is
    normalised once and the buckets are added in the order they opened."""
    return word_sum({0: pairs}, [(1, 0, (0,))])


def _coerce(value) -> RationalFn:
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFn(value)
    if isinstance(value, (int, Fraction)):
        return RationalFn.from_fraction(value)
    raise TypeError(f"cannot coerce {type(value)!r} to RationalFn")


def _normalize_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()

    # anchor the denominator's monomial support at the origin
    dt = den.min_t_exponent()
    ds = min(den.min_s_exponent(), num.min_s_exponent())
    if dt or ds:
        num = num.shift(-dt, -ds)
        den = den.shift(-dt, -ds)

    # coefficient normalization: coprime contents, positive den lead
    g = gcd(num.content(), den.content())
    if g > 1:
        num = _divide_content(num, g)
        den = _divide_content(den, g)
    if den.leading_term()[1] < 0:
        num, den = -num, -den

    # a one-term numerator is a multiple of no denominator of two or more
    # terms, and shares with any denominator only a monomial and the content,
    # both divided out above: exact division and the gcd would change nothing
    if len(num._terms) == 1 or den == LaurentPoly.one():
        return num, den

    quotient = exact_div(num, den)
    if quotient is not None:
        return quotient, LaurentPoly.one()

    shared_var = None
    if num.is_t_only() and den.is_t_only():
        shared_var = "t"
    elif num.is_s_only() and den.is_s_only():
        shared_var = "s"
    if shared_var is not None:
        # primitive, positive lead, nonzero constant: the quotients stay normalised
        g_poly = _uni_gcd(num, den, shared_var)
        if g_poly != LaurentPoly.one():
            return exact_div(num, g_poly), exact_div(den, g_poly)
    return num, den
