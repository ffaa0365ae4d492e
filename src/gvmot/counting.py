"""Numerical classes, phases, and the inclusion-exclusion counting pipeline.

A class is a pair (beta, k) in the curve-class lattice plus the holomorphic
Euler number.  The central charge -k + (B + i omega) . beta assigns each
class an exact phase; counts of semistable objects enter as formal words of
delta letters, their logarithm is the alternating sum over ordered same-phase
decompositions, and evaluation happens in a split-stratum model: a word is
worth L^(sum of pairwise ext defects) times the product of its letters'
values.  Because that value ignores letter order, counting_polynomial sums
the log over multisets of pieces; the ordered log stays as its reference.

Each count spends one work budget (max_compositions): the membership search,
the candidate pieces and the decomposition walk all draw on it, and running
out raises ResourceLimitError naming the stage.

Phase comparisons never touch floating point: two classes share a phase
exactly when their (Im Z, -Re Z) pairs are proportional with positive ratio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from math import factorial, prod
from typing import Callable, Iterable, Mapping

from .errors import (
    AsymmetricDefectError,
    ConeNotPointedError,
    MissingAtomError,
    NotEffectiveError,
    NotPolynomialError,
    ResourceLimitError,
)
from .laurent import LaurentPoly, RationalFn, flat, rational_sum
from .lefschetz import JordanCensus, census_count
from .linalg import dot
from .motives import upsilon_rel
from .stacks import StackClass

# printed in every gv output; golden files pin its bytes
MODEL_NOTE = (
    "evaluation model: split strata with constant ext defect per class pair; "
    "direct sums merge by the model's census combinator"
)


@dataclass(frozen=True, order=True)
class NumClass:
    """A numerical class: curve part beta (integer vector) and Euler pairing k."""

    beta: tuple[int, ...]
    k: int

    def __init__(self, beta, k: int):
        object.__setattr__(self, "beta", tuple(int(b) for b in beta))
        object.__setattr__(self, "k", int(k))

    def __neg__(self) -> "NumClass":
        return NumClass(tuple(-b for b in self.beta), -self.k)

    def __add__(self, other: "NumClass") -> "NumClass":
        return NumClass(tuple(a + b for a, b in zip(self.beta, other.beta)), self.k + other.k)

    def __repr__(self) -> str:
        return f"NumClass(beta={self.beta}, k={self.k})"


class ClassLattice:
    """The curve-class lattice with a spanning set of effective-cone generators.

    Immutable after construction; membership memoization is per call, so a
    lattice can be shared freely across threads.
    """

    __slots__ = ("rank", "generators")

    def __init__(self, rank: int, generators: Iterable[tuple[int, ...]]):
        rank = int(rank)
        gens = tuple(tuple(int(c) for c in g) for g in generators)
        if rank < 1:
            raise ValueError("lattice rank must be positive")
        for g in gens:
            if len(g) != rank:
                raise ValueError(f"generator {g} has wrong length for rank {rank}")
            if all(c == 0 for c in g):
                raise ValueError("generators must be nonzero")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)

    def check_positive(self, omega: tuple[Fraction, ...]) -> None:
        for g in self.generators:
            if dot(omega, g) <= 0:
                raise ConeNotPointedError(
                    f"functional {tuple(map(str, omega))} not positive on generator {g}"
                )

    def is_effective(
        self,
        beta: tuple[int, ...],
        omega: tuple[Fraction, ...],
        _memo: dict | None = None,
        budget: "_Budget | None" = None,
    ) -> bool:
        """Membership of beta in the monoid generated by the effective generators.

        Bounded search: subtracting a generator strictly lowers the
        omega-degree, so the explored region is the finite set of lattice
        points below beta.  Iterative so arbitrarily deep classes cannot
        overflow the interpreter stack.
        """
        self.check_positive(omega)
        beta = tuple(int(b) for b in beta)
        if len(beta) != self.rank:
            raise ValueError(f"class {beta} has wrong rank for this lattice")
        cache = {} if _memo is None else _memo
        zero = (0,) * self.rank
        generator_degrees = [dot(omega, g) for g in self.generators]
        # coordinates no generator can move toward zero are dead ends
        sign_floor = [min(g[i] for g in self.generators) for i in range(self.rank)]
        sign_ceil = [max(g[i] for g in self.generators) for i in range(self.rank)]

        def hopeless(b: tuple[int, ...]) -> bool:
            for i, c in enumerate(b):
                if c < 0 and sign_floor[i] >= 0:
                    return True
                if c > 0 and sign_ceil[i] <= 0:
                    return True
            return False

        def children(b: tuple[int, ...]) -> list[tuple[int, ...]]:
            deg = dot(omega, b)
            out = []
            for g, gdeg in zip(self.generators, generator_degrees):
                if gdeg <= deg:
                    out.append(tuple(x - y for x, y in zip(b, g)))
            return out

        if beta == zero:
            return True
        # short-circuiting DFS over the OR-dag, iterative so deep classes
        # cannot overflow the interpreter stack
        frames: list[list] = [[beta, None, 0]]
        while frames:
            frame = frames[-1]
            b = frame[0]
            if b in cache:
                frames.pop()
                continue
            if hopeless(b):
                cache[b] = False
                frames.pop()
                continue
            if frame[1] is None:
                if budget is not None:
                    budget.spend("membership test")
                frame[1] = children(b)
            descended = False
            while frame[2] < len(frame[1]):
                child = frame[1][frame[2]]
                if child == zero or cache.get(child) is True:
                    cache[b] = True
                    break
                if child in cache:
                    frame[2] += 1
                    continue
                frames.append([child, None, 0])
                descended = True
                break
            else:
                cache[b] = False
            if not descended and b in cache:
                frames.pop()
        return cache[beta]

    def monoid_elements(
        self,
        omega: tuple[Fraction, ...],
        bound: Fraction,
        budget: "_Budget | None" = None,
    ) -> list[tuple[int, ...]]:
        """All nonzero monoid elements of omega-degree at most the bound."""
        self.check_positive(omega)
        zero = (0,) * self.rank
        seen = {zero}
        frontier = [zero]
        while frontier:
            current = frontier.pop()
            for g in self.generators:
                if budget is not None:
                    budget.spend("pieces")
                candidate = tuple(x + y for x, y in zip(current, g))
                if candidate not in seen and dot(omega, candidate) <= bound:
                    seen.add(candidate)
                    frontier.append(candidate)
        seen.discard(zero)
        return sorted(seen)


@dataclass(frozen=True)
class CentralCharge:
    """The linear functional (beta, k) -> -k + (B + i omega) . beta."""

    b_field: tuple[Fraction, ...]
    omega: tuple[Fraction, ...]

    def __init__(self, b_field, omega):
        object.__setattr__(self, "b_field", tuple(Fraction(x) for x in b_field))
        object.__setattr__(self, "omega", tuple(Fraction(x) for x in omega))
        if len(self.b_field) != len(self.omega):
            raise ValueError("B and omega must have the same length")

    def value(self, v: NumClass) -> tuple[Fraction, Fraction]:
        """Exact (real, imaginary) parts of the charge on v."""
        if len(v.beta) != len(self.omega):
            raise ValueError("class rank does not match the charge")
        re = -Fraction(v.k) + dot(self.b_field, v.beta)
        im = dot(self.omega, v.beta)
        return re, im


class FreeHallElement:
    """Rational combination of words of delta letters (free concatenation).

    Coefficients are plain Fractions: the log and exp weights are rational
    numbers, and evaluate() supplies every power of L.
    """

    __slots__ = ("words",)

    def __init__(self, words: Mapping[tuple[NumClass, ...], Fraction | int] | None = None):
        clean: dict[tuple[NumClass, ...], Fraction] = {}
        if words:
            for word, coeff in words.items():
                if coeff:
                    clean[tuple(word)] = Fraction(coeff)
        object.__setattr__(self, "words", clean)

    @classmethod
    def zero(cls) -> "FreeHallElement":
        return cls()

    @classmethod
    def letter(cls, v: NumClass) -> "FreeHallElement":
        return cls({(v,): Fraction(1)})

    def items(self):
        return self.words.items()

    def is_zero(self) -> bool:
        return not self.words

    def __add__(self, other: "FreeHallElement") -> "FreeHallElement":
        out = dict(self.words)
        for word, coeff in other.words.items():
            acc = out.get(word)
            out[word] = coeff if acc is None else acc + coeff
        return FreeHallElement(out)

    def __sub__(self, other: "FreeHallElement") -> "FreeHallElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction | int) -> "FreeHallElement":
        return FreeHallElement({word: coeff * c for word, coeff in self.words.items()})

    def star(self, other: "FreeHallElement") -> "FreeHallElement":
        """Concatenation product, graded by the total class of each word."""
        out: dict[tuple[NumClass, ...], Fraction] = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                word = w1 + w2
                c = c1 * c2
                acc = out.get(word)
                out[word] = c if acc is None else acc + c
        return FreeHallElement(out)

    __mul__ = star

    def commutator(self, other: "FreeHallElement") -> "FreeHallElement":
        return self.star(other) - other.star(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeHallElement):
            return NotImplemented
        return self.words == other.words

    __hash__ = None

    def __repr__(self) -> str:
        return f"FreeHallElement({len(self.words)} words)"


# -- decomposition enumeration ------------------------------------------------


class _Budget:
    """The work cap of one count, shared by every stage that enumerates."""

    __slots__ = ("cap", "remaining")

    def __init__(self, cap: int):
        self.cap = cap
        self.remaining = cap

    def spend(self, stage: str, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceLimitError(
                f"{stage}: {self.cap - self.remaining} enumeration steps exceed the cap of {self.cap}"
            )


DEFAULT_COMPOSITION_CAP = 10**6


def _unit_range_test(
    lattice: ClassLattice, charge: CentralCharge, budget: _Budget
) -> Callable[[NumClass], bool]:
    """Membership in the phase-(0,1] effective range: k > 0 when beta = 0, else
    beta effective.  One membership memo and the count's budget serve every
    query of the returned test."""
    lattice.check_positive(charge.omega)
    memo: dict = {}

    def in_range(c: NumClass) -> bool:
        if not any(c.beta):
            return c.k > 0
        known = memo.get(c.beta)
        if known is None:
            known = lattice.is_effective(c.beta, charge.omega, _memo=memo, budget=budget)
        return known

    return in_range


def _same_phase_words(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    in_range: Callable[[NumClass], bool],
    budget: _Budget,
    multisets: bool,
) -> list[tuple[NumClass, ...]]:
    """Words of same-phase pieces summing to an in-range class v.

    For a class of phase one (beta = 0, k > 0) the pieces are the
    zero-dimensional classes (0, k').  Otherwise each piece's k is forced by
    phase proportionality and must come out integral.  Every proper remainder
    must itself be in range.  With multisets, each multiset of pieces is
    listed once, as the word whose pieces are in non-increasing order.
    """
    zero_beta = (0,) * lattice.rank
    if v.beta == zero_beta:
        budget.spend("pieces", v.k)
        pieces = [NumClass(zero_beta, j) for j in range(1, v.k + 1)]
    else:
        re_v, im_v = charge.value(v)
        slope = (-re_v) / im_v  # k - B.beta over omega.beta, shared by all pieces
        pieces = []
        for beta in lattice.monoid_elements(charge.omega, im_v, budget=budget):
            budget.spend("pieces")
            k_frac = dot(charge.b_field, beta) + slope * dot(charge.omega, beta)
            if k_frac.denominator == 1:
                pieces.append(NumClass(beta, int(k_frac)))

    words = []
    walk: list[tuple[NumClass, int, tuple[NumClass, ...]]] = [(v, len(pieces), ())]
    while walk:
        rem, bound, acc = walk.pop()
        for i in range(bound):
            budget.spend("decompositions")
            p = pieces[i]
            nxt = NumClass(tuple(x - y for x, y in zip(rem.beta, p.beta)), rem.k - p.k)
            if nxt.beta == zero_beta and nxt.k == 0:
                budget.spend("decompositions")
                words.append(acc + (p,))
            elif in_range(nxt):
                walk.append((nxt, i + 1 if multisets else len(pieces), acc + (p,)))
    return words


def same_phase_decompositions(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    max_compositions: int = DEFAULT_COMPOSITION_CAP,
) -> list[tuple[NumClass, ...]]:
    """Ordered decompositions of v into effective classes sharing v's phase.

    Finiteness comes from strictly positive omega-degrees; one budget of
    max_compositions steps covers the membership test, the pieces and the
    walk, so pathological inputs fail fast.
    """
    if len(v.beta) != lattice.rank:
        raise ValueError(f"class {v} has wrong rank for this lattice")
    budget = _Budget(max_compositions)
    in_range = _unit_range_test(lattice, charge, budget)
    if not in_range(v):
        raise NotEffectiveError(f"{v} is not in the phase-(0,1] effective range")
    return _same_phase_words(lattice, charge, v, in_range, budget, multisets=False)


def semistable_log(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    max_compositions: int = DEFAULT_COMPOSITION_CAP,
) -> FreeHallElement:
    """Inclusion-exclusion logarithm: sum over ordered same-phase decompositions
    of (-1)^{n-1}/n times the word of delta letters."""
    words = {}
    for decomposition in same_phase_decompositions(lattice, charge, v, max_compositions):
        n = len(decomposition)
        words[decomposition] = Fraction((-1) ** (n - 1), n)
    return FreeHallElement(words)


def _multiset_log(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    in_range: Callable[[NumClass], bool],
    budget: _Budget,
) -> FreeHallElement:
    """The semistable log of v summed over multisets of same-phase pieces.

    A multiset of n pieces with multiplicities m_i stands for n!/prod m_i!
    ordered words of weight (-1)^{n-1}/n, so it carries (-1)^{n-1} (n-1)!/prod
    m_i!.  Its value equals theirs only under an evaluation that ignores
    letter order, which EvalModel's symmetric defects and commuting product give.
    """
    words = {}
    for word in _same_phase_words(lattice, charge, v, in_range, budget, multisets=True):
        n = len(word)
        repeats = prod(factorial(m) for m in Counter(word).values())
        weight = Fraction((-1) ** (n - 1) * factorial(n - 1), repeats)
        words[word[::-1]] = weight
    return FreeHallElement(words)


def semistable_exp(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    log_table: Mapping[NumClass, FreeHallElement] | None = None,
    max_compositions: int = DEFAULT_COMPOSITION_CAP,
) -> FreeHallElement:
    """Formal exponential inverse: reconstructs the delta generator from logs.

    delta(v) = sum over decompositions of (1/n!) times the star product of the
    logarithm elements of the pieces; with the default table this is exactly
    the single word (v,).
    """
    table: dict[NumClass, FreeHallElement] = dict(log_table) if log_table else {}

    def log_of(piece: NumClass) -> FreeHallElement:
        if piece not in table:
            table[piece] = semistable_log(lattice, charge, piece, max_compositions)
        return table[piece]

    out = FreeHallElement.zero()
    for decomposition in same_phase_decompositions(lattice, charge, v, max_compositions):
        n = len(decomposition)
        product = log_of(decomposition[0])
        for piece in decomposition[1:]:
            product = product.star(log_of(piece))
        out = out + product.scale(Fraction(1, factorial(n)))
    return out


# -- evaluation model ----------------------------------------------------------


class EvalModel:
    """Per-class atoms plus a symmetric ext-defect table.

    The defect e(v1, v2) is the constant difference dim Ext^1 - dim Hom on the
    stratum of the pair; symmetry is forced (Serre duality plus vanishing Euler
    pairing on these classes), so asymmetric tables are rejected outright.
    Letters of a word combine by the product of their values, which is exact
    when each letter's cycle-support base is a point.  Symmetric defects and a
    commuting product make a word's value independent of letter order, which
    is what lets counting_polynomial sum the log over multisets of pieces
    instead of ordered words.
    """

    __slots__ = ("atoms", "ext_defect")

    def __init__(
        self,
        atoms: Mapping[NumClass, StackClass],
        ext_defect: Iterable[tuple[NumClass, NumClass, int]] = (),
    ):
        table: dict[tuple[NumClass, NumClass], int] = {}
        for v1, v2, e in ext_defect:
            for key in ((v1, v2), (v2, v1)):
                if key in table and table[key] != int(e):
                    raise AsymmetricDefectError(
                        f"ext defect not symmetric on {key[0]} and {key[1]}"
                    )
                table[key] = int(e)
        object.__setattr__(self, "atoms", dict(atoms))
        object.__setattr__(self, "ext_defect", table)

    def atom(self, v: NumClass) -> StackClass:
        try:
            return self.atoms[v]
        except KeyError:
            raise MissingAtomError(f"no atom for class {v}") from None

    def defect(self, v1: NumClass, v2: NumClass) -> int:
        return self.ext_defect.get((v1, v2), 0)


def evaluate(f: FreeHallElement, model: EvalModel) -> RationalFn:
    """Value of a free Hall element in the split-stratum model.

    A word contributes L^{sum of pairwise defects} times the product of its
    letters' atom values, extended multilinearly over the atom parts and
    linearly over words.  A letter with an empty stack class (empty moduli)
    kills its word; the empty word is the unit and evaluates to 1.  Every
    part choice becomes one unnormalised fraction, and rational_sum adds
    them all.
    """
    values: dict[int, LaurentPoly] = {}  # upsilon_rel per expression object

    def value(expr) -> LaurentPoly:
        key = id(expr)
        if key not in values:
            values[key] = upsilon_rel(expr)
        return values[key]

    def fractions():
        for word, coeff in f.items():
            exponent = sum(
                model.defect(word[i], word[j])
                for i in range(len(word))
                for j in range(i + 1, len(word))
            )
            scaled = LaurentPoly({(2 * exponent, 0): coeff.numerator})
            coeff_den = LaurentPoly.constant(coeff.denominator)
            for choice in _iproduct(*(model.atom(v).parts for v in word)):
                num, den = scaled, coeff_den
                for c, expr in choice:
                    num = num * c.num * value(expr)
                    den = den * c.den
                yield num, den

    return rational_sum(fractions())


def counting_polynomial(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    model: EvalModel,
    max_compositions: int = DEFAULT_COMPOSITION_CAP,
) -> RationalFn:
    """The motivic count of phase-(0,1] semistables of class v, pushed to its base.

    Classes in the shifted range (1, 2] evaluate through their negative, and
    classes outside both ranges count zero.  The log is summed over multisets
    of same-phase pieces, which the model's order-independent evaluation allows.
    Both range tests and the walk share one budget of max_compositions steps.
    """
    if len(v.beta) != lattice.rank:
        raise ValueError(f"class {v} has wrong rank for this lattice")
    budget = _Budget(max_compositions)
    in_range = _unit_range_test(lattice, charge, budget)
    for w in (v, -v):
        if in_range(w):
            gm = RationalFn.from_poly(LaurentPoly.t(2) - LaurentPoly.one())
            log_elem = _multiset_log(lattice, charge, w, in_range, budget)
            return gm * evaluate(log_elem, model)
    return RationalFn.zero()


def gv_from_polynomial(p: RationalFn | LaurentPoly, g: int) -> int:
    """Genus-g count read off a polynomial invariant.

    Flattens the polynomial, reads the Jordan census from its exponents
    (degree = t-exponent, size = s-exponent + 1), and applies the closed-form
    alternating count.  Requires an honest polynomial in Z[t, s].
    """
    if isinstance(p, RationalFn):
        q = p.as_poly()
    else:
        q = p
        if not q.is_integral():
            raise NotPolynomialError("polynomial has non-integer coefficients")
    if q.is_zero():
        return 0
    if any(a < 0 for (a, _) in q.terms):
        raise NotPolynomialError("negative t-exponents: not a polynomial invariant")
    cells = {(a, b + 1): c for (a, b), c in flat(q).items()}
    return census_count(JordanCensus(cells), g)
