"""Numerical classes, phases, and the inclusion-exclusion counting pipeline.

A class is a pair (beta, k) in the curve-class lattice plus the holomorphic
Euler number.  The central charge -k + (B + i omega) . beta assigns each
class an exact phase; counts of semistable objects enter as formal words of
delta letters, their logarithm is the alternating sum over ordered same-phase
decompositions, and evaluation happens in a split-stratum model: a word is
worth L^(sum of pairwise ext defects) times the product of its letters'
values.  Because that value ignores letter order, counting_polynomial sums
the log over multisets of pieces; the ordered log stays as its reference.
evaluate sums a word over its choices of one atom part per letter with
laurent.word_sum: one walk over packed numerators, one bucket sum per
denominator key.

Every piece of a splitting of v lies below v: v minus the piece is
effective or zero.  So a count walks down from its target once, subtracting
generators, and labels each class it reaches effective or not; that one
labelled set says whether the target is in range, whether each remainder is,
and which classes can be pieces.  One decomposition walk then lists the words
of every class, degree-zero classes (0, k) included, whose pieces are (0, j)
for j = 1..k.  It keeps only its current path, each frame's descendable
pieces in a bytearray, and makes a piece's NumClass when a word first takes
it, so its memory grows with the pieces and the path, not with the words.

Each count spends one Ledger, as gv's readout then does: the walk down (stage
"membership test"), the candidate pieces and the decomposition walk all draw
on it, and running out raises ResourceLimitError naming the stage.

Phase comparisons never touch floating point: two classes share a phase
exactly when their (Im Z, -Re Z) pairs are proportional with positive ratio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    WORK_CAP,
    AsymmetricDefectError,
    ConeNotPointedError,
    Frozen,
    Ledger,
    MissingAtomError,
    NotEffectiveError,
    NotPolynomialError,
    check_int,
    check_rational,
)
from .laurent import LaurentPoly, RationalFn, flat, word_sum
from .lefschetz import JordanCensus, census_count
from .linalg import dot
from .motives import MotiveExpr
from .stacks import StackClass, part_terms

# printed in every gv output; golden files pin its bytes
MODEL_NOTE = (
    "evaluation model: split strata with constant ext defect per class pair; "
    "the letters of a word multiply"
)

AtomParts = tuple[tuple[LaurentPoly, LaurentPoly, MotiveExpr], ...]  # an atom's parts, not normalised


class NumClass(NamedTuple):
    """A numerical class: curve part beta (a tuple of ints) and Euler pairing k, stored as given."""

    beta: tuple[int, ...]
    k: int

    def __neg__(self) -> "NumClass":
        return NumClass(tuple(-b for b in self.beta), -self.k)


class ClassLattice(Frozen):
    """The curve-class lattice with a spanning set of effective-cone generators.

    Immutable after construction, and every walk keeps its state in the
    call, so a lattice can be shared freely across threads.
    """

    __slots__ = ("rank", "generators")

    def __init__(self, rank: int, generators: Iterable[tuple[int, ...]]):
        rank = check_int(rank, "lattice rank")
        gens = tuple(tuple(check_int(c, "generator entry") for c in g) for g in generators)
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

    def classes_below(
        self,
        beta: tuple[int, ...],
        omega: tuple[Fraction, ...],
        ledger: Ledger,
    ) -> dict[tuple[int, ...], bool]:
        """Every class reached from beta by subtracting generators, labelled
        effective (zero or a sum of generators) or not.

        A generator of omega-degree above the current class's is never
        subtracted, so the walk stays at or above degree zero and reaches at
        most the monoid elements m of degree at most beta's, as beta - m.
        Coordinates no generator can move toward zero are dead ends.  Labels
        are read bottom-up by degree: b is effective when some b - g is.
        Each class expanded spends one ledger step.  Iterative, so deep
        classes cannot overflow the interpreter stack.
        """
        self.check_positive(omega)
        beta = tuple(check_int(b, "class entry") for b in beta)
        if len(beta) != self.rank:
            raise ValueError(f"class {beta} has wrong rank for this lattice")
        labels: dict[tuple[int, ...], bool] = {}
        zero = (0,) * self.rank
        # integer degrees: omega scaled to a common denominator
        scale = lcm(*(w.denominator for w in omega))
        scaled = [int(w * scale) for w in omega]

        def degree(b: tuple[int, ...]) -> int:
            return sum(w * c for w, c in zip(scaled, b))

        steps = [(g, degree(g)) for g in self.generators]
        sign_floor = [min((g[i] for g in self.generators), default=0) for i in range(self.rank)]
        sign_ceil = [max((g[i] for g in self.generators), default=0) for i in range(self.rank)]
        degrees: dict[tuple[int, ...], int] = {}  # expanded class -> scaled degree

        def children(b: tuple[int, ...], deg: int):
            for g, gdeg in steps:
                if gdeg <= deg:
                    yield tuple(x - y for x, y in zip(b, g)), deg - gdeg

        def reach(b: tuple[int, ...], deg: int) -> None:
            if b in labels or b in degrees:
                return
            if b == zero:
                labels[b] = True
            elif any(c < 0 <= sign_floor[i] or c > 0 >= sign_ceil[i] for i, c in enumerate(b)):
                labels[b] = False
            else:
                ledger.spend("membership test")
                degrees[b] = deg
                frontier.append(b)

        frontier: list[tuple[int, ...]] = []
        reach(beta, degree(beta))
        while frontier:
            b = frontier.pop()
            for child, deg in children(b, degrees[b]):
                reach(child, deg)
        for b in sorted(degrees, key=degrees.__getitem__):
            labels[b] = any(labels[child] for child, _ in children(b, degrees[b]))
        return labels

    def monoid_elements(self, omega: tuple[Fraction, ...], bound: Fraction) -> list[tuple[int, ...]]:
        """All nonzero monoid elements of omega-degree at most the bound."""
        self.check_positive(omega)
        zero = (0,) * self.rank
        seen = {zero}
        frontier = [zero]
        while frontier:
            current = frontier.pop()
            for g in self.generators:
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
        object.__setattr__(self, "b_field", tuple(check_rational(x, "B entry") for x in b_field))
        object.__setattr__(self, "omega", tuple(check_rational(x, "omega entry") for x in omega))
        if len(self.b_field) != len(self.omega):
            raise ValueError("B and omega must have the same length")

    def value(self, v: NumClass) -> tuple[Fraction, Fraction]:
        """Exact (real, imaginary) parts of the charge on v."""
        if len(v.beta) != len(self.omega):
            raise ValueError("class rank does not match the charge")
        re = -Fraction(v.k) + dot(self.b_field, v.beta)
        im = dot(self.omega, v.beta)
        return re, im


class FreeHallElement(Frozen):
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


def _same_phase_words(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    ledger: Ledger,
    multisets: bool,
) -> list[tuple[NumClass, ...]] | None:
    """Words of same-phase pieces summing to v, or None when v is outside the
    phase-(0,1] range.

    A degree-zero class (0, k) is in range when k > 0, and its pieces are the
    zero-dimensional classes (0, j) for j = 1..k.  Any other class is in range
    when beta is effective, and one walk down from beta
    (ClassLattice.classes_below) answers that, the range of every remainder
    and the candidate pieces: a piece p of a splitting leaves an effective or
    zero remainder, so p.beta is an effective class the walk reaches.  Each
    piece's k is forced by phase proportionality and must come out integral.

    One walk then lists the words of either kind of class.  It keeps only
    the frames on its current path: a remainder, its word so far, and a
    bytearray marking the pieces it can descend by.  A frame spends its steps
    in ascending order, then descends by its marked pieces from the top.  A
    remainder is descended into when it is (0, k') with k' > 0, or when its
    beta is effective and nonzero.  Pieces are held as their betas and ks,
    and a piece's NumClass is made when a word first takes it.  With
    multisets, each multiset of pieces is listed once, as the word whose
    pieces are in non-increasing order.
    """
    if len(v.beta) != lattice.rank:
        raise ValueError(f"class {v} has wrong rank for this lattice")
    lattice.check_positive(charge.omega)
    zero_beta = (0,) * lattice.rank
    if v.beta == zero_beta:
        if v.k <= 0:
            return None
        ledger.spend("pieces", v.k)
        effective, betas, ks = {}, [zero_beta] * v.k, range(1, v.k + 1)
    else:
        effective = lattice.classes_below(v.beta, charge.omega, ledger)
        if not effective[v.beta]:
            return None
        re_v, im_v = charge.value(v)
        slope = (-re_v) / im_v  # k - B.beta over omega.beta, shared by all pieces
        betas, ks = [], []
        for beta in sorted(b for b, label in effective.items() if label and b != zero_beta):
            ledger.spend("pieces")
            k_frac = dot(charge.b_field, beta) + slope * dot(charge.omega, beta)
            if k_frac.denominator == 1:
                betas.append(beta)
                ks.append(int(k_frac))
    made: dict[int, NumClass] = {}

    def piece(i: int) -> NumClass:
        p = made.get(i)
        if p is None:
            p = made[i] = NumClass(betas[i], ks[i])
        return p

    def minus(beta: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return beta if b is zero_beta else tuple([x - y for x, y in zip(beta, b)])

    words, path = [], []
    beta, k, acc, bound = v.beta, v.k, (), len(ks)
    while True:
        down = bytearray(bound)
        for i, b, j in zip(range(bound), betas, ks):
            ledger.spend("decompositions")
            rest, left = minus(beta, b), k - j
            if rest == zero_beta:  # unless v is (0, k), a zero-beta remainder has zero charge: left == 0
                if left == 0:
                    ledger.spend("decompositions")
                    words.append(acc + (piece(i),))
                elif left > 0:
                    down[i] = 1
            elif effective.get(rest, False):
                down[i] = 1
        path.append((beta, k, acc, down))
        while path and (i := path[-1][3].rfind(1)) < 0:
            path.pop()
        if not path:
            return words
        beta, k, acc, down = path[-1]
        del down[i:]
        beta, k, acc = minus(beta, betas[i]), k - ks[i], acc + (piece(i),)
        bound = i + 1 if multisets else len(ks)


def same_phase_decompositions(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    max_compositions: int = WORK_CAP,
) -> list[tuple[NumClass, ...]]:
    """Ordered decompositions of v into effective classes sharing v's phase.

    Finiteness comes from strictly positive omega-degrees.  One walk down
    from v decides its range, the range of every remainder and the candidate
    pieces; one ledger of max_compositions steps covers that walk, the
    pieces and the decompositions, so pathological inputs fail fast.
    """
    words = _same_phase_words(lattice, charge, v, Ledger(max_compositions), multisets=False)
    if words is None:
        raise NotEffectiveError(f"{v} is not in the phase-(0,1] effective range")
    return words


def semistable_log(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    max_compositions: int = WORK_CAP,
) -> FreeHallElement:
    """Inclusion-exclusion logarithm: sum over ordered same-phase decompositions
    of (-1)^{n-1}/n times the word of delta letters."""
    words = {}
    for decomposition in same_phase_decompositions(lattice, charge, v, max_compositions):
        n = len(decomposition)
        words[decomposition] = Fraction((-1) ** (n - 1), n)
    return FreeHallElement(words)


def _multiset_log(words: list[tuple[NumClass, ...]]) -> FreeHallElement:
    """The semistable log summed over multisets of same-phase pieces.

    A multiset of n pieces with multiplicities m_i stands for n!/prod m_i!
    ordered words of weight (-1)^{n-1}/n, so it carries (-1)^{n-1} (n-1)!/prod
    m_i!.  Its value equals theirs only under an evaluation that ignores
    letter order, which EvalModel's symmetric defects and commuting product give.
    """
    logs = {}
    for word in words:
        n = len(word)
        repeats = prod(factorial(m) for m in Counter(word).values())
        weight = Fraction((-1) ** (n - 1) * factorial(n - 1), repeats)
        logs[word[::-1]] = weight
    return FreeHallElement(logs)


def semistable_exp(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    log_table: Mapping[NumClass, FreeHallElement] | None = None,
    max_compositions: int = WORK_CAP,
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


class EvalModel(Frozen):
    """Per-class atoms plus a symmetric ext-defect table.

    The defect e(v1, v2) is the constant difference dim Ext^1 - dim Hom on the
    stratum of the pair; symmetry is forced (Serre duality plus vanishing Euler
    pairing on these classes), so asymmetric tables are rejected outright.
    Letters of a word combine by the product of their values, which is exact
    when each letter's cycle-support base is a point.  Symmetric defects and a
    commuting product make a word's value independent of letter order, which
    is what lets counting_polynomial sum the log over multisets of pieces
    instead of ordered words.

    Every atom is a tuple of (num, den, expr) parts, den nonzero: a
    document's parts as read, or a StackClass's coefficients split once into
    numerator and denominator.  The model is plain data and never changes.
    """

    __slots__ = ("atoms", "ext_defect")

    def __init__(
        self,
        atoms: Mapping[NumClass, StackClass | AtomParts],
        ext_defect: Iterable[tuple[NumClass, NumClass, int]] = (),
    ):
        table: dict[tuple[NumClass, NumClass], int] = {}
        for v1, v2, e in ext_defect:
            check_int(e, "ext defect")
            for key in ((v1, v2), (v2, v1)):
                if key in table and table[key] != e:
                    raise AsymmetricDefectError(f"ext defect not symmetric on {key[0]} and {key[1]}")
                table[key] = e
        split = lambda a: tuple((c.num, c.den, expr) for c, expr in a.parts) if isinstance(a, StackClass) else a
        object.__setattr__(self, "atoms", {v: split(a) for v, a in atoms.items()})
        object.__setattr__(self, "ext_defect", table)

    def atom(self, v: NumClass) -> AtomParts:
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
    linearly over words.  A letter with an empty atom (empty moduli) kills
    its word; the empty word is the unit and evaluates to 1.  The parts of
    each class the words take are normalised and made into part terms
    (stacks.part_terms) once per call, in the order the words first take
    the classes, and laurent.word_sum adds every choice of one part per
    letter: a walk over packed numerators, each prefix multiplied once.
    """
    letters = dict.fromkeys(v for word in f.words for v in word)
    terms = {v: part_terms(StackClass.from_fractions(model.atom(v))) for v in letters}
    defects = lambda word: sum(model.defect(a, b) for i, a in enumerate(word) for b in word[i + 1 :])
    return word_sum(terms, ((coeff, 2 * defects(word), word) for word, coeff in f.items()))


def counting_polynomial(
    lattice: ClassLattice,
    charge: CentralCharge,
    v: NumClass,
    model: EvalModel,
    ledger: Ledger | None = None,
) -> RationalFn:
    """The motivic count of phase-(0,1] semistables of class v, pushed to its base.

    Classes in the shifted range (1, 2] evaluate through their negative, and
    classes outside both ranges count zero.  The log is summed over multisets
    of same-phase pieces, which the model's order-independent evaluation allows.
    The count walks down from v, and from -v only when v is out of range; the
    two walks share no class, since a walk never goes below omega-degree zero
    and a start of degree zero or below expands only itself.  Both walks, the
    pieces and the decompositions spend one ledger: the caller's, or else a
    new one with the default cap.
    """
    ledger = ledger or Ledger()
    for w in (v, -v):
        words = _same_phase_words(lattice, charge, w, ledger, multisets=True)
        if words is not None:
            gm = RationalFn.from_poly(LaurentPoly.t(2) - LaurentPoly.one())
            return gm * evaluate(_multiset_log(words), model)
    return RationalFn.zero()


def polynomial_census(p: RationalFn | LaurentPoly) -> JordanCensus:
    """The Jordan census of an honest polynomial in Z[t, s], flattened: one cell
    per term, of degree its t-exponent and size its s-exponent + 1."""
    q = p.as_poly() if isinstance(p, RationalFn) else p
    if q.is_zero():
        return JordanCensus()
    if any(a < 0 for (a, _) in q.terms):
        raise NotPolynomialError("negative t-exponents: not a polynomial invariant")
    return JordanCensus({(a, b + 1): c for (a, b), c in flat(q).items()})


def gv_from_polynomial(p: RationalFn | LaurentPoly, g: int) -> int:
    """Genus-g count read off a polynomial invariant, through its census."""
    counts = census_count(polynomial_census(p), g)
    return counts[g] if counts else 0
