"""Phases, inclusion-exclusion decompositions, evaluation, and genus extraction."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

import pytest

from gvmot import counting, laurent
from gvmot.counting import (
    CentralCharge,
    ClassLattice,
    EvalModel,
    FreeHallElement,
    NumClass,
    _multiset_log,
    counting_polynomial,
    evaluate,
    gv_from_polynomial,
    same_phase_decompositions,
    semistable_exp,
    semistable_log,
)
from gvmot.errors import (
    AsymmetricDefectError,
    ConeNotPointedError,
    Ledger,
    MissingAtomError,
    NotEffectiveError,
    NotPolynomialError,
    OddWeightedDegreeError,
    ResourceLimitError,
)
from gvmot.laurent import LaurentPoly, RationalFn
from gvmot.lefschetz import GradedNilpotent, JordanCensus
from gvmot.linalg import _unpack, dot
from gvmot.motives import AbsMotive, Atom, over_point_from_betti, point_atom, smooth_from_betti, upsilon_rel
from gvmot.stacks import StackClass, part_terms, quotient_by_special_group, upsilon_stack
from gvmot.verify import random_atom_class, random_betti, random_effective, random_pointed_setup


@pytest.mark.parametrize(
    "value, name",
    [
        (LaurentPoly.one(), "_terms"),
        (RationalFn.one(), "num"),
        (ClassLattice(1, [(1,)]), "rank"),
        (FreeHallElement.letter(NumClass((1,), 0)), "words"),
        (EvalModel({}), "atoms"),
        (GradedNilpotent({0: 1}), "dims"),
        (StackClass.zero(), "parts"),
        (JordanCensus({(0, 1): 1}), "_mult"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_values_reject_setting_and_deleting_attributes(value, name):
    before = repr(value)
    for change in (lambda: setattr(value, name, None), lambda: delattr(value, name), lambda: setattr(value, "extra", 1)):
        with pytest.raises(AttributeError, match="is immutable"):
            change()
    assert repr(value) == before


def rank1() -> tuple[ClassLattice, CentralCharge]:
    return ClassLattice(1, [(1,)]), CentralCharge([Fraction(0)], [Fraction(1)])


def decompositions_rank1_oracle(charge: CentralCharge, v: NumClass, k_bound: int = 6):
    """Brute-force ordered same-phase decompositions for the rank-1 lattice (1,).

    Enumerates candidate pieces over an integer grid and keeps exactly those
    proportional to v's charge with positive ratio, then recurses on the
    remainder.  Independent of the production enumeration.
    """
    re_v, im_v = charge.value(v)

    def same_phase(piece: NumClass) -> bool:
        re_p, im_p = charge.value(piece)
        if re_p == 0 and im_p == 0:
            return False
        if im_p * re_v != im_v * re_p:
            return False
        direction = im_p if im_p else -re_p
        reference = im_v if im_v else -re_v
        return (direction > 0) == (reference > 0)

    pieces = []
    for m in range(0, v.beta[0] + 1):
        for k in range(-k_bound, k_bound + 1):
            if m == 0 and k <= 0:
                continue
            p = NumClass((m,), k)
            if same_phase(p):
                pieces.append(p)

    found = []

    def recurse(rem_beta: int, rem_k: int, acc):
        if rem_beta == 0 and rem_k == 0 and acc:
            found.append(tuple(acc))
        for p in pieces:
            if p.beta[0] <= rem_beta and (p.beta[0] > 0 or rem_beta == 0):
                if p.beta[0] == 0 and not (0 < p.k <= rem_k):
                    continue
                if p.beta[0] > 0 or p.k <= rem_k:
                    acc.append(p)
                    recurse(rem_beta - p.beta[0], rem_k - p.k, acc)
                    acc.pop()

    recurse(v.beta[0], v.k, [])
    return sorted(set(found))


def in_unit_range(lattice: ClassLattice, charge: CentralCharge, v: NumClass) -> bool:
    try:
        same_phase_decompositions(lattice, charge, v)
    except NotEffectiveError:
        return False
    return True


class TestPhase:
    """Membership in the phase-(0,1] range, the one range the counts use."""

    def test_zero_dimensional_class_in_unit_range(self):
        lat, z = rank1()
        assert in_unit_range(lat, z, NumClass((0,), 1)) and in_unit_range(lat, z, NumClass((0,), 3))
        assert not in_unit_range(lat, z, NumClass((0,), 0)) and not in_unit_range(lat, z, NumClass((0,), -2))

    def test_pure_curve_class_in_unit_range(self):
        lat, z = rank1()
        assert in_unit_range(lat, z, NumClass((3,), 0))

    def test_unit_euler_class_second_octant(self):
        # Re Z = -1 < 0, Im Z > 0: strictly between 1/2 and 1
        lat, z = rank1()
        assert in_unit_range(lat, z, NumClass((2,), 1))

    def test_negated_class_leaves_unit_range(self):
        lat, z = rank1()
        assert not in_unit_range(lat, z, NumClass((-2,), -1))


class TestDecompositions:
    def test_generator_has_single_decomposition(self):
        lat, z = rank1()
        e = NumClass((1,), 0)
        assert same_phase_decompositions(lat, z, e) == [(e,)]

    def test_double_class_matches_oracle(self):
        lat, z = rank1()
        v = NumClass((2,), 0)
        got = sorted(same_phase_decompositions(lat, z, v))
        assert got == decompositions_rank1_oracle(z, v)
        e = NumClass((1,), 0)
        assert got == sorted([(v,), (e, e)])

    def test_unit_euler_admits_no_splitting(self):
        lat, z = rank1()
        for m in (1, 2, 3):
            v = NumClass((m,), 1)
            assert same_phase_decompositions(lat, z, v) == [(v,)]

    def test_random_inputs_match_oracle(self):
        lat, z0 = rank1()
        rng = random.Random(51)
        for _ in range(40):
            b = tuple([Fraction(rng.randint(-1, 1))])
            z = CentralCharge(b, (Fraction(1),))
            v = NumClass((rng.randint(1, 4),), rng.randint(-3, 3))
            got = sorted(same_phase_decompositions(lat, z, v))
            assert got == decompositions_rank1_oracle(z, v)

    def test_words_come_in_the_order_of_pieces_sorted_by_beta(self):
        # (0, 2) sorts before (1, 0) but has the higher degree
        lat = ClassLattice(2, [(1, 0), (0, 1)])
        z = CentralCharge([0, 0], [1, 1])
        v = NumClass((1, 2), 0)
        words = same_phase_decompositions(lat, z, v)
        assert len(words) == 8
        assert words == decompositions_oracle(lat, z, v, Ledger(10**6))

    def test_phase_one_pieces_are_integer_compositions(self):
        lat, z = rank1()
        decomps = same_phase_decompositions(lat, z, NumClass((0,), 3))
        assert len(decomps) == 4  # compositions of 3
        for d in decomps:
            assert all(p.beta == (0,) and p.k > 0 for p in d)

    def test_composition_counts(self):
        # ordered decompositions of m over one generator: 2^{m-1}
        lat, z = rank1()
        for m in range(1, 8):
            assert len(same_phase_decompositions(lat, z, NumClass((m,), 0))) == 2 ** (m - 1)
            assert len(same_phase_decompositions(lat, z, NumClass((0,), m))) == 2 ** (m - 1)

    def test_not_effective(self):
        lat, z = rank1()
        with pytest.raises(NotEffectiveError):
            same_phase_decompositions(lat, z, NumClass((-1,), 1))
        with pytest.raises(NotEffectiveError):
            same_phase_decompositions(lat, z, NumClass((0,), -2))

    def test_cone_not_pointed(self):
        lat = ClassLattice(1, [(1,)])
        with pytest.raises(ConeNotPointedError):
            lat.check_positive((Fraction(-1),))
        with pytest.raises(ConeNotPointedError):
            same_phase_decompositions(lat, CentralCharge([0], [-1]), NumClass((1,), 0))

    def test_resource_limit(self):
        lat, z = rank1()
        with pytest.raises(ResourceLimitError):
            same_phase_decompositions(lat, z, NumClass((4,), 0), max_compositions=2)

    def test_membership_search_spends_the_budget(self):
        # (41, 40) is not in the monoid of (2,0), (0,2); deciding that visits
        # hundreds of lattice points, which a cap of 10 must stop
        lat = ClassLattice(2, [(2, 0), (0, 2)])
        z = CentralCharge([0, 0], [1, 1])
        v = NumClass((41, 40), 0)
        with pytest.raises(NotEffectiveError):
            same_phase_decompositions(lat, z, v)
        with pytest.raises(ResourceLimitError, match="^membership test: "):
            same_phase_decompositions(lat, z, v, max_compositions=10)
        assert counting_polynomial(lat, z, v, EvalModel({})) == RationalFn.zero()
        with pytest.raises(ResourceLimitError, match="^membership test: "):
            counting_polynomial(lat, z, v, EvalModel({}), ledger=Ledger(10))

    @pytest.mark.parametrize(
        "v, cap, stage",
        [
            (NumClass((20,), 0), 25, "pieces"),
            (NumClass((0,), 10**9), 10, "pieces"),
            (NumClass((0,), 12), 100, "decompositions"),
        ],
    )
    def test_cap_error_names_stage_and_cap(self, v, cap, stage):
        # the degree-zero class spends its k pieces before building any
        lat, z = rank1()
        with pytest.raises(ResourceLimitError, match=rf"^{stage}: \d+ enumeration steps exceed the cap of {cap}$"):
            same_phase_decompositions(lat, z, v, max_compositions=cap)


class TestLogExp:
    def test_generator_log_is_single_letter(self):
        lat, z = rank1()
        e = NumClass((1,), 0)
        assert semistable_log(lat, z, e) == FreeHallElement.letter(e)

    def test_double_class_log(self):
        lat, z = rank1()
        e = NumClass((1,), 0)
        v = NumClass((2,), 0)
        expected = FreeHallElement(
            {
                (v,): 1,
                (e, e): Fraction(-1, 2),
            }
        )
        assert semistable_log(lat, z, v) == expected

    def test_double_class_exp(self):
        lat, z = rank1()
        e = NumClass((1,), 0)
        v = NumClass((2,), 0)
        log_table = {
            v: FreeHallElement.letter(v),
            e: FreeHallElement.letter(e),
        }
        expected = FreeHallElement(
            {
                (v,): 1,
                (e, e): Fraction(1, 2),
            }
        )
        assert semistable_exp(lat, z, v, log_table=log_table) == expected

    def test_roundtrip_random_cones(self):
        rng = random.Random(52)
        for _ in range(40):
            lattice, charge = random_pointed_setup(rng)
            beta = random_effective(rng, lattice, charge.omega, bound=5)
            if beta is None:
                continue
            v = NumClass(beta, rng.randint(-2, 2))
            assert semistable_exp(lattice, charge, v) == FreeHallElement.letter(v)

    def test_unit_euler_log_is_delta(self):
        rng = random.Random(53)
        for _ in range(40):
            lattice, _ = random_pointed_setup(rng)
            charge = CentralCharge((Fraction(0),) * lattice.rank, tuple(Fraction(1) for _ in range(lattice.rank)))
            try:
                lattice.check_positive(charge.omega)
            except ConeNotPointedError:
                continue
            beta = random_effective(rng, lattice, charge.omega, bound=5)
            if beta is None:
                continue
            v = NumClass(beta, 1)
            assert semistable_log(lattice, charge, v) == FreeHallElement.letter(v)


def conifold_model() -> tuple[ClassLattice, CentralCharge, EvalModel]:
    lat, z = rank1()
    gm = AbsMotive.multiplicative_group()
    point_class = quotient_by_special_group(point_atom(), gm)
    atoms = {}
    for m in (1, 2, 3):
        for k in (1, -1):
            atoms[NumClass((m,), k)] = point_class if m == 1 else StackClass.zero()
    return lat, z, EvalModel(atoms)


class TestEvaluate:
    def test_single_letter_is_stack_value(self):
        lat, z, model = conifold_model()
        v = NumClass((1,), 1)
        value = evaluate(FreeHallElement.letter(v), model)
        assert value == upsilon_stack(StackClass.from_fractions(model.atom(v)))

    def test_commutator_vanishes(self):
        v1 = NumClass((1,), 0)
        v2 = NumClass((2,), 1)
        x = smooth_from_betti([1, 0, 1], 1)
        model = EvalModel(
            {v1: StackClass.of_variety(x), v2: StackClass.of_variety(point_atom())},
            [(v1, v2, 3)],
        )
        f1, f2 = FreeHallElement.letter(v1), FreeHallElement.letter(v2)
        assert evaluate(f1.commutator(f2), model) == RationalFn.zero()

    def test_two_letter_word_hand_expansion(self):
        # defect 3 contributes t^6; the default combinator multiplies values
        v1 = NumClass((1,), 0)
        v2 = NumClass((2,), 1)
        x = smooth_from_betti([1, 0, 1, 0, 1], 2)
        model = EvalModel(
            {v1: StackClass.of_variety(x), v2: StackClass.of_variety(x)},
            [(v1, v2, 3)],
        )
        word = FreeHallElement({(v1, v2): 1})
        expected = RationalFn.from_poly(
            LaurentPoly.t(6) * upsilon_rel(x) * upsilon_rel(x)
        )
        assert evaluate(word, model) == expected

    def test_missing_atom(self):
        lat, z, model = conifold_model()
        with pytest.raises(MissingAtomError):
            evaluate(FreeHallElement.letter(NumClass((4,), 1)), model)

    def test_asymmetric_defect_rejected(self):
        v1, v2 = NumClass((1,), 0), NumClass((2,), 1)
        with pytest.raises(AsymmetricDefectError):
            EvalModel({}, [(v1, v2, 1), (v2, v1, 2)])

    def test_word_permutation_invariance(self):
        rng = random.Random(54)
        classes = [NumClass((i + 1,), i % 2) for i in range(3)]
        x = smooth_from_betti([1, 0, 1], 1)
        defects = []
        for i, a in enumerate(classes):
            for b in classes[i:]:
                defects.append((a, b, rng.randint(-2, 3)))
        model = EvalModel({c: StackClass.of_variety(x) for c in classes}, defects)
        for _ in range(30):
            word = [rng.choice(classes) for _ in range(rng.randint(2, 4))]
            shuffled = word[:]
            rng.shuffle(shuffled)
            lhs = evaluate(FreeHallElement({tuple(word): 1}), model)
            rhs = evaluate(FreeHallElement({tuple(shuffled): 1}), model)
            assert lhs == rhs


# -- oracle: every part choice multiplied out, the expansion evaluate's walk replaced --


def rational_sum_oracle(pairs) -> RationalFn:
    """The sum of the fractions num/den, bucketed by denominator up to a signed
    unit and a t-shift: one dict numerator per bucket over the key times the
    lcm of the units seen, each bucket normalised, added in opening order."""
    buckets = {}
    for num, den in pairs:
        if num.is_zero():
            continue
        unit = den.content() if den.leading_term()[1] > 0 else -den.content()
        dt = den.min_t_exponent()
        key = LaurentPoly({(a - dt, b): c // unit for (a, b), c in den.items()})
        m, acc = buckets.get(key, (1, {}))
        m_new = lcm(m, unit)
        acc = {term: c * (m_new // m) for term, c in acc.items()}
        for (a, b), c in num.items():
            acc[(a - dt, b)] = acc.get((a - dt, b), 0) + c * (m_new // unit)
        buckets[key] = (m_new, acc)
    parts = [RationalFn(LaurentPoly(acc), key.scale(m)) for key, (m, acc) in buckets.items()]
    return sum(parts[1:], parts[0]) if parts else RationalFn.zero()


def evaluate_oracle(f: FreeHallElement, model: EvalModel) -> RationalFn:
    """Each part choice of each word as one LaurentPoly product of numerators
    over one of denominators, all added by rational_sum_oracle."""
    letters = dict.fromkeys(v for word in f.words for v in word)
    terms = {v: part_terms(StackClass.from_fractions(model.atom(v))) for v in letters}

    def fractions():
        for word, coeff in f.items():
            exponent = sum(model.defect(a, b) for i, a in enumerate(word) for b in word[i + 1 :])
            scaled = LaurentPoly({(2 * exponent, 0): coeff.numerator})
            coeff_den = LaurentPoly.constant(coeff.denominator)
            for choice in iproduct(*(terms[v] for v in word)):
                num, den = scaled, coeff_den
                for part_num, part_den in choice:
                    num = num * part_num
                    den = den * part_den
                yield num, den

    return rational_sum_oracle(fractions())


def edge_int(rng: random.Random, bits: int) -> int:
    """An int of at most bits bits, often at an edge: 0, 1, 2^j - 1 or 2^j, either sign."""
    j = rng.randint(0, bits)
    c = rng.choice((0, 1, 2**j - 1, 2**j, rng.randint(0, 2**j)))
    return c if rng.random() < 0.5 else -c


T, S, ONE = LaurentPoly.t(1), LaurentPoly.s(1), LaurentPoly.one()
KEYS = [ONE, T * T - ONE, (T * T - ONE) * (T * T - ONE), T + ONE, S + T * T, T.scale(2) - ONE.scale(3)]
EXPRS = [point_atom(), over_point_from_betti([1, 0, 1]), smooth_from_betti([1, 0, 2, 0, 1], 2), Atom("x", 1, JordanCensus({(0, 2): 1, (-1, 1): 2}))]


def random_eval_case(rng: random.Random):
    """A free Hall element over up to three classes and a model for it.

    Parts have s-terms, negative t-exponents and coefficients of 0-300 bits
    of both signs, over denominators that are a pool key times a t-shift and
    a signed unit (2, 4, 6 ...: products of units over a word need not
    divide their lcm).  Atoms may be empty and numerators zero; defects run
    -3..3; words repeat letters.  On some cases the element is g - g', g'
    being g with a letter renamed to a copy of it (same atom, same
    defects), so every bucket cancels.
    """
    bits = rng.choice((0, 8, 64, 300))
    classes = [NumClass((i,), 0) for i in range(1, 4)]

    def part():
        num = LaurentPoly({(rng.randint(-3, 3), rng.choice((0, 0, 1, 2))): edge_int(rng, bits) for _ in range(rng.randint(0, 3))})
        unit = rng.choice((1, -1, 2, -2, 3, 4, 6, -9, edge_int(rng, bits) or 5))
        den = rng.choice(KEYS).shift(rng.randint(-2, 2)).scale(unit)
        return num, den, rng.choice(EXPRS)

    atoms = {v: tuple(part() for _ in range(rng.choice((0, 1, 1, 2, 3)))) for v in classes}
    defects = {(a, b): rng.randint(-3, 3) for i, a in enumerate(classes) for b in classes[i:]}
    words = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(classes) for _ in range(rng.randint(0, 3)))
        words[word] = Fraction(edge_int(rng, bits) or 1, abs(edge_int(rng, bits)) or 1)
    if rng.random() < 0.25:
        v, copy = classes[0], NumClass((9,), 0)
        atoms[copy] = atoms[v]
        defects.update({(copy, b): e for (a, b), e in defects.items() if a == v})
        defects.update({(copy, a): e for (a, b), e in defects.items() if b == v})
        defects[(copy, copy)] = defects[(copy, v)] = defects[(v, v)]
        words.update({tuple(copy if x == v else x for x in word): -c for word, c in list(words.items()) if v in word})
    return FreeHallElement(words), EvalModel(atoms, [(a, b, e) for (a, b), e in defects.items()])


class TestEvaluateOracle:
    """evaluate's walk gives the exact (num, den) of the part-choice expansion it
    replaced, in the packed layout and on LaurentPoly values alike."""

    def test_matches_expansion_on_random_models(self, monkeypatch):
        rng = random.Random(34)
        unpacked = []
        monkeypatch.setattr(laurent, "_unpack", lambda *args: unpacked.append(args) or _unpack(*args))
        seen = Counter()
        for _ in range(300):
            f, model = random_eval_case(rng)
            want = evaluate_oracle(f, model)
            for rule, side in ((0, "dict"), (laurent.SLOTS_PER_TERM, None), (10**9, "packed")):
                monkeypatch.setattr(laurent, "SLOTS_PER_TERM", rule)
                calls = len(unpacked)
                got = evaluate(f, model)
                assert (got.num, got.den) == (want.num, want.den), (f.words, model.atoms)
                if side is None and len(unpacked) > calls:
                    seen["rule packs"] += 1
                elif side is None:
                    seen["rule keeps dicts"] += 1
            seen["all buckets cancel"] += want.is_zero() and any(word and all(model.atom(v) for v in word) for word in f.words)
            seen["s-terms"] += any(b for p in model.atoms.values() for num, _, _ in p for (_, b) in num.terms)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 63, 64, 300])
    def test_slot_holds_a_coefficient_at_its_bound(self, bits):
        # one word of one letter, one or two constant parts over the key 1:
        # the bound on the slots is the coefficient the bucket holds
        v = NumClass((1,), 0)
        c = 2**bits - 1
        for parts in ([c], [-c], [c - 1, 1], [-(c - 1), -1]):
            model = EvalModel({v: tuple((LaurentPoly.constant(x), ONE, point_atom()) for x in parts)})
            got = evaluate(FreeHallElement.letter(v), model)
            assert (got.num, got.den) == (LaurentPoly.constant(sum(parts)), ONE)

    def test_every_bucket_cancels(self):
        v, w = NumClass((1,), 0), NumClass((2,), 0)
        atom = ((T.shift(-3) + S, (T * T - ONE).scale(-4), point_atom()), (ONE.scale(7), T + ONE, point_atom()))
        model = EvalModel({v: atom, w: atom}, [(v, v, -2), (w, w, -2), (v, w, -2)])
        f = FreeHallElement({(v, v): Fraction(3, 5), (w, w): Fraction(-3, 5), (v,): 2, (w,): -2})
        assert evaluate_oracle(f, model).is_zero()
        got = evaluate(f, model)
        assert (got.num, got.den) == (LaurentPoly.zero(), ONE)


class TestCountingPolynomial:
    def test_conifold_unit_class(self):
        lat, z, model = conifold_model()
        assert counting_polynomial(lat, z, NumClass((1,), 1), model) == RationalFn.one()

    def test_conifold_multiples_vanish(self):
        lat, z, model = conifold_model()
        for m in (2, 3):
            assert counting_polynomial(lat, z, NumClass((m,), 1), model) == RationalFn.zero()

    def test_negative_rule(self):
        lat, z, model = conifold_model()
        for m in (1, 2, 3):
            direct = counting_polynomial(lat, z, NumClass((m,), 1), model)
            flipped = counting_polynomial(lat, z, NumClass((-m,), -1), model)
            assert direct == flipped

    def test_off_cone_class_counts_zero(self):
        lat, z, model = conifold_model()
        assert counting_polynomial(lat, z, NumClass((0,), 0), model) == RationalFn.zero()

    def test_betti_shadow(self):
        lat, z = rank1()
        rng = random.Random(55)
        gm = AbsMotive.multiplicative_group()
        for _ in range(10):
            b2, b3 = rng.randint(0, 100), rng.randint(0, 100)
            bettis = [1, 0, b2, b3, b2, 0, 1]
            atom = over_point_from_betti(bettis)
            v = NumClass((0,), 1)
            model = EvalModel({v: quotient_by_special_group(atom, gm)})
            value = counting_polynomial(lat, z, v, model)
            assert value == RationalFn.from_poly(
                LaurentPoly({(i, 0): b for i, b in enumerate(bettis) if b})
            )

    def test_missing_atom_propagates(self):
        lat, z = rank1()
        model = EvalModel({})
        with pytest.raises(MissingAtomError):
            counting_polynomial(lat, z, NumClass((2,), 1), model)

    def test_charge_independence_on_example_data(self):
        # transformation coefficients under charge changes are out of scope;
        # invariance of the count is checked on the worked examples instead
        lat, _, model = conifold_model()
        reference = {}
        for b in (Fraction(0), Fraction(1, 2), Fraction(-1, 3)):
            for w in (Fraction(1), Fraction(2), Fraction(5, 2)):
                z = CentralCharge([b], [w])
                for m in (-2, -1, 1, 2):
                    value = counting_polynomial(lat, z, NumClass((m,), 1), model)
                    if m in reference:
                        assert value == reference[m], (b, w, m)
                    else:
                        reference[m] = value

        gm = AbsMotive.multiplicative_group()
        atom = over_point_from_betti([1, 0, 4, 10, 4, 0, 1])
        v = NumClass((0,), 1)
        shadow_model = EvalModel({v: quotient_by_special_group(atom, gm)})
        values = {
            counting_polynomial(lat, CentralCharge([b], [w]), v, shadow_model).num
            for b in (Fraction(0), Fraction(1, 2))
            for w in (Fraction(1), Fraction(3))
        }
        assert len(values) == 1


class TestMultisetLog:
    """counting_polynomial sums the log over multisets of pieces; (L-1) times the
    evaluated ordered-word log is its oracle."""

    def test_matches_ordered_log_oracle(self):
        rng = random.Random(55)
        gm = RationalFn.from_poly(LaurentPoly.t(2) - LaurentPoly.one())
        split = 0
        for case in range(30):
            rank = 1 + case % 2
            lattice, charge = random_pointed_setup(rng, rank)
            if case % 5 == 0:
                v = NumClass((0,) * rank, rng.randint(1, 5))
            else:
                beta = random_effective(rng, lattice, charge.omega, bound=6 - 2 * rank)
                if beta is None:
                    continue
                # Re Z = 0 gives every piece an integral k, so the class splits
                v = NumClass(beta, int(sum(b * c for b, c in zip(charge.b_field, beta))))
            words = same_phase_decompositions(lattice, charge, v)
            split += len(words) > 1
            pieces = sorted({piece for word in words for piece in word})
            atoms = {piece: random_atom_class(rng) for piece in pieces}
            defects = [(a, b, rng.randint(-2, 3)) for i, a in enumerate(pieces) for b in pieces[i:]]
            model = EvalModel(atoms, defects)
            expected = gm * evaluate(semistable_log(lattice, charge, v), model)
            assert counting_polynomial(lattice, charge, v, model) == expected
            assert counting_polynomial(lattice, charge, -v, model) == expected
        assert split >= 10

    def test_one_walk_down_per_count(self, monkeypatch):
        walks = []
        spent = Counter()

        class RecordingLattice(ClassLattice):
            def classes_below(self, beta, omega, budget):
                walks.append(tuple(beta))
                return super().classes_below(beta, omega, budget)

        class RecordingLedger(Ledger):
            def spend(self, stage, n=1):
                spent[stage] += n
                super().spend(stage, n)

        monkeypatch.setattr(counting, "Ledger", RecordingLedger)
        lattice = RecordingLattice(2, [(1, 0), (0, 1)])
        charge = CentralCharge([0, 0], [1, 1])
        v = NumClass((2, 2), 0)
        pieces = {piece for word in same_phase_decompositions(lattice, charge, v) for piece in word}
        model = EvalModel({piece: StackClass.of_variety(point_atom()) for piece in pieces})
        # -v = (-2, -2) is a dead end that costs no step; v is then walked once
        for target, expected in ((v, [(2, 2)]), (-v, [(-2, -2), (2, 2)])):
            walks.clear()
            spent.clear()
            counting_polynomial(lattice, charge, target, model)
            assert walks == expected
            # each of the eight nonzero classes of [0, 2]^2 is expanded once
            assert spent["membership test"] == 8


# -- oracle: the search and the piece list that the walk down replaced ----------


def is_effective_oracle(lattice, beta, omega, memo, budget) -> bool:
    """Membership of beta in the monoid of the generators: a DFS down from
    beta that stops at the first path to zero, memoised across calls.

    It prunes as ClassLattice.classes_below does and spends one budget step
    per class it expands.
    """
    zero = (0,) * lattice.rank
    degrees = [dot(omega, g) for g in lattice.generators]
    floor = [min(g[i] for g in lattice.generators) for i in range(lattice.rank)]
    ceil = [max(g[i] for g in lattice.generators) for i in range(lattice.rank)]

    def hopeless(b):
        return any(c < 0 <= floor[i] or c > 0 >= ceil[i] for i, c in enumerate(b))

    def children(b):
        deg = dot(omega, b)
        return [tuple(x - y for x, y in zip(b, g)) for g, gdeg in zip(lattice.generators, degrees) if gdeg <= deg]

    if beta == zero:
        return True
    frames = [[beta, None, 0]]
    while frames:
        frame = frames[-1]
        b = frame[0]
        if b in memo:
            frames.pop()
            continue
        if hopeless(b):
            memo[b] = False
            frames.pop()
            continue
        if frame[1] is None:
            budget.spend("membership test")
            frame[1] = children(b)
        descended = False
        while frame[2] < len(frame[1]):
            child = frame[1][frame[2]]
            if child == zero or memo.get(child) is True:
                memo[b] = True
                break
            if child in memo:
                frame[2] += 1
                continue
            frames.append([child, None, 0])
            descended = True
            break
        else:
            memo[b] = False
        if not descended and b in memo:
            frames.pop()
    return memo[beta]


def degree_ball_oracle(lattice, omega, bound, budget) -> list[tuple[int, ...]]:
    """Every nonzero monoid element of omega-degree at most the bound, walked
    up from zero, one budget step per generator tried."""
    zero = (0,) * lattice.rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        current = frontier.pop()
        for g in lattice.generators:
            budget.spend("pieces")
            candidate = tuple(x + y for x, y in zip(current, g))
            if candidate not in seen and dot(omega, candidate) <= bound:
                seen.add(candidate)
                frontier.append(candidate)
    seen.discard(zero)
    return sorted(seen)


def same_phase_words_oracle(lattice, charge, v, budget, multisets, memo):
    """Splittings of v over every piece of the degree ball, each remainder
    tested by is_effective_oracle; None when v is out of range."""
    lattice.check_positive(charge.omega)
    zero_beta = (0,) * lattice.rank

    def in_range(c):
        if c.beta == zero_beta:
            return c.k > 0
        return is_effective_oracle(lattice, c.beta, charge.omega, memo, budget)

    if not in_range(v):
        return None
    if v.beta == zero_beta:
        budget.spend("pieces", v.k)
        pieces = [NumClass(zero_beta, j) for j in range(1, v.k + 1)]
    else:
        re_v, im_v = charge.value(v)
        slope = (-re_v) / im_v
        pieces = []
        for beta in degree_ball_oracle(lattice, charge.omega, im_v, budget):
            budget.spend("pieces")
            k_frac = dot(charge.b_field, beta) + slope * dot(charge.omega, beta)
            if k_frac.denominator == 1:
                pieces.append(NumClass(beta, int(k_frac)))
    words = []
    walk = [(v, len(pieces), ())]
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


def decompositions_oracle(lattice, charge, v, budget):
    words = same_phase_words_oracle(lattice, charge, v, budget, False, {})
    return NotEffectiveError if words is None else words


def counting_polynomial_oracle(lattice, charge, v, model, budget):
    memo = {}
    for w in (v, -v):
        words = same_phase_words_oracle(lattice, charge, w, budget, True, memo)
        if words is not None:
            gm = RationalFn.from_poly(LaurentPoly.t(2) - LaurentPoly.one())
            return gm * evaluate_oracle(_multiset_log(words), model)
    return RationalFn.zero()


def random_walk_setup(rng: random.Random):
    """Rank 1-3, generators with entries -1..3, omega and B entries p/q, a
    target that is degree-zero, effective or arbitrary, and a cap of 10..10^6."""
    rank = rng.randint(1, 3)
    omega = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(rank))
    generators = []
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.randint(-1, 3) for _ in range(rank))
        if any(g) and dot(omega, g) > 0:
            generators.append(g)
    lattice = ClassLattice(rank, generators or [(1,) * rank])
    b_field = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rank))
    charge = CentralCharge(b_field, omega)
    roll = rng.random()
    if roll < 0.15:
        v = NumClass((0,) * rank, rng.randint(-4, 4))
    else:
        if roll < 0.6:
            beta = random_effective(rng, lattice, omega, bound=rng.randint(1, 6)) or (1,) * rank
        else:
            beta = tuple(rng.randint(-4, 5) for _ in range(rank))
        b_beta = dot(b_field, beta)
        # k = B.beta makes Re Z vanish, so every piece's k is integral
        k = int(b_beta) if b_beta.denominator == 1 and rng.random() < 0.6 else rng.randint(-4, 5)
        v = NumClass(beta, k)
    return lattice, charge, v, int(10 ** rng.uniform(1, 6))


class TestWalkDownOracle:
    """One walk down from the target gives the words, counts and verdicts of
    the membership search and degree-ball piece list it replaced, and never
    spends more of the budget."""

    def test_matches_oracle_on_random_setups(self, monkeypatch):
        budgets = []

        class RecordingLedger(Ledger):
            def __init__(self, cap):
                super().__init__(cap)
                budgets.append(self)

        def run(fn, *args, cap):
            budgets.clear()
            try:
                # counting_polynomial spends the caller's ledger; the others build one from the cap
                result = fn(*args, RecordingLedger(cap) if fn is counting_polynomial else cap)
            except (NotEffectiveError, ResourceLimitError) as exc:
                result = type(exc)
            return result, sum(b.spent for b in budgets)

        def run_oracle(fn, *args, cap):
            budget = Ledger(cap)
            try:
                result = fn(*args, budget)
            except ResourceLimitError:
                result = ResourceLimitError
            return result, budget.spent

        monkeypatch.setattr(counting, "Ledger", RecordingLedger)
        rng = random.Random(56)
        finished = split = 0
        for _ in range(300):
            lattice, charge, v, cap = random_walk_setup(rng)
            expected, oracle_spent = run_oracle(decompositions_oracle, lattice, charge, v, cap=cap)
            if expected is ResourceLimitError:
                continue
            got, spent = run(same_phase_decompositions, lattice, charge, v, cap=cap)
            assert got == expected, (lattice.generators, charge, v, cap)
            assert spent <= oracle_spent
            finished += 1
            # a model over the pieces of whichever of v, -v is in range
            pieces = set()
            for w in (v, -v):
                words, _ = run_oracle(decompositions_oracle, lattice, charge, w, cap=10**6)
                if isinstance(words, list):
                    pieces.update(piece for word in words for piece in word)
                    split += len(words) > 1
            ordered = sorted(pieces)
            atoms = {piece: StackClass.of_variety(smooth_from_betti(random_betti(rng, 1), 1)) for piece in ordered}
            defects = [(a, b, rng.randint(-2, 3)) for i, a in enumerate(ordered) for b in ordered[i:]]
            model = EvalModel(atoms, defects)
            counts = []
            for target in (v, -v):
                count, oracle_spent = run_oracle(counting_polynomial_oracle, lattice, charge, target, model, cap=cap)
                if count is ResourceLimitError:
                    continue
                got, spent = run(counting_polynomial, lattice, charge, target, model, cap=cap)
                assert got == count, (lattice.generators, charge, target, cap)
                assert spent <= oracle_spent
                counts.append(count)
            assert all(count == counts[0] for count in counts)
        assert finished >= 250 and split >= 30


def pushed_walk_oracle(lattice, charge, v, ledger, multisets):
    """counting._same_phase_words as it was before it kept only the path:
    each remainder pushes every remainder below it before it descends."""
    lattice.check_positive(charge.omega)
    zero_beta = (0,) * lattice.rank
    if v.beta == zero_beta:
        if v.k <= 0:
            return None
        ledger.spend("pieces", v.k)
        pieces = [NumClass(zero_beta, j) for j in range(1, v.k + 1)]
        effective = {}
    else:
        effective = lattice.classes_below(v.beta, charge.omega, ledger)
        if not effective[v.beta]:
            return None
        re_v, im_v = charge.value(v)
        slope = (-re_v) / im_v
        pieces = []
        for beta in sorted(b for b, label in effective.items() if label and b != zero_beta):
            ledger.spend("pieces")
            k_frac = dot(charge.b_field, beta) + slope * dot(charge.omega, beta)
            if k_frac.denominator == 1:
                pieces.append(NumClass(beta, int(k_frac)))
    words = []
    walk = [(v, len(pieces), ())]
    while walk:
        rem, bound, acc = walk.pop()
        for i in range(bound):
            ledger.spend("decompositions")
            p = pieces[i]
            nxt = NumClass(tuple(x - y for x, y in zip(rem.beta, p.beta)), rem.k - p.k)
            if nxt.beta == zero_beta and nxt.k == 0:
                ledger.spend("decompositions")
                words.append(acc + (p,))
            elif nxt.k > 0 if nxt.beta == zero_beta else effective.get(nxt.beta, False):
                walk.append((nxt, i + 1 if multisets else len(pieces), acc + (p,)))
    return words


class SpendLog(Ledger):
    """A ledger that records every spend, in order."""

    def __init__(self, cap):
        super().__init__(cap)
        self.log = []

    def spend(self, stage, n=1, what="enumeration steps"):
        self.log.append((stage, n, what))
        super().spend(stage, n, what)


class TestPathWalk:
    """The decomposition walk keeps only the frames along its path, and gives
    the words, in order, and the ledger spends, in order, of the walk that
    pushed every remainder before it descended."""

    @staticmethod
    def outcome(walk, lattice, charge, v, cap, multisets):
        ledger = SpendLog(cap)
        try:
            result = walk(lattice, charge, v, ledger, multisets)
        except ResourceLimitError as exc:
            result = str(exc)
        return result, ledger.log

    def test_matches_pushed_walk_on_random_setups(self):
        rng = random.Random(61)
        outcomes = Counter()
        for _ in range(600):
            lattice, charge, v, cap = random_walk_setup(rng)
            beta = random_effective(rng, lattice, charge.omega, bound=rng.randint(2, 8))
            if beta and rng.random() < 0.5 and dot(charge.b_field, beta).denominator == 1:
                v = NumClass(beta, int(dot(charge.b_field, beta)))  # a target that splits
            cap = min(cap, 20000)
            for multisets in (False, True):
                expected = self.outcome(pushed_walk_oracle, lattice, charge, v, cap, multisets)
                got = self.outcome(counting._same_phase_words, lattice, charge, v, cap, multisets)
                assert got == expected, (lattice.generators, charge, v, cap, multisets)
                words = expected[0]
                if isinstance(words, list):
                    outcomes["finished"] += 1
                    outcomes["split"] += any(len(word) > 2 for word in words)
                else:
                    outcomes["out of range" if words is None else "capped"] += 1
        assert outcomes["split"] >= 100 and outcomes["capped"] >= 10, outcomes

    def test_matches_pushed_walk_on_degree_zero_targets(self):
        # random_walk_setup draws (0, k) only with |k| <= 4; here k runs to 40,
        # through full enumerations and walks the cap stops part way
        rng = random.Random(67)
        outcomes = Counter()
        for _ in range(120):
            lattice, charge, _, _ = random_walk_setup(rng)
            v = NumClass((0,) * lattice.rank, rng.randint(1, 40))
            cap = int(10 ** rng.uniform(1, 5))
            for multisets in (False, True) if v.k <= 18 else (True,):
                expected = self.outcome(pushed_walk_oracle, lattice, charge, v, cap, multisets)
                got = self.outcome(counting._same_phase_words, lattice, charge, v, cap, multisets)
                assert got == expected, (lattice.rank, v, cap, multisets)
                outcomes["finished" if isinstance(expected[0], list) else "capped"] += 1
        assert outcomes["finished"] >= 40 and outcomes["capped"] >= 40, outcomes

    def test_capped_walk_keeps_only_its_path(self):
        # the old walk held every remainder of the first level, each with its
        # word so far, at once; the path holds one index per remainder
        import tracemalloc

        lat, z = rank1()
        v = NumClass((0,), 4000)
        peaks = []
        for walk in (pushed_walk_oracle, counting._same_phase_words):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="^decompositions: "):
                    walk(lat, z, v, Ledger(12000), multisets=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2, peaks

    def test_degree_zero_walk_makes_pieces_as_words_take_them(self):
        # all 20000 pieces made before the first step, about 216 B each, peak
        # above 4 MB; made when a word takes them, the walk's own state is small
        import tracemalloc

        lat, z = rank1()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^decompositions: "):
                counting._same_phase_words(lat, z, NumClass((0,), 20000), Ledger(100000), multisets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


class TestMultiLetterEvaluation:
    def setup_model(self):
        lat, z = rank1()
        gm = AbsMotive.multiplicative_group()
        point_class = quotient_by_special_group(point_atom(), gm)
        v1 = NumClass((1,), 1)
        v2 = NumClass((2,), 2)
        model = EvalModel({v1: point_class, v2: point_class}, [(v1, v1, -1)])
        return lat, z, model, v1, v2

    def test_decomposable_class_log(self):
        lat, z, model, v1, v2 = self.setup_model()
        log_elem = semistable_log(lat, z, v2)
        assert set(log_elem.words) == {(v2,), (v1, v1)}
        assert log_elem.words[(v1, v1)] == Fraction(-1, 2)

    def test_counting_polynomial_through_two_letter_words(self):
        # hand composition of the stratum formula:
        # P = (L-1) * [ atom(v2) - 1/2 * L^{e(v1,v1)} * atom(v1)^2 ]
        lat, z, model, v1, v2 = self.setup_model()
        gm_poly = LaurentPoly.t(2) - LaurentPoly.one()
        atom_value = RationalFn(LaurentPoly.one(), gm_poly)
        lefschetz_inverse = RationalFn.from_poly(LaurentPoly.t(-2))
        expected = RationalFn.from_poly(gm_poly) * (
            atom_value
            - RationalFn.from_fraction(Fraction(1, 2)) * lefschetz_inverse * atom_value * atom_value
        )
        got = counting_polynomial(lat, z, v2, model)
        assert got == expected

    def test_rank_mismatch_rejected(self):
        lat, z, model, v1, v2 = self.setup_model()
        with pytest.raises(ValueError):
            counting_polynomial(lat, z, NumClass((1, 0), 1), model)
        with pytest.raises(ValueError):
            same_phase_decompositions(lat, z, NumClass((1, 0), 1))


def test_concurrent_evaluations_agree():
    # pure call paths: parallel (class, genus) computations share nothing
    from concurrent.futures import ThreadPoolExecutor

    lat = ClassLattice(1, [(1,)])
    z = CentralCharge([Fraction(0)], [Fraction(1)])
    gm = AbsMotive.multiplicative_group()
    point_class = quotient_by_special_group(point_atom(), gm)
    atoms = {
        NumClass((m,), k): point_class if m == 1 else StackClass.zero()
        for m in (1, 2, 3)
        for k in (1, -1)
    }
    model = EvalModel(atoms)
    jobs = [(NumClass((m,), 1), g) for m in (-3, -2, -1, 1, 2, 3) for g in range(3)]

    def work(job):
        v, g = job
        return gv_from_polynomial(counting_polynomial(lat, z, v, model), g)

    serial = [work(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(work, jobs))
    assert threaded == serial


class TestGvFromPolynomial:
    def test_conifold_counts(self):
        assert gv_from_polynomial(RationalFn.one(), 0) == 1
        for g in range(1, 4):
            assert gv_from_polynomial(RationalFn.one(), g) == 0

    def test_s_squared_census(self):
        # flat(s^2) = t^-2 s^2, one string of size 3 at degree -2:
        # g = 0 term is 3 * (C(1,1) - C(-1,1)) = 3, higher genus vanishes
        p = RationalFn.from_poly(LaurentPoly.s(2))
        assert gv_from_polynomial(p, 0) == 3
        assert gv_from_polynomial(p, 1) == 0
        assert gv_from_polynomial(p, 2) == 0

    def test_zero_polynomial(self):
        for g in range(4):
            assert gv_from_polynomial(RationalFn.zero(), g) == 0

    def test_rejects_non_polynomial(self):
        bad = RationalFn(LaurentPoly.one(), LaurentPoly.t(2) - LaurentPoly.one())
        with pytest.raises(NotPolynomialError):
            gv_from_polynomial(bad, 0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(NotPolynomialError):
            gv_from_polynomial(LaurentPoly.t(-2), 0)

    def test_rejects_odd_degree(self):
        with pytest.raises(OddWeightedDegreeError):
            gv_from_polynomial(LaurentPoly({(1, 1): 1}), 0)


class TestIntegerArguments:
    """A constructor takes ints and rationals only: a float never truncates to an int or rounds to a Fraction."""

    def test_central_charge_rejects_float(self):
        with pytest.raises(TypeError, match="B entry must be int or Fraction, got float"):
            CentralCharge([0.1], [1])

    def test_ext_defect_not_truncated(self):
        v = NumClass((1,), 0)
        with pytest.raises(TypeError, match="ext defect must be int, got float"):
            EvalModel({}, [(v, v, 2.7)])

    def test_lattice_generator_not_truncated(self):
        with pytest.raises(TypeError, match="generator entry must be int, got float"):
            ClassLattice(1, [(1.5,)])

    def test_class_below_not_truncated(self):
        lattice = ClassLattice(1, [(1,)])
        with pytest.raises(TypeError, match="class entry must be int, got float"):
            lattice.classes_below((2.5,), (Fraction(1),), Ledger())
