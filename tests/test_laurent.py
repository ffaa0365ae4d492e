"""Exact Laurent arithmetic: ring axioms, weighted degree, flattening, fractions."""

import random
from fractions import Fraction
from math import gcd

import pytest

import gvmot.laurent as laurent
from gvmot.errors import NotPolynomialError, OddWeightedDegreeError, ZeroPolynomialError
from gvmot.jsonio import poly_to_json
from gvmot.laurent import (
    LaurentPoly,
    RationalFn,
    _divide_content,
    _prem,
    _uni_gcd,
    _unpacked,
    exact_div,
    flat,
    format_poly,
    rational_sum,
    weighted_degree,
)
from gvmot.linalg import _slot_width


def random_poly(rng, max_terms=6, t_range=(-3, 4), s_range=(0, 3), coeff_range=(-9, 9)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = rng.randint(*t_range)
        b = rng.randint(*s_range)
        c = rng.randint(*coeff_range)
        terms[(a, b)] = terms.get((a, b), 0) + c
    return LaurentPoly(terms)


def random_uni(rng, var, max_degree=4, coeff_range=(-5, 5)):
    terms = {}
    for e in range(rng.randint(0, max_degree) + 1):
        terms[(e, 0) if var == "t" else (0, e)] = rng.randint(*coeff_range)
    return LaurentPoly(terms)


def dense(p, var):
    """Coefficients of a univariate polynomial, lowest power first, from the
    lowest power present."""
    exps = {(a if var == "t" else b): Fraction(c) for (a, b), c in p.items()}
    lo, hi = min(exps), max(exps)
    return [exps.get(e, Fraction(0)) for e in range(lo, hi + 1)]


def oracle_uni_gcd(p, q, var):
    """Monic gcd of two nonzero univariate polynomials by Euclid over Q, as
    a Fraction list lowest power first; monomial factors are ignored."""

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def mod(u, v):
        u = u[:]
        while len(u) >= len(v) and trim(u):
            factor = u[-1] / v[-1]
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= factor * c
            trim(u)
        return u

    a, b = trim(dense(p, var)), trim(dense(q, var))
    while b:
        a, b = b, trim(mod(a, b))
    return [c / a[-1] for c in a]


def oracle_exact_div(num, den):
    """num/den as a dict of Fraction coefficients when den divides num in
    Q[t^{+-1}, s], else None: lex division with remainder by one divisor."""
    if num.is_zero():
        return {}
    (la, lb), lc = den.leading_term()
    na, nb = num.min_lex_exponent()
    ma, mb = den.min_lex_exponent()
    floor = (na - ma, nb - mb)
    rem = {key: Fraction(c) for key, c in num.items()}
    quotient = {}
    while rem:
        top = max(rem)
        da, db = top[0] - la, top[1] - lb
        if db < 0 or (da, db) < floor:
            return None
        factor = rem[top] / lc
        quotient[(da, db)] = factor
        for (a, b), c in den.items():
            key = (a + da, b + db)
            rem[key] = rem.get(key, 0) - factor * c
            if rem[key] == 0:
                del rem[key]
        if rem and max(rem) >= top:
            return None
    return quotient


def old_exact_div(num, den):
    """The division loop exact_div ran before it kept one remainder: every
    step rebuilds the whole remainder, so it takes time quadratic in it."""
    if num.is_zero():
        return LaurentPoly()
    (la, lb), lc = den.leading_term()
    na, nb = num.min_lex_exponent()
    ma, mb = den.min_lex_exponent()
    floor = (na - ma, nb - mb)
    quotient = {}
    rem = num
    while not rem.is_zero():
        (ra, rb), rc = rem.leading_term()
        db = rb - lb
        da = ra - la
        if db < 0 or (da, db) < floor:
            return None
        factor, r = divmod(rc, lc)
        if r:
            return None
        quotient[(da, db)] = factor
        rem = rem - den.shift(da, db).scale(factor)
        if not rem.is_zero() and rem.leading_term()[0] >= (ra, rb):
            return None
    return LaurentPoly(quotient)


def brute_weighted_degree(q):
    # independent oracle: enumerate terms and take the max by definition
    return max(a + 2 * b for (a, b), c in q.items() if c != 0)


class TestArithmetic:
    def test_disjoint_monomials(self):
        assert LaurentPoly.s(2) + LaurentPoly.t(2) == LaurentPoly({(0, 2): 1, (2, 0): 1})

    def test_difference_of_squares(self):
        t = LaurentPoly.t()
        one = LaurentPoly.one()
        assert (t - one) * (t + one) == LaurentPoly({(2, 0): 1, (0, 0): -1})

    def test_additive_inverse_is_empty(self):
        rng = random.Random(1)
        for _ in range(20):
            x = random_poly(rng)
            assert (x + (-x)).is_zero()
            assert (x + (-x)).terms == {}

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly({(0, -1): 1})

    def test_ring_axioms(self):
        rng = random.Random(2)
        for _ in range(300):
            x, y, z = (random_poly(rng, 4) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        for _ in range(20):
            x = random_poly(rng, 3)
            acc = LaurentPoly.one()
            for n in range(5):
                assert x**n == acc
                acc = acc * x


class TestWeightedDegree:
    def test_s_squared(self):
        # a=0, b=2 gives a + 2b = 4
        assert weighted_degree(LaurentPoly.s(2)) == 4

    def test_direct_readoff(self):
        assert weighted_degree(LaurentPoly.t(6) + LaurentPoly.t(4)) == 6

    def test_mixed_terms_against_oracle(self):
        q = LaurentPoly({(2, 1): 1, (3, 0): 1})
        assert brute_weighted_degree(q) == 4
        assert weighted_degree(q) == 4

    def test_oracle_agreement_random(self):
        rng = random.Random(4)
        for _ in range(200):
            q = random_poly(rng)
            if q.is_zero():
                continue
            assert weighted_degree(q) == brute_weighted_degree(q)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            weighted_degree(LaurentPoly.zero())

    def test_additivity_positive_coefficients(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_poly(rng, 4, coeff_range=(1, 9))
            y = random_poly(rng, 4, coeff_range=(1, 9))
            if x.is_zero() or y.is_zero():
                continue
            assert weighted_degree(x * y) == weighted_degree(x) + weighted_degree(y)


class TestFlat:
    def test_s_squared(self):
        assert flat(LaurentPoly.s(2)) == LaurentPoly({(-2, 2): 1})

    def test_t_squared(self):
        assert flat(LaurentPoly.t(2)) == LaurentPoly.t(1)

    def test_three_terms(self):
        q = LaurentPoly.t(6) + LaurentPoly.t(4) + LaurentPoly.one()
        assert brute_weighted_degree(q) == 6
        assert flat(q) == LaurentPoly({(3, 0): 1, (1, 0): 1, (-3, 0): 1})

    def test_odd_degree_rejected(self):
        with pytest.raises(OddWeightedDegreeError):
            flat(LaurentPoly.t(1))

    def test_flat_roundtrip(self):
        rng = random.Random(6)
        for _ in range(200):
            q = random_poly(rng)
            if q.is_zero() or weighted_degree(q) % 2 != 0:
                continue
            m = weighted_degree(q)
            assert flat(q) * LaurentPoly.t(m // 2) == q


class TestRationalFn:
    def test_cross_multiplication_equality(self):
        rng = random.Random(7)
        checked = 0
        while checked < 1000:
            num = random_poly(rng, 3)
            den = random_poly(rng, 3)
            factor = random_poly(rng, 2)
            if den.is_zero() or factor.is_zero():
                continue
            base = RationalFn(num, den)
            scaled = RationalFn(num * factor, den * factor)
            assert base == scaled
            checked += 1

    def test_arithmetic_against_cross_multiplied_forms(self):
        rng = random.Random(8)
        for _ in range(300):
            a, b, c, d = (random_poly(rng, 3) for _ in range(4))
            if b.is_zero() or d.is_zero():
                continue
            x = RationalFn(a, b)
            y = RationalFn(c, d)
            assert x + y == RationalFn(a * d + c * b, b * d)
            assert x * y == RationalFn(a * c, b * d)
            assert x - y == RationalFn(a * d - c * b, b * d)
            assert (x + y) - y == x

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(LaurentPoly.one(), LaurentPoly.zero())

    def test_cancellation_to_polynomial(self):
        t2 = LaurentPoly.t(2)
        one = LaurentPoly.one()
        r = RationalFn(t2 * t2 - one, t2 - one)
        assert r.den == LaurentPoly.one()
        assert r.num == t2 + one

    def test_as_poly_and_failure(self):
        t2 = LaurentPoly.t(2)
        one = LaurentPoly.one()
        assert RationalFn(t2 - one, one).as_poly() == t2 - one
        with pytest.raises(NotPolynomialError):
            RationalFn(one, t2 - one).as_poly()
        with pytest.raises(NotPolynomialError):
            RationalFn(LaurentPoly.t(1), LaurentPoly.constant(2)).as_poly()

    def test_gm_inverse_times_gm(self):
        gm = LaurentPoly.t(2) - LaurentPoly.one()
        assert RationalFn(LaurentPoly.one(), gm) * RationalFn(gm) == RationalFn.one()

    def test_fraction_scalars(self):
        half = RationalFn.from_fraction(Fraction(1, 2))
        assert half + half == RationalFn.one()
        assert RationalFn.from_fraction(-3) == RationalFn(LaurentPoly.constant(-3))

    def test_float_scalars_rejected(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        for bad in (0.1, 0.5, 2.0, True):
            with pytest.raises(TypeError, match=f"value must be int or Fraction, got {type(bad).__name__}"):
                RationalFn.from_fraction(bad)
        with pytest.raises(TypeError, match="got bool"):
            RationalFn.one() + True

    def test_equality_with_scalars_never_raises(self):
        one = RationalFn.one()
        assert one == 1 and one == Fraction(2, 2) and one == LaurentPoly.one()
        for other in (True, False, 1.0, "1", None):
            assert one != other and not one == other and other != one

    def test_normalization_preserves_value(self):
        # the one contract normalization must never break: n'/d' == n/d,
        # plus the canonical-form promises (positive lead, coprime contents)
        from math import gcd

        rng = random.Random(10)
        for _ in range(500):
            num = random_poly(rng, 4)
            den = random_poly(rng, 4)
            if den.is_zero():
                continue
            r = RationalFn(num, den)
            assert r.num * den == num * r.den
            assert r.den.leading_term()[1] > 0
            if not r.num.is_zero():
                assert gcd(int(r.num.content()), int(r.den.content())) == 1

    @pytest.mark.parametrize("kind", ["t", "s", "mixed"])
    def test_normalized_parts_are_a_fixed_point(self, kind):
        # a normalised pair normalises to itself, so no second pass after the
        # univariate gcd could change it; half the pairs share a planted factor
        rng = random.Random(f"fixed point {kind}")
        ranges = {"t": ((-3, 4), (0, 0)), "s": ((0, 0), (0, 3)), "mixed": ((-3, 4), (0, 3))}[kind]
        checked = 0
        while checked < 300:
            num, den, factor = (random_poly(rng, 4, *ranges) for _ in range(3))
            if den.is_zero() or factor.is_zero():
                continue
            if checked % 2:
                num, den = num * factor, den * factor
            r = RationalFn(num, den)
            again = RationalFn(r.num, r.den)
            assert (again.num, again.den) == (r.num, r.den)
            checked += 1

    def test_one_term_numerator_is_already_reduced(self):
        # normalisation stops after the content for a one-term numerator:
        # exact division and the univariate gcd would leave it as it is
        rng = random.Random(19)
        one = LaurentPoly.one()
        for _ in range(500):
            num = LaurentPoly.monomial(rng.randint(-4, 4), rng.randint(0, 2), rng.choice([-1, 1]) * rng.randint(1, 60))
            den = random_poly(rng, 4, coeff_range=(-12, 12))
            if rng.random() < 0.5:
                den = LaurentPoly({(a, 0): c for (a, _), c in den.items()})
            if den.is_zero():
                continue
            r = RationalFn(num, den)
            assert r.num * den == num * r.den and len(r.num.terms) == 1
            if r.den != one:
                assert exact_div(r.num, r.den) is None
                for var, single in (("t", LaurentPoly.is_t_only), ("s", LaurentPoly.is_s_only)):
                    if single(r.num) and single(r.den):
                        assert _uni_gcd(r.num, r.den, var) == one

    def test_mixed_comparison_symmetric(self):
        p = LaurentPoly.t(2) - LaurentPoly.one()
        r = RationalFn.from_poly(p)
        assert r == p
        assert p == r
        assert not (p == RationalFn.zero())
        assert p != RationalFn.zero()


class TestNormalisation:
    def test_normalising_a_normalised_pair_changes_nothing(self):
        # common factors in t alone, s alone or both, so every step of the
        # normalisation runs: shifts, contents, exact division and the gcd
        rng = random.Random(35)
        gcds = 0
        for _ in range(400):
            var = rng.choice(["t", "s", None])
            make = (lambda: random_uni(rng, var)) if var else (lambda: random_poly(rng, 3))
            factor = make() * LaurentPoly.monomial(rng.randint(-2, 2), 0, rng.choice([1, -2, 3]))
            num, den = make() * factor, make() * factor
            if den.is_zero():
                continue
            once = RationalFn(num, den)
            twice = RationalFn(once.num, once.den)
            assert (twice.num, twice.den) == (once.num, once.den), (num, den)
            gcds += len(once.den.terms) < len(den.terms) and once.den != LaurentPoly.one()
        assert gcds >= 20


class TestRationalSum:
    @staticmethod
    def left_fold(pairs):
        total = RationalFn.zero()
        for num, den in pairs:
            total = total + RationalFn(num, den)
        return total

    def test_matches_left_fold(self):
        # denominators from a small pool times units (signed and fractional
        # constants, t-shifts), so many pairs share a bucket and many do not;
        # a unit p/q scales den by p and num by q, and num/k scales den by k
        rng = random.Random(11)
        for _ in range(150):
            pool = [random_poly(rng, 3) for _ in range(3)]
            pool = [d for d in pool if not d.is_zero()] or [LaurentPoly.one()]
            pairs = []
            for _ in range(rng.randint(0, 6)):
                p, q = rng.choice([-3, -1, 1, 2, 6]), rng.choice([1, 2, 5])
                den = rng.choice(pool).shift(rng.randint(-3, 3)).scale(p)
                num = random_poly(rng, 4).scale(q)
                if rng.random() < 0.3:
                    den = den.scale(rng.randint(2, 4))
                pairs.append((num, den))
            assert rational_sum(iter(pairs)) == self.left_fold(pairs)

    def test_cancels_to_zero(self):
        rng = random.Random(12)
        for _ in range(50):
            num, den = random_poly(rng, 4), random_poly(rng, 3)
            if den.is_zero():
                continue
            unit = LaurentPoly.monomial(rng.randint(-2, 2), 0, rng.choice([-2, 3]))
            total = rational_sum([(num, den), (-num * unit, den * unit)])
            assert total.is_zero()
            assert total.den == LaurentPoly.one()

    def test_s_terms_and_negative_t_exponents(self):
        s, t = LaurentPoly.s(1), LaurentPoly.t(1)
        one = LaurentPoly.one()
        pairs = [
            (s, LaurentPoly.t(-2) * (t - one)),
            (LaurentPoly.t(-3) + s * s, (t - one).scale(-4)),
            (one, s + t),
        ]
        assert rational_sum(pairs) == self.left_fold(pairs)

    def test_cancelling_bucket_changes_no_byte(self):
        # a bucket whose sum is zero is left out of the final additions
        rng = random.Random(13)
        for _ in range(100):
            pairs = [(random_poly(rng, 3), random_poly(rng, 2) or LaurentPoly.one()) for _ in range(rng.randint(0, 4))]
            num, den = random_poly(rng, 3) or LaurentPoly.one(), random_poly(rng, 2) * LaurentPoly.s(3) or LaurentPoly.t(2)
            at = rng.randint(0, len(pairs))
            total = rational_sum(pairs[:at] + [(num, den), (-num, den)] + pairs[at:])
            expected = rational_sum(pairs)
            assert (str(total), total.num, total.den) == (str(expected), expected.num, expected.den)

    def test_empty_and_zero_denominator(self):
        assert rational_sum([]) == RationalFn.zero()
        with pytest.raises(ZeroDivisionError):
            rational_sum([(LaurentPoly.zero(), LaurentPoly.zero())])


class TestExactDiv:
    def test_laurent_division(self):
        num = LaurentPoly({(-2, 0): 1, (0, 0): -1})
        den = LaurentPoly.t(1) - LaurentPoly.one()
        q = exact_div(num, den)
        assert q is not None
        assert q * den == num

    def test_failure_detected(self):
        assert exact_div(LaurentPoly.one(), LaurentPoly.t(1) - LaurentPoly.one()) is None

    def test_random_products_divide(self):
        rng = random.Random(9)
        for _ in range(200):
            q = random_poly(rng, 3)
            den = random_poly(rng, 3)
            if den.is_zero():
                continue
            got = exact_div(q * den, den)
            assert got is not None
            assert got * den == q * den

    def test_matches_division_over_q_when_integral(self):
        # products (some divided by a constant that the quotient does not
        # absorb) and unrelated pairs: the oracle's quotient comes back exactly
        # when it is integral, and None otherwise
        rng = random.Random(14)
        seen = {"integral": 0, "fractional": 0, "none": 0}
        for i in range(400):
            den = random_poly(rng, 3)
            if den.is_zero():
                continue
            num = random_poly(rng, 3) * den if i % 4 else random_poly(rng, 4)
            if i % 3 == 0:
                den = den.scale(rng.choice([-4, -2, 2, 3, 6]))
            expected = oracle_exact_div(num, den)
            got = exact_div(num, den)
            if expected is None:
                seen["none"] += 1
                assert got is None
            elif all(c.denominator == 1 for c in expected.values()):
                seen["integral"] += 1
                assert got == LaurentPoly({key: int(c) for key, c in expected.items()})
            else:
                seen["fractional"] += 1
                assert got is None
        assert min(seen.values()) >= 30, seen

    def test_matches_the_rebuilding_loop(self):
        # divisible pairs, pairs off by a term or a scalar, and unrelated ones, with s-terms and negative t-exponents
        rng = random.Random(2049)
        seen = {"divides": 0, "not": 0}
        for i in range(600):
            den = random_poly(rng, rng.randint(1, 5), t_range=(-6, 6), s_range=(0, 3))
            if den.is_zero():
                continue
            q = random_poly(rng, rng.randint(1, 8), t_range=(-6, 6), s_range=(0, 3))
            num = [q * den, q * den + random_poly(rng, 2), (q * den).scale(rng.choice([2, -3])), random_poly(rng, 8)][i % 4]
            if i % 5 == 0:
                den = den.scale(rng.choice([-2, 3]))
            expected = old_exact_div(num, den)
            assert exact_div(num, den) == expected, (num, den)
            seen["divides" if expected is not None else "not"] += 1
        assert min(seen.values()) > 150, seen

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_each_step_updates_one_remainder(self, monkeypatch, n):
        # (t^n - 1) / (t - 1) takes n steps of one update each: only the
        # quotient is built as a polynomial, and the leading-term heap is
        # popped once per remainder term, never per term per step
        pops, built = [0], []
        real_pop, real_built = laurent.heappop, LaurentPoly._built.__func__

        def counting_pop(heap):
            pops[0] += 1
            return real_pop(heap)

        def counting_built(cls, terms):
            built.append(len(terms))
            return real_built(cls, terms)

        monkeypatch.setattr(laurent, "heappop", counting_pop)
        monkeypatch.setattr(LaurentPoly, "_built", classmethod(counting_built))
        num = LaurentPoly({(n, 0): 1, (0, 0): -1})
        q = exact_div(num, LaurentPoly({(1, 0): 1, (0, 0): -1}))
        assert q == LaurentPoly({(a, 0): 1 for a in range(n)})
        assert built == [n]
        assert pops[0] <= n + 2


def old_prem(u, v):
    """The pseudo-remainder as it was before the unit scaling was skipped:
    every step scales the whole of u."""

    def primitive(w):
        g = gcd(*w)
        return [c // g for c in w]

    while len(u) >= len(v):
        g = gcd(u[-1], v[-1])
        mu, mv = v[-1] // g, u[-1] // g
        shift = len(u) - len(v)
        u = [c * mu for c in u]
        for i, c in enumerate(v):
            u[shift + i] -= mv * c
        while u and u[-1] == 0:
            u.pop()
    return primitive(u)


class TestPrem:
    def test_matches_scaling_every_step(self):
        # divisors with lead 1, -1, a divisor of u's lead, or anything, and
        # dividends shorter and longer than the divisor
        rng = random.Random(14)
        seen = dict.fromkeys(("monic", "unit -1", "lead divides", "general", "short"), 0)
        for i in range(400):
            kind = ("monic", "unit -1", "lead divides", "general")[i % 4]
            v = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            lead = {"monic": 1, "unit -1": -1}.get(kind, rng.choice([-6, -3, 2, 5, 12]))
            v.append(lead)
            u = [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))]
            u.append(lead * rng.choice([-4, -1, 1, 3]) if kind == "lead divides" else rng.choice([-7, -1, 1, 4, 9]))
            before = (u[:], v[:])
            assert _prem(u, v) == old_prem(u, v), (u, v)
            assert (u, v) == before
            seen[kind] += 1
            seen["short"] += len(u) < len(v)
        assert min(seen.values()) >= 40, seen


class TestUniGcd:
    def test_matches_euclid_over_q(self):
        # t-only and s-only pairs with a shared factor (two in three) or not,
        # signed contents and monomial shifts; compared up to a rational unit
        rng = random.Random(13)
        nontrivial = coprime = 0
        for i in range(300):
            var = "ts"[i % 2]
            p, q = random_uni(rng, var), random_uni(rng, var)
            if i % 3:
                shared = random_uni(rng, var, 3)
                p, q = p * shared, q * shared
            shift = (rng.randint(-2, 2), 0) if var == "t" else (0, rng.randint(0, 2))
            p = p.scale(rng.choice([-6, -2, -1, 1, 3, 4])).shift(*shift)
            q = q.scale(rng.choice([-6, -2, -1, 1, 3, 4]))
            if p.is_zero() or q.is_zero():
                continue
            g = dense(_uni_gcd(p, q, var), var)
            assert g[-1] > 0
            assert gcd(*(int(c) for c in g)) == 1
            expected = oracle_uni_gcd(p, q, var)
            assert [c / g[-1] for c in g] == expected
            if len(expected) > 1:
                nontrivial += 1
            else:
                coprime += 1
        assert nontrivial >= 100 and coprime >= 50, (nontrivial, coprime)

    def test_primitive_with_positive_lead(self):
        t, s, one = LaurentPoly.t(), LaurentPoly.s(), LaurentPoly.one()
        assert _uni_gcd(t * t - one, t * t + one, "t") == one
        assert _uni_gcd((t - one).scale(2), (t * t - one).scale(-4), "t") == t - one
        assert _uni_gcd(((s + one) * (s - one.scale(2))).scale(3), (s + one).scale(-6), "s") == s + one
        assert _uni_gcd((t - one).shift(-3), (one - t).shift(5), "t") == t - one


class TestIntegerCoefficients:
    def test_non_int_coefficients_and_scalars_rejected(self):
        t = LaurentPoly.t()
        for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, True):
            with pytest.raises(TypeError):
                LaurentPoly({(0, 0): bad})
            with pytest.raises(TypeError):
                t.scale(bad)
            with pytest.raises(TypeError):
                t * bad

    def test_non_int_exponents_rejected(self):
        for key in ((Fraction(1, 2), 0), (2.7, 0), (0, 1.0), (True, 0)):
            with pytest.raises(TypeError):
                LaurentPoly({key: 3})

    def test_as_poly_tells_non_polynomial_from_non_integral(self):
        t, one = LaurentPoly.t(), LaurentPoly.one()
        assert RationalFn((t * t - one).scale(3), (t - one).scale(3)).as_poly() == t + one
        with pytest.raises(NotPolynomialError, match="has non-integer coefficients"):
            RationalFn(t * t - one, (t - one).scale(2)).as_poly()
        with pytest.raises(NotPolynomialError, match="is not a polynomial"):
            RationalFn(one, (t + one).scale(2)).as_poly()
        with pytest.raises(NotPolynomialError, match="is not a polynomial"):
            RationalFn(LaurentPoly.s(), (t + one).scale(2)).as_poly()


def big_poly(rng, max_terms=5):
    """Coefficients of 0 to 300 bits and either sign, t-exponents of either sign."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-4, 4), rng.randint(0, 2))
        terms[key] = terms.get(key, 0) + rng.choice([-1, 1]) * rng.getrandbits(rng.randint(0, 300))
    return LaurentPoly(terms)


def assert_public_form(got, terms):
    """got is what the public constructor makes of terms: the same terms,
    the same hash, and no zero coefficient."""
    want = LaurentPoly(dict(terms))
    assert got == want and hash(got) == hash(want)
    assert all(c for _, c in got.items())


class TestTrustedConstructor:
    def test_every_built_polynomial_is_the_public_one(self, monkeypatch):
        # each ring op's _built dict, through the public constructor, gives the same polynomial
        built = LaurentPoly._built.__func__
        calls = []

        def checked(cls, terms):
            got = built(cls, terms)
            assert_public_form(got, terms)
            calls.append(len(got.terms))
            return got

        monkeypatch.setattr(LaurentPoly, "_built", classmethod(checked))
        rng = random.Random(18)
        for _ in range(200):
            p, q = big_poly(rng), big_poly(rng)
            c = rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 300)) or 1
            dt = rng.randint(-5, 5)
            naive = {}
            for (a1, b1), c1 in p.items():
                for (a2, b2), c2 in q.items():
                    naive[(a1 + a2, b1 + b2)] = naive.get((a1 + a2, b1 + b2), 0) + c1 * c2
            cases = [
                (p + q, {k: p.coefficient(*k) + q.coefficient(*k) for k in {*p.terms, *q.terms}}),
                (p - q, {k: p.coefficient(*k) - q.coefficient(*k) for k in {*p.terms, *q.terms}}),
                (p + (-p), {}),
                (p - p, {}),
                ((p + q) - q, p.terms),
                (-p, {k: -v for k, v in p.items()}),
                (p * q, naive),
                (p.scale(c), {k: v * c for k, v in p.items()}),
                (p.shift(dt, 1), {(a + dt, b + 1): v for (a, b), v in p.items()}),
                (_divide_content(p.scale(c), c), p.terms),
            ]
            if not q.is_zero():
                cases.append((exact_div(p * q, q), p.terms))
            for got, terms in cases:
                assert_public_form(got, terms)
            if not q.is_zero():
                total = rational_sum([(p, q), (q, q.scale(c)), (-p, q)])
                assert total == RationalFn(LaurentPoly.one(), LaurentPoly.constant(c))
                assert_public_form(total.num, total.num.terms)
                assert_public_form(total.den, total.den.terms)
        assert len(calls) > 2000 and 0 in calls

    def test_public_constructor_still_checks(self):
        for bad in (Fraction(3, 1), 1.0, True):
            with pytest.raises(TypeError):
                LaurentPoly({(0, 0): bad})
            with pytest.raises(TypeError):
                LaurentPoly({(bad, 0): 1})
        with pytest.raises(ValueError, match="s never appears with negative exponent"):
            LaurentPoly({(0, -1): 1})
        s = LaurentPoly.s()
        assert s.shift(3, -1) == LaurentPoly.t(3)
        with pytest.raises(ValueError, match="s never appears with negative exponent"):
            s.shift(0, -2)


class TestOrderFree:
    """A polynomial is its map of terms: the order they went in changes no
    comparison, hash or printed form."""

    @staticmethod
    def shuffled(rng, terms):
        items = list(terms.items())
        rng.shuffle(items)
        return dict(items)

    @staticmethod
    def assert_same(p, q):
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert (format_poly(p), repr(p), poly_to_json(p)) == (format_poly(q), repr(q), poly_to_json(q))

    @staticmethod
    def packed(p):
        """_unpacked's arguments for p, its slots in (b, a) order from (min a, 0)."""
        low = p.min_t_exponent()
        span = max(a for a, _ in p.terms) - low + 1
        width = _slot_width(max(abs(c) for _, c in p.items()))
        value = sum(c << (width * (a - low + span * b)) for (a, b), c in p.items())
        return value, width, span * (max(b for _, b in p.terms) + 1), span, low

    def test_insertion_order_is_not_seen(self):
        rng = random.Random(35)
        for _ in range(200):
            terms, other = big_poly(rng, 8).terms, random_poly(rng).terms
            a, b = LaurentPoly(self.shuffled(rng, terms)), LaurentPoly(self.shuffled(rng, terms))
            q1, q2 = LaurentPoly(self.shuffled(rng, other)), LaurentPoly(self.shuffled(rng, other))
            self.assert_same(a, b)
            self.assert_same(a, LaurentPoly._built(self.shuffled(rng, terms)))
            self.assert_same(a + q1, q2 + b)
            self.assert_same(a - q1, -(q2 - b))
            self.assert_same(a * q1, q2 * b)
            self.assert_same(a.shift(3, 1).scale(-2), b.scale(-2).shift(3, 1))
            if terms:
                self.assert_same(a, _unpacked(*self.packed(b)))
            if other:
                self.assert_same(exact_div(a * q1, q2), b)

    @pytest.mark.parametrize("slots", [0, 10**9])  # the LaurentPoly walk, the packed one
    def test_equal_denominators_fill_one_bucket(self, monkeypatch, slots):
        t, s = LaurentPoly.t(), LaurentPoly.s()
        terms = {(2, 0): 1, (1, 1): 2, (0, 1): 3, (0, 0): -1}
        up, down = LaurentPoly(dict(sorted(terms.items()))), LaurentPoly(dict(sorted(terms.items(), reverse=True)))
        assert list(up.items()) != list(down.items())
        normalised = []
        real = laurent._normalize_fraction
        monkeypatch.setattr(laurent, "SLOTS_PER_TERM", slots)
        monkeypatch.setattr(laurent, "_normalize_fraction", lambda num, den: normalised.append(den) or real(num, den))
        total = rational_sum([(t, up), (s, down)])
        assert normalised == [up]  # one bucket, normalised once, and no addition
        assert (total.num, total.den) == (t + s, up)


class TestPrinting:
    def test_descending_weighted_degree_order(self):
        p = LaurentPoly({(0, 2): 1, (2, 0): 1})
        assert format_poly(p) == "s^2 + t^2"

    def test_negative_coefficients(self):
        p = LaurentPoly({(2, 0): 1, (0, 0): -1})
        assert format_poly(p) == "t^2 - 1"

    def test_mixed_monomial(self):
        assert format_poly(LaurentPoly({(2, 1): 1, (0, 1): 1})) == "t^2*s + s"

    def test_zero(self):
        assert format_poly(LaurentPoly.zero()) == "0"
