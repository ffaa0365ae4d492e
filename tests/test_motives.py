"""Evaluation of motive expressions: worked values, scissor identity, bookkeeping."""

import random
import time

import pytest

from gvmot.errors import DimMismatchError, HardLefschetzError, PoincareDualityError
from gvmot.laurent import LaurentPoly, weighted_degree
from gvmot.lefschetz import JordanCensus
from gvmot.motives import (
    AbsMotive,
    AbsProduct,
    Atom,
    BlowUpRel,
    Diff,
    Fibration,
    FinitePush,
    IntScale,
    ProjBundle,
    Sum,
    blowup_relation_check,
    dim,
    over_point_from_betti,
    point_atom,
    projective_bundle_value,
    smooth_from_betti,
    upsilon_rel,
    zero_expr,
)
from gvmot.verify import _random_geometric_expr, random_betti


class TestSmoothFromBetti:
    def test_projective_line(self):
        assert upsilon_rel(smooth_from_betti([1, 0, 1], 1)) == LaurentPoly.s(1)

    def test_projective_plane(self):
        assert upsilon_rel(smooth_from_betti([1, 0, 1, 0, 1], 2)) == LaurentPoly.s(2)

    def test_point(self):
        assert upsilon_rel(smooth_from_betti([1], 0)) == LaurentPoly.one()

    def test_example_formula(self):
        # sum over i of (b_i - b_{i-2}) t^i s^{d-i}
        rng = random.Random(31)
        for _ in range(100):
            d = rng.randint(0, 3)
            bettis = random_betti(rng, d)
            value = upsilon_rel(smooth_from_betti(bettis, d))
            expected = {}
            for i in range(d + 1):
                n = bettis[i] - (bettis[i - 2] if i >= 2 else 0)
                if n:
                    expected[(i, d - i)] = n
            assert value == LaurentPoly(expected)

    def test_duality_violation(self):
        with pytest.raises(PoincareDualityError):
            smooth_from_betti([1, 2, 1, 0, 1], 2)

    def test_hard_lefschetz_violation(self):
        with pytest.raises(HardLefschetzError):
            smooth_from_betti([2, 0, 1, 0, 2], 2)

    def test_wrong_length(self):
        with pytest.raises(PoincareDualityError):
            smooth_from_betti([1, 0, 1], 2)


class TestUpsilonRel:
    def test_point_atom(self):
        assert upsilon_rel(point_atom()) == LaurentPoly.one()

    def test_blow_up_of_plane_at_point(self):
        p2 = smooth_from_betti([1, 0, 1, 0, 1], 2)
        blow = BlowUpRel(ambient=p2, center=point_atom(), codim=2)
        assert upsilon_rel(blow) == LaurentPoly.s(2) + LaurentPoly.t(2)

    def test_linear_nodes(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        s = LaurentPoly.s(1)
        assert upsilon_rel(Sum((p1, p1))) == s + s
        assert upsilon_rel(Diff(p1, p1)).is_zero()
        assert upsilon_rel(IntScale(3, p1)) == s.scale(3)
        assert upsilon_rel(zero_expr()).is_zero()

    def test_fibration_multiplies(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        fib = Fibration(p1, AbsMotive.affine_line())
        assert upsilon_rel(fib) == LaurentPoly.t(2) * LaurentPoly.s(1)

    def test_finite_push_transparent(self):
        rng = random.Random(32)
        for _ in range(50):
            e = _random_geometric_expr(rng)
            assert upsilon_rel(FinitePush(e)) == upsilon_rel(e)

    def test_wide_sum_quickly(self):
        # one accumulator for the whole sum, not one re-sorted total per term
        n = 20000
        terms = tuple(Atom(name=f"a{d}", dim=d, census=JordanCensus({(0, 1): 1})) for d in range(n))
        start = time.perf_counter()
        value = upsilon_rel(Sum(terms))
        assert time.perf_counter() - start < 3
        assert value == LaurentPoly({(d, 0): 1 for d in range(n)})

    def test_deep_chains_under_the_default_recursion_limit(self):
        # each constructor reads its arguments' two fields, so no depth recurses
        depth = 5000
        blown = smooth_from_betti([1, 0, 1, 0, 1], 2)
        for _ in range(depth):
            blown = BlowUpRel(ambient=blown, center=point_atom(), codim=2)
        assert upsilon_rel(blown) == LaurentPoly.s(2) + LaurentPoly.t(2).scale(depth)
        assert dim(blown) == 2
        scaled = point_atom()
        for i in range(depth):
            scaled = IntScale(-1, Sum((scaled, zero_expr())) if i % 2 else Diff(scaled, zero_expr()))
        assert upsilon_rel(scaled) == LaurentPoly.one()
        assert dim(scaled) == 0


class TestEquality:
    # a class is its value and dimension: how it was written is not kept
    def test_reordered_sums_are_equal(self):
        p1, p2 = smooth_from_betti([1, 0, 1], 1), smooth_from_betti([1, 0, 1, 0, 1], 2)
        assert Sum((p1, p2)) == Sum((p2, p1))
        assert hash(Sum((p1, p2))) == hash(Sum((p2, p1)))
        assert Sum((p1, p1)) == IntScale(2, p1)

    def test_dimension_tells_equal_values_apart(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        assert upsilon_rel(Diff(p1, p1)) == upsilon_rel(zero_expr())
        assert Diff(p1, p1) != zero_expr()


class TestConstructors:
    # a projective bundle and a fibration are products with an absolute class
    def test_fibration_is_abs_product(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        fiber = AbsMotive.general_linear(2)
        assert Fibration(p1, fiber) == AbsProduct(fiber, p1)

    def test_proj_bundle_is_abs_product(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        for r in range(1, 5):
            assert ProjBundle(p1, r) == AbsProduct(AbsMotive.projective_space(r - 1), p1)

    def test_proj_bundle_rank_below_one(self):
        with pytest.raises(DimMismatchError, match="^fiber rank must be at least 1$"):
            ProjBundle(point_atom(), 0)

    def test_finite_push_is_its_argument(self):
        e = smooth_from_betti([1, 0, 1], 1)
        assert FinitePush(e) is e

    def test_projective_space(self):
        for n in range(6):
            pn = AbsMotive.projective_space(n)
            assert len(pn.poly.terms) == n + 1
            assert pn.dim() == n


class TestProjectiveBundle:
    def test_line_bundle_over_line(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        s = LaurentPoly.s(1)
        assert projective_bundle_value(p1, 2) == s + s.shift(2)

    def test_rank_one_is_identity(self):
        rng = random.Random(33)
        for _ in range(50):
            e = _random_geometric_expr(rng)
            assert projective_bundle_value(e, 1) == upsilon_rel(e)

    def test_plane_over_point_cell_count(self):
        # cell decomposition oracle: one cell in each even degree 0, 2, 4
        expected = LaurentPoly({(0, 0): 1, (2, 0): 1, (4, 0): 1})
        assert projective_bundle_value(point_atom(), 3) == expected


class TestBlowUpRelation:
    def test_plane_at_point_by_hand(self):
        p2 = smooth_from_betti([1, 0, 1, 0, 1], 2)
        # (s^2 + t^2) - (1 + t^2) == s^2 - 1
        assert blowup_relation_check(p2, point_atom(), 2)

    def test_empty_center_degenerate(self):
        p2 = smooth_from_betti([1, 0, 1, 0, 1], 2)
        assert blowup_relation_check(p2, zero_expr(), 2)

    def test_random_trees(self):
        rng = random.Random(34)
        for _ in range(100):
            r = rng.randint(2, 4)
            dc = rng.randint(0, 2)
            center = smooth_from_betti(random_betti(rng, dc), dc)
            ambient = smooth_from_betti(random_betti(rng, dc + r), dc + r)
            assert blowup_relation_check(ambient, center, r)

    def test_closed_form_matches_one_shift_per_codim(self):
        # oracle: the exceptional divisor added one power of L at a time
        rng = random.Random(39)
        for _ in range(100):
            r = rng.randint(2, 12)
            dc = rng.randint(0, 3)
            center = smooth_from_betti(random_betti(rng, dc), dc)
            ambient = smooth_from_betti(random_betti(rng, dc + r), dc + r)
            expected = upsilon_rel(ambient)
            for k in range(1, r):
                expected = expected + upsilon_rel(center).shift(2 * k)
            assert upsilon_rel(BlowUpRel(ambient=ambient, center=center, codim=r)) == expected

    def test_dim_mismatch(self):
        p2 = smooth_from_betti([1, 0, 1, 0, 1], 2)
        with pytest.raises(DimMismatchError):
            blowup_relation_check(p2, p2, 2)
        with pytest.raises(DimMismatchError):
            BlowUpRel(ambient=p2, center=p2, codim=2)


class TestDimensionBookkeeping:
    def test_degree_twice_dim(self):
        rng = random.Random(35)
        for _ in range(100):
            e = _random_geometric_expr(rng)
            d = dim(e)
            value = upsilon_rel(e)
            if d is None or value.is_zero():
                continue
            assert weighted_degree(value) == 2 * d

    def test_bundle_and_product_dims(self):
        p1 = smooth_from_betti([1, 0, 1], 1)
        assert dim(ProjBundle(p1, 3)) == 3
        assert dim(AbsProduct(AbsMotive.affine_line(), p1)) == 2
        assert dim(Fibration(p1, AbsMotive.general_linear(2))) == 5

    def test_zero_dim_undefined(self):
        assert dim(zero_expr()) is None

    def test_diff_and_scale_dims(self):
        p1, p2 = smooth_from_betti([1, 0, 1], 1), smooth_from_betti([1, 0, 1, 0, 1], 2)
        assert dim(Diff(p1, p1)) == 1
        assert dim(Diff(p1, p2)) is None
        assert dim(IntScale(0, p2)) is None
        assert dim(IntScale(3, p2)) == dim(p2) == 2


class TestAbsMotive:
    def test_distinguished_values(self):
        assert AbsMotive.point().poly == LaurentPoly.one()
        assert AbsMotive.affine_line().poly == LaurentPoly.t(2)
        assert AbsMotive.multiplicative_group().poly == LaurentPoly.t(2) - LaurentPoly.one()
        gl1 = AbsMotive.general_linear(1)
        assert gl1.poly == AbsMotive.multiplicative_group().poly

    def test_gl2_cell_count(self):
        # |GL_2| over the Lefschetz class q = t^2: (q^2 - 1)(q^2 - q)
        q = LaurentPoly.t(2)
        expected = (q * q - LaurentPoly.one()) * (q * q - q)
        assert AbsMotive.general_linear(2).poly == expected

    def test_s_dependence_rejected(self):
        with pytest.raises(ValueError):
            AbsMotive(LaurentPoly.s(1))

    def test_point_base_specialization(self):
        rng = random.Random(36)
        for _ in range(50):
            d = rng.randint(0, 3)
            bettis = random_betti(rng, d)
            value = upsilon_rel(over_point_from_betti(bettis))
            assert value.is_t_only()
            assert value == LaurentPoly({(i, 0): b for i, b in enumerate(bettis) if b})


class TestBilinearity:
    def test_abs_product_over_sum_and_diff(self):
        rng = random.Random(37)
        for _ in range(50):
            t = AbsMotive.affine_line()
            e1, e2 = _random_geometric_expr(rng), _random_geometric_expr(rng)
            assert upsilon_rel(AbsProduct(t, Sum((e1, e2)))) == upsilon_rel(
                AbsProduct(t, e1)
            ) + upsilon_rel(AbsProduct(t, e2))
            assert upsilon_rel(AbsProduct(t, Diff(e1, e2))) == upsilon_rel(
                AbsProduct(t, e1)
            ) - upsilon_rel(AbsProduct(t, e2))
