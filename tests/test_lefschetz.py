"""Spin decomposition, tensor products, genus counts, and Jordan censuses."""

import random
from fractions import Fraction
from math import comb

import pytest
from test_linalg import bareiss_oracle, gauss_rank_oracle, int_product

from gvmot import linalg
from gvmot.errors import NotRepresentationError, ShapeMismatchError, VirtualInputError
from gvmot.jsonio import parse_document
from gvmot.lefschetz import (
    BispinContent,
    GradedNilpotent,
    JordanCensus,
    SpinMultiset,
    _right_factor,
    census_count,
    census_from_bispin,
    genus_count,
    genus_decompose,
    jordan_census,
    realize_bispin,
    spin_decompose,
    strings_operator,
    tensor,
    torus_rep,
)
from gvmot.verify import random_bispin, random_graded_nilpotent, random_spins


def tensor_weight_oracle(x: SpinMultiset, y: SpinMultiset) -> SpinMultiset:
    """Brute-force tensor product: convolve weight dimensions, then decompose."""
    if x.is_zero() or y.is_zero():
        return SpinMultiset.zero()
    conv = {}
    for u, du in x.weight_dims().items():
        for w, dw in y.weight_dims().items():
            conv[u + w] = conv.get(u + w, 0) + du * dw
    return spin_decompose(conv)


def torus_rep_oracle(g_max: int):
    """torus_rep(g) for g < g_max by the tensor-power recursion T_g = T_{g-1} x T_1."""
    rep = SpinMultiset({0: 1})
    for _ in range(g_max):
        yield rep
        rep = tensor(rep, SpinMultiset({1: 1, 0: 2}))


def genus_decompose_oracle(v: BispinContent) -> dict[int, SpinMultiset]:
    """Torus-basis expansion by top-down subtraction, one right spin at a time.

    torus_rep(g) has the unique top left spin 2j = g with multiplicity 1, so
    the coefficient of genus g is what is left at 2j = g after subtracting
    the higher genera.
    """
    out: dict[int, dict[int, int]] = {}
    for two_jr in sorted({r for (_, r), _ in v.items()}):
        remaining = {l: m for (l, r), m in v.items() if r == two_jr}
        for g in range(max(remaining), -1, -1):
            c = remaining.get(g, 0)
            if c:
                for two_jl, t in torus_rep(g).items():
                    remaining[two_jl] = remaining.get(two_jl, 0) - c * t
                out.setdefault(g, {})[two_jr] = c
        assert not any(remaining.values()), "torus-basis solve left a remainder"
    return {g: SpinMultiset(mult) for g, mult in sorted(out.items())}


def assert_span_fold_composites_vanish(op: GradedNilpotent) -> None:
    """Composing span = (max - min)/2 + 1 maps out of any degree leaves the support."""
    if not op.dims:
        return
    span = (max(op.dims) - min(op.dims)) // 2 + 1
    for alpha in op.dims:
        acc = op.map_at(alpha)
        for i in range(1, span):
            acc = linalg.mat_mul(op.map_at(alpha + 2 * i), acc)
        assert all(c == 0 for row in acc for c in row), (op.dims, alpha)


def random_rational_operator(rng):
    """Dims and low-rank maps whose entries are JSON ints or "p/q" strings."""

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        den = rng.randint(2, 9)
        return f"{rng.randint(-2 * den, 2 * den)}/{den}"

    degrees = sorted(rng.sample(range(-4, 5, 2), rng.randint(2, 4)))
    dims = {d: rng.randint(1, 4) for d in degrees}
    maps = {}
    for d in degrees:
        if d + 2 in dims:
            k = rng.randint(0, min(dims[d], dims[d + 2]))
            left = [[Fraction(entry()) for _ in range(k)] for _ in range(dims[d + 2])]
            right = [[Fraction(entry()) for _ in range(dims[d])] for _ in range(k)]
            product = linalg.mat_mul(left, right) if k else linalg.zero_matrix(dims[d + 2], dims[d])
            maps[d] = [[int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in row]
                       for row in product]
    return dims, maps


def as_fractions(rows):
    return [[Fraction(c) for c in row] for row in rows]


def mixed_entries(rng, rows):
    """The rows with strings as Fractions, and some ints as integral Fractions."""
    return [[c if type(c) is int and rng.random() < 0.5 else Fraction(c) for c in row] for row in rows]


def jordan_census_oracle(x: GradedNilpotent) -> JordanCensus:
    """Census from one product and one Bareiss rank per composite M^k out of every degree.

    With r(a, k) the rank of the k-fold composite out of degree a, the number
    of strings of length >= l starting at a is r(a, l-1) - r(a-2, l), and the
    census is the difference of consecutive tail counts.  Composites extend
    one factor at a time so each rank costs a single product, and each rank
    is the elementwise Bareiss oracle's, not the packed elimination's.
    """
    if not x.dims:
        return JordanCensus()
    span = (max(x.dims) - min(x.dims)) // 2 + 1
    ranks: dict[tuple[int, int], int] = {}
    for alpha, dim_alpha in x.dims.items():
        ranks[(alpha, 0)] = dim_alpha
        acc = None
        for k in range(1, span + 2):
            step = x.maps.get(alpha + 2 * (k - 1))
            if step is None:  # a missing map is zero, and so is every longer composite
                break
            acc = step if acc is None else linalg.mat_mul(step, acc)
            ranks[(alpha, k)] = len(bareiss_oracle(acc)[0])

    def r(alpha: int, k: int) -> int:
        return ranks.get((alpha, k), 0) if k >= 0 else 0

    cells = {}
    for alpha in x.dims:
        for l in range(1, span + 1):
            n = (r(alpha, l - 1) - r(alpha - 2, l)) - (r(alpha, l) - r(alpha - 2, l + 1))
            if n:
                cells[(alpha, l)] = n
    return JordanCensus(cells)


def json_entry(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def random_flag_operator(rng):
    """A document of random low-rank maps on degrees of both parities, with gaps.

    Each map that has a source and a target is missing, or a product of
    random factors through a rank from 0 (all zero) to full; entries are JSON
    ints or "p/q" strings.
    """

    def entry():
        if rng.random() < 0.7:
            return rng.randint(-3, 3)
        den = rng.randint(2, 5)
        return Fraction(rng.randint(-2 * den, 2 * den), den)

    degrees = sorted(rng.sample(range(-5, 6), rng.randint(1, 9)))
    dims = {d: rng.randint(1, 5) for d in degrees}
    maps = {}
    for d in degrees:
        if d + 2 not in dims or rng.random() < 0.2:
            continue
        k = rng.randint(0, min(dims[d], dims[d + 2]))
        left = [[entry() for _ in range(k)] for _ in range(dims[d + 2])]
        right = [[entry() for _ in range(dims[d])] for _ in range(k)]
        product = linalg.mat_mul(left, right) if k else linalg.zero_matrix(dims[d + 2], dims[d])
        maps[str(d)] = [[json_entry(c) for c in row] for row in product]
    return {"v": 1, "kind": "graded_nilpotent", "dims": {str(d): n for d, n in dims.items()}, "maps": maps}


def census_from_rank_oracle(dims, maps) -> JordanCensus:
    """Census from Gauss ranks of the unscaled rational composites."""
    span = (max(dims) - min(dims)) // 2 + 1

    def r(alpha, k):
        if k < 0 or alpha not in dims:
            return 0
        acc = linalg.identity(dims[alpha])
        for i in range(k):
            step = maps.get(alpha + 2 * i)
            if step is None:
                return 0
            acc = linalg.mat_mul(step, acc)
        return gauss_rank_oracle(acc)

    cells = {}
    for alpha in dims:
        for l in range(1, span + 1):
            n = (r(alpha, l - 1) - r(alpha - 2, l)) - (r(alpha, l) - r(alpha - 2, l + 1))
            if n:
                cells[(alpha, l)] = n
    return JordanCensus(cells)


class TestSpinDecompose:
    def test_single_spin_one_string(self):
        assert spin_decompose({-2: 1, 0: 1, 2: 1}) == SpinMultiset({2: 1})

    def test_genus_one_weights(self):
        assert spin_decompose({-1: 1, 0: 2, 1: 1}) == SpinMultiset({1: 1, 0: 2})

    def test_trivial_action(self):
        assert spin_decompose({0: 5}) == SpinMultiset({0: 5})

    def test_symmetry_violation(self):
        with pytest.raises(NotRepresentationError):
            spin_decompose({-1: 1, 0: 1})

    def test_unimodality_violation(self):
        with pytest.raises(NotRepresentationError):
            spin_decompose({-2: 1, 0: 0, 2: 1})

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            x = random_spins(rng)
            assert spin_decompose(x.weight_dims()) == x


class TestTensor:
    def test_half_times_half(self):
        half = SpinMultiset({1: 1})
        assert tensor(half, half) == SpinMultiset({2: 1, 0: 1})

    def test_torus_squared(self):
        expected = SpinMultiset({2: 1, 1: 4, 0: 5})
        got = tensor(torus_rep(1), torus_rep(1))
        assert got == expected
        assert got == tensor_weight_oracle(torus_rep(1), torus_rep(1))

    def test_trivial_identity(self):
        rng = random.Random(12)
        unit = SpinMultiset({0: 1})
        for _ in range(50):
            x = random_spins(rng)
            assert tensor(x, unit) == x

    def test_oracle_agreement(self):
        rng = random.Random(13)
        for _ in range(200):
            x, y = random_spins(rng, 4, 3), random_spins(rng, 4, 3)
            assert tensor(x, y) == tensor_weight_oracle(x, y)

    def test_dimension_multiplicative(self):
        rng = random.Random(14)
        for _ in range(500):
            x, y = random_spins(rng, 4, 3), random_spins(rng, 4, 3)
            assert tensor(x, y).dimension() == x.dimension() * y.dimension()


class TestTorusRep:
    def test_genus_zero(self):
        assert torus_rep(0) == SpinMultiset({0: 1})

    def test_genus_one(self):
        assert torus_rep(1) == SpinMultiset({1: 1, 0: 2})

    def test_genus_two_frozen_from_oracle(self):
        # frozen from the brute-force tensor oracle
        assert torus_rep(2) == SpinMultiset({2: 1, 1: 4, 0: 5})
        assert torus_rep(2) == tensor_weight_oracle(torus_rep(1), torus_rep(1))

    def test_dimension_power_of_four(self):
        for g in range(6):
            assert torus_rep(g).dimension() == 4**g

    def test_closed_form_matches_tensor_recursion(self):
        for g, expected in enumerate(torus_rep_oracle(60)):
            assert torus_rep(g) == expected, g

    def test_high_genus_needs_no_recursion(self):
        rep = torus_rep(1500)
        assert rep.dimension() == 4**1500
        assert max(rep.mult) == 1500 and rep.mult[1500] == 1
        assert not rep.is_virtual()


class TestGenusDecompose:
    def test_point(self):
        out = genus_decompose(BispinContent({(0, 0): 1}))
        assert out == {0: SpinMultiset({0: 1})}

    def test_torus_basis_element(self):
        v = BispinContent({(1, 0): 1, (0, 0): 2})
        out = genus_decompose(v)
        assert out == {1: SpinMultiset({0: 1})}

    def test_left_spin_one_triangular_solve(self):
        # (1)_L = I_2 - 4 I_1 + 3 I_0, frozen from the triangular oracle
        out = genus_decompose(BispinContent({(2, 0): 1}))
        assert out == {
            0: SpinMultiset({0: 3}),
            1: SpinMultiset({0: -4}),
            2: SpinMultiset({0: 1}),
        }

    def test_reconstruction_random_virtual(self):
        rng = random.Random(15)
        for _ in range(300):
            v = random_bispin(rng, 5, 4, virtual=True)
            rebuilt = {}
            for g, right in genus_decompose(v).items():
                for two_jl, ml in torus_rep(g).items():
                    for two_jr, mr in right.items():
                        key = (two_jl, two_jr)
                        rebuilt[key] = rebuilt.get(key, 0) + ml * mr
            assert BispinContent(rebuilt) == v


class TestClosedFormOracle:
    def test_random_virtual_contents(self):
        rng = random.Random(17)
        for _ in range(500):
            v = random_bispin(rng, 12, 6, virtual=True)
            assert genus_decompose(v) == genus_decompose_oracle(v), v

    def test_high_left_spin(self):
        v = BispinContent({(600, 0): 1})
        out = genus_decompose(v)
        assert out == genus_decompose_oracle(v)
        assert sorted(out) == list(range(601))


class TestGenusCount:
    def test_point(self):
        pt = BispinContent({(0, 0): 1})
        assert [genus_count(pt, g) for g in range(3)] == [1, 0, 0]

    def test_left_spin_one(self):
        v = BispinContent({(2, 0): 1})
        assert [genus_count(v, g) for g in (0, 1, 2)] == [3, -4, 1]

    def test_vanishes_above_top_left_spin(self):
        rng = random.Random(16)
        for _ in range(100):
            v = random_bispin(rng, 4, 3)
            top = max(jl for (jl, _) in v.mult)
            assert genus_count(v, top + 1) == 0
            assert genus_count(v, top + 3) == 0

    @pytest.mark.parametrize("virtual", [False, True])
    def test_closed_form_equals_the_right_factor(self, virtual):
        # the count read off the closed form against the signed dimension of the built factor
        rng = random.Random(1607 + virtual)
        for _ in range(300):
            v = random_bispin(rng, 14, 9, virtual=virtual)
            top = max((jl for (jl, _) in v.mult), default=0)
            for g in range(-1, top + 3):
                assert genus_count(v, g) == _right_factor(v, g).signed_dimension(), (v, g)


class TestJordanCensus:
    def test_zero_operator(self):
        op = GradedNilpotent({0: 4})
        assert jordan_census(op) == JordanCensus({(0, 1): 4})

    def test_identity_chain(self):
        op = GradedNilpotent({-2: 1, 0: 1, 2: 1}, {-2: [[1]], 0: [[1]]})
        assert jordan_census(op) == JordanCensus({(-2, 3): 1})

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            GradedNilpotent({0: 2, 2: 1}, {0: [[1], [1]]})

    def test_map_into_missing_degree_rejected_when_nonzero(self):
        with pytest.raises(ShapeMismatchError):
            GradedNilpotent({0: 1}, {0: [[1]]})

    def test_entry_types(self):
        for entry in (True, 0.5, "1/2"):
            with pytest.raises(TypeError):
                GradedNilpotent({0: 1, 2: 1}, {0: [[entry]]})
            with pytest.raises(TypeError):
                GradedNilpotent({0: 2, 2: 1}, {0: [[1, entry]]})
        with pytest.raises(TypeError):
            GradedNilpotent({0: 1}, {0: [[0.0]]})

    def test_maps_stored_as_ints(self):
        rows = [[4, -6]]
        op = GradedNilpotent({0: 2, 2: 1}, {0: rows})
        rows[0][0] = 5  # an int map is stored as it is, not rescaled, but as a copy
        assert op.maps[0] == [[4, -6]]
        op = GradedNilpotent({0: 2, 2: 1}, {0: [[Fraction(4, 2), 3]]})
        assert op.maps[0] == [[2, 3]] and type(op.maps[0][0][0]) is int
        op = GradedNilpotent({0: 2, 2: 1}, {0: [[Fraction(1, 2), Fraction(-2, 3)]]})
        assert op.maps[0] == [[3, -4]]

    def test_rational_entries_match_unscaled_ranks(self):
        rng = random.Random(19)
        rational = longer = 0
        for _ in range(100):
            dims, maps = random_rational_operator(rng)
            rational += any(type(c) is str for rows in maps.values() for row in rows for c in row)
            expected = census_from_rank_oracle(dims, {d: as_fractions(rows) for d, rows in maps.items()})
            doc = {"v": 1, "kind": "graded_nilpotent", "dims": {str(d): n for d, n in dims.items()},
                   "maps": {str(d): rows for d, rows in maps.items()}}
            _, parsed = parse_document(doc)
            built = GradedNilpotent(dims, {d: mixed_entries(rng, rows) for d, rows in maps.items()})
            assert jordan_census(parsed) == expected
            assert jordan_census(built) == expected
            longer += any(l >= 3 for _, l in expected.mult)
        assert rational >= 50 and longer >= 15, (rational, longer)

    def test_total_dimension(self):
        rng = random.Random(17)
        for _ in range(100):
            op = random_graded_nilpotent(rng)
            assert jordan_census(op).total_dimension() == op.dimension()

    def test_conjugation_invariance(self):
        rng = random.Random(18)
        for _ in range(40):
            op = random_graded_nilpotent(rng)
            basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
            assert jordan_census(op) == jordan_census(op.conjugate(basis))


class TestFlagCensus:
    """The one-elimination-per-map census against the composite-by-composite oracle."""

    def test_matches_composite_oracle(self):
        rng = random.Random(28)
        seen = dict.fromkeys(("both parities", "gap in a chain", "rational", "rank 0", "partial", "full", "long"), 0)
        for _ in range(450):
            doc = random_flag_operator(rng)
            _, op = parse_document(doc)
            census = jordan_census(op)
            assert census == jordan_census_oracle(op), doc
            ranks = [(linalg.mat_rank(m), min(op.dims[a], op.dims[a + 2])) for a, m in op.maps.items()]
            seen["both parities"] += len({d % 2 for d in op.dims}) == 2
            seen["gap in a chain"] += any(a - 2 in op.maps and a + 2 in op.maps and a not in op.maps for a in op.dims)
            seen["rational"] += any(type(c) is str for rows in doc["maps"].values() for row in rows for c in row)
            seen["rank 0"] += any(r == 0 for r, _ in ranks)
            seen["partial"] += any(0 < r < full for r, full in ranks)
            seen["full"] += any(r == full for r, full in ranks)
            seen["long"] += any(l >= 3 for _, l in census.mult)
        assert min(seen.values()) >= 20, seen

    def test_conjugated_strings(self):
        rng = random.Random(29)
        for _ in range(150):
            cells = JordanCensus(random_cells(rng))
            op = strings_operator(cells)
            op = op.conjugate({d: linalg.random_invertible(rng, n) for d, n in op.dims.items()})
            assert jordan_census(op) == jordan_census_oracle(op) == cells
        # dense operators of about 50 dims, whose eliminations repack their rows
        for _ in range(3):
            cells = JordanCensus({(alpha, l): rng.randint(1, 2) for alpha in range(-6, 1, 2) for l in range(1, 5)})
            op = strings_operator(cells)
            op = op.conjugate({d: linalg.random_invertible(rng, n, spread=3) for d, n in op.dims.items()})
            assert 40 <= op.dimension() <= 80 and max(abs(c) for m in op.maps.values() for row in m for c in row) > 100
            assert jordan_census(op) == jordan_census_oracle(op) == cells

    def test_conjugated_strings_past_64_bit_slots(self, monkeypatch):
        # bases with entries up to 2^40 make maps whose products, and so the
        # eliminations, need slots wider than 64 bits
        rng = random.Random(33)
        widths = []
        eliminate = linalg._eliminate

        def recorded(rows, width, ncols, bound):
            widths.append(width)
            return eliminate(rows, width, ncols, bound)

        monkeypatch.setattr(linalg, "_eliminate", recorded)
        wide = 0
        for _ in range(40):
            cells = JordanCensus(random_cells(rng))
            op = strings_operator(cells)
            op = op.conjugate({d: linalg.random_invertible(rng, n, spread=2**40) for d, n in op.dims.items()})
            widths.clear()
            assert jordan_census(op) == jordan_census_oracle(op) == cells
            wide += max(widths, default=0) > 64
        assert wide >= 20, wide

    def test_benchmark_size_conjugated_strings(self, monkeypatch):
        # every string shape in degrees -6..6 six times (504 dims); each
        # degree's basis is shuffled, then changed by P = I + N with N dense on
        # the top-right quarter, so N^2 = 0 and P^-1 = I - N.  The pivot rule
        # keeps every slot the eliminations reach at 32 bits or less
        rng = random.Random(31)
        widths = []
        eliminate, respace = linalg._eliminate, linalg._respace

        def recorded(rows, width, ncols, bound):
            widths.append(width)
            monkeypatch.setattr(linalg, "_respace", widened)
            try:
                return eliminate(rows, width, ncols, bound)
            finally:
                monkeypatch.setattr(linalg, "_respace", respace)

        def widened(rows, width, n, keep, new_width):
            widths.append(new_width)
            return respace(rows, width, n, keep, new_width)

        cells = JordanCensus({(alpha, l): 6 for alpha in range(-6, 7, 2) for l in range(1, (10 - alpha) // 2)})
        op = strings_operator(cells)
        shuffled = {d: rng.sample(range(n), n) for d, n in op.dims.items()}
        quarter = {d: [[rng.randint(-2, 2) if i < n // 2 <= j else 0 for j in range(n)] for i in range(n)]
                   for d, n in op.dims.items()}
        basis = {d: [[int(i == j) + c for j, c in enumerate(row)] for i, row in enumerate(q)] for d, q in quarter.items()}
        inverse = {d: [[int(i == j) - c for j, c in enumerate(row)] for i, row in enumerate(q)] for d, q in quarter.items()}
        maps = {}
        for a, m in op.maps.items():
            m = [[m[i][j] for j in shuffled[a]] for i in shuffled[a + 2]]
            maps[a] = int_product(int_product(basis[a + 2], m), inverse[a])
        dense = GradedNilpotent(op.dims, maps)
        assert dense.dimension() == 504 and max(abs(c) for m in maps.values() for row in m for c in row) > 20
        monkeypatch.setattr(linalg, "_eliminate", recorded)
        assert jordan_census(dense) == cells
        assert max(widths) <= 32 and len(set(widths)) > 1, sorted(set(widths))

    def test_one_elimination_per_stored_map(self, monkeypatch):
        rng = random.Random(30)
        ops = [parse_document(random_flag_operator(rng))[1] for _ in range(100)]
        ops += [strings_operator(JordanCensus(random_cells(rng))) for _ in range(20)]
        shapes = []
        eliminate = linalg._eliminate

        def counted(rows, width, ncols, bound):
            shapes.append((len(rows), ncols))
            return eliminate(rows, width, ncols, bound)

        def composite(*args):
            raise AssertionError("the census multiplies or ranks a composite")

        def unpacked(*args):
            raise AssertionError("the census hands list rows to pivots")

        monkeypatch.setattr(linalg, "_eliminate", counted)
        monkeypatch.setattr(linalg, "mat_mul", composite)
        monkeypatch.setattr(linalg, "mat_rank", composite)
        monkeypatch.setattr(linalg, "pivots", unpacked)
        for op in ops:
            shapes.clear()
            jordan_census(op)
            assert sorted(shapes) == sorted((op.dims[a + 2], op.dims[a]) for a in op.maps)


class TestCensusFromBispin:
    def test_point(self):
        assert census_from_bispin(BispinContent({(0, 0): 1})) == JordanCensus({(0, 1): 1})

    def test_right_string_of_length_three(self):
        assert census_from_bispin(BispinContent({(0, 2): 1})) == JordanCensus({(-2, 3): 1})

    def test_left_spin_one_weights(self):
        got = census_from_bispin(BispinContent({(2, 0): 1}))
        assert got == JordanCensus({(-2, 1): 1, (0, 1): 1, (2, 1): 1})

    def test_virtual_rejected(self):
        with pytest.raises(VirtualInputError):
            census_from_bispin(BispinContent({(0, 0): -1}))

    def test_realize_matches(self):
        rng = random.Random(19)
        for _ in range(60):
            v = random_bispin(rng, 4, 2)
            assert jordan_census(realize_bispin(v)) == census_from_bispin(v)


def census_count_oracle(c: JordanCensus, g: int) -> int:
    """The genus-g count cell by cell, two math.comb binomials per cell."""

    def binom(n: int, k: int) -> int:
        return comb(n, k) if 0 <= k <= n else 0

    total = 0
    for (alpha, l), n in c.items():
        if alpha + l >= 1:
            sign = -1 if (alpha + g) % 2 else 1
            total += sign * l * n * (binom(alpha + l + g, 2 * g + 1) - binom(alpha + l + g - 2, 2 * g + 1))
    return total


class TestCensusCount:
    def test_point_validates_binomial_convention(self):
        # with the generalized binomial C(-1, 1) = -1 this would give 2
        assert census_count(JordanCensus({(0, 1): 1}), 0) == [1]

    def test_matches_spin_route_on_left_spin_one(self):
        census = JordanCensus({(-2, 1): 1, (0, 1): 1, (2, 1): 1})
        assert census_count(census, 2) == [3, -4, 1]

    def test_empty_census(self):
        assert census_count(JordanCensus(), 3) == [0, 0, 0, 0]
        assert census_count(JordanCensus(), -1) == []

    def test_sign_convention_on_virtual_negative_degree(self):
        # census entries read off flattened polynomials may sit at negative
        # odd degrees; the sign is literal parity of alpha + g (convention pin)
        census = JordanCensus({(-1, 3): 1})
        assert census_count(census, 0) == [-6]
        assert census_count(JordanCensus({(-3, 1): 1}), 0) == [0]

    def test_binomial_rows_match_comb_oracle(self):
        # virtual and honest cells of both parities, some below N = 1 and some
        # long, against two math.comb binomials per cell and genus
        rng = random.Random(32)
        for _ in range(300):
            cells = {}
            for _ in range(rng.randint(0, 8)):
                key = (rng.randint(-12, 12), rng.randint(1, rng.choice([3, 30])))
                cells[key] = cells.get(key, 0) + rng.choice([-3, -1, 1, 2, 5])
            census = JordanCensus(cells)
            genus_max = rng.randint(0, 25)
            expected = [census_count_oracle(census, g) for g in range(genus_max + 1)]
            assert census_count(census, genus_max) == expected, cells
        assert census_count(JordanCensus({(0, 1): 1}), -1) == []

    def test_high_left_spin_census_route(self):
        # hst on [[998, 0, 1]]: 999 cells, each genus up to 998
        v = BispinContent({(998, 0): 1})
        counts = census_count(census_from_bispin(v), 998)
        assert [counts[g] for g in (0, 1, 500, 997, 998)] == [genus_count(v, g) for g in (0, 1, 500, 997, 998)]
        assert counts[0] == 999 and counts[998] == 1

    def test_routes_agree_randomized(self):
        rng = random.Random(20)
        for _ in range(300):
            v = random_bispin(rng, 6, 5)
            assert [genus_count(v, g) for g in range(6)] == census_count(census_from_bispin(v), 5)


class TestDenseOracle:
    def test_census_sizes_match_kernel_powers(self):
        from gvmot.verify import _dense_size_distribution

        rng = random.Random(21)
        for _ in range(40):
            op = random_graded_nilpotent(rng)
            sizes = {}
            for (_, l), n in jordan_census(op).items():
                sizes[l] = sizes.get(l, 0) + n
            assert sizes == _dense_size_distribution(op)


def random_cells(rng) -> dict[tuple[int, int], int]:
    cells = {}
    for _ in range(rng.randint(1, 5)):
        alpha = rng.randint(-4, 3)
        l = rng.randint(1, 4)
        cells[(alpha, l)] = cells.get((alpha, l), 0) + rng.randint(1, 2)
    return cells


class TestGroundTruthStrings:
    def test_census_recovers_chosen_strings(self):
        rng = random.Random(22)
        for _ in range(60):
            cells = random_cells(rng)
            op = strings_operator(JordanCensus(cells))
            assert jordan_census(op) == JordanCensus(cells)

    def test_census_survives_conjugation_of_ground_truth(self):
        rng = random.Random(23)
        for _ in range(60):
            cells = random_cells(rng)
            op = strings_operator(JordanCensus(cells))
            basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
            assert jordan_census(op.conjugate(basis)) == JordanCensus(cells)


class TestNilpotentByConstruction:
    def test_ground_truth_strings(self):
        rng = random.Random(25)
        for _ in range(40):
            assert_span_fold_composites_vanish(strings_operator(JordanCensus(random_cells(rng))))

    def test_realized_bispin(self):
        rng = random.Random(26)
        for _ in range(40):
            assert_span_fold_composites_vanish(realize_bispin(random_bispin(rng, 4, 3)))

    def test_random_and_conjugated(self):
        rng = random.Random(27)
        for _ in range(40):
            op = random_graded_nilpotent(rng)
            assert_span_fold_composites_vanish(op)
            basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
            assert_span_fold_composites_vanish(op.conjugate(basis))


class TestIntegerArguments:
    """A constructor takes ints only: a float, a Fraction or a bool never truncates to one."""

    def test_census_key_not_truncated(self):
        with pytest.raises(TypeError, match="string degree must be int, got float"):
            JordanCensus({(0.5, 1): 1, (0, 1): 2})

    def test_bispin_key_not_truncated(self):
        with pytest.raises(TypeError, match="doubled spin must be int, got float"):
            BispinContent({(2, 0): 1, (2.5, 0): 5})

    def test_spin_key_not_truncated(self):
        with pytest.raises(TypeError, match="doubled spin must be int, got Fraction"):
            SpinMultiset({Fraction(3, 2): 1})

    def test_multiplicity_is_not_a_bool(self):
        with pytest.raises(TypeError, match="multiplicity must be int, got bool"):
            SpinMultiset({1: True})

    def test_weight_not_truncated(self):
        with pytest.raises(TypeError, match="weight must be int, got float"):
            spin_decompose({-1.5: 2, 1.5: 2})

    def test_weight_dimension_not_truncated(self):
        for bad in (2.7, Fraction(5, 2), True):
            with pytest.raises(TypeError, match=f"weight dimension must be int, got {type(bad).__name__}"):
                spin_decompose({-1: bad, 1: bad})

    def test_graded_dimension_not_truncated(self):
        with pytest.raises(TypeError, match="dimension must be int, got float"):
            GradedNilpotent({0: 2.5, 2: 1})
