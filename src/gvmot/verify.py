"""Seeded randomized property suites, shared by the CLI and the test suite.

A property is a function (rng, scale) -> cases run, raising PropertyFailure
with a counterexample dump on violation.  Most are written as a check of one
case drawn from rng, which `register` runs per_scale * scale times and files
under its suite in SUITES, in definition order.  Given a seed the whole run
is deterministic, so reports are byte-identical across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import wraps
from itertools import product
from math import lcm
from typing import Callable

from . import linalg
from .counting import (
    CentralCharge,
    ClassLattice,
    EvalModel,
    FreeHallElement,
    NumClass,
    counting_polynomial,
    evaluate,
    same_phase_decompositions,
    semistable_exp,
    semistable_log,
)
from .errors import AsymmetricDefectError
from .gwseries import GVTable, GWSeries, gv_to_gw, gw_to_gv, sin_power_coefficient
from .laurent import LaurentPoly, RationalFn, weighted_degree
from .lefschetz import (
    BispinContent,
    GradedNilpotent,
    JordanCensus,
    SpinMultiset,
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
from .motives import (
    AbsMotive,
    AbsProduct,
    BlowUpRel,
    Diff,
    Fibration,
    FinitePush,
    ProjBundle,
    Sum,
    dim,
    over_point_from_betti,
    blowup_relation_check,
    smooth_from_betti,
    upsilon_rel,
)
from .stacks import StackClass, quotient_by_special_group, scale_by_variety, upsilon_stack


class PropertyFailure(AssertionError):
    """A randomized property found a counterexample."""


class _Counterexample(Exception):
    """A check's case, and the label of the sub-check it broke if not the property's name."""


def _fail(case: object, label: str = "") -> None:
    raise _Counterexample(case, label)


Property = Callable[[random.Random, int], int]

SUITES: dict[str, list[tuple[str, Property]]] = {}


def register(suite: str, per_scale: int | None = None) -> Callable[[Callable], Property]:
    """File the decorated prop_* in SUITES[suite], named without its prefix.

    With per_scale the definition checks one case drawn from rng and the
    property runs it per_scale * scale times; without, it counts its own
    cases.  A _fail is reported under the property's name or its own label.
    """

    def add(check: Callable) -> Property:
        name = check.__name__.removeprefix("prop_")

        @wraps(check)
        def prop(rng: random.Random, scale: int) -> int:
            try:
                if per_scale is None:
                    return check(rng, scale)
                for _ in range(per_scale * scale):
                    check(rng)
                return per_scale * scale
            except _Counterexample as exc:
                case, label = exc.args
                raise PropertyFailure(f"{label or name}: counterexample {case!r}") from None

        SUITES.setdefault(suite, []).append((name, prop))
        return prop

    return add


# -- random generators ----------------------------------------------------------


def random_spins(rng: random.Random, max_two_j: int = 6, max_mult: int = 5) -> SpinMultiset:
    mult = {}
    for two_j in range(max_two_j + 1):
        if rng.random() < 0.4:
            mult[two_j] = rng.randint(1, max_mult)
    return SpinMultiset(mult)


def random_bispin(
    rng: random.Random,
    max_two_j: int = 6,
    max_mult: int = 5,
    virtual: bool = False,
) -> BispinContent:
    mult = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(0, max_two_j), rng.randint(0, max_two_j))
        low = -max_mult if virtual else 1
        m = rng.randint(low, max_mult)
        if m:
            mult[key] = mult.get(key, 0) + m
    return BispinContent(mult)


def random_betti(rng: random.Random, d: int) -> list[int]:
    half = [1]
    for i in range(1, d + 1):
        step = rng.randint(0, 3)
        prev = half[i - 2] if i >= 2 else 0
        half.append(prev + step)
    full = half + half[-2::-1]
    return full


def random_graded_nilpotent(rng: random.Random, max_dim: int = 4) -> GradedNilpotent:
    degrees = sorted(rng.sample(range(-4, 5, 2), rng.randint(1, 4)))
    dims = {d: rng.randint(1, max_dim) for d in degrees}
    maps = {}
    for d in degrees:
        if d + 2 in dims:
            maps[d] = [
                [rng.randint(-2, 2) for _ in range(dims[d])]
                for _ in range(dims[d + 2])
            ]
    return GradedNilpotent(dims, maps)


def random_pointed_setup(rng: random.Random, rank: int | None = None):
    """A lattice with a strictly positive functional, plus a central charge."""
    rank = rank or rng.randint(1, 3)
    omega = tuple(Fraction(rng.randint(1, 3)) for _ in range(rank))
    generators = []
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.randint(-1, 3) for _ in range(rank))
        if any(g) and sum(w * c for w, c in zip(omega, g)) > 0:
            generators.append(g)
    if not generators:
        generators = [tuple(1 for _ in range(rank))]
    lattice = ClassLattice(rank, generators)
    b_field = tuple(Fraction(rng.randint(-1, 1)) for _ in range(rank))
    return lattice, CentralCharge(b_field, omega)


def random_effective(rng: random.Random, lattice: ClassLattice, omega, bound: int = 4):
    elements = lattice.monoid_elements(omega, Fraction(bound))
    return rng.choice(elements) if elements else None


def random_atom_class(rng: random.Random) -> StackClass:
    d = rng.randint(0, 2)
    expr = smooth_from_betti(random_betti(rng, d), d)
    return quotient_by_special_group(expr, AbsMotive.multiplicative_group())


# -- sl2 suite -------------------------------------------------------------------


@register("sl2", 200)
def prop_spin_roundtrip(rng: random.Random) -> None:
    x = random_spins(rng)
    if spin_decompose(x.weight_dims()) != x:
        _fail(x)


@register("sl2", 500)
def prop_tensor_dimension(rng: random.Random) -> None:
    x, y = random_spins(rng, 4, 3), random_spins(rng, 4, 3)
    if tensor(x, y).dimension() != x.dimension() * y.dimension():
        _fail((x, y))


@register("sl2", 150)
def prop_tensor_weight_oracle(rng: random.Random) -> None:
    x, y = random_spins(rng, 4, 3), random_spins(rng, 4, 3)
    if x.is_zero() or y.is_zero():
        return
    wx, wy = x.weight_dims(), y.weight_dims()
    conv: dict[int, int] = {}
    for u, du in wx.items():
        for w, dw in wy.items():
            conv[u + w] = conv.get(u + w, 0) + du * dw
    if spin_decompose(conv) != tensor(x, y):
        _fail((x, y))


@register("sl2", 150)
def prop_genus_reconstruction(rng: random.Random) -> None:
    v = random_bispin(rng, 4, 3, virtual=True)
    rebuilt: dict[tuple[int, int], int] = {}
    for g, right in genus_decompose(v).items():
        left = torus_rep(g)
        for two_jl, ml in left.items():
            for two_jr, mr in right.items():
                key = (two_jl, two_jr)
                rebuilt[key] = rebuilt.get(key, 0) + ml * mr
    if BispinContent(rebuilt) != v:
        _fail(v)


@register("sl2", 1000)
def prop_hst_equals_census(rng: random.Random) -> None:
    v = random_bispin(rng, 6, 5)
    lhs = [genus_count(v, g) for g in range(6)]
    rhs = census_count(census_from_bispin(v), 5)
    if lhs != rhs:
        _fail((v, lhs, rhs))


@register("sl2", 50)
def prop_ample_independence(rng: random.Random) -> None:
    v = random_bispin(rng, 4, 2)
    base = realize_bispin(v)
    basis = {d: linalg.random_invertible(rng, n) for d, n in base.dims.items()}
    if jordan_census(base) != jordan_census(base.conjugate(basis)):
        _fail(v)


# -- census suite -----------------------------------------------------------------


@register("census", 100)
def prop_census_dimension(rng: random.Random) -> None:
    op = random_graded_nilpotent(rng)
    if jordan_census(op).total_dimension() != op.dimension():
        _fail(op.dims)


@register("census", 100)
def prop_census_conjugation(rng: random.Random) -> None:
    op = random_graded_nilpotent(rng, max_dim=8)
    basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
    if jordan_census(op) != jordan_census(op.conjugate(basis)):
        _fail(op.dims)


@register("census", 200)
def prop_census_realize(rng: random.Random) -> None:
    v = random_bispin(rng, 5, 3)
    if jordan_census(realize_bispin(v)) != census_from_bispin(v):
        _fail(v)


@register("census", 60)
def prop_census_ground_truth(rng: random.Random) -> None:
    cells: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(-4, 3), rng.randint(1, 4))
        cells[key] = cells.get(key, 0) + rng.randint(1, 2)
    op = strings_operator(JordanCensus(cells))
    basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
    if jordan_census(op.conjugate(basis)) != JordanCensus(cells):
        _fail(cells)


@register("census", 60)
def prop_census_size_oracle(rng: random.Random) -> None:
    op = random_graded_nilpotent(rng)
    census = jordan_census(op)
    sizes: dict[int, int] = {}
    for (_, l), n in census.items():
        sizes[l] = sizes.get(l, 0) + n
    oracle = _dense_size_distribution(op)
    if sizes != oracle:
        _fail((op.dims, sizes, oracle))


def _dense_size_distribution(op: GradedNilpotent) -> dict[int, int]:
    """Jordan size counts from kernel dimensions of powers of the full matrix."""
    degrees = sorted(op.dims)
    offsets = {}
    total = 0
    for d in degrees:
        offsets[d] = total
        total += op.dims[d]
    dense = linalg.zero_matrix(total, total)
    for d in degrees:
        if d + 2 not in op.dims:
            continue
        block = op.map_at(d)
        for i in range(op.dims[d + 2]):
            for j in range(op.dims[d]):
                dense[offsets[d + 2] + i][offsets[d] + j] = block[i][j]
    kernel = [0]
    power = linalg.identity(total)
    while kernel[-1] != total:
        power = linalg.mat_mul(dense, power)
        kernel.append(total - linalg.mat_rank(power))
    kernel.append(kernel[-1])
    sizes = {}
    for l in range(1, len(kernel) - 1):
        strings_ge_l = kernel[l] - kernel[l - 1]
        strings_ge_next = kernel[l + 1] - kernel[l] if l + 1 < len(kernel) else 0
        n = strings_ge_l - strings_ge_next
        if n:
            sizes[l] = n
    return sizes


# -- motive suite -------------------------------------------------------------------


def _random_geometric_expr(rng: random.Random):
    d = rng.randint(0, 2)
    expr = smooth_from_betti(random_betti(rng, d), d)
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.3:
            expr = ProjBundle(expr, rng.randint(1, 3))
        elif roll < 0.5:
            expr = AbsProduct(AbsMotive.point() if rng.random() < 0.3 else AbsMotive.affine_line(), expr)
        elif roll < 0.65:
            expr = Fibration(expr, AbsMotive.general_linear(1))
        elif roll < 0.8:
            da = dim(expr)
            r = rng.randint(2, 3)
            if da is not None and da >= r:
                dc = da - r
                expr = BlowUpRel(
                    ambient=expr,
                    center=smooth_from_betti(random_betti(rng, dc), dc),
                    codim=r,
                )
        else:
            expr = FinitePush(expr)
    return expr


@register("motive", 200)
def prop_blowup_identity(rng: random.Random) -> None:
    r = rng.randint(2, 4)
    dc = rng.randint(0, 2)
    center = smooth_from_betti(random_betti(rng, dc), dc)
    ambient = smooth_from_betti(random_betti(rng, dc + r), dc + r)
    if not blowup_relation_check(ambient, center, r):
        _fail((ambient, center, r))


@register("motive", 100)
def prop_degree_equals_twice_dim(rng: random.Random) -> None:
    expr = _random_geometric_expr(rng)
    value = upsilon_rel(expr)
    d = dim(expr)
    if value.is_zero() or d is None:
        return
    m = weighted_degree(value)
    if m % 2 != 0 or m != 2 * d:
        _fail((expr, m, d))


@register("motive", 50)
def prop_finite_push_transparent(rng: random.Random) -> None:
    expr = _random_geometric_expr(rng)
    if upsilon_rel(FinitePush(expr)) != upsilon_rel(expr):
        _fail(expr)


@register("motive", 100)
def prop_abs_product_bilinear(rng: random.Random) -> None:
    t = AbsMotive.general_linear(1) if rng.random() < 0.5 else AbsMotive.affine_line()
    e1 = _random_geometric_expr(rng)
    e2 = _random_geometric_expr(rng)
    lhs = upsilon_rel(AbsProduct(t, Sum((e1, e2))))
    rhs = upsilon_rel(AbsProduct(t, e1)) + upsilon_rel(AbsProduct(t, e2))
    if lhs != rhs:
        _fail((e1, e2))
    lhs = upsilon_rel(AbsProduct(t, Diff(e1, e2)))
    rhs = upsilon_rel(AbsProduct(t, e1)) - upsilon_rel(AbsProduct(t, e2))
    if lhs != rhs:
        _fail((e1, e2), "abs_product_bilinear_diff")


@register("motive", 50)
def prop_point_base_specialization(rng: random.Random) -> None:
    d = rng.randint(0, 3)
    bettis = random_betti(rng, d)
    value = upsilon_rel(over_point_from_betti(bettis))
    expected = LaurentPoly({(i, 0): b for i, b in enumerate(bettis) if b})
    if value != expected or not value.is_t_only():
        _fail(bettis)


# -- stack suite ---------------------------------------------------------------------


@register("stack", 100)
def prop_gm_cancellation(rng: random.Random) -> None:
    expr = _random_geometric_expr(rng)
    gm = AbsMotive.multiplicative_group()
    value = RationalFn.from_poly(gm.poly) * upsilon_stack(quotient_by_special_group(expr, gm))
    if value != RationalFn.from_poly(upsilon_rel(expr)):
        _fail(expr)


@register("stack", 100)
def prop_stack_linearity(rng: random.Random) -> None:
    c1 = random_atom_class(rng)
    c2 = random_atom_class(rng)
    if upsilon_stack(c1 + c2) != upsilon_stack(c1) + upsilon_stack(c2):
        _fail((c1, c2))


@register("stack", 100)
def prop_stack_scale(rng: random.Random) -> None:
    c = random_atom_class(rng)
    t = AbsMotive.general_linear(rng.randint(1, 2))
    lhs = upsilon_stack(scale_by_variety(t, c))
    rhs = RationalFn.from_poly(t.poly) * upsilon_stack(c)
    if lhs != rhs:
        _fail((c, t.name))


# -- counting suite ---------------------------------------------------------------------


@register("counting", 40)
def prop_log_exp_roundtrip(rng: random.Random) -> None:
    lattice, charge = random_pointed_setup(rng)
    beta = random_effective(rng, lattice, charge.omega, bound=4)
    if beta is None:
        return
    v = NumClass(beta, rng.randint(-2, 2))
    if semistable_exp(lattice, charge, v) != FreeHallElement.letter(v):
        _fail((lattice.generators, charge, v))


def _random_model(rng: random.Random, classes: list[NumClass]) -> EvalModel:
    atoms = {}
    for v in classes:
        atoms[v] = random_atom_class(rng)
    defects = []
    for i, v1 in enumerate(classes):
        for v2 in classes[i:]:
            defects.append((v1, v2, rng.randint(-2, 3)))
    return EvalModel(atoms, defects)


@register("counting", 40)
def prop_commutator_vanishing(rng: random.Random) -> None:
    classes = [NumClass((i + 1,), rng.randint(-1, 2)) for i in range(3)]
    model = _random_model(rng, classes)
    f1 = FreeHallElement.letter(classes[0])
    f2 = FreeHallElement.letter(classes[1])
    if evaluate(f1.commutator(f2), model) != RationalFn.zero():
        _fail(classes)
    word = [rng.choice(classes) for _ in range(rng.randint(2, 4))]
    shuffled = word[:]
    rng.shuffle(shuffled)
    lhs = evaluate(FreeHallElement({tuple(word): 1}), model)
    rhs = evaluate(FreeHallElement({tuple(shuffled): 1}), model)
    if lhs != rhs:
        _fail((word, shuffled), "word_permutation_invariance")


@register("counting", 20)
def prop_asymmetric_rejected(rng: random.Random) -> None:
    v1 = NumClass((1,), 0)
    v2 = NumClass((2,), 1)
    e = rng.randint(0, 3)
    try:
        EvalModel({}, [(v1, v2, e), (v2, v1, e + rng.randint(1, 2))])
    except AsymmetricDefectError:
        return
    _fail((v1, v2))


@register("counting", 40)
def prop_stable_single_letter(rng: random.Random) -> None:
    lattice, charge = random_pointed_setup(rng)
    charge = CentralCharge((Fraction(0),) * lattice.rank, charge.omega)
    beta = random_effective(rng, lattice, charge.omega, bound=4)
    if beta is None:
        return
    v = NumClass(beta, 1)
    if semistable_log(lattice, charge, v) != FreeHallElement.letter(v):
        _fail((lattice.generators, v))


@register("counting", 20)
def prop_betti_shadow(rng: random.Random) -> None:
    lattice = ClassLattice(1, [(1,)])
    charge = CentralCharge([Fraction(0)], [Fraction(1)])
    b2, b3 = rng.randint(0, 100), rng.randint(0, 100)
    bettis = [1, 0, b2, b3, b2, 0, 1]
    atom = over_point_from_betti(bettis)
    v = NumClass((0,), 1)
    model = EvalModel({v: quotient_by_special_group(atom, AbsMotive.multiplicative_group())})
    value = counting_polynomial(lattice, charge, v, model)
    expected = RationalFn.from_poly(LaurentPoly({(i, 0): b for i, b in enumerate(bettis) if b}))
    if value != expected:
        _fail((b2, b3))


@register("counting", 20)
def prop_multiset_log_oracle(rng: random.Random) -> None:
    """counting_polynomial, summed over multisets, equals (L-1) times the
    evaluated ordered-word log, on random rank-1 and rank-2 setups."""
    rank = rng.randint(1, 2)
    lattice, charge = random_pointed_setup(rng, rank=rank)
    if rng.random() < 0.25:
        v = NumClass((0,) * rank, rng.randint(1, 5))
    else:
        beta = random_effective(rng, lattice, charge.omega, bound=6 - 2 * rank)
        if beta is None:
            return
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            # k = B.beta makes Re Z vanish, so every piece's k = B.beta' is
            # integral and the class splits in many ways
            k = int(sum(b * c for b, c in zip(charge.b_field, beta)))
        v = NumClass(beta, k)
    words = same_phase_decompositions(lattice, charge, v)
    pieces = sorted({piece for word in words for piece in word})
    model = _random_model(rng, pieces)
    oracle = RationalFn.from_poly(AbsMotive.multiplicative_group().poly) * evaluate(semistable_log(lattice, charge, v), model)
    for target in (v, -v):
        if counting_polynomial(lattice, charge, target, model) != oracle:
            _fail((lattice.generators, charge, target))


# -- gw suite ------------------------------------------------------------------------


def _oracle_sin_power(g: int, k: int, order: int) -> dict[int, Fraction]:
    """Direct composition oracle: coefficients of (2 sin(k u / 2))^{2g-2} in u."""
    from math import factorial

    # sin(k u / 2) truncated as an odd series in u
    top = order + 4
    sin_series = {}
    m = 0
    while 2 * m + 1 <= top:
        sin_series[2 * m + 1] = Fraction((-1) ** m * k ** (2 * m + 1), factorial(2 * m + 1) * 2 ** (2 * m + 1))
        m += 1

    def mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, ai in a.items():
            for j, bj in b.items():
                if i + j <= top:
                    out[i + j] = out.get(i + j, Fraction(0)) + ai * bj
        return out

    doubled = {e: 2 * c for e, c in sin_series.items()}
    if g >= 1:
        acc = {0: Fraction(1)}
        for _ in range(2 * g - 2):
            acc = mul(acc, doubled)
        return acc
    # g = 0: invert the square as a Laurent series starting at u^{-2}
    square = mul(doubled, doubled)
    # square = sum_{n>=2} c_n u^n with c_2 = 1 ... divide out u^2 then invert
    shifted = {e - 2: c for e, c in square.items()}
    inv = {0: 1 / shifted[0]}
    for n in range(1, top - 2):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if i in shifted and (n - i) in inv:
                acc += shifted[i] * inv[n - i]
        inv[n] = -acc / shifted[0]
    return {e - 2: c for e, c in inv.items() if c != 0}


@register("gw")
def prop_sin_scaling_oracle(rng: random.Random, scale: int) -> int:
    cases = 0
    for g in range(4):
        for k in range(1, 6):
            oracle = _oracle_sin_power(g, k, 8)
            for j in range(4):
                exponent = 2 * g - 2 + 2 * j
                expected = sin_power_coefficient(g, j) * Fraction(k) ** exponent
                if oracle.get(exponent, Fraction(0)) != expected:
                    _fail((g, k, j))
                cases += 1
    return cases


@register("gw")
def prop_conifold_column(rng: random.Random, scale: int) -> int:
    table = GVTable({(0, (1,)): 1}, 0, Fraction(10), (Fraction(1),))
    series = gv_to_gw(table, lambda_max=0)
    for d in range(1, 11):
        if series.coefficient((d,), -2) != Fraction(1, d**3):
            _fail(d)
    return 10


def random_gv_table(rng: random.Random, degree_max: int = 6, genus_max: int = 3) -> GVTable:
    omega = (Fraction(1),)
    entries = {}
    for _ in range(rng.randint(1, 6)):
        g = rng.randint(0, genus_max)
        beta = (rng.randint(1, degree_max),)
        n = rng.randint(-9, 9)
        if n:
            entries[(g, beta)] = n
    return GVTable(entries, genus_max, Fraction(degree_max), omega)


@register("gw", 200)
def prop_gw_roundtrip(rng: random.Random) -> None:
    table = random_gv_table(rng)
    series = gv_to_gw(table, lambda_max=2 * table.genus_max - 2)
    result = gw_to_gv(series)
    if result.nonintegral or result.table != table:
        _fail((table.entries, result.table.entries, result.nonintegral))


def random_gw_series(rng: random.Random) -> GWSeries:
    """Arbitrary rational coefficients in rank 1 or 2, with omega entries drawn from 1/2..3."""
    rank = rng.randint(1, 2)
    omega = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rank))
    degree_max = Fraction(rng.randint(3, 6))
    lambda_max = rng.randint(-2, 5)
    classes = [beta for beta in product(range(-1, 5), repeat=rank) if 0 < linalg.dot(omega, beta) <= degree_max]
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        lam = 2 * rng.randint(-1, lambda_max // 2)
        coeffs[(rng.choice(classes), lam)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return GWSeries(coeffs, degree_max, lambda_max, omega)


@register("gw", 100)
def prop_inverse_is_solution(rng: random.Random) -> None:
    """The solved values, scaled by the lcm D of their denominators, map forward to D times the series."""
    series = random_gw_series(rng)
    genus_max = rng.randint(0, (series.lambda_max + 2) // 2)
    degree_max = series.degree_max - rng.choice([0, 0, 1, 2])
    result = gw_to_gv(series, genus_max=genus_max, degree_max=degree_max)
    solved = {**result.table.entries, **result.nonintegral}
    d = lcm(*(value.denominator for value in solved.values()))
    table = GVTable({key: int(d * value) for key, value in solved.items()}, genus_max, degree_max, series.omega)
    expected = {
        (beta, lam): d * c
        for (beta, lam), c in series.coeffs.items()
        if lam <= 2 * genus_max - 2 and linalg.dot(series.omega, beta) <= degree_max
    }
    if gv_to_gw(table, lambda_max=2 * genus_max - 2).coeffs != expected:
        _fail((series.coeffs, series.omega, genus_max, degree_max))


@register("gw", 50)
def prop_gv_linearity(rng: random.Random) -> None:
    t1 = random_gv_table(rng)
    t2 = random_gv_table(rng)
    merged = dict(t1.entries)
    for key, n in t2.entries.items():
        merged[key] = merged.get(key, 0) + n
    total = GVTable(merged, 3, Fraction(6), t1.omega)
    s_total = gv_to_gw(total, lambda_max=4)
    s1 = gv_to_gw(t1, lambda_max=4)
    s2 = gv_to_gw(t2, lambda_max=4)
    summed = dict(s1.coeffs)
    for key, c in s2.coeffs.items():
        summed[key] = summed.get(key, Fraction(0)) + c
    summed = {k: c for k, c in summed.items() if c}
    if summed != s_total.coeffs:
        _fail((t1.entries, t2.entries))


SUITE_NAMES = tuple(SUITES) + ("all",)


def suite_results(name: str, seed: int, scale: int = 1) -> list[dict]:
    """Run one suite (or all; KeyError for no such suite): one entry per property, in registry order.

    An entry is {name, ok, cases} for a pass and {name, ok, message} for a
    counterexample, with name as "suite.property".
    """
    results = []
    for suite_name in list(SUITES) if name == "all" else [name]:
        for prop_name, prop in SUITES[suite_name]:
            rng = random.Random((seed, suite_name, prop_name).__str__())
            label = f"{suite_name}.{prop_name}"
            try:
                results.append({"name": label, "ok": True, "cases": prop(rng, scale)})
            except PropertyFailure as exc:
                results.append({"name": label, "ok": False, "message": str(exc)})
    return results
