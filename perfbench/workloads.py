"""Seeded input documents, job lists and references for the three workloads.

build(name, seed, params, workdir) writes the documents a workload needs
under workdir and returns its jobs.  A job is one gvmot command line plus a
checker bound to a reference that this module computes itself, from the
same seeded choices that produced the document.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable

import check
from exact import (
    SinPowers,
    bispin_census,
    mat_mul,
    p_add,
    p_mul,
    p_pow,
    p_scale,
    p_shift,
    p_to_json,
    t_poly,
    unit_upper_inverse,
)


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable[[str], "str | None"]
    save_stdout: str | None = None

    @property
    def plan(self) -> dict:
        """What the worker needs: the checker stays with the parent."""
        return {"id": self.id, "argv": self.argv, "save_stdout": self.save_stdout}


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _rational(num: dict, den: dict) -> dict:
    return {"num": p_to_json(num), "den": p_to_json(den)}


GM = {(2, 0): 1, (0, 0): -1}  # class of the multiplicative group, L - 1 with L = t^2


# -- wallcross -------------------------------------------------------------------------


def tower_model(bettis: list[int], k_max: int, twisted: bool) -> dict:
    """Rank-1 degree-zero count model whose (0,k) counts are known in closed form.

    With f = P/(L-1), P the Poincare polynomial, the atom of (0,j) is
    [x^j] exp(f x/(1-x)) = sum_n C(j-1, n-1)/n! f^n, one stack part per n whose
    motive is the point-based variety with Poincare polynomial P^n.  Under the
    product combinator the log over ordered decompositions is [x^k] of
    log exp(f x/(1-x)) = f, so the count (L-1) f is P for every k.  The
    twisted tower multiplies the atom of (0,j) by L^(j^2) and sets the defect
    e((0,i),(0,j)) = 2ij; a word summing to k then carries L^(k^2), so the
    count is L^(k^2) P.
    """
    p = t_poly(bettis)
    atoms = {}
    for j in range(1, k_max + 1):
        parts = []
        for n in range(1, j + 1):
            num = {(2 * j * j if twisted else 0, 0): comb(j - 1, n - 1)}
            den = p_scale(p_pow(GM, n), factorial(n))
            pn = p_pow(p, n)
            parts.append({
                "coeff": _rational(num, den),
                "expr": {"kind": "betti_over_point", "bettis": [pn.get((i, 0), 0) for i in range(6 * n + 1)]},
            })
        atoms[f"0,{j}"] = parts
    doc = {
        "v": 1,
        "kind": "count_model",
        "lattice": {"rank": 1, "generators": [[1]]},
        "charge": {"B": ["0"], "omega": ["1"]},
        "atoms": atoms,
    }
    if twisted:
        doc["ext_defect"] = [
            [[0, i], [0, j], 2 * i * j] for i in range(1, k_max + 1) for j in range(i, k_max + 1)
        ]
    return doc


def wallcross(seed: int, params: dict, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    ladder = params["ladder"]
    genus_max = params["genus_max"]
    jobs = []
    for tower in ("flat", "twisted"):
        # P(-1) = 2 + 2 b2 - b3 = 0 would let (t + 1) cancel against (L - 1)^n and
        # make the tower cheaper, so that choice is skipped: every seed does the same work
        b2, b3 = 0, 2
        while b3 == 2 * b2 + 2:
            b2 = rng.randint(*params["b2"])
            b3 = rng.randint(*params["b3"])
        bettis = [1, 0, b2, b3, b2, 0, 1]
        twisted = tower == "twisted"
        path = _write(workdir, f"{tower}.count_model.json", tower_model(bettis, max(ladder), twisted))
        for k in ladder:
            count = t_poly(bettis)
            if twisted:
                count = p_shift(count, 2 * k * k)
            jobs.append(Job(
                id=f"{tower}-k{k}",
                argv=["gv", "--input", path, "--target", f"0,{k}", "--genus-max", str(genus_max), "--json"],
                check=partial(check.gv_result, target=[0, k], count_poly=count, genus_max=genus_max),
            ))
    return jobs


# -- series ------------------------------------------------------------------------------


def gv_table_doc(rng: random.Random, rank: int, degree: int, genus: int, n_max: int):
    """Nonzero seeded counts on every class of omega-degree <= degree (omega = (1,..,1)).

    In rank 2 the axis (m, 0) carries only n_0^(1,0) = 1, so the series keeps
    the conifold column (d, 0) in closed form.
    """
    entries = {}
    if rank == 1:
        classes = [(d,) for d in range(1, degree + 1)]
    else:
        classes = [(a, b) for a in range(degree + 1) for b in range(1, degree + 1 - a)]
        entries[(0, (1, 0))] = 1
    for beta in classes:
        for g in range(genus + 1):
            entries[(g, beta)] = rng.choice([-1, 1]) * rng.randint(1, n_max)
    cuts = {"degree": str(degree), "genus": genus, "omega": ["1"] * rank}
    doc = {
        "v": 1,
        "kind": "gv_table",
        "entries": [[g, list(beta), n] for (g, beta), n in sorted(entries.items())],
        "cuts": cuts,
    }
    return doc, entries, cuts


def forward_series(entries: dict, degree: int, genus: int) -> dict:
    """sum n_g^b / k (2 sin(k lambda/2))^(2g-2) q^(kb), up to lambda^(2 genus - 2)."""
    sin = SinPowers(genus + 1)
    out: dict = {}
    for (g, beta), n in entries.items():
        deg = sum(beta)
        for k in range(1, degree // deg + 1):
            kbeta = tuple(k * b for b in beta)
            for h in range(g, genus + 1):
                c = sin.coeff(g, h - g)
                if c:
                    key = (kbeta, 2 * h - 2)
                    out[key] = out.get(key, 0) + n * c * Fraction(k) ** (2 * h - 3)
    return {key: c for key, c in out.items() if c}


def series(seed: int, params: dict, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for spec in params["tables"]:
        name, rank, degree, genus = spec["name"], spec["rank"], spec["degree"], spec["genus"]
        doc, entries, cuts = gv_table_doc(rng, rank, degree, genus, params["n_max"])
        table_path = _write(workdir, f"{name}.gv_table.json", doc)
        series_path = os.path.join(workdir, f"{name}.gw_series.json")
        coeffs = forward_series(entries, degree, genus)
        conifold = []
        if rank == 2:
            genus0 = SinPowers(genus + 1).genus0
            conifold = [
                ((d, 0), 2 * h - 2, genus0[h] * Fraction(d) ** (2 * h - 3))
                for d in range(1, degree + 1)
                for h in range(genus + 1)
            ]
        series_cuts = {"degree": str(degree), "lambda": 2 * genus - 2, "omega": cuts["omega"]}
        jobs.append(Job(
            id=f"{name}-forward",
            argv=["gw", "--input", table_path, "--json"],
            check=partial(check.gw_series, coeffs=coeffs, cuts=series_cuts, conifold=conifold),
            save_stdout=series_path,
        ))
        jobs.append(Job(
            id=f"{name}-inverse",
            argv=["gw", "--input", series_path, "--json"],
            check=partial(check.gv_table, entries=entries, cuts=cuts),
        ))
    return jobs


# -- spectra -------------------------------------------------------------------------------


def bispin_doc(rng: random.Random, top: int, summands: int) -> list[list[int]]:
    """Summands (2jL, 2jR, mult): left spins spread evenly below top, right spins
    0..4 in turn, seeded multiplicities; the spins fix the work, so every seed
    costs the same."""
    return [[top - (top * i) // summands, i % 5, rng.randint(1, 5)] for i in range(summands)]


def string_census(rng: random.Random, span: int, copies: int, moves: int) -> dict:
    """Census of strings inside degrees -span .. span (step 2) with a fixed dims profile.

    Start from `copies` strings of every (alpha, l) that fits, then apply
    seeded moves (a, l) + (a+2, l) -> (a, l+1) + (a+2, l-1), which keep the
    dimension of every degree and so the operator's matrix shapes.
    """
    cells: dict = {}
    top = span + 1
    for l in range(1, top + 1):
        for start in range(top - l + 1):
            cells[(2 * start - span, l)] = copies
    for _ in range(moves):
        candidates = sorted(
            (a, l) for (a, l), n in cells.items() if l >= 2 and n and cells.get((a + 2, l), 0)
            and a + 2 * l <= span
        )
        if not candidates:
            break
        a, l = rng.choice(candidates)
        for key, delta in (((a, l), -1), ((a + 2, l), -1), ((a, l + 1), 1), ((a + 2, l - 1), 1)):
            cells[key] = cells.get(key, 0) + delta
    return {key: n for key, n in cells.items() if n}


def graded_nilpotent_doc(rng: random.Random, cells: dict, entry_max: int) -> dict:
    """Realise the strings, shuffle each degree's basis, then conjugate degreewise.

    The base change at degree d is U_d = I + N_d with N_d dense on the top-right
    quarter, so every map is dense; the new map is U_(d+2) M_d U_d^(-1).
    """
    basis: dict = {}
    for (alpha, l), n in sorted(cells.items()):
        for copy in range(n):
            for pos in range(l):
                basis.setdefault(alpha + 2 * pos, []).append((alpha, l, copy, pos))
    for d in sorted(basis):
        rng.shuffle(basis[d])

    def base_change(n: int) -> list:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n // 2):
            for j in range(n // 2, n):
                u[i][j] = rng.randint(-entry_max, entry_max)
        return u

    change = {d: base_change(len(vecs)) for d, vecs in sorted(basis.items())}
    maps = {}
    for d, src in sorted(basis.items()):
        dst = basis.get(d + 2)
        if not dst:
            continue
        index = {vec: i for i, vec in enumerate(dst)}
        m = [[0] * len(src) for _ in dst]
        for j, (alpha, l, copy, pos) in enumerate(src):
            if pos + 1 < l:
                m[index[(alpha, l, copy, pos + 1)]][j] = 1
        maps[str(d)] = mat_mul(mat_mul(change[d + 2], m), unit_upper_inverse(change[d]))
    return {
        "v": 1,
        "kind": "graded_nilpotent",
        "dims": {str(d): len(vecs) for d, vecs in sorted(basis.items())},
        "maps": maps,
    }


def group_class(n: int) -> dict:
    """Class of GL_n: prod_(k<n) (L^n - L^k); GL_1 is the multiplicative group."""
    value = {(0, 0): 1}
    for k in range(n):
        value = p_mul(value, {(2 * n, 0): 1, (2 * k, 0): -1})
    return value


def smooth_bettis(rng: random.Random, d: int) -> list[int]:
    """Palindromic Betti numbers growing strictly up to the middle, with b_0 = 1,
    so every Lefschetz string occurs and the value has d + 1 terms for every seed."""
    b = [0] * (2 * d + 1)
    for i in range(d + 1):
        if i == 0:
            b[i] = 1
        elif i == 1:
            b[i] = rng.randint(1, 2)
        else:
            b[i] = b[i - 2] + rng.randint(1, 3)
        b[2 * d - i] = b[i]
    return b


def smooth_value(bettis: list[int], d: int) -> dict:
    """Value of a smooth d-fold over itself: a primitive class of degree i <= d is a
    Lefschetz string t^i s^(d-i), counted b_i - b_(i-2) times."""
    value = {}
    for i in range(d + 1):
        n = bettis[i] - (bettis[i - 2] if i >= 2 else 0)
        if n:
            value[(i, d - i)] = n
    return value


def spectra(seed: int, params: dict, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []

    hst = params["hst"]
    for i in range(hst["docs"]):
        top = hst["two_jl_max"] - 2 * (i % 3)
        content = bispin_doc(rng, top, hst["summands"])
        path = _write(workdir, f"hst{i}.bispin.json", {"v": 1, "kind": "bispin", "content": content})
        jobs.append(Job(
            id=f"hst{i}",
            argv=["hst", "--input", path, "--json"],
            check=partial(check.hst_result, cells=bispin_census(content), genus_max=top),
        ))

    census = params["census"]
    for i in range(census["docs"]):
        cells = string_census(rng, census["span"], census["copies"], census["moves"])
        path = _write(workdir, f"op{i}.graded_nilpotent.json", graded_nilpotent_doc(rng, cells, census["entry_max"]))
        jobs.append(Job(
            id=f"census{i}",
            argv=["census", "--input", path, "--json"],
            check=partial(check.census_result, cells=cells),
        ))

    stack = params["stack"]
    for i in range(stack["docs"]):
        # groups and dimensions cycle in a fixed order, which sets how the
        # denominators grow; the seed draws the Betti numbers
        shapes = [
            (stack["groups"][j % len(stack["groups"])], 1 + j % stack["dim_max"]) for j in range(stack["parts"])
        ]
        parts, chosen = [], []
        for n, d in shapes:
            bettis = smooth_bettis(rng, d)
            chosen.append((n, smooth_value(bettis, d)))
            parts.append({
                "coeff": _rational({(0, 0): 1}, group_class(n)),
                "expr": {"kind": "betti", "bettis": bettis, "dim": d},
            })
        # reference: sum of value / [GL_n] over the common denominator prod [GL_n]
        groups = sorted({n for n, _ in chosen})
        den = {(0, 0): 1}
        for n in groups:
            den = p_mul(den, group_class(n))
        cofactor = {}
        for n in groups:
            other = {(0, 0): 1}
            for m in groups:
                if m != n:
                    other = p_mul(other, group_class(m))
            cofactor[n] = other
        num: dict = {}
        for n, value in chosen:
            num = p_add(num, p_mul(value, cofactor[n]))
        path = _write(workdir, f"quotients{i}.stack_class.json", {"v": 1, "kind": "stack_class", "parts": parts})
        jobs.append(Job(
            id=f"stack{i}",
            argv=["stack", "--input", path, "--json"],
            check=partial(check.rational_fn, num_ref=num, den_ref=den),
        ))
    return jobs


GENERATORS = {"wallcross": wallcross, "series": series, "spectra": spectra}


def build(name: str, seed: int, params: dict, workdir: str) -> list[Job]:
    return GENERATORS[name](seed, params, workdir)
