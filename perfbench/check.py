"""Output checkers: each returns None when gvmot's stdout matches the reference,
else a one-line reason.  References come from exact.py and workloads.py only.
"""

from __future__ import annotations

import json
from fractions import Fraction

from exact import flat_census, genus_count, p_from_json, same_fraction


def _load(stdout: str, kind: str):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON ({exc})"
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        return None, f"expected a {kind} document"
    return doc, None


def gv_result(stdout: str, target: list, count_poly: dict, genus_max: int) -> str | None:
    """A gv_result whose count polynomial equals count_poly (cross-multiplied) and
    whose counts are the closed-form genus counts of that polynomial."""
    doc, err = _load(stdout, "gv_result")
    if err:
        return err
    if doc["target"] != target:
        return f"target {doc['target']} != {target}"
    num = p_from_json(doc["count_polynomial"]["num"])
    den = p_from_json(doc["count_polynomial"]["den"])
    if not same_fraction(num, den, count_poly, {(0, 0): 1}):
        return "count polynomial differs from the reference"
    cells = flat_census(count_poly)
    expected = [[g, genus_count(cells, g)] for g in range(genus_max + 1)]
    if doc["counts"] != expected:
        return f"counts {doc['counts']} != {expected}"
    return None


def hst_result(stdout: str, cells: dict, genus_max: int) -> str | None:
    doc, err = _load(stdout, "hst_result")
    if err:
        return err
    expected = [[g, genus_count(cells, g)] for g in range(genus_max + 1)]
    if doc["counts"] != expected:
        return f"counts {doc['counts']} != {expected}"
    if doc["virtual"] is not False:
        return "honest content reported as virtual"
    return None


def census_result(stdout: str, cells: dict) -> str | None:
    doc, err = _load(stdout, "census_result")
    if err:
        return err
    got = {(a, l): n for a, l, n in doc["census"]}
    if got != cells:
        return "census differs from the realised strings"
    return None


def rational_fn(stdout: str, num_ref: dict, den_ref: dict) -> str | None:
    doc, err = _load(stdout, "rational_fn")
    if err:
        return err
    num, den = p_from_json(doc["num"]), p_from_json(doc["den"])
    if not same_fraction(num, den, num_ref, den_ref):
        return "rational function differs from the reference (cross-multiplied)"
    return None


def gw_series(stdout: str, coeffs: dict, cuts: dict, conifold: list) -> str | None:
    """Every coefficient equals the reference; the conifold column (classes d*b0
    with only n_0^b0 = 1 below them) also equals its closed form
    c_0(h) d^(2h-3), whose lambda^-2 term is 1/d^3."""
    doc, err = _load(stdout, "gw_series")
    if err:
        return err
    if doc["cuts"] != cuts:
        return f"cuts {doc['cuts']} != {cuts}"
    got = {}
    for beta, lam, c in doc["coeffs"]:
        got[(tuple(beta), lam)] = Fraction(c)
    if got != coeffs:
        wrong = sum(1 for key in set(coeffs) | set(got) if got.get(key) != coeffs.get(key))
        return f"series differs from the reference in {wrong} coefficients"
    for beta, lam, value in conifold:
        if got.get((beta, lam)) != value:
            return f"conifold coefficient at {beta}, lambda^{lam} is not {value}"
    return None


def gv_table(stdout: str, entries: dict, cuts: dict) -> str | None:
    """The inverse transform returns exactly the table the series came from."""
    doc, err = _load(stdout, "gv_table")
    if err:
        return err
    if "warnings" in doc:
        return "nonintegral warnings on an integral round trip"
    if doc["cuts"] != cuts:
        return f"cuts {doc['cuts']} != {cuts}"
    got = {(g, tuple(beta)): n for g, beta, n in doc["entries"]}
    if got != entries:
        return "round trip did not return the input table"
    return None
