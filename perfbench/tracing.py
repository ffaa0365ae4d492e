"""Span tracing of gvmot's layers from outside the package.

instrument() replaces the public functions at each layer boundary with
wrappers that record a span (name, start, end, parent span, job id) and
bump counters; it patches every gvmot module that imported the function by
name, so cli.main runs its usual code path with the wrappers in place.
Spans stay in memory until the worker writes them out.

replay_word_products and replay_stack_sum time the RationalFn products and
sums of a wallcross log and of a stack class through public RationalFn ops,
with the motive values computed beforehand, so they time the laurent layer
alone on the workload's own data.
"""

from __future__ import annotations

import os
from collections import defaultdict
from fractions import Fraction
from itertools import product
from time import perf_counter

ROOT = "cli.main"
HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job id]
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.captured: dict[str, list] = defaultdict(list)  # per job, for replays

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                # bookkeeping runs in its own span so it stays out of the parent's self time
                hook = self.open(HOOK)
                try:
                    after(self, args, result)
                finally:
                    self.close(hook)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return dict(totals)

    def covered(self) -> float:
        """Time inside layer spans directly under a cli.main root span."""
        return sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if parent >= 0 and self.spans[parent][0] == ROOT and name != HOOK
        )


# -- counters -------------------------------------------------------------------------


def _bytes_in(tracer, args, result):
    tracer.counts["jsonio.bytes_in"] += os.path.getsize(args[0])
    tracer.captured[tracer.job].append(("payload", result))


def _bytes_out(tracer, args, result):
    tracer.counts["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _words(tracer, args, result):
    tracer.counts["counting.words"] += len(result)


def _log_terms(tracer, args, result):
    tracer.counts["counting.log_terms"] += len(result.words)
    tracer.captured[tracer.job].append(("log", result))


def _genus_calls(tracer, args, result):
    tracer.counts["lefschetz.genus_count_calls"] += 1


def _entry_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _rank(tracer, args, result):
    tracer.counts["linalg.rank_calls"] += 1
    bits = max((_entry_bits(c) for row in args[0] for c in row), default=0)
    tracer.maxima["linalg.max_entry_bits"] = max(tracer.maxima["linalg.max_entry_bits"], bits)


def _result_terms(tracer, args, result):
    tracer.counts["laurent.result_terms"] += len(result.num.terms) + len(result.den.terms)


def _series_terms(tracer, args, result):
    tracer.counts["gwseries.series_terms"] += len(result.coeffs)


def _table_entries(tracer, args, result):
    tracer.counts["gwseries.table_entries"] += len(result.table.entries)


# (module, function, span name, counter hook), in the order cli.main reaches them
TARGETS = [
    ("jsonio", "load_path", "jsonio.parse", _bytes_in),
    ("counting", "counting_polynomial", "counting.polynomial", None),
    ("counting", "same_phase_decompositions", "counting.decompose", _words),
    ("counting", "semistable_log", "counting.log", _log_terms),
    ("counting", "evaluate", "counting.evaluate", None),
    ("motives", "upsilon_rel", "motives.upsilon_rel", None),
    ("counting", "gv_from_polynomial", "counting.extract", None),
    ("stacks", "upsilon_stack", "stacks.upsilon_stack", _result_terms),
    ("lefschetz", "genus_count", "lefschetz.spin_route", _genus_calls),
    ("lefschetz", "census_from_bispin", "lefschetz.census_route", None),
    ("lefschetz", "census_count", "lefschetz.census_route", None),
    ("lefschetz", "jordan_census", "lefschetz.jordan_census", None),
    ("linalg", "mat_mul", "linalg.mat_mul", None),
    ("linalg", "mat_rank", "linalg.mat_rank", _rank),
    ("gwseries", "gv_to_gw", "gwseries.forward", _series_terms),
    ("gwseries", "gw_to_gv", "gwseries.inverse", _table_entries),
    ("jsonio", "census_to_json", "jsonio.dump", None),
    ("jsonio", "poly_to_json", "jsonio.dump", None),
    ("jsonio", "rational_fn_to_json", "jsonio.dump", None),
    ("jsonio", "gv_table_to_json", "jsonio.dump", None),
    ("jsonio", "gw_series_to_json", "jsonio.dump", None),
    ("jsonio", "dump_json", "jsonio.dump", _bytes_out),
]


def instrument(tracer: Tracer) -> None:
    """Install the wrappers in every loaded gvmot module that refers to a target."""
    import sys

    import gvmot.lefschetz

    modules = [m for name, m in sorted(sys.modules.items()) if name == "gvmot" or name.startswith("gvmot.")]
    for module_name, attr, span, after in TARGETS:
        original = getattr(sys.modules[f"gvmot.{module_name}"], attr)
        wrapper = tracer.wrap(span, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    # building the operator (shape checks, nilpotency ranks) happens inside parsing
    cls = gvmot.lefschetz.GradedNilpotent
    cls.__init__ = tracer.wrap("lefschetz.operator_build", cls.__init__)


# -- laurent replays ------------------------------------------------------------------


def _untraced_upsilon_rel():
    from gvmot.motives import upsilon_rel

    return getattr(upsilon_rel, "__wrapped__", upsilon_rel)


def replay_word_products(model, log) -> float:
    """Time the RationalFn products and sums that evaluate() performs on each word."""
    from gvmot.laurent import LaurentPoly, RationalFn

    upsilon_rel = _untraced_upsilon_rel()
    values: dict = {}
    words = []
    for word, coeff in log.items():
        exponent = sum(model.defect(word[i], word[j]) for i in range(len(word)) for j in range(i + 1, len(word)))
        choices = []
        for choice in product(*(model.atom(v).parts for v in word)):
            polys = []
            for _, expr in choice:
                if id(expr) not in values:
                    values[id(expr)] = upsilon_rel(expr)
                polys.append(values[id(expr)])
            choices.append(([c for c, _ in choice], model.combine(polys)))
        words.append((coeff, LaurentPoly.t(2 * exponent), choices))

    start = perf_counter()
    total = RationalFn.zero()
    for coeff, power, choices in words:
        word_value = RationalFn.zero()
        for coeffs, combined in choices:
            part = RationalFn.one()
            for c in coeffs:
                part = part * c
            word_value = word_value + part * RationalFn.from_poly(combined)
        total = total + coeff * RationalFn.from_poly(power) * word_value
    return perf_counter() - start


def replay_stack_sum(stack) -> float:
    """Time the coefficient-weighted sum that upsilon_stack performs."""
    from gvmot.laurent import RationalFn

    upsilon_rel = _untraced_upsilon_rel()
    parts = [(coeff, upsilon_rel(expr)) for coeff, expr in stack.parts]
    start = perf_counter()
    total = RationalFn.zero()
    for coeff, value in parts:
        total = total + coeff * RationalFn.from_poly(value)
    return perf_counter() - start
