"""The randomized suites behind `gvmot verify` all pass with a fixed seed."""

import json
import re
from pathlib import Path

import pytest

from gvmot import verify
from gvmot.cli import main
from gvmot.verify import SUITES, suite_results

GOLDEN_VERIFY = Path(__file__).resolve().parent / "data" / "verify_golden.json"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    # each entry, case count included, is pinned in the golden
    results = suite_results(suite, seed=42)
    assert all(entry["ok"] for entry in results), [entry for entry in results if not entry["ok"]]
    assert results == json.loads(GOLDEN_VERIFY.read_text())["suite_results seed 42"][suite]


def test_reports_are_deterministic(capsys):
    assert suite_results("stack", seed=7) == suite_results("stack", seed=7)
    reports = []
    for _ in range(2):
        assert main(["verify", "stack", "--seed", "7"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        suite_results("nonsense", seed=0)


def test_failure_is_named_by_its_registration(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})

    @verify.register("toy", 3)
    def prop_below_ten(rng):
        verify._fail(rng.randint(10, 19))

    @verify.register("toy")
    def prop_two_checks(rng, scale):
        verify._fail((1, 2), "two_checks_second")

    [below, two] = suite_results("toy", seed=0)
    assert below["name"] == "toy.below_ten" and re.fullmatch(r"below_ten: counterexample 1\d", below["message"])
    assert two == {"name": "toy.two_checks", "ok": False, "message": "two_checks_second: counterexample (1, 2)"}
