"""Self-check of the benchmark: python3 perfbench/selfcheck.py, from a checkout root.

1. A tiny-size untraced and traced pass of every workload passes its checks.
2. Deliberately corrupted outputs, and a nonzero exit code, count as failed.
3. Run where only BENCHMARK.json and perfbench/ exist, run.py exits nonzero
   without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import run
import workloads

TINY = {
    "wallcross": {"ladder": [1, 2, 3], "genus_max": 2, "b2": [4, 5], "b3": [10, 13]},
    "series": {
        "tables": [
            {"name": "deep", "rank": 1, "degree": 6, "genus": 2},
            {"name": "wide", "rank": 2, "degree": 4, "genus": 2},
        ],
        "n_max": 5,
    },
    "spectra": {
        "hst": {"docs": 2, "two_jl_max": 6, "summands": 3},
        "census": {"docs": 1, "span": 2, "copies": 1, "moves": 2, "entry_max": 2},
        "stack": {"docs": 1, "parts": 4, "groups": [1, 2], "dim_max": 2},
    },
}


def corrupt(stdout: str) -> str:
    """Change one mathematical value of a gvmot --json result."""
    doc = json.loads(stdout)
    kind = doc["kind"]
    if kind in ("gv_result", "hst_result"):
        doc["counts"][-1][1] += 1
    elif kind == "census_result":
        doc["census"][0][2] += 1
    elif kind == "rational_fn":
        doc["num"][0][2] = str(Fraction(doc["num"][0][2]) + 1)
    elif kind == "gw_series":
        doc["coeffs"][-1][2] = str(Fraction(doc["coeffs"][-1][2]) + 1)
    elif kind == "gv_table":
        doc["entries"][-1][2] += 1
    else:
        raise ValueError(f"no corruption for {kind}")
    return json.dumps(doc)


def check_workload(name: str, src: str, workdir: str) -> list[str]:
    problems = []
    jobs = workloads.build(name, 7, TINY[name], workdir)
    passes = [run.run_pass(src, workdir, jobs, 0, False, 60), run.run_pass(src, workdir, jobs, 1, True, 60)]
    attempted, failed, reasons = run.judge(jobs, passes)
    if failed or attempted != 2 * len(jobs):
        problems.append(f"{name}: tiny run failed {failed} of {attempted}: {reasons[:3]}")
        return problems
    run.per_layer(passes[:1], passes[1:])

    for i, job in enumerate(jobs):
        bad = copy.deepcopy(passes[0])
        bad["jobs"][i]["stdout"] = corrupt(bad["jobs"][i]["stdout"])
        _, failed, _ = run.judge(jobs, [bad])
        if failed != 1:
            problems.append(f"{name}: corrupted output of {job.id} counted {failed} failures, not 1")
    bad = copy.deepcopy(passes[0])
    bad["jobs"][0]["code"] = 3
    _, failed, _ = run.judge(jobs, [bad])
    if failed != 1:
        problems.append(f"{name}: exit code 3 counted {failed} failures, not 1")
    print(f"selfcheck {name}: {len(jobs)} jobs pass; {len(jobs)} corrupted outputs and one bad exit code fail")
    return problems


def check_bare_directory(root: str, state: str) -> list[str]:
    bare = tempfile.mkdtemp(prefix="bare-", dir=state)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, "perfbench/run.py", "--workload", "wallcross", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"selfcheck bare directory: exit {proc.returncode} without a result")
    return []


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    state = os.path.join(root, run.STATE_DIR)
    os.makedirs(state, exist_ok=True)
    problems = []
    for name in TINY:
        workdir = tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=state)
        try:
            problems += check_workload(name, src, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    problems += check_bare_directory(root, state)
    for problem in problems:
        print(f"selfcheck: PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
