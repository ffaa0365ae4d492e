"""gvmot benchmark: one seeded workload, timed end to end or traced layer by layer.

Usage, from the root of a gvmot checkout:

    python3 perfbench/run.py --workload wallcross|series|spectra --seed N \
        --seconds S --trace 0|1

The workload's documents are generated from the seed under .perfbench/ and
every job runs as `gvmot <command> ... --json` through gvmot.cli.main.  Passes
over the whole job list repeat, each in a fresh worker process, until S
seconds have gone.  Every output is checked against a reference computed by
the benchmark's own exact arithmetic; a job fails on a nonzero exit code or a
wrong output.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
Metric names, units and the workload parameters live in BENCHMARK.json and
perfbench/spec.json.

Timings are normalised to a reference machine speed.  The speed a shared
machine gives one process can shift by a factor of two within seconds and
stay there for minutes, which no number of repeats averages out.  So the
worker samples its speed every 50 ms with a fixed probe computation (see
worker.SpeedProbe), and every time of a pass is multiplied by the mean of
PROBE_REF_S / probe time over that pass's samples: the times read as seconds
on a machine where the probe takes PROBE_REF_S.  The summary line before
the result also prints the raw median wall time and each pass's factor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 160  # a run must end within 180 s: no pass starts that could end after this
PROBE_REF_S = 0.00015
STATE_DIR = ".perfbench"

# per-layer metric -> span name whose self time it reports
SPAN_METRICS = {
    "cli.overhead_s": "cli.main",
    "jsonio.parse_s": "jsonio.parse",
    "jsonio.dump_s": "jsonio.dump",
    "counting.polynomial_s": "counting.polynomial",
    "counting.decompose_s": "counting.decompose",
    "counting.log_s": "counting.log",
    "counting.evaluate_s": "counting.evaluate",
    "counting.extract_s": "counting.extract",
    "motives.upsilon_rel_s": "motives.upsilon_rel",
    "stacks.upsilon_stack_s": "stacks.upsilon_stack",
    "lefschetz.spin_route_s": "lefschetz.spin_route",
    "lefschetz.census_route_s": "lefschetz.census_route",
    "lefschetz.operator_build_s": "lefschetz.operator_build",
    "lefschetz.jordan_census_s": "lefschetz.jordan_census",
    "linalg.mat_mul_s": "linalg.mat_mul",
    "linalg.mat_rank_s": "linalg.mat_rank",
    "gwseries.forward_s": "gwseries.forward",
    "gwseries.inverse_s": "gwseries.inverse",
}
COUNT_METRICS = (
    "counting.words",
    "counting.log_terms",
    "laurent.result_terms",
    "lefschetz.genus_count_calls",
    "linalg.rank_calls",
    "linalg.max_entry_bits",
    "gwseries.series_terms",
    "gwseries.table_entries",
    "jsonio.bytes_in",
    "jsonio.bytes_out",
)
REPLAY_METRICS = {
    "laurent.word_products_s": "laurent.word_products",
    "laurent.stack_sum_s": "laurent.stack_sum",
}


def run_pass(src: str, workdir: str, jobs: list, index: int, traced: bool, timeout: float) -> dict:
    """Run the job list once in a fresh worker; a worker that dies or overruns
    the timeout fails every job."""
    plan_path = os.path.join(workdir, f"plan{index}.json")
    result_path = os.path.join(workdir, f"result{index}.json")
    plan = {
        "trace": traced,
        "spans_path": os.path.join(workdir, f"spans{index}.json"),
        "jobs": [job.plan for job in jobs],
    }
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    command = [sys.executable, os.path.join(HERE, "worker.py"), src, plan_path, result_path]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
        error = None if proc.returncode == 0 else f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        error = f"worker exceeded {timeout:.0f} s"
    if error is not None:
        return {"error": error, "traced": traced, "index": index}
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    result["traced"] = traced
    result["index"] = index
    scale = statistics.mean(PROBE_REF_S / d for d in result["probe_s"])
    result["scale"] = scale
    result["raw_wall_s"] = sum(job["seconds"] for job in result["jobs"])
    result["wall_s"] = result["raw_wall_s"] * scale
    result["setup_s"] *= scale
    if traced:
        trace = result["trace"]
        trace["covered"] *= scale
        trace["self"] = {name: t * scale for name, t in trace["self"].items()}
        trace["replay"] = {name: t * scale for name, t in trace["replay"].items()}
    return result


def judge(jobs: list, passes: list) -> tuple[int, int, list[str]]:
    """Count attempted and failed job executions over all passes.

    Each distinct output of a job is checked once against its reference;
    repeated identical outputs share that verdict.
    """
    by_id = {job.id: job for job in jobs}
    verdicts: dict = {}
    attempted = failed = 0
    reasons = []
    for result in passes:
        if "error" in result:
            attempted += len(jobs)
            failed += len(jobs)
            reasons.append(f"pass {result['index']}: {result['error']}")
            continue
        for run in result["jobs"]:
            attempted += 1
            if run["code"] != 0:
                reason = f"exit code {run['code']}: {run['stderr'].strip()[:300]}"
            else:
                key = (run["id"], hashlib.sha256(run["stdout"].encode("utf-8")).hexdigest())
                if key not in verdicts:
                    try:
                        verdicts[key] = by_id[run["id"]].check(run["stdout"])
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        verdicts[key] = f"malformed output ({type(exc).__name__}: {exc})"
                reason = verdicts[key]
            if reason is not None:
                failed += 1
                reasons.append(f"pass {result['index']} job {run['id']}: {reason}")
    return attempted, failed, reasons


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f}"


def end_to_end(plain: list, everything: list) -> dict:
    return {
        "setup_s": median([r["setup_s"] for r in everything]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024 for r in plain]),
    }


def per_layer(plain: list, traced: list) -> dict:
    values: dict = {}
    for metric, span in SPAN_METRICS.items():
        values[metric] = median([r["trace"]["self"].get(span, 0.0) for r in traced])
    for metric, name in REPLAY_METRICS.items():
        values[metric] = median([r["trace"]["replay"].get(name, 0.0) for r in traced])
    for name in COUNT_METRICS:
        values[name] = statistics.median_low([r["trace"]["counts"].get(name, 0) for r in traced])
    plain_wall = median([r["wall_s"] for r in plain])
    values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - plain_wall
    values["trace.coverage"] = median([r["trace"]["covered"] for r in traced]) / plain_wall
    return values


def write_trace(root: str, workload: str, seed: int, workdir: str, traced: list) -> str:
    path = os.path.join(root, STATE_DIR, f"trace-{workload}-seed{seed}.json")
    doc = {"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent", "job"], "passes": []}
    for r in traced:
        with open(os.path.join(workdir, f"spans{r['index']}.json"), encoding="utf-8") as handle:
            doc["passes"].append({"pass": r["index"], "spans": json.load(handle)})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gvmot", "cli.py")):
        print("perfbench: no src/gvmot/cli.py here; run from the root of a gvmot checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    os.makedirs(os.path.join(root, STATE_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, STATE_DIR))
    try:
        jobs = workloads.build(args.workload, args.seed, spec["workloads"][args.workload]["params"], workdir)
        generated = time.perf_counter()

        # alternate untraced and traced passes when tracing, so drift hits both alike
        modes = [False, True] if args.trace else [False]
        passes: list = []
        deadline = generated + args.seconds
        longest = 0.0
        while time.perf_counter() < deadline or len(passes) < len(modes):
            left = started + RUN_LIMIT_S - time.perf_counter()
            if len(passes) >= len(modes) and longest > left:
                break
            begun = time.perf_counter()
            traced = modes[len(passes) % len(modes)]
            passes.append(run_pass(src, workdir, jobs, len(passes), traced, max(left, 1.0)))
            longest = max(longest, time.perf_counter() - begun)
        measured = time.perf_counter()

        attempted, failed, reasons = judge(jobs, passes)
        ok = [r for r in passes if "error" not in r]
        plain = [r for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        for reason in reasons[:20]:
            print(f"perfbench: FAILED {reason}", file=sys.stderr)

        walls = [r["wall_s"] for r in plain]
        print(
            f"perfbench {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
            f"{len(plain)} untraced and {len(traced)} traced passes; untraced wall_s median "
            f"{median(walls):.4f} over {len(walls)} samples ({quartiles(walls)}), raw "
            f"{median([r['raw_wall_s'] for r in plain]):.4f}; speed factors "
            f"{' '.join(format(r['scale'], '.3f') for r in ok)}; failed {failed} of {attempted}; "
            f"generation {generated - started:.2f} s, passes {measured - generated:.2f} s"
        )
        if not plain or (args.trace and not traced):
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        if args.trace:
            path = write_trace(root, args.workload, args.seed, workdir, traced)
            print(f"perfbench: spans written to {os.path.relpath(path, root)}")
            values, wanted = per_layer(plain, traced), bench["per_layer"]
        else:
            values, wanted = end_to_end(plain, ok), bench["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
