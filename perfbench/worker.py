"""One pass over a workload's job list through gvmot.cli.main, in a fresh process.

Usage: python3 perfbench/worker.py SRC PLAN RESULT

SRC is the directory holding the gvmot package.  The import of gvmot.cli is
timed first thing, before anything else is loaded, as the set-up cost a
fresh interpreter pays.  PLAN lists the jobs and whether to trace; RESULT
receives each job's exit code, time in cli.main and stdout, the set-up
time, the process's peak resident memory and, when traced, the per-span
self times, counters and laurent replay times.  A fresh process per pass
keeps gvmot's module-level caches cold, as they are for each gvmot command.

While the jobs run, a SpeedProbe times a fixed ~0.2 ms piece of interpreter
work every 50 ms from a SIGALRM handler.  The probe's own time is taken out
of each job's time, and run.py uses the samples to rescale the pass's times
to a reference machine speed (see run.py).  Traced spans still contain the
probe's time, about 0.4% of each span.
"""

import sys
import time

_start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gvmot import cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
from collections import defaultdict  # noqa: E402

import tracing  # noqa: E402


class SpeedProbe:
    """Samples the speed the machine gives this process, uniformly in time.

    Every INTERVAL_S a SIGALRM handler runs the same small dict and big-int
    computation, with the garbage collector off, and records (start, seconds).
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < 3:  # passes shorter than the interval
            self._sample(None, None)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(2):
            p = {(i, i % 3): i + 1 for i in range(12)}
            out: dict = {}
            for (a1, b1), c1 in p.items():
                for (a2, b2), c2 in p.items():
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + c1 * c2 * 12345678901
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def time_in(self, start: float, end: float) -> float:
        return sum(d for t, d in self.samples if start <= t < end)


def peak_rss_kb() -> int:
    """High-water resident set of this process image, from /proc/self/status.

    getrusage's ru_maxrss is no good here: on Linux, exec carries the
    parent's resident size at fork time into the child's maximum.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_job(argv: list[str], probe: SpeedProbe) -> tuple[int | None, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed pass
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
    return code, end - start - probe.time_in(start, end), out.getvalue(), err.getvalue()


def replay(tracer: tracing.Tracer, job_id: str, totals: dict) -> None:
    captured = dict(tracer.captured.pop(job_id, []))
    payload = captured.get("payload")
    if payload is None:
        return
    kind, value = payload
    if kind == "count_model" and "log" in captured:
        totals["laurent.word_products"] += tracing.replay_word_products(value[2], captured["log"])
    elif kind == "stack_class":
        totals["laurent.stack_sum"] += tracing.replay_stack_sum(value)


def main() -> int:
    src, plan_path, result_path = sys.argv[1:4]
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"worker: gvmot was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)

    tracer = None
    replays: dict = defaultdict(float)
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    jobs = []
    with SpeedProbe() as probe:
        for job in plan["jobs"]:
            if tracer is None:
                code, seconds, stdout, stderr = run_job(job["argv"], probe)
            else:
                tracer.job = job["id"]
                root = tracer.open(tracing.ROOT)
                try:
                    code, seconds, stdout, stderr = run_job(job["argv"], probe)
                finally:
                    tracer.close(root)
                replay(tracer, job["id"], replays)
            if job["save_stdout"]:
                with open(job["save_stdout"], "w", encoding="utf-8") as handle:
                    handle.write(stdout)
            jobs.append({"id": job["id"], "code": code, "seconds": seconds, "stdout": stdout, "stderr": stderr[-2000:]})

    result = {
        "setup_s": SETUP_S,
        "peak_rss_kb": peak_rss_kb(),
        "jobs": jobs,
        "probe_s": [d for _, d in probe.samples],
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {
            "self": tracer.self_times(),
            "covered": tracer.covered(),
            "counts": {**tracer.counts, **tracer.maxima},
            "replay": dict(replays),
        }
        with open(plan["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
