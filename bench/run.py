"""Benchmark for qident: time to a verdict, by CLI workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload series-verify --seed 1 --seconds 25 --trace 0

One run builds the workload's batch of ``qident`` command lines from the
seed (see ``workloads.py``) and runs it again and again, closed loop with a
single client: each invocation starts when the previous one has exited,
and each is a fresh interpreter, so the program's caches start cold, as
they do for a user of the CLI.  Whole batches run until the next one would
end after ``--seconds``.  Every output is checked (``checks.py``) against
references computed apart from the program (``oracles.py``).

With ``--trace 0`` the run reports the end-to-end metrics: the batch time
from per-invocation medians, the median of each batch's largest max-RSS,
and the median set-up time.  Times are scaled to a reference processor
speed (see ``SpeedScale``).  With ``--trace 1`` it alternates untraced batches with
traced ones, where every invocation runs under ``trace_op.py``, and
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when the run completes, whatever the checks found, and
2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spawn
import workloads

BENCH_DIR = Path(__file__).resolve().parent
TRACE_SCRIPT = BENCH_DIR / "trace_op.py"
SPAWN_SCRIPT = BENCH_DIR / "spawn.py"
OUT_DIR = Path(".bench_out")

SETUP_LAUNCHES = 15
CALIBRATION_LOOPS = 200_000
# the calibration loop's time on the machine where the reference figures in
# README.md were taken; scaled times are seconds at that speed
REFERENCE_S = 0.040
LISTED = {"ay1", "ay2", "ay3", "thm21", "lemma22", "middle", "q1limit", "omega",
          "omega1", "nu1", "nu2", "nu3", "qbinom_thm",
          "phi", "psi", "tau", "rho", "durfee_split"}

# per-layer metric -> (unit, source): a time sums the self time of the spans
# named source, a count reads the counter named source
LAYER_METRICS = {
    "series.poch_s": ("s", "series.poch"),
    "series.invert_s": ("s", "series.invert"),
    "series.mul_s": ("s", "series.mul"),
    "series.compare_s": ("s", "series.compare"),
    "series.exact_s": ("s", "series.exact"),
    "series.other_s": ("s", "series.other"),
    "series.terms": ("count", "series.terms"),
    "identities.closed_s": ("s", "identities.closed"),
    "identities.enum_s": ("s", "identities.enum"),
    "identities.oracle_s": ("s", "identities.oracle"),
    "identities.verify_s": ("s", "identities.verify"),
    "partitions.enumerate_s": ("s", "partitions.enumerate"),
    "partitions.elements": ("count", "partitions.elements"),
    "partitions.validate_s": ("s", "partitions.validate"),
    "bijections.forward_s": ("s", "bijections.forward"),
    "bijections.inverse_s": ("s", "bijections.inverse"),
    "bijections.check_s": ("s", "bijections.check"),
    "dsl.parse_s": ("s", "dsl.parse"),
    "dsl.eval_s": ("s", "dsl.eval"),
    "dsl.summands": ("count", "dsl.summands"),
    "cli.import_s": ("s", "cli.import"),
    "cli.self_s": ("s", "cli.main"),
}


class SetupError(Exception):
    """The program cannot be started from this checkout."""


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    factor: float = 1.0  # from wall time to the reference processor speed

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


def run_process(argv: list, env: dict) -> Result:
    """Run one command to its exit, through spawn.py (see there why)."""
    helper = subprocess.run([sys.executable, "-S", str(SPAWN_SCRIPT)] + argv,
                            capture_output=True, env=env,
                            timeout=spawn.TIMEOUT_S + 10)
    head, _, out = helper.stdout.partition(b"\n")
    err = helper.stderr.decode(errors="replace")
    if helper.returncode != 0:
        return Result(helper.returncode, "", err, 0.0, 0.0)
    info = json.loads(head)
    return Result(info["returncode"], out.decode(errors="replace"), err,
                  info["wall_s"], info["maxrss_kb"] / 1024.0)


def calibrate() -> float:
    """Time a fixed pure-Python loop: dict updates and integer arithmetic,
    the same kind of work the program does."""
    start = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_LOOPS):
        k = i & 1023
        acc[k] = acc.get(k, 0) + i * 3
    return time.perf_counter() - start


class SpeedScale:
    """Runs processes and scales their wall times to a reference processor
    speed.

    The calibration loop runs before the first process and after every
    process, on the same processor; each process's time is multiplied by
    REFERENCE_S over the mean of the calibrations on either side of it.
    A host that lends the processor to other work slows the loop and the
    program alike, so the scaled time keeps the program's own cost.
    """

    def __init__(self):
        self.last = calibrate()

    def run(self, argv: list, env: dict) -> Result:
        res = run_process(argv, env)
        now = calibrate()
        res.factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return res


def program_env(root: Path) -> dict:
    src = root / "src"
    if not (src / "qident" / "__init__.py").is_file():
        raise SetupError(f"no qident package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def measure_setup(env: dict, scale: SpeedScale) -> float:
    """Median time to start an interpreter, import qident and run
    ``qident list``; the listing must name every identity and bijection."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        res = scale.run([sys.executable, "-m", "qident", "list"], env)
        names = {line.split()[0] for line in res.stdout.splitlines()
                 if line.startswith("  ")}
        if res.returncode != 0 or not LISTED <= names:
            raise SetupError(f"qident list failed: {res.stderr.strip()[-500:]}")
        times.append(res.scaled_s)
    return statistics.median(times)


class Tally:
    """Outcomes of every operation attempted in the run."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.first_failures = []

    def add(self, op: dict, outcome: str, detail: str = "") -> None:
        self.attempted += 1
        if outcome == "ok":
            return
        if outcome == "wrong":
            self.wrong += 1
        else:
            self.errors += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(
                f"{outcome}: qident {' '.join(op['argv'])[:160]} {detail[-300:]}")

    @property
    def failed(self) -> int:
        return self.wrong + self.errors


def run_batch(ops, refs, env, scale: SpeedScale, tally: Tally) -> list:
    """Run the batch once, untraced, and check the outputs afterwards."""
    results = [scale.run([sys.executable, "-m", "qident"] + op["argv"], env)
               for op in ops]
    for op, ref, res in zip(ops, refs, results):
        tally.add(op, checks.check(op, res.returncode, res.stdout, ref), res.stderr)
    return results


def batch_time(batches: list) -> float:
    """The batch time from per-operation medians: the sum over operations
    of the median, over batches, of each one's scaled time."""
    return sum(statistics.median(res.scaled_s for res in column)
               for column in zip(*batches))


def run_traced_batch(ops, refs, env, scale: SpeedScale, tally: Tally) -> tuple:
    """Run the batch once under trace_op.py; returns (results, summed layer
    metrics, per-operation trace reports)."""
    results = [scale.run([sys.executable, str(TRACE_SCRIPT)] + op["argv"], env)
               for op in ops]
    totals = {name: 0.0 for name in LAYER_METRICS}
    reports = []
    for op, ref, res in zip(ops, refs, results):
        try:
            report = json.loads(res.stdout)
        except ValueError:
            tally.add(op, "error", res.stderr)
            continue
        outcome = checks.check(op, report["returncode"], report["stdout"], ref)
        if outcome == "ok" and not checks.check_trace(op, report):
            outcome = "wrong"
        tally.add(op, outcome, res.stderr)
        for name, (unit, source) in LAYER_METRICS.items():
            if unit == "count":
                totals[name] += report["counts"].get(source, 0)
            else:
                totals[name] += report["self_time"].get(source, 0.0) * res.factor
        reports.append({"argv": op["argv"], "spans": report["spans"],
                        "folded": report["folded"]})
    return results, totals, reports


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, ends
    within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def timed_run(ops, refs, env, scale, seconds, tally) -> dict:
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(run_batch(ops, refs, env, scale, tally))
        if not another_fits(start, len(batches), seconds):
            break
    return {
        "batches": len(batches),
        "wall_s": batch_time(batches),
        "raw_wall_s": statistics.median(sum(r.wall_s for r in b) for b in batches),
        "peak_rss_mb": statistics.median(max(r.maxrss_mb for r in b) for b in batches),
    }


def traced_run(ops, refs, env, scale, seconds, tally, trace_file: Path) -> dict:
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_batch(ops, refs, env, scale, tally))
        results, totals, reports = run_traced_batch(ops, refs, env, scale, tally)
        traced.append(results)
        layers.append(totals)
        if not another_fits(start, len(traced), seconds):
            break
    OUT_DIR.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
        "folded_fields": ["anchor", "parent_name", "name", "calls", "total_s",
                          "self_s"],
        "operations": reports,
    }))
    metrics = {name: statistics.median(t[name] for t in layers)
               for name in LAYER_METRICS}
    untraced_s, traced_s = batch_time(plain), batch_time(traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {"batches": len(traced), "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.batch(args.workload, args.seed)
    refs = [checks.expect(op) for op in ops]
    # the program and the calibration loop share one processor
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        env = program_env(Path.cwd())
        scale = SpeedScale()
        setup_s = measure_setup(env, scale)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        res = traced_run(ops, refs, env, scale, args.seconds, tally, trace_file)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["metrics"].items()}
        print(f"# traced batches {res['batches']}: untraced wall"
              f" {res['untraced_wall_s']:.3f} s, traced wall"
              f" {res['traced_wall_s']:.3f} s; spans in {trace_file}")
    else:
        res = timed_run(ops, refs, env, scale, args.seconds, tally)
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"# batches {res['batches']} of {len(ops)} operations;"
              f" unscaled median batch wall {res['raw_wall_s']:.3f} s")
    for name, m in metrics.items():
        print(f"# {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} attempted {tally.attempted} failed {tally.failed}"
          f" (wrong {tally.wrong}, error {tally.errors})")
    for line in tally.first_failures:
        print(f"# {line}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
