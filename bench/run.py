"""spwkit benchmark: cold `spw` jobs in a closed loop with one client.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh `python -m spwkit.cli ...` process with PYTHONPATH
pointing at a copy of `src`, started by launcher.py; the next job starts
when the previous one has exited. Inputs come from inputs.py and depend
only on the workload and the seed. Every job's stdout must match the first
job's byte for byte, and that first report is checked against values the
benchmark computes from its own inputs (checks.py).

Set-up: a fresh copy of `src` (no bytecode yet) and freshly written inputs
run one job outside the timed ones. It happens before the loop and again
after every SETUP_EVERY timed jobs, so the set-ups sample the same stretch
of machine time as the jobs; `setup_s` is their median. Timed jobs reuse
the latest copy.

Every time metric is in seconds at the reference speed. On a shared host
the same job can take 1.5 times as long for seconds or minutes at a time,
so between jobs the runner times a fixed pure-Python loop
(reference_loop) and scales each job's wall time by REFERENCE_LOOP_S over
the mean of the loop times just before and just after it. The loop runs
in the benchmark, never in the program, so a change to the program moves
the scaled time exactly as it moves the wall time at a steady speed. The
run also prints the unscaled wall times.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
jobs with jobs run under trace_boot.py and reports the per-layer metrics,
each the median over traced jobs, plus the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Without the program's sources (src/spwkit) and the
committed data it reads, the run exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
PROGRAM = Path("src/spwkit/cli.py")

SETUP_EVERY = 8
# The tail percentile needs at least 11 samples; a run keeps going past
# --seconds until it has MIN_JOBS, but never past CAP_FACTOR * --seconds.
MIN_JOBS = 20
CAP_FACTOR = 2
TAIL_SAMPLES = 10
# reference_loop's wall time at the reference speed. Scaled times are the
# wall times of a machine on which the loop always takes this long; on the
# two-core machine the benchmark was written on it took 0.022-0.037 s.
REFERENCE_LOOP_S = 0.025


@dataclass(frozen=True)
class Job:
    seconds: float
    returncode: int
    maxrss_kb: int
    scaled: float = 0.0  # `seconds` at the reference speed


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - start


class Runner:
    """Starts jobs one at a time, through launcher.py, and judges each
    job's output. Use as a context manager, which stops the launcher."""

    def __init__(self, workload: str, inp: inputs.Inputs, work: Path):
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.check = checks.CHECKS[workload]
        self.inputs = inp
        self.work = work
        self.home: Path | None = None
        self.setups = 0
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.loop_s = [reference_loop()]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()

    def setup(self) -> Job:
        """Move jobs to a fresh copy of src (no bytecode yet) and freshly
        written inputs; returns the first job run there."""
        previous, self.home = self.home, self.work / f"setup{self.setups}"
        self.setups += 1
        shutil.copytree("src", self.home / "src", ignore=shutil.ignore_patterns("__pycache__"))
        inputs.write(self.inputs, self.home / "in")
        if previous is not None:
            shutil.rmtree(previous)
        return self.run()

    def run(self, spans: Path | None = None) -> Job:
        home = self.home
        if spans is None:
            cmd = [sys.executable, "-m", "spwkit.cli", *self.inputs.argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_boot.py"), str(spans),
                   *self.inputs.argv]
        env = dict(os.environ, PYTHONPATH=str(home / "src"), XDG_CACHE_HOME=str(home / "cache"))
        env.pop("SPW_REGISTER", None)
        out_path, err_path = home / "stdout", home / "stderr"
        request = {"cmd": cmd, "cwd": str(home / "in"), "env": env,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        job = Job(**json.loads(self.launcher.stdout.readline()))
        self.loop_s.append(reference_loop())
        speed = REFERENCE_LOOP_S / statistics.fmean(self.loop_s[-2:])
        job = replace(job, scaled=job.seconds * speed)
        self.attempted += 1
        problem = self._judge(job, out_path.read_bytes(), err_path)
        if problem:
            self.failed += 1
            self.failures.append(problem)
        return job

    def _judge(self, job: Job, stdout: bytes, err_path: Path) -> str | None:
        if job.returncode != 0:
            stderr = err_path.read_text(encoding="utf-8", errors="replace")
            return f"exit {job.returncode}: {stderr.strip()[-300:]}"
        if self.reference is None:
            try:
                self.check(stdout, self.inputs.expected)
            except (checks.CheckError, ValueError, IndexError) as exc:
                return f"wrong output: {exc}"
            self.reference = stdout
            return None
        if stdout != self.reference:
            return "output differs from the first job's"
        return None


def closed_loop(seconds: float, step) -> None:
    """Call step() back to back for `seconds` (see MIN_JOBS)."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and done >= MIN_JOBS) or elapsed >= CAP_FACTOR * seconds:
            return
        done += step(done)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_SAMPLES samples above it, by nearest rank."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_SAMPLES:
        return 100.0, ordered[-1]
    rank = len(ordered) - TAIL_SAMPLES
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def end_to_end(runner: Runner, seconds: float) -> dict:
    jobs: list[Job] = []
    setups = [runner.setup()]

    def step(done):
        if done and done % SETUP_EVERY == 0:
            setups.append(runner.setup())
        jobs.append(runner.run())
        return 1
    closed_loop(seconds, step)
    scaled = [j.scaled for j in jobs]
    wall = [j.seconds for j in jobs]
    percentile, tail_value = tail(scaled)
    print(f"timed loop: {len(jobs)} jobs, {len(setups)} set-ups; "
          f"job_tail_s is p{percentile:.1f} ({TAIL_SAMPLES} samples above it)")
    print(f"unscaled wall time: setup p50 {statistics.median(j.seconds for j in setups):.4f} s, "
          f"job p50 {statistics.median(wall):.4f} s, job tail {tail(wall)[1]:.4f} s; "
          f"reference loop p50 {statistics.median(runner.loop_s):.4f} s")
    return {
        "setup_s": (statistics.median(j.scaled for j in setups), "s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (tail_value, "s"),
        "jobs_per_s": (len(jobs) / sum(scaled), "1/s"),
        "peak_rss_mb": (max(j.maxrss_kb for j in jobs) / 1024.0, "MB"),
    }


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, total_s, self_s (duration minus the time its
    child spans cover) and value, summed over one job."""
    cover = [0.0] * len(spans)
    for _name, start, end, parent, _value in spans:
        if parent >= 0:
            cover[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent, value), covered in zip(spans, cover):
        totals[name + ".calls"] += 1
        totals[name + ".total_s"] += end - start
        totals[name + ".self_s"] += end - start - covered
        totals[name + ".value"] += value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def job_layers(t: dict[str, float], target_refs: int) -> dict[str, tuple[float, str]]:
    samples = t["spw.monte_carlo.value"]
    return {
        "import.spwkit_s": (t["import.spwkit.total_s"], "s"),
        "import.numpy_loaded": (t["import.spwkit.value"], "flag"),
        "register.loads.calls": (t["register.loads.calls"], "count"),
        "register.loads.self_s": (t["register.loads.self_s"], "s"),
        "register.loads.us_per_row": (
            1e6 * _ratio(t["register.loads.total_s"], t["register.loads.value"]), "us"),
        "register.loads_per_job": (t["register.loads.calls"], "count"),
        "cvss.parse_vector.calls": (t["cvss.parse_vector.calls"], "count"),
        "cvss.parse_vector.self_s": (t["cvss.parse_vector.self_s"], "s"),
        "cvss.base_score.self_s": (t["cvss.base_score.self_s"], "s"),
        "cvss.distinct_ratio": (
            _ratio(t["cvss.parse_vector.value"], t["cvss.parse_vector.calls"]), "ratio"),
        "taxonomy.classify_tier.calls": (t["taxonomy.classify_tier.calls"], "count"),
        "taxonomy.classify_tier.self_s": (t["taxonomy.classify_tier.self_s"], "s"),
        "report.build.self_s": (t["report.build.self_s"], "s"),
        "report.render.self_s": (t["report.render.self_s"], "s"),
        "report.bytes_out": (t["report.render.value"], "B"),
        "register.get.calls": (t["register.get.calls"], "count"),
        "register.get.self_s": (t["register.get.self_s"], "s"),
        "register.get_per_target": (_ratio(t["register.get.calls"], target_refs), "ratio"),
        "scenario.load_scenario.self_s": (t["scenario.load_scenario.self_s"], "s"),
        "scenario.check_targets_resolve.calls": (
            t["scenario.check_targets_resolve.calls"], "count"),
        "scenario.check_targets_resolve.self_s": (
            t["scenario.check_targets_resolve.self_s"], "s"),
        "scenario.evaluate.self_s": (t["scenario.evaluate.self_s"], "s"),
        "scenario.classify_targets.self_s": (t["scenario.classify_targets.self_s"], "s"),
        "spw.monte_carlo.self_s": (t["spw.monte_carlo.self_s"], "s"),
        "spw.monte_carlo.samples": (samples, "count"),
        "spw.monte_carlo.bytes": (8 * samples, "B_computed"),
        "cli.main.self_s": (t["cli.main.self_s"], "s"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    runner.setup()
    spans_path = runner.work / "spans.json"

    def plain_job():
        plain.append(runner.run().scaled)

    def traced_job():
        spans_path.unlink(missing_ok=True)
        traced.append(runner.run(spans=spans_path).scaled)
        if spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            layers.append(job_layers(layer_totals(spans), runner.inputs.shape["target_refs"]))

    def step(done):
        # Alternate which of the pair runs first so drift hits both alike.
        for job in (plain_job, traced_job) if done % 4 == 0 else (traced_job, plain_job):
            job()
        return 2
    closed_loop(seconds, step)
    print(f"traced loop: {len(traced)} traced and {len(plain)} untraced jobs")
    if not layers:
        return {}
    metrics = {name: (statistics.median(job[name][0] for job in layers), unit)
               for name, (_value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def measure(args, work: Path) -> int:
    inp = inputs.generate(args.workload, args.seed, Path("."))
    print(f"workload {args.workload} seed {args.seed} shape {json.dumps(inp.shape)}")
    with Runner(args.workload, inp, work) as runner:
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in runner.failures[:3]:
        print(f"failed job: {problem[:300]}")
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p) for p in (PROGRAM, inputs.BUNDLED_REGISTER, inputs.CVSS_CORPUS)
               if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work = (WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}").resolve()
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
