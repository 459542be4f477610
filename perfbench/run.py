#!/usr/bin/env python3
"""sftent benchmark: one workload per process, end to end or traced by layer.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``sftent`` is imported from ``src/``.
Set-up imports ``sftent`` afresh and generates the workload's inputs from the
seed, several times, and reports the median (numpy is imported once first).
The measurement then runs one untimed warm-up pass and repeats passes over
the workload's fixed job list, one job after another in this single thread
(a closed loop with one caller), until another pass would overrun
``--seconds``; every job's result is checked, and a job that raises or
returns a wrong result counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics: the
pass wall time, the time of the largest job, the median set-up time, peak
resident memory and the share of jobs that passed.  Every time is scaled to
a reference host speed by a probe from ``hostspeed.py`` that an interval
timer runs every 50 ms during set-up and the untraced passes (the
workload's probe, ``workloads.PROBE``, for jobs; the interpreter probe for
set-up): the probe's own time is taken off, and the rest is divided by the
mean probe time sampled meanwhile and multiplied by the probe's reference
time.  A job's time is the median of its scaled run times over the run's
passes, and the pass wall time is the sum of those per-job times.  The
summary line also gives the raw (unscaled) pass, largest-job and set-up
times and the probe samples' count and median.

With ``--trace 1`` untraced and traced passes alternate; it reports per-layer
self times and work counts (medians over traced passes) plus the tracing
overhead, and writes every span to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
DEFAULT_SEED = 1

import hostspeed  # noqa: E402  (perfbench/hostspeed.py, beside this file)
import spans  # noqa: E402  (perfbench/spans.py, beside this file)
from workloads import PROBE, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "largest_job_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class SetupError(RuntimeError):
    """The checkout holds no importable sftent source tree."""


def import_sftent():
    """Import sftent from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "sftent" or k.startswith("sftent.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("sftent")
        importlib.import_module("sftent.cli")
        importlib.import_module("sftent.formats")
    except ImportError as exc:
        raise SetupError(f"cannot import sftent from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SetupError(f"sftent was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int, small: bool = False):
    """Import sftent and build the job list, several times, under the sampler.

    Set-up is interpreter work in every workload, so the interpreter probe
    scales it.  Returns (scaled set-up seconds, raw set-up seconds, jobs).
    """
    import numpy  # noqa: F401  (resident before timing: it cannot be re-imported)

    probe = hostspeed.PROBES["interpreter"]
    times, intervals, jobs = [], [], None
    with hostspeed.Sampler(probe) as sampler:
        for _ in range(SETUP_REPEATS):
            gc.collect()    # the previous set-up's modules and jobs are garbage now
            handler_s, t0 = sampler.handler_s, time.perf_counter()
            pkg = import_sftent()
            jobs = WORKLOADS[workload](pkg, random.Random(seed), small)
            t1 = time.perf_counter()
            times.append(t1 - t0 - (sampler.handler_s - handler_s))
            intervals.append((t0, t1))
    return [scaled(t, sampler.probe_s(*span), probe) for t, span in zip(times, intervals)], times, jobs


def scaled(seconds: float, probe_s: float, probe: hostspeed.Probe) -> float:
    """`seconds` at the reference host speed, given the time `probe` took meanwhile."""
    return seconds * probe.reference_s / probe_s


@dataclass
class Pass:
    wall: float
    largest: float
    times: list      # each job's run time, in job order, less the sampler's time
    intervals: list  # (start, end) of each job's run, in job order
    outcomes: list   # (job, "ok" | "wrong" | exception name)


def run_pass(jobs, sampler: hostspeed.Sampler | None = None, tracer=None) -> Pass:
    """One pass over the job list, timing each job's run but not its check.

    Under a sampler, the time its probes took during a job is taken off the
    job's time.  With a tracer, every job runs under a root span.
    """
    outcomes, times, intervals, largest = [], [], [], 0.0
    for job in jobs:
        outcome = None
        handler_s = sampler.handler_s if sampler else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.job_span(job.name):
                    result = job.run()
        except Exception as exc:  # every failure is counted, none aborts the run
            outcome = type(exc).__name__
        t1 = time.perf_counter()
        elapsed = t1 - t0 - ((sampler.handler_s if sampler else 0.0) - handler_s)
        times.append(elapsed)
        intervals.append((t0, t1))
        if job.largest:
            largest = elapsed
        if outcome is None:
            try:
                outcome = "ok" if job.check(result) else "wrong"
            except Exception as exc:
                outcome = f"wrong ({type(exc).__name__} in check)"
        outcomes.append((job, outcome))
    return Pass(sum(times), largest, times, intervals, outcomes)


def measure(jobs, seconds: float, traced: bool, sampler: hostspeed.Sampler):
    """Run a warm-up pass, then repeat passes until another would overrun `seconds`.

    Returns (warm-up pass, peak resident MB after it, untraced passes, traced
    passes, tracers).  The warm-up pass is not timed and runs without the
    sampler, so the peak memory read after it holds no probe's arrays.
    Untraced passes run under the sampler; traced passes do not, so that
    probe time stays out of the spans.  Traced runs alternate an untraced and
    a traced pass so the two share the same host conditions.
    """
    deadline = time.perf_counter() + seconds
    t0 = time.perf_counter()
    warm = run_pass(jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced_passes, tracers = [], [], []
    longest = time.perf_counter() - t0
    while True:
        t0 = time.perf_counter()
        with sampler:
            plain.append(run_pass(jobs, sampler))
        if traced:
            tracer = spans.Tracer()
            with spans.instrumented(tracer):
                traced_passes.append(run_pass(jobs, tracer=tracer))
            tracers.append(tracer)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > deadline:
            return warm, peak_rss_mb, plain, traced_passes, tracers


def tally(passes):
    """(attempted, failed, correct, failure lines) over all passes."""
    attempted = failed = 0
    correct = True
    failures: dict[str, int] = {}
    for p in passes:
        for job, outcome in p.outcomes:
            attempted += 1
            if outcome == "ok":
                continue
            failed += 1
            known = job.known_defect is not None and outcome == job.known_defect.__name__
            correct &= known
            key = f"{job.name}: {outcome}" + (" (known defect)" if known else "")
            failures[key] = failures.get(key, 0) + 1
    return attempted, failed, correct, [f"{k} x{n}" for k, n in failures.items()]


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "sftent_src_sha256": digest.hexdigest()[:16]}


def execute(workload: str, seed: int, seconds: float, traced: bool, small: bool = False):
    """Set up and measure one workload; returns (summary, result line, tracers)."""
    setup_scaled, setup_raw, jobs = setup(workload, seed, small)
    probe = hostspeed.PROBES[PROBE[workload]]
    sampler = hostspeed.Sampler(probe)
    warm, peak_rss_mb, plain, traced_passes, tracers = measure(jobs, seconds, traced, sampler)
    attempted, failed, correct, failures = tally([warm] + plain + traced_passes)
    walls = [p.wall for p in plain]
    per_job = [statistics.median(scaled(t, sampler.probe_s(*span), probe) for t, span in runs)
               for runs in zip(*(zip(p.times, p.intervals) for p in plain))]
    largest_index = next(i for i, j in enumerate(jobs) if j.largest)
    summary = {"workload": workload, "seed": seed, "passes": len(plain),
               "traced_passes": len(traced_passes), "jobs_per_pass": len(jobs),
               "largest_job": jobs[largest_index].name,
               "raw_pass_walls_s": [round(w, 4) for w in walls],
               "raw_largest_job_s": [round(p.largest, 4) for p in plain],
               "raw_setup_s": [round(t, 4) for t in setup_raw],
               "probe": PROBE[workload], "probe_reference_s": probe.reference_s,
               "probe_samples": len(sampler.seconds),
               "probe_median_s": statistics.median(sampler.seconds),
               "environment": environment(), "failures": failures}
    if traced:
        per_pass = [t.metrics() for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_wall = statistics.median(p.wall for p in traced_passes)
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = {name: spans.COUNT_METRICS.get(name, "s") for name in values}
        self_times = [t.self_times() for t in tracers]
        shares = {layer: statistics.median(t[layer] for t in self_times) / traced_wall
                  for layer in self_times[0]}
        summary["layer_share_of_traced_pass"] = {
            k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v}
    else:
        values = {
            "wall_s": sum(per_job),
            "largest_job_s": per_job[largest_index],
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    return summary, result, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, result, tracers = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracers:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.write(json.dumps(summary) + "\n")
            for pass_no, tracer in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict(pass_no)) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
