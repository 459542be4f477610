#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from a checkout root:

    python3 perfbench/selftest.py

It checks four things and exits non-zero if any fails:

1. every workload, run at a tiny size untraced and traced, emits exactly the
   metrics ``BENCHMARK.json`` names, each with its unit;
2. the correctness gate fires: a real job given a deliberately wrong
   expected value, and a job that raises, are counted as failed and make the
   run incorrect, while a job raising its declared known defect is counted as
   failed without making the run incorrect;
3. span accounting adds up: for every span, its self time plus the durations
   of its direct children equals its own duration, so the self times under a
   job's root span sum to the root's duration;
4. the host-speed probe samples during a job and its time is taken off the
   job's, each job is charged the mean probe time near it, and scaling by it
   is exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
import time

import hostspeed
import run
import spans
from workloads import WORKLOADS, Job

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metric_names() -> list:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect(set(bench["workloads"][i]["name"] for i in range(len(bench["workloads"])))
           == set(WORKLOADS), "BENCHMARK.json lists every workload")
    tracers = []
    for workload in WORKLOADS:
        for traced in (0, 1):
            _, result, tr = run.execute(workload, seed=3, seconds=0.01, traced=bool(traced), small=True)
            tracers += tr
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[traced], f"{workload} trace={traced}: metric names and units")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace={traced}: numeric values")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace={traced}: correct at tiny size")
    return tracers


def check_gate() -> None:
    pkg = run.import_sftent()
    jobs = WORKLOADS["sweep"](pkg, random.Random(3), True)
    real = next(j for j in jobs if j.name == "hard-square-8x8")
    wrong = dataclasses.replace(real, check=lambda v: v == 660647962955 + 1)
    attempted, failed, correct, _ = run.tally([run.run_pass([real, wrong])])
    expect((attempted, failed, correct) == (2, 1, False), "wrong expected value is caught")

    def boom():
        raise ValueError("boom")

    def overflow():
        raise RecursionError("deep")

    raising = Job("raises", boom, lambda v: True)
    attempted, failed, correct, _ = run.tally([run.run_pass([raising])])
    expect((attempted, failed, correct) == (1, 1, False), "an exception counts as a failure")
    known = Job("known", overflow, lambda v: True, known_defect=RecursionError)
    attempted, failed, correct, lines = run.tally([run.run_pass([known])])
    expect((attempted, failed, correct) == (1, 1, True) and "known defect" in lines[0],
           "a known defect is a failure but not an incorrect result")


def check_scaling() -> None:
    for name, probe in hostspeed.PROBES.items():
        sampler = hostspeed.Sampler(probe)
        with sampler:
            before = sampler.handler_s
            p = run.run_pass([Job("busy", lambda: _busy(4.5 * probe.interval_s), lambda v: True)],
                             sampler)
        wall = p.intervals[0][1] - p.intervals[0][0]
        expect(len(sampler.seconds) >= 5
               and math.isclose(p.times[0], wall - (sampler.handler_s - before)),
               f"{name} probe: sampled during a job, and its time taken off the job's")
        expect(math.isclose(run.scaled(3.0, 2 * probe.reference_s, probe), 1.5),
               f"{name} probe: scaling to the reference host speed")
    sampler = hostspeed.Sampler(hostspeed.PROBES["interpreter"])
    sampler.starts, sampler.seconds = [1.0, 2.0, 2.2, 3.0], [4.0, 1.0, 2.0, 8.0]
    expect((sampler.probe_s(2.1, 2.6), sampler.probe_s(5.0, 6.0)) == (1.5, 8.0),
           "a job is charged the mean probe time near it, else the nearest sample")


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_span_sums(tracers) -> None:
    synthetic = spans.Tracer()
    with synthetic.job_span("nested"):
        outer = synthetic.enter("outer", "outer")
        _busy(0.002)
        for _ in range(2):
            inner = synthetic.enter("inner", "inner")
            _busy(0.003)
            synthetic.exit(inner)
        synthetic.exit(outer)
    expect(0.0015 < outer.self_s < outer.end - outer.start - 0.006, "synthetic outer self time")

    worst = 0.0
    for tracer in [synthetic, *tracers]:
        children: dict[int, float] = {}
        for span in tracer.spans:
            if span.parent is not None:
                children[span.parent.id] = children.get(span.parent.id, 0.0) + span.end - span.start
        for span in tracer.spans:
            duration = span.end - span.start
            worst = max(worst, abs(span.self_s + children.get(span.id, 0.0) - duration))
        roots = [s for s in tracer.spans if s.parent is None]
        total_self = sum(s.self_s for s in tracer.spans)
        worst = max(worst, abs(total_self - sum(s.end - s.start for s in roots)))
    expect(worst < 1e-9, f"self + children = duration for every span (worst error {worst:.2e} s)")


def main() -> int:
    tracers = check_metric_names()
    check_gate()
    check_scaling()
    check_span_sums(tracers)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
