"""Layer spans for the traced benchmark run, recorded from outside the library.

The traced run replaces the public functions of each ``sftent`` layer with
timing wrappers, in every ``sftent`` module namespace that holds them (modules
import many of them by name, e.g. ``systems`` imports ``block_residue_size``
and ``entropy`` imports ``log_count``), and restores the originals when the
pass ends.  Nothing under ``src/`` changes.

A span records its layer, the wrapped function, the job it ran in, its parent
span and its start and end.  A layer's self time is the span duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (module, public functions); methods are written "Class.method"
LAYERS = {
    "lattice.construct": ("lattice", ["rectangle", "dilate", "FiniteLattice.__init__",
                                      "FiniteLattice.union", "FiniteLattice.translate"]),
    "lattice.boundary": ("lattice", ["boundary_size", "boundary", "interior"]),
    "lattice.block_residue": ("lattice", ["block_residue_size", "block_decompose"]),
    "lattice.run_census": ("lattice", ["run_census", "run_length_class"]),
    "systems.family": ("systems", ["omega_q", "omega_q_plus", "lshape", "staircase",
                                   "stick_augmented"]),
    "systems.condition_report": ("systems", ["condition_report"]),
    "sft.occurrences": ("sft", ["placements", "forbidden_occurrences"]),
    # count_profile_dp and log_count land in counting.sweep or
    # counting.axis_product, decided per call by spec.pure_axis
    "counting.sweep": ("counting", ["count_profile_dp", "log_count"]),
    "counting.axis_product": ("counting", []),
    "counting.bruteforce": ("counting", ["count_bruteforce", "enumerate_admissible"]),
    "counting.extension": ("counting", ["admissible_extension_exists", "count_extendable"]),
    "entropy.rect_table": ("entropy", ["rect_entropy_table"]),
    "entropy.system": ("entropy", ["system_entropy"]),
    "entropy.projectional": ("entropy", ["projectional_entropy", "directional_entropy_max"]),
    "entropy.gap": ("entropy", ["strict_gap_check"]),
    "multiplicative": ("multiplicative", ["fibonacci", "fiber_decomposition",
                                          "count_multiplicative", "log_count_multiplicative",
                                          "count_multiplicative_bruteforce",
                                          "multiplicative_entropy_series"]),
    "gluing.verify": ("gluing", ["verify_block_gluing", "replay_counterexample"]),
    "formats.resolve": ("formats", ["resolve_spec", "resolve_system", "resolve_lattice",
                                    "spec_from_dict", "system_from_dict", "lattice_from_dict"]),
    "cli.reproduce": ("cli", ["main"]),
}

JOB_LAYER = "job"   # root span of every job: harness code and unwrapped library code

# per-layer metrics that are work counts rather than times: name -> unit
COUNT_METRICS = {
    "lattice.construct.cells": "count",
    "counting.sweep.calls": "count",
    "counting.sweep.cells": "count",
    "counting.axis_product.calls": "count",
    "counting.extension.calls": "count",
    "counting.extendable.kept_ratio": "ratio",
    "gluing.pairs_checked": "count",
}


class Span:
    __slots__ = ("id", "layer", "fn", "job", "parent", "start", "end", "child")

    def __init__(self, id_, layer, fn, job, parent, start):
        self.id, self.layer, self.fn, self.job = id_, layer, fn, job
        self.parent, self.start, self.end, self.child = parent, start, None, 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child

    def as_dict(self, pass_no: int) -> dict:
        return {
            "id": self.id, "layer": self.layer, "fn": self.fn, "job": self.job,
            "pass": pass_no, "parent": None if self.parent is None else self.parent.id,
            "start": self.start, "end": self.end, "self": self.self_s,
        }


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._open: list[Span] = []

    def enter(self, layer: str, fn: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), layer, fn, self.job, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    @contextmanager
    def job_span(self, name: str):
        self.job = name
        span = self.enter(JOB_LAYER, name)
        try:
            yield span
        finally:
            self.exit(span)
            self.job = None

    def self_times(self) -> dict[str, float]:
        totals = dict.fromkeys([*LAYERS, JOB_LAYER], 0.0)
        for span in self.spans:
            totals[span.layer] += span.self_s
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer self times plus the work counts of this pass."""
        out = {f"{layer}.self_s": t for layer, t in self.self_times().items() if layer != JOB_LAYER}
        c = self.counts
        enumerated = c["counting.extendable.enumerated"]
        c["counting.extendable.kept_ratio"] = (
            c["counting.extendable.kept"] / enumerated if enumerated else 0.0
        )
        out.update({name: c[name] for name in COUNT_METRICS})
        return out


def _outermost(span: Span) -> bool:
    return span.parent is None or span.parent.layer != span.layer


def _plain(tracer: Tracer, fn, layer: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(layer, fn.__qualname__)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


def _generator(tracer: Tracer, fn, layer: str):
    """Time each resumption of a generator, not the consumer's work between items."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            span = tracer.enter(layer, fn.__qualname__)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit(span)
            yield item
    return wrapper


def _route(tracer: Tracer, fn):
    """count_profile_dp / log_count: sweep work unless the spec is pure-axis."""
    @functools.wraps(fn)
    def wrapper(lat, spec, *args, **kwargs):
        layer = "counting.axis_product" if spec.pure_axis is not None else "counting.sweep"
        span = tracer.enter(layer, fn.__qualname__)
        try:
            result = fn(lat, spec, *args, **kwargs)
        finally:
            tracer.exit(span)
        if _outermost(span):
            tracer.counts[f"{layer}.calls"] += 1
            if layer == "counting.sweep":
                _, w, h = lat.bbox
                tracer.counts["counting.sweep.cells"] += w * h
        return result
    return wrapper


def _extendable(tracer: Tracer, fn):
    """count_extendable: kept patterns over enumerated core patterns."""
    @functools.wraps(fn)
    def wrapper(lat, spec, margin, *args, **kwargs):
        calls_before = tracer.counts["counting.extension.calls"]
        span = tracer.enter("counting.extension", fn.__qualname__)
        try:
            result = fn(lat, spec, margin, *args, **kwargs)
        finally:
            tracer.exit(span)
        if margin > 0:
            tracer.counts["counting.extendable.kept"] += result.value
            tracer.counts["counting.extendable.enumerated"] += (
                tracer.counts["counting.extension.calls"] - calls_before
            )
        return result
    return wrapper


def _wrapper_for(tracer: Tracer, layer: str, name: str, fn):
    counts = tracer.counts
    if name in ("count_profile_dp", "log_count"):
        return _route(tracer, fn)
    if name == "count_extendable":
        return _extendable(tracer, fn)
    if name == "enumerate_admissible":
        return _generator(tracer, fn, layer)
    after = None
    if layer == "lattice.construct":
        def after(span, args, result):
            if _outermost(span):
                counts["lattice.construct.cells"] += len(args[0] if result is None else result)
    elif name == "admissible_extension_exists":
        def after(span, args, result):
            counts["counting.extension.calls"] += 1
    elif name == "verify_block_gluing":
        def after(span, args, result):
            counts["gluing.pairs_checked"] += result.pairs_checked
    return _plain(tracer, fn, layer, after)


@contextmanager
def instrumented(tracer: Tracer):
    """Install wrappers for every layer function; restore the originals on exit."""
    modules = [m for k, m in list(sys.modules.items()) if k == "sftent" or k.startswith("sftent.")]
    restore = []
    try:
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules[f"sftent.{module}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    restore.append((cls, meth, fn))
                    setattr(cls, meth, _wrapper_for(tracer, layer, meth, fn))
                    continue
                fn = getattr(mod, name)
                wrapper = _wrapper_for(tracer, layer, name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            restore.append((m, key, fn))
                            setattr(m, key, wrapper)
        yield tracer
    finally:
        for owner, key, fn in reversed(restore):
            setattr(owner, key, fn)
