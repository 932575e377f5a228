"""Layer tracing installed from outside wickworks.

`install` replaces the public functions of each layer with wrappers that
record spans (name, start, end, parent span, run id) or count calls. The
program itself is not edited: a wrapper is put wherever the program looks the
name up, which for names imported with `from ... import` is the importing
module (feynman imports `convolve_cubes`, phi4 imports `synthesis_matrix`).
Spans stay in memory; `write` dumps them as JSON lines when the job ends and
`layer_metrics` reduces them to the per-layer metrics of the benchmark.

A layer's self time is its span's duration minus the durations of its direct
child spans; spans never overlap because every job is single-threaded Python.
A span's duration leaves out the speed-sampling ticks (speed.py) that ran
inside it, so the ticks are counted in no layer.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

CONVOLVE = "torusfield.convolve_cubes"
MC = "phi4.mc_partition_ratio"


class Recorder:
    """Spans and counters of one job; `stack` holds the spans still open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counters: Counter = Counter()

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span; on_result(span, args, result)
        may add attributes computed from the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]["id"] if self.stack else None
            record = {"run": self.run_id, "id": len(self.spans), "parent": parent,
                      "name": name, "attrs": {}}
            self.spans.append(record)
            self.stack.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(record, args, result)
            return result

        return wrapper

    def count(self, name: str, fn, amount=None):
        """Wrap fn so that each call adds 1, or amount(result), to a counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def inside(self, name: str, fn, note):
        """Wrap fn so that, when the innermost open span is `name`, note(span,
        args, kwargs) records something about the call on that span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1]["name"] == name:
                note(self.stack[-1], args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counters": dict(self.counters)},
                                sort_keys=True) + "\n")


def _fft_shape(args, kwargs, real_inverse: bool) -> list[int]:
    """Real-space transform lengths of a numpy.fft n-dimensional call."""
    a = args[0]
    s = args[1] if len(args) > 1 else kwargs.get("s")
    if s is not None:
        return [int(n) for n in s]
    axes = args[2] if len(args) > 2 else kwargs.get("axes")
    shape = np.shape(a)
    out = [shape[ax] for ax in (range(len(shape)) if axes is None else axes)]
    if real_inverse:
        out[-1] = 2 * (out[-1] - 1)
    return out


def _note_fft(inverse: bool, real: bool):
    def note(span, args, kwargs):
        shape = _fft_shape(args, kwargs, real and inverse)
        span["attrs"].setdefault("fft", []).append({"shape": shape, "inverse": inverse})

    return note


def _note_rng(span, args, kwargs):
    span["attrs"]["blocks"] = span["attrs"].get("blocks", 0) + 1


def install(rec: Recorder) -> None:
    """Put the wrappers in place; the job runs in its own process, so nothing
    is restored afterwards."""
    from wickworks import cli, feynman, phi4, torusfield

    def classes(span, args, result):
        span["attrs"]["classes"] = len(result.terms)

    def matrix_bytes(span, args, result):
        span["attrs"]["bytes"] = int(result.nbytes)

    def samples(span, args, result):
        span["attrs"]["samples"] = int(args[3])

    feynman.generate_diagrams = rec.span("feynman.generate_diagrams",
                                         feynman.generate_diagrams, classes)
    feynman.Diagram.canonical_key = rec.count("feynman.canonical_key",
                                              feynman.Diagram.canonical_key)
    feynman.Diagram.canonical = rec.count("feynman.canonical", feynman.Diagram.canonical)
    feynman.valuate = rec.span("feynman.valuate", feynman.valuate)
    feynman.valuate_cached = rec.span("feynman.valuate_cached", feynman.valuate_cached)
    feynman.valuate_sum = rec.span("feynman.valuate_sum", feynman.valuate_sum)
    feynman.bphz_valuate = rec.span("feynman.bphz_valuate", feynman.bphz_valuate)
    feynman.ck_coproduct = rec.count("feynman.ck_coproduct.terms", feynman.ck_coproduct,
                                     amount=len)
    convolve = rec.span(CONVOLVE, torusfield.convolve_cubes)
    feynman.convolve_cubes = torusfield.convolve_cubes = convolve
    synth = rec.span("torusfield.synthesis_matrix", torusfield.synthesis_matrix,
                     matrix_bytes)
    phi4.synthesis_matrix = torusfield.synthesis_matrix = synth
    phi4.mc_partition_ratio = rec.span(MC, phi4.mc_partition_ratio, samples)
    phi4.partition_ratio_series = rec.span("phi4.partition_ratio_series",
                                           phi4.partition_ratio_series)
    cli.main = rec.span("cli.main", cli.main)
    for fname, inverse, real in (("rfftn", False, True), ("fftn", False, False),
                                 ("irfftn", True, True), ("ifftn", True, False)):
        setattr(np.fft, fname,
                rec.inside(CONVOLVE, getattr(np.fft, fname), _note_fft(inverse, real)))
    np.random.default_rng = rec.inside(MC, np.random.default_rng, _note_rng)


def _max_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n)


UNITS = {
    "feynman.generate_diagrams.self_s": "s",
    "feynman.canonical_key.calls": "count",
    "feynman.canonical.calls": "count",
    "feynman.classes": "count",
    "feynman.valuate.calls": "count",
    "feynman.valuate.self_s": "s",
    "feynman.valuate_cached.hit_ratio": "ratio",
    "torusfield.convolve_cubes.calls": "count",
    "torusfield.convolve_cubes.self_s": "s",
    "torusfield.convolve_cubes.fft_points": "count",
    "torusfield.convolve_cubes.nonsmooth_calls": "count",
    "torusfield.convolve_cubes.max_side": "count",
    "feynman.bphz.assembly_s": "s",
    "feynman.ck_coproduct.terms": "count",
    "torusfield.synthesis_matrix.s": "s",
    "torusfield.synthesis_matrix.bytes": "B",
    "phi4.mc_partition_ratio.self_s": "s",
    "phi4.mc.blocks": "count",
    "phi4.mc.samples_per_s": "1/s",
    "phi4.series.self_s": "s",
    "cli.self_s": "s",
}

# Metrics fixed by the work done, not by timing: every traced job of one
# workload must agree on them exactly, or a cache outlived its process.
COUNTS = tuple(k for k, unit in UNITS.items() if unit in ("count", "ratio", "B"))


def layer_metrics(rec: Recorder, ticks=()) -> dict[str, float]:
    """Per-layer metrics of one traced job; 0 where a layer was not called.
    `ticks` are the (start, end) times of the speed-sampling ticks, in order."""
    tick_starts = [t0 for t0, _ in ticks]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for record in rec.spans:
        by_name[record["name"]].append(record)
        if record["parent"] is not None:
            children[record["parent"]].append(record)

    def dur(record):
        start, end = record["start"], record["end"]
        inside = 0.0
        for t0, t1 in ticks[bisect.bisect_left(tick_starts, start):]:
            if t0 >= end:
                break
            inside += min(t1, end) - t0
        return end - start - inside

    def self_s(name):
        return math.fsum(dur(r) - math.fsum(dur(c) for c in children[r["id"]])
                         for r in by_name[name])

    def total_s(name):
        return math.fsum(dur(r) for r in by_name[name])

    cached = by_name["feynman.valuate_cached"]
    hits = sum(1 for r in cached
               if not any(c["name"] == "feynman.valuate" for c in children[r["id"]]))
    ffts = [(r, f) for r in by_name[CONVOLVE] for f in r["attrs"].get("fft", ())]
    mc_time = total_s(MC)
    mc_samples = sum(r["attrs"].get("samples", 0) for r in by_name[MC])
    return {
        "feynman.generate_diagrams.self_s": self_s("feynman.generate_diagrams"),
        "feynman.canonical_key.calls": rec.counters["feynman.canonical_key"],
        "feynman.canonical.calls": rec.counters["feynman.canonical"],
        "feynman.classes": sum(r["attrs"].get("classes", 0)
                               for r in by_name["feynman.generate_diagrams"]),
        "feynman.valuate.calls": len(by_name["feynman.valuate"]),
        "feynman.valuate.self_s": self_s("feynman.valuate"),
        "feynman.valuate_cached.hit_ratio": hits / len(cached) if cached else 0.0,
        "torusfield.convolve_cubes.calls": len(by_name[CONVOLVE]),
        "torusfield.convolve_cubes.self_s": self_s(CONVOLVE),
        "torusfield.convolve_cubes.fft_points": sum(
            math.prod(f["shape"]) for _, f in ffts if f["inverse"]),
        "torusfield.convolve_cubes.nonsmooth_calls": len(
            {r["id"] for r, f in ffts if any(_max_prime_factor(n) > 5 for n in f["shape"])}),
        "torusfield.convolve_cubes.max_side": max(
            (n for _, f in ffts for n in f["shape"]), default=0),
        "feynman.bphz.assembly_s": math.fsum(
            dur(r) - math.fsum(dur(c) for c in children[r["id"]]
                               if c["name"] == "feynman.valuate_sum")
            for r in by_name["feynman.bphz_valuate"]),
        "feynman.ck_coproduct.terms": rec.counters["feynman.ck_coproduct.terms"],
        "torusfield.synthesis_matrix.s": total_s("torusfield.synthesis_matrix"),
        "torusfield.synthesis_matrix.bytes": sum(
            r["attrs"].get("bytes", 0) for r in by_name["torusfield.synthesis_matrix"]),
        "phi4.mc_partition_ratio.self_s": self_s(MC),
        "phi4.mc.blocks": sum(r["attrs"].get("blocks", 0) for r in by_name[MC]),
        "phi4.mc.samples_per_s": mc_samples / mc_time if mc_time else 0.0,
        "phi4.series.self_s": self_s("phi4.partition_ratio_series"),
        "cli.self_s": self_s("cli.main"),
    }
