"""Layer spans around the entry points that ``paulishadow.cli`` calls.

The wrappers are installed from outside the program: each public function
below is replaced, for the duration of a traced job, on the object through
which ``cli`` reaches it (the ``cli`` module itself, the ``exact`` module,
or a class), and restored afterwards. ``paulis`` and ``channels`` are helper
libraries called from inside the layers; they get no span, so their time
counts in the caller's self time.

Spans live in memory as (name, start, end, parent, job, counts) and are
written out with the run's report.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_LAYER = "cli"

# layer -> (owner, attribute) pairs; owner is a dotted path from paulishadow.
ENTRY_POINTS = {
    "shadows.sample": [("cli", "iter_channel_shadow_blocks"), ("cli", "sample_gate_shadows")],
    "shadows.reduce": [("cli.ShadowCounts", "accumulate"), ("cli.ShadowRecords", "concatenate")],
    "shadows.estimate": [("cli", "estimate_eigenvalues"), ("cli", "estimate_transfer_matrix"),
                         ("cli", "estimate_gate_eigenvalues")],
    "recovery.invert": [("cli", "backward_observable"), ("cli", "backward_observable_general")],
    "clifford.mitigate": [("cli", "mitigation_coefficients")],
    "exact.oracle": [("cli.exact", name) for name in (
        "haar_random_state", "apply_channel", "expectation",
        "simulate_noisy_circuit", "simulate_ideal_circuit")],
    "observables.matrix": [("cli.Observable", "matrix")],
}
LAYERS = [*ENTRY_POINTS, ROOT_LAYER]


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    job: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, block_size: int):
        self.block_size = block_size  # records a channel block always draws
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job: int):
        """The root span of one CLI job."""
        self._job = job
        idx = self._open(ROOT_LAYER)
        try:
            yield
        finally:
            self._close(idx)
            self._job = None

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].counts = counts(self, result)
            return result

        return traced

    def wrap_blocks(self, name: str, fn):
        """Time a block generator per ``next()``, so that drawing a block
        nests inside whichever span consumes the stream."""

        def traced(*args, **kwargs):
            return self._timed_blocks(name, fn(*args, **kwargs))

        return traced

    def _timed_blocks(self, name, blocks):
        while True:
            idx = self._open(name)
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.spans[idx].counts = {"records": len(block), "drawn": self.block_size}
            yield block


# -- counts taken from each layer's return value -------------------------------


def _nbytes(obj) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values())


def _sampled(tracer, records):
    drawn = math.ceil(len(records) / tracer.block_size) * tracer.block_size
    return {"records": len(records), "drawn": drawn}


def _reduced(tracer, stat):
    records = stat.n_records if hasattr(stat, "n_records") else len(stat)
    return {"records": records, "bytes": _nbytes(stat)}


def _estimated(tracer, result):
    if hasattr(result, "basis"):
        # A transfer matrix: entries with |P| > |Q| and the identity column
        # are fixed, not estimated.
        weights = [p.weight for p in result.basis]
        entries = sum(sum(1 for wp in weights if wp <= wq) for wq in weights if wq > 0)
    else:
        entries = len(result.values)
    return {"entries": entries}


def _inverted(tracer, back):
    return {"terms": len(back.terms), "clamps": len(back.warnings)}


COUNTS = {
    "shadows.sample": _sampled,
    "shadows.reduce": _reduced,
    "shadows.estimate": _estimated,
    "recovery.invert": _inverted,
    "clifford.mitigate": _inverted,
}


def _resolve(path: str):
    import paulishadow

    obj = paulishadow
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def instrument(tracer: Tracer, missing: set[str]):
    """Install the wrappers; entry points the program no longer has are
    added to ``missing`` and left untraced."""
    saved = []
    try:
        for layer, points in ENTRY_POINTS.items():
            for owner_path, attr in points:
                try:
                    owner = _resolve(owner_path)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError):
                    missing.add(f"{owner_path}.{attr}")
                    continue
                if inspect.isgeneratorfunction(raw):
                    new = tracer.wrap_blocks(layer, raw)
                elif isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(layer, raw.__func__, COUNTS.get(layer)))
                else:
                    new = tracer.wrap(layer, raw, COUNTS.get(layer))
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(
    tracer: Tracer, cpu_s: float, traced_job_s: float, untraced_job_s: float
) -> dict:
    """Per-job means of each layer's self time and counts, over traced jobs.

    ``cpu_s`` is the traced jobs' mean user+sys CPU time per job; the two
    job times are medians of the run's traced and untraced jobs.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    jobs = {s.job for s in spans}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts = {layer: {} for layer in LAYERS}
    resident = {}
    for i, s in enumerate(spans):
        self_s[s.name] += s.end - s.start - child_s[i]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name][key] = counts[s.name].get(key, 0) + value
        if s.name == "shadows.reduce" and "bytes" in s.counts:
            resident[s.job] = max(resident.get(s.job, 0), s.counts["bytes"])
    total_s = sum(self_s.values())
    per_job = 1.0 / len(jobs)

    def count(layer, key):
        return counts[layer].get(key, 0) * per_job

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        prefix = "cli.self_" if layer == ROOT_LAYER else f"{layer}."
        put(prefix + "s", self_s[layer] * per_job, "s")
        put(f"{layer}.share", ratio(self_s[layer], total_s), "fraction")
    put("shadows.sample.records", count("shadows.sample", "records"), "count")
    put("shadows.sample.records_per_s",
        ratio(counts["shadows.sample"].get("records", 0), self_s["shadows.sample"]), "1/s")
    put("shadows.sample.drawn_frac",
        ratio(count("shadows.sample", "records"), count("shadows.sample", "drawn")), "fraction")
    put("shadows.reduce.records", count("shadows.reduce", "records"), "count")
    put("shadows.reduce.resident_mb", sum(resident.values()) * per_job / 2**20, "MB")
    put("shadows.estimate.entries", count("shadows.estimate", "entries"), "count")
    entries = counts["shadows.estimate"].get("entries", 0)
    put("shadows.estimate.us_per_entry", ratio(self_s["shadows.estimate"] * 1e6, entries), "us")
    put("recovery.invert.terms", count("recovery.invert", "terms"), "count")
    put("recovery.invert.clamps", count("recovery.invert", "clamps"), "count")
    put("clifford.mitigate.terms", count("clifford.mitigate", "terms"), "count")
    put("exact.oracle.calls", calls["exact.oracle"] * per_job, "count")
    put("observables.matrix.calls", calls["observables.matrix"] * per_job, "count")
    put("cli.cpu_s", cpu_s, "s")
    put("trace.job_s", traced_job_s, "s")
    put("trace.overhead_frac", ratio(traced_job_s - untraced_job_s, untraced_job_s), "fraction")
    return out
