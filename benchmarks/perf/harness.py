"""Measurement plumbing shared by every workload: the repeatable process
environment, rep loops, sample statistics, resource usage, and the span
tracer of the traced pass.

Nothing here imports ``repro`` — the module needs only numpy and is usable
(and unit-tested) without the library on the path.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: The benchmark's own directory and the repository root it measures.
PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]

#: Process environment every measurement runs under.  The thread pins keep
#: BLAS single-threaded; the three glibc malloc settings stop the allocator
#: from returning freed arenas to the kernel between reps — without them a
#: rep's *system* time swings by 10-40x from page-fault / munmap churn and
#: ``setup_s`` goes bimodal (see README.md, "Repeatable environment").
BENCH_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
}


def bench_env(base=None) -> dict[str, str]:
    """*base* (default ``os.environ``) with :data:`BENCH_ENV` applied and
    every ``REPRO_*`` switch removed, so a caller's debugging environment
    cannot change what is measured."""
    env = {k: v for k, v in (os.environ if base is None else base).items()
           if not k.startswith("REPRO_")}
    env.update(BENCH_ENV)
    return env


def reexec_in_bench_env() -> None:
    """Replace this process by one running under :func:`bench_env`.

    The malloc settings are read by glibc at process start, so they cannot
    be applied in place.  A no-op when the environment already matches.
    """
    want = bench_env()
    if dict(os.environ) != want:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], want)


def prefault_heap(total_mb: int, block_mb: int = 256) -> None:
    """Touch *total_mb* of heap once and give it back to the allocator.

    Under :data:`BENCH_ENV` freed heap is neither trimmed nor unmapped, so
    later allocations land on pages that are already resident.  Without
    this, whichever rep first pushes the heap's touched high-water mark
    pays for the page faults — 0.3-1.2 s of *system* time per hierarchy
    build on this host — and a rung that happens to run at that moment
    reads slow.  Blocks stay below the mmap threshold so they come from
    (and return to) the heap proper.  ``ru_maxrss`` is meaningless
    afterwards: the timed pass reads it first.
    """
    block_mb = min(block_mb, total_mb)
    blocks = [np.ones(block_mb * 2**20, dtype=np.uint8)
              for _ in range(total_mb // block_mb)]
    del blocks


# ---------------------------------------------------------------------------
# Rep loops and sample statistics
# ---------------------------------------------------------------------------

#: A rep at least this long gets a ``gc.collect()`` before the next one.
GC_EVERY_REP_ABOVE_S = 0.02


def repeat(fn, *, budget_s: float, min_reps: int = 3, warmup: int = 1):
    """Time ``fn()`` repeatedly; return ``(samples, last_result)``.

    The first *warmup* calls are discarded (lazy plan caches, page
    first-touch).  Timed calls continue until *budget_s* of wall time —
    garbage collection between reps included — is spent and at least
    *min_reps* samples exist.  ``gc.collect()`` runs before the first call
    and before every call that follows a long one, so a rep never pays for
    its predecessor's garbage; millisecond kernels are not collected
    between (a full collection walks the heap and would evict the caches
    the kernel runs warm in inside a real solve).
    """
    clock = time.perf_counter
    result, last = None, float("inf")

    def call() -> float:
        nonlocal result, last
        if last >= GC_EVERY_REP_ABOVE_S:
            gc.collect()
        t0 = clock()
        result = fn()
        last = clock() - t0
        return last

    for _ in range(warmup):
        call()
    samples: list[float] = []
    begin = clock()
    while len(samples) < min_reps or clock() - begin < budget_s:
        samples.append(call())
    return samples, result


def interleave(ops: dict, *, budget_s: float, min_rounds: int = 3,
               after_warmup=None):
    """Time several operations round-robin; return ``(samples, last)``.

    ``ops`` maps a name to ``(fn, calls_per_round)``.  One discarded
    warm-up round (``after_warmup()`` is called when it ends), then rounds
    until *budget_s* is spent and *min_rounds* are complete.  Every
    operation therefore samples the whole measuring window: host
    interference that lasts a few seconds lands on a few samples of *every*
    operation instead of on all samples of one.  Garbage is collected as in
    :func:`repeat`.  ``samples[name]`` are plain wall seconds per call.
    """
    clock = time.perf_counter
    samples = {name: [] for name in ops}
    last = {}
    begin = None
    rounds = -1                                  # round -1 is the warm-up
    while rounds < min_rounds or clock() - begin < budget_s:
        for name, (fn, calls) in ops.items():
            dt = float("inf")
            for _ in range(calls):
                if dt >= GC_EVERY_REP_ABOVE_S:
                    gc.collect()
                t0 = clock()
                last[name] = fn()
                dt = clock() - t0
                if rounds >= 0:
                    samples[name].append(dt)
        rounds += 1
        if begin is None:
            if after_warmup is not None:
                after_warmup()
            begin = clock()
    return samples, last


#: Percentiles a wall metric may additionally report, lowest first.
_TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(p, value)`` or ``None`` when even the lowest rung has fewer
    than ten samples above it (fewer than 40 samples).  ``value`` is the
    order statistic with exactly ``floor(n * (1 - p/100))`` samples above.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in _TAIL_LADDER:
        beyond = int(n * (1.0 - p / 100.0) + 1e-9)
        if beyond >= 10:
            best = (p, xs[n - 1 - beyond])
    return best


def summarize(samples, unit: str, *, transform=None) -> dict:
    """Median / min / max / count (+ tail percentile) of wall *samples*.

    ``transform`` maps each sample to the reported quantity (e.g. a rate);
    the summary is taken over the transformed values.
    """
    vals = [transform(s) for s in samples] if transform else list(samples)
    out = {"value": statistics.median(vals), "unit": unit, "n": len(vals),
           "min": min(vals), "max": max(vals)}
    tail = tail_percentile(vals)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def exact(value, unit: str) -> dict:
    """A single-reading metric entry (a count, or a value derived from
    other entries)."""
    return {"value": value, "unit": unit, "n": 1}


def percentile_beyond(values, beyond: int) -> float:
    """The order statistic of *values* with exactly *beyond* values above."""
    xs = sorted(values)
    return xs[len(xs) - 1 - beyond]


# ---------------------------------------------------------------------------
# Resource usage
# ---------------------------------------------------------------------------

class Usage:
    """Wall / user / system time and minor faults since construction."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._r0 = resource.getrusage(resource.RUSAGE_SELF)

    def snapshot(self) -> dict:
        r = resource.getrusage(resource.RUSAGE_SELF)
        wall = time.perf_counter() - self._t0
        sys_s = r.ru_stime - self._r0.ru_stime
        return {
            "wall_s": wall,
            "user_s": r.ru_utime - self._r0.ru_utime,
            "sys_s": sys_s,
            "sys_share": sys_s / wall if wall > 0 else 0.0,
            "minor_faults": r.ru_minflt - self._r0.ru_minflt,
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    """High-water resident set of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Spans (traced pass only)
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder: ``{id, name, workload, start, end, parent}``.

    Spans nest by the ``with`` structure of the benchmark's own code — they
    wrap calls *into* the library's public functions, never code inside it.
    A ladder group span additionally carries ``decomposes``: the name of
    the end-to-end span whose time its children account for.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self._origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def timed(self, name: str, fn, **attrs):
        """Run ``fn()`` under a span; return ``(seconds, result)``."""
        with self.span(name, **attrs) as rec:
            result = fn()
        return rec["end"] - rec["start"], result

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - child[s["id"]])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"workload": self.workload, "spans": self.spans}) + "\n")
