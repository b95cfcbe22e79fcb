"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one table/figure of the paper: it prints
the rows (run pytest with ``-s`` to see them live) *and* writes them to
``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can quote them.  The
pytest-benchmark fixture wraps one representative kernel per file so
``pytest benchmarks/ --benchmark-only`` also reports wall-clock timings of
the Python vehicle (which are *not* the paper's numbers — modeled times
are; see DESIGN.md §2).
"""

from __future__ import annotations

import os
from pathlib import Path

# One BLAS / OpenMP thread, set before numpy loads (a user's own setting
# wins); see tests/conftest.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, text: str) -> str:
    """Print a result block and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
    return text


def tick(benchmark, fn=None):
    """Register the test with pytest-benchmark (so ``--benchmark-only``
    still runs every figure-regeneration test) by timing *fn* once —
    a representative sub-piece when provided, else a no-op marker."""
    benchmark.pedantic(fn if fn is not None else (lambda: None),
                       rounds=1, iterations=1)
