"""Pattern-reuse numeric resetup — cold build vs. ``Hierarchy.refresh``.

The §3.1.1 claim applied to the whole setup phase: on a time-step /
Newton sequence whose operators share one sparsity pattern, every
symbolic decision of setup (strength pattern, PMIS split, interpolation
pattern, RAP patterns) can be frozen once and only the numerics redone.
Measured here on the Fig. 5 Laplacian (27-point stencil, seeded symmetric
coefficient jitter so weight-ratio ties with the truncation threshold
are generic) walked through a sequence of same-pattern value updates:

* per-step modeled setup time, flops, and data-dependent branches for a
  from-scratch ``build_hierarchy`` vs. a plan-driven ``refresh``;
* bit-identity of every refreshed level against the cold build;
* the Fig. 5-style phase breakdown, where the entire refresh lands in
  the ``Resetup`` bucket.

Acceptance (ISSUE 5): refresh cuts modeled setup flops and branches by
>= 2x (branches drop to exactly zero — the numeric path is branch-free).

Run as a script for the CI determinism smoke: ``python
benchmarks/bench_resetup.py --json OUT.json`` writes the measured
numbers as sorted JSON; two runs must produce identical bytes, and both
must equal the committed ``benchmarks/out/resetup.json`` (regenerate it
with the same command when a PR changes the modeled resetup on purpose).
"""

import json

import numpy as np

from repro.amg import build_hierarchy
from repro.bench import SETUP_PHASES, machine_for
from repro.config import single_node_config
from repro.perf import collect, format_breakdown, format_table
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix

SIZE = 12        # 12^3 = 1728 rows, 27-point stencil
STEPS = 8        # operators in the same-pattern sequence
STEP_SHIFT = 0.02


def _sequence():
    """The timestep-workload operator sequence: one pattern, STEPS values."""
    A0 = PROBLEM_BUILDERS["lap3d27g"](SIZE)
    return [
        CSRMatrix(A0.shape, A0.indptr.copy(), A0.indices.copy(),
                  A0.data * (1.0 + STEP_SHIFT * t))
        for t in range(STEPS)
    ]


def _totals(log, machine):
    return {
        "seconds": machine.log_time(log),
        "flops": sum(r.flops for r in log.records),
        "branches": sum(r.branches for r in log.records),
    }


def run_sequence() -> dict:
    """Measure the sequence both ways; returns a JSON-able result dict."""
    config = single_node_config(True)
    machine = machine_for(config)
    seq = _sequence()

    cold_steps, cold_phases = [], {}
    cold_hierarchies = []
    for A in seq:
        with collect() as log:
            cold_hierarchies.append(build_hierarchy(A, config))
        cold_steps.append(_totals(log, machine))
        for ph, t in machine.phase_times(log).items():
            cold_phases[ph] = cold_phases.get(ph, 0.0) + t

    refresh_steps, refresh_phases = [], {}
    with collect() as log:
        h = build_hierarchy(seq[0], config, capture_plan=True)
    first = _totals(log, machine)
    assert h.plan is not None
    identical = True
    for t, A in enumerate(seq[1:], start=1):
        with collect() as log:
            h = h.refresh(A)
        refresh_steps.append(_totals(log, machine))
        for ph, tt in machine.phase_times(log).items():
            refresh_phases[ph] = refresh_phases.get(ph, 0.0) + tt
        ref = cold_hierarchies[t]
        for la, lb in zip(h.levels, ref.levels):
            identical &= bool(
                np.array_equal(la.A.indptr, lb.A.indptr)
                and np.array_equal(la.A.indices, lb.A.indices)
                and np.array_equal(la.A.data, lb.A.data)
            )

    def avg(steps, key):
        return sum(s[key] for s in steps) / len(steps)

    # Steady-state comparison: per-step cost once the sequence is rolling
    # (the capture step itself costs exactly a cold build — capture is
    # silent in the performance model).
    cold_avg = {k: avg(cold_steps[1:], k) for k in ("seconds", "flops", "branches")}
    refresh_avg = {k: avg(refresh_steps, k) for k in ("seconds", "flops", "branches")}
    return {
        "problem": f"lap3d27g n={seq[0].nrows} (27-pt Laplacian, jittered)",
        "steps": STEPS,
        "bit_identical": identical,
        "capture_build": first,
        "cold_per_step": cold_avg,
        "refresh_per_step": refresh_avg,
        "speedup": {
            "seconds": cold_avg["seconds"] / refresh_avg["seconds"],
            "flops": cold_avg["flops"] / refresh_avg["flops"],
            "branches": (cold_avg["branches"] / refresh_avg["branches"]
                         if refresh_avg["branches"] else float("inf")),
        },
        "cold_phase_seconds": {k: cold_phases[k] for k in sorted(cold_phases)},
        "refresh_phase_seconds": {k: refresh_phases[k]
                                  for k in sorted(refresh_phases)},
    }


def _report(res: dict) -> str:
    rows = []
    for key in ("seconds", "flops", "branches"):
        cold = res["cold_per_step"][key]
        warm = res["refresh_per_step"][key]
        ratio = res["speedup"][key]
        fmt = (lambda v: f"{v * 1e3:.3f} ms") if key == "seconds" else \
              (lambda v: f"{v:.3e}")
        rows.append([f"setup {key}/step", fmt(cold), fmt(warm),
                     "inf" if ratio == float("inf") else f"{ratio:.2f}x"])
    table = format_table(
        ["quantity", "cold build", "refresh", "cold/refresh"],
        rows,
        title=(f"Numeric resetup vs cold setup, {res['problem']}, "
               f"{res['steps']}-step same-pattern sequence"),
    )
    order = list(SETUP_PHASES)
    breakdown = "\n".join([
        "Fig. 5-style setup breakdown (modeled s over the sequence):",
        format_breakdown("  cold x7", res["cold_phase_seconds"], order=order),
        format_breakdown("  refresh x7", res["refresh_phase_seconds"],
                         order=order),
    ])
    tail = (f"refresh bit-identical to cold per level: "
            f"{res['bit_identical']}")
    return "\n".join([table, "", breakdown, tail])


def test_resetup_speedup(benchmark):
    from conftest import emit, tick

    res = run_sequence()
    emit("resetup", _report(res))
    assert res["bit_identical"]
    # ISSUE 5 acceptance: >= 2x modeled setup flops and branches.
    assert res["speedup"]["flops"] >= 2.0
    assert res["refresh_per_step"]["branches"] == 0.0
    assert res["speedup"]["seconds"] > 1.0
    # Cold builds spread over the real setup phases; refresh is Resetup-only.
    assert set(res["refresh_phase_seconds"]) == {"Resetup"}
    assert "RAP" in res["cold_phase_seconds"]
    tick(benchmark, lambda: _sequence())


def test_resetup_run_is_deterministic():
    a, b = run_sequence(), run_sequence()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="cold-vs-refresh resetup benchmark (JSON output)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as sorted JSON to PATH")
    args = parser.parse_args()
    result = run_sequence()
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    print(_report(result))
