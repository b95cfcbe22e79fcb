"""Tests of the benchmark harness itself.

Run with ``pytest benchmarks/perf`` — not part of the tier-1 suite (the
repository's ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    return metrics.Declared()


# -- the manifest -------------------------------------------------------------

def test_manifest_shape(declared):
    m = declared.manifest
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/perf"]
    assert m["command"][-1] == "benchmarks/perf/run.py"
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 <= e["bound"] <= 0.25
    for e in m["per_layer"]:
        assert set(e) == {"name", "unit", "better"}
    setup = declared.end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])


def test_metric_names(declared):
    names = ([w for w in declared.workloads] + list(declared.end_to_end)
             + list(declared.per_layer))
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for e in declared.manifest["end_to_end"] + declared.manifest["per_layer"]:
        assert e["better"] in ("lower", "higher")
        assert len(e["unit"]) <= 16 and all(
            c.isalnum() or c in "_/%.-" for c in e["unit"]), e


def test_exactness_is_read_from_the_manifest(declared):
    """Bound 0 or a non-clock unit means exact; nothing is listed twice."""
    for name in ("iterations", "failure_rate", "modeled_setup_s",
                 "serve.max_rate_under_limit", "amg.operator_complexity"):
        assert declared.is_exact(name), name
    for name in ("setup_s", "rhs_per_s", "peak_rss_mb", "amg.vcycle_s",
                 "amg.setup_unattributed_share", "vehicle.minor_faults",
                 "serve.speedup_over_direct", "amg.setup_peak_mb"):
        assert not declared.is_exact(name), name
    # A counter added to the manifest alone is equality-checked at once,
    # and so is an end-to-end metric declared with bound 0.
    grown = json.loads(json.dumps(declared.manifest))
    grown["per_layer"].append(
        {"name": "dist.new_counter", "unit": "count", "better": "lower"})
    grown["end_to_end"].append(
        {"name": "exact_e2e", "unit": "count", "better": "lower", "bound": 0})
    d = metrics.Declared(grown)
    assert d.is_exact("dist.new_counter") and d.is_exact("exact_e2e")


def test_workloads_match_manifest(declared):
    from workloads import WORKLOADS

    assert list(WORKLOADS) == declared.workloads


@pytest.mark.parametrize("trace", [0, 1])
def test_protocol_line_matches_manifest(declared, tmp_path, trace):
    """One smoke pass prints exactly the declared metrics of its kind."""
    proc = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", "serve-mixed",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    want = declared.per_layer if trace else declared.end_to_end
    assert set(line["metrics"]) == set(want)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == want[name]["unit"]
        assert math.isfinite(entry["value"])
    if trace:
        assert (tmp_path / "spans-serve-mixed.json").exists()
        # a layer this workload does not touch reads 0
        assert line["metrics"]["dist.halo_messages"]["value"] == 0
    else:
        assert all(e["value"] > 0 for e in line["metrics"].values())


# -- statistics ---------------------------------------------------------------

@pytest.mark.parametrize("n, want_p, beyond", [
    (39, None, None), (40, 75.0, 10), (100, 90.0, 10), (199, 90.0, 19),
    (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_percentile_needs_ten_beyond(n, want_p, beyond):
    got = harness.tail_percentile(range(n))
    if want_p is None:
        assert got is None
        return
    p, value = got
    assert p == want_p
    assert sum(1 for x in range(n) if x > value) == beyond >= 10


def test_repeat_discards_warmup_and_honours_min_reps():
    calls = []
    samples, last = harness.repeat(lambda: calls.append(1) or len(calls),
                                   budget_s=0.0, min_reps=4, warmup=2)
    assert len(samples) == 4 and len(calls) == 6 and last == 6


def test_tracer_self_time():
    t = harness.Tracer("w")
    with t.span("outer"):
        with t.span("inner"):
            pass
    outer, inner = t.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    own = t.self_times()
    assert own["outer"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))


# -- --compare ----------------------------------------------------------------

def _run(wall: float, exact: float = 14.0, workload="node-lap27") -> dict:
    def entry(v, unit):
        return {"value": v, "unit": unit, "n": 5}
    return {"schema": 1, "seed": 0, "workloads": {workload: {
        "timed": {"metrics": {"solve_s": entry(wall, "s"),
                              "rhs_per_s": entry(1.0 / wall, "1/s")}},
        "traced": {"metrics": {"iterations": entry(exact, "count"),
                               "amg.vcycle_s": entry(wall / 10, "s")}},
    }}}


def _verdicts(base, cand, declared):
    rows = compare.compare(base, cand, declared)
    return {r["metric"]: r["verdict"] for r in rows}, compare.exit_code(rows)


def test_compare_passes_identical_sets(declared):
    runs = [_run(1.00), _run(1.01), _run(0.99)]
    verdicts, code = _verdicts(runs, runs, declared)
    assert code == 0
    assert verdicts["solve_s"] == verdicts["iterations"] == "ok"
    assert verdicts["amg.vcycle_s"] == "info"


def test_compare_flags_wall_regression(declared):
    """Five points past the metric's own bound regresses (a 15 % slowdown
    under the 10 % bound); half the bound does not."""
    bound = declared.end_to_end["solve_s"]["bound"]
    base = [_run(1.00), _run(1.01), _run(0.99)]
    # rhs_per_s = 1 / wall: the slowdown that costs it bound + 5 points.
    slow = 1.0 / (1.0 - bound - 0.05)
    cand = [_run(slow * w) for w in (1.00, 1.01, 0.99)]
    verdicts, code = _verdicts(base, cand, declared)
    assert verdicts["solve_s"] == "REGRESSED"
    assert verdicts["rhs_per_s"] == "REGRESSED"      # higher-is-better side
    assert code == 1
    # ... the same change the other way round is an improvement ...
    assert _verdicts(cand, base, declared)[1] == 0
    # ... and a change inside the bound passes.
    mild = [_run((1.0 + bound / 2) * w) for w in (1.00, 1.01, 0.99)]
    assert _verdicts(base, mild, declared)[1] == 0


def test_compare_flags_one_ulp_exact_change(declared):
    base = [_run(1.0, exact=0.1), _run(1.0, exact=0.1)]
    cand = [_run(1.0, exact=0.1), _run(1.0, exact=math.nextafter(0.1, 1.0))]
    verdicts, code = _verdicts(base, cand, declared)
    assert verdicts["iterations"] == "CHANGED" and code == 1


def test_compare_reports_unresolved_when_spread_exceeds_bound(declared):
    base = [_run(0.8), _run(1.0), _run(1.2)]
    cand = [_run(0.9), _run(1.12), _run(1.3)]
    verdicts, code = _verdicts(base, cand, declared)
    assert verdicts["solve_s"] == "unresolved" and code == 3


# -- the ladder survives a deleted public function ------------------------------

def test_missing_public_function_is_absent_not_fatal():
    import ladder

    L = ladder.Ladder(harness.Tracer("w"), seconds=0.01, smoke=True)
    gone = types.ModuleType("repro_layer_stub")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert L.time("stub.gone_s", lambda: gone.removed_function()) is None
        L.section(lambda L_: gone.another_one())
    assert "stub.gone_s" not in L.out
    assert len(caught) == 2 and "absent" in str(caught[0].message)
    # a rung that works is still recorded ...
    assert L.time("stub.ok_s", lambda: 7) == 7 and "stub.ok_s" in L.out
    # ... and a bug *inside* a layer is not mistaken for a missing function.
    with pytest.raises(AttributeError):
        L.time("stub.bug_s", lambda: object().no_such_attribute)


def test_ladder_drops_rung_when_library_function_is_removed(monkeypatch):
    import numpy as np
    import repro
    import repro.sparse as sparse
    import ladder
    from repro.problems import laplace_2d_5pt

    A = laplace_2d_5pt(12)
    h = repro.build_hierarchy(A, repro.single_node_config())
    monkeypatch.delattr(sparse, "spmv_multi")
    L = ladder.Ladder(harness.Tracer("w"), seconds=0.01, smoke=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L.section(ladder.sparse_section, A, h, np.random.default_rng(0))
    assert "sparse.spmv_multi8_s" not in L.out
    assert {"sparse.spmv_s", "sparse.transpose_s"} <= set(L.out)
    assert any("sparse.spmv_multi8_s" in str(w.message) for w in caught)
