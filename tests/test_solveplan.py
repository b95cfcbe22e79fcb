"""The compiled solve phase (ISSUE 10, made the only path by ISSUE 14).

Contract under test (docs/architecture.md, docs/performance_model.md):

* the solve phase reproduces ``tests/golden/solve_streams.json`` — PerfLog
  record streams, iteration counts and residual histories pinned from the
  legacy per-sweep execution arm before it was deleted — for every
  smoother variant and cycle type, ``solve_many``, refresh -> solve, a
  swept coarsest level, and the distributed Krylov solvers flat and
  node-aware, at ``REPRO_CHECK=full``;
* a smoother compiled lazily (on its first sweep) is indistinguishable
  from one compiled ahead of time;
* ``Hierarchy.refresh`` rebuilds only the numeric parts of the compiled
  sweeps: pattern arrays (wavefront orders, gather maps, record-template
  tables) are shared by identity with the pre-refresh smoother, values are
  regathered — including the coarsest solver's smoother when that level is
  swept rather than solved densely;
* the bulk counter-recording primitives (``count_batch``,
  ``count_record``, ``make_record``) emit record streams indistinguishable
  from per-call ``count``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from solve_stream_cases import (
    CASES,
    GOLDEN,
    VARIANTS,
    record_stream,
    run_case,
    strip_iterates,
)
from solve_stream_cases import config as _config

from repro import amg
from repro.amg import build_hierarchy
from repro.amg.solveplan import (
    SmootherPlan,
    attach_solve_plan,
    compile_smoother_plan,
)
from repro.amg.solver import AMGSolver
from repro.analysis import get_check_level, set_check_level
from repro.perf import collect
from repro.perf.counters import (
    PerfLog,
    count,
    count_batch,
    count_record,
    make_record,
    phase,
)
from repro.problems import laplace_3d_27pt
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix

_GOLDEN = json.loads(GOLDEN.read_text())


def _record_stream(log: PerfLog):
    return record_stream(log.records)


@pytest.fixture(autouse=True)
def _full_checks():
    prev = get_check_level()
    set_check_level("full")
    yield
    set_check_level(prev)


def _assert_matches_golden(name):
    got, _ = strip_iterates(run_case(name))
    got = json.loads(json.dumps(got))
    want = _GOLDEN[name]
    assert got.keys() == want.keys()
    for part, ref in want.items():
        out = dict(got[part])
        ref = dict(ref)
        got_res, ref_res = out.pop("residuals"), ref.pop("residuals")
        # Counts are exact everywhere; residual values see the host's BLAS.
        assert out == ref, (name, part)
        if part == "solve":
            got_res, ref_res = [got_res], [ref_res]
        for g, r in zip(got_res, ref_res, strict=True):
            np.testing.assert_allclose(g, r, rtol=1e-10)


def test_golden_covers_the_case_matrix():
    assert sorted(_GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_bit_identity_variants(variant):
    _assert_matches_golden(f"{variant}-V")


@pytest.mark.parametrize("cycle", ["W", "F"])
def test_plan_bit_identity_cycles(cycle):
    _assert_matches_golden(f"hybrid_gs-{cycle}")


@pytest.mark.parametrize("name", [n for n in CASES if n.startswith("dist-")])
def test_dist_krylov_matches_golden(name):
    _assert_matches_golden(name)


def test_planned_hierarchy_has_plans():
    A = laplace_3d_27pt(6)
    h = build_hierarchy(A, _config())
    # Every non-coarsest level with a schedulable smoother is compiled.
    for lvl in h.levels[:-1]:
        if lvl.smoother is not None and lvl.smoother.variant in (
                "hybrid", "lex"):
            assert isinstance(lvl.smoother._plan, SmootherPlan)


def _assert_plan_shares_indices(old_sm, new_sm, cold_sm) -> int:
    """*new_sm* (refreshed from *old_sm*) shares every pattern array with
    it and carries the numerics of *cold_sm* (a from-scratch build)."""
    po, pn, pc = old_sm._plan, new_sm._plan, cold_sm._plan
    shared = 0
    for key, cs_new in pn.sweeps.items():
        cs_old = po.sweeps[key]
        if cs_new is None:
            assert cs_old is None
            continue
        # Pattern arrays are the same objects; values were regathered.
        assert cs_new.slabs is cs_old.slabs
        assert cs_new.zslabs is cs_old.zslabs
        assert cs_new._rec is cs_old._rec
        assert cs_new.rows is cs_old.rows
        shared += 1
        cs_cold = pc.sweeps[key]
        for name in ("levels", "zlevels"):
            new, old, cold = (getattr(cs, name) for cs in (cs_new, cs_old, cs_cold))
            assert (new is None) == (old is None) == (cold is None), name
            for lv_new, lv_old, lv_cold in zip(new or (), old or (), cold or (),
                                               strict=True):
                assert lv_new.src is lv_old.src
                assert lv_new.vals is not lv_old.vals
                assert (lv_new.r0, lv_new.r1) == (lv_cold.r0, lv_cold.r1)
                assert np.array_equal(lv_new.vals, lv_cold.vals)
                assert np.array_equal(lv_new.diag, lv_cold.diag)
    return shared


def test_refresh_rebuilds_numeric_parts_only():
    config = _config()
    A = PROBLEM_BUILDERS["lap3d27g"](8)
    h = build_hierarchy(A, config, capture_plan=True)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    with collect():
        h2 = h.refresh(A2)
    cold = build_hierarchy(A2, config)
    shared = sum(
        _assert_plan_shares_indices(o.smoother, n.smoother, c.smoother)
        for o, n, c in zip(h.levels[:-1], h2.levels[:-1], cold.levels[:-1]))
    assert shared > 0


def test_refresh_solve_matches_cold_build():
    _assert_matches_golden("refresh-solve")
    config = _config()
    A = PROBLEM_BUILDERS["lap3d27g"](8)
    b = np.random.default_rng(5).standard_normal(A.nrows)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    with collect():
        refreshed = build_hierarchy(A, config, capture_plan=True).refresh(A2)
    results = []
    for h in (refreshed, build_hierarchy(A2, config)):
        s = AMGSolver(config)
        s.hierarchy = h
        with collect() as log:
            res = s.solve(b, tol=1e-8)
        results.append((res.x.tobytes(), res.iterations,
                        tuple(res.residuals), _record_stream(log)))
    assert results[0] == results[1]


class TestSweptCoarsestLevel:
    """A coarsest level above ``dense_coarse_threshold`` is swept by
    ``CoarseSolver.smoother`` — a smoother no level owns."""

    config = _config(dense_coarse_threshold=8)

    def test_matches_golden(self):
        _assert_matches_golden("swept-coarse")

    def test_compiled_at_setup(self):
        h = build_hierarchy(laplace_3d_27pt(10), self.config)
        assert not h.coarse_solver.direct
        assert isinstance(h.coarse_solver.smoother._plan, SmootherPlan)

    def test_refresh_shares_index_arrays(self):
        A = PROBLEM_BUILDERS["lap3d27g"](10)
        A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
        h = build_hierarchy(A, self.config, capture_plan=True)
        with collect():
            h2 = h.refresh(A2)
        cold = build_hierarchy(A2, self.config)
        assert _assert_plan_shares_indices(
            h.coarse_solver.smoother, h2.coarse_solver.smoother,
            cold.coarse_solver.smoother) > 0
        b = np.random.default_rng(5).standard_normal(A.nrows)
        B = np.random.default_rng(6).standard_normal((A.nrows, 3))
        results = []
        for hier in (h2, cold):
            s = AMGSolver(self.config)
            s.hierarchy = hier
            results.append((s.solve(b, tol=1e-8).x.tobytes(),
                            [r.x.tobytes() for r in s.solve_many(B, tol=1e-8)]))
        assert results[0] == results[1]


def test_attach_solve_plan_compiles_hand_assembled_hierarchy():
    # benchmarks/perf/ladder.py replays set-up by hand and times this call.
    built = build_hierarchy(laplace_3d_27pt(10), _config(dense_coarse_threshold=8))
    levels = [amg.Level(A=lv.A, cf_marker=lv.cf_marker) for lv in built.levels]
    for lv in levels[:-1]:
        lv.smoother = amg.HybridGSSmoother(lv.A, nthreads=4, cf_marker=lv.cf_marker)
    coarse = amg.CoarseSolver(levels[-1].A, dense_threshold=8, nthreads=4)
    h = amg.Hierarchy(levels=levels, coarse_solver=coarse, config=built.config)
    smoothers = [lv.smoother for lv in levels[:-1]] + [coarse.smoother]
    assert all(sm._plan is None for sm in smoothers)
    with collect() as log:
        attach_solve_plan(h)
    assert log.records == []  # compilation is silent
    plans = [sm._plan for sm in smoothers]
    assert all(isinstance(p, SmootherPlan) for p in plans)
    attach_solve_plan(h)  # idempotent
    assert [sm._plan for sm in smoothers] == plans


_SMOOTHER_VARIANTS = ["hybrid", "lex", "multicolor", "chebyshev", "jacobi",
                      "l1_jacobi"]


@pytest.mark.parametrize("variant", _SMOOTHER_VARIANTS)
def test_lazy_and_prewarmed_smoothers_are_indistinguishable(variant):
    A = laplace_3d_27pt(6)
    cf = (np.arange(A.nrows) % 3 == 0).astype(np.int64)
    rng = np.random.default_rng(11)
    b, x0 = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
    B, X0 = rng.standard_normal((A.nrows, 3)), rng.standard_normal((A.nrows, 3))

    def sweeps(sm):
        """Every entry point, first call first (the lazy one compiles there)."""
        out = []
        with collect() as log:
            for zero in (True, False):
                x = np.zeros(A.nrows) if zero else x0.copy()
                out.append(sm.presmooth(x, b, zero_guess=zero).tobytes())
                X = np.zeros((A.nrows, 3)) if zero else X0.copy()
                out.append(sm.presmooth(X, B, zero_guess=zero).tobytes())
            out.append(sm.postsmooth(x0.copy(), b).tobytes())
            out.append(sm.postsmooth(X0.copy(), B).tobytes())
        return out, _record_stream(log)

    def make():
        return amg.HybridGSSmoother(A, nthreads=3, cf_marker=cf, variant=variant)

    lazy, warm = make(), make()
    compile_smoother_plan(warm)
    planned = variant not in ("jacobi", "l1_jacobi")
    assert lazy._plan is None
    assert (warm._plan is not None) == planned
    assert sweeps(lazy) == sweeps(warm)
    assert (lazy._plan is not None) == planned


class TestBulkRecording:
    def test_count_batch_equals_repeated_count(self):
        kw = dict(flops=10.0, bytes_read=20.0, bytes_written=5.0,
                  branches=4.0)
        a, b = PerfLog(), PerfLog()
        with collect(a), phase("GS"):
            for _ in range(7):
                count("k", **kw)
        with collect(b), phase("GS"):
            count_batch("k", 7, **kw)
        assert _record_stream(a) == _record_stream(b)
        assert len(b.records) == 7
        # Bulk append aliases one record instance.
        assert all(r is b.records[0] for r in b.records)

    def test_count_batch_zero_is_noop(self):
        log = PerfLog()
        with collect(log):
            count_batch("k", 0, flops=1.0)
        assert log.records == []

    def test_make_record_applies_mispredict_rate(self):
        rec = make_record("k", branches=10.0)
        assert rec.mispredicts == pytest.approx(3.0)

    def test_count_record_retags_phase_and_level(self):
        tmpl = make_record("k", flops=1.0, phase="GS")
        a, b = PerfLog(), PerfLog()
        with collect(a), phase("SpMV"):
            count_record(tmpl)
        with collect(b), phase("SpMV"):
            count("k", flops=1.0)
        assert _record_stream(a) == _record_stream(b)
        # The template itself is untouched.
        assert tmpl.phase == "GS"

    def test_count_record_matching_context_appends_template(self):
        tmpl = make_record("k", flops=1.0, phase="GS")
        log = PerfLog()
        with collect(log), phase("GS"):
            count_record(tmpl)
        assert log.records[0] is tmpl


def test_compiled_sweep_handles_empty_wavefront_levels():
    # An upper-triangular-free row set can produce wavefront levels with
    # zero entries; np.bincount then returns int64 and the compiled sweep
    # must still produce float64 accumulators.
    A = CSRMatrix.identity(4)
    h = build_hierarchy(laplace_3d_27pt(4), _config())
    s = AMGSolver(_config())
    s.hierarchy = h
    b = np.ones(h.levels[0].A.nrows)
    res = s.solve(b, tol=1e-8)
    assert np.isfinite(res.residuals[-1])
    assert A.nnz == 4  # keep the identity from being optimized away
