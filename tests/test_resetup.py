"""Tests for the pattern-reuse numeric resetup path (§3.1.1 applied to
the whole setup phase): plan capture, ``Hierarchy.refresh``, the
plan-based RAP/``sp_add`` kernels, the hierarchy cache's pattern tier,
the ``repro.api`` reuse policy, and the serving integration."""

import logging

import numpy as np
import pytest

import repro
from repro.amg import AMGSolver, build_hierarchy
from repro.amg.cache import (
    HierarchyCache,
    matrix_fingerprint,
    pattern_fingerprint,
)
from repro.analysis import check_hierarchy, check_scope
from repro.config import single_node_config
from repro.perf import collect
from repro.problems import anisotropic_2d, laplace_2d_5pt, laplace_3d_27pt
from repro.sparse import (
    CSRMatrix,
    SpAddPlan,
    rap_cf_block,
    rap_cf_block_numeric,
    rap_cf_block_plan,
    rap_fused,
    rap_fused_numeric,
    rap_fused_plan,
    sp_add,
    sp_add_numeric,
    transpose,
)

from conftest import random_csr


def _jitter(A: CSRMatrix, seed: int = 1234, amp: float = 0.02) -> CSRMatrix:
    """Seeded symmetric off-diagonal jitter (keeps SPD-ness, breaks the
    uniform stencil's exact weight-ratio ties with the truncation
    threshold, so value updates stay on the refresh fast path)."""
    rng = np.random.default_rng(seed)
    g = rng.random(A.nrows)
    rid = A.row_ids()
    offdiag = A.indices != rid
    fac = np.where(offdiag, 1.0 + amp * (g[rid] + g[A.indices]), 1.0)
    return CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(), A.data * fac)


def _scale(A: CSRMatrix, factor: float) -> CSRMatrix:
    """Same pattern, values scaled — the canonical time-step update."""
    return CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(),
                     A.data * factor)


def assert_same_matrix(X: CSRMatrix, Y: CSRMatrix, what: str = "") -> None:
    assert X.shape == Y.shape, what
    np.testing.assert_array_equal(X.indptr, Y.indptr, err_msg=what)
    np.testing.assert_array_equal(X.indices, Y.indices, err_msg=what)
    np.testing.assert_array_equal(X.data, Y.data, err_msg=what)


def assert_same_hierarchy(h1, h2) -> None:
    """Per-level rowptr/colidx/data equality of every stored matrix."""
    assert h1.num_levels == h2.num_levels
    for l, (a, b) in enumerate(zip(h1.levels, h2.levels)):
        assert_same_matrix(a.A, b.A, f"A[{l}]")
        for attr in ("P", "P_F", "R"):
            ma, mb = getattr(a, attr), getattr(b, attr)
            assert (ma is None) == (mb is None), f"{attr}[{l}]"
            if ma is not None:
                assert_same_matrix(ma, mb, f"{attr}[{l}]")


# ---------------------------------------------------------------------------
# Plan-based RAP kernels (satellite: rap_fused / rap_cf_block pattern reuse)
# ---------------------------------------------------------------------------

class TestRAPPlans:
    def _rap_inputs(self, seed=3):
        A = laplace_2d_5pt(10)
        n = A.nrows
        rng = np.random.default_rng(seed)
        nc = n // 3
        cols = rng.integers(0, nc, size=n)
        P = CSRMatrix.from_dense(np.eye(n, nc)[cols] * rng.random(n)[:, None])
        return A, P

    def test_rap_fused_plan_matches_fresh_kernel(self):
        A, P = self._rap_inputs()
        R = transpose(P)
        C_fresh = rap_fused(R, A, P)
        C_plan, plan = rap_fused_plan(R, A, P)
        assert_same_matrix(C_fresh, C_plan)
        C_num = rap_fused_numeric(plan, A, P)
        assert_same_matrix(C_fresh, C_num)

    def test_rap_fused_numeric_on_new_values(self):
        A, P = self._rap_inputs()
        R = transpose(P)
        _, plan = rap_fused_plan(R, A, P)
        A2 = _scale(A, 1.7)
        P2 = _scale(P, 0.9)
        ref = rap_fused(transpose(P2), A2, P2)
        assert_same_matrix(ref, rap_fused_numeric(plan, A2, P2))

    def test_rap_fused_plan_capture_is_silent(self):
        A, P = self._rap_inputs()
        R = transpose(P)
        with collect() as fresh:
            rap_fused(R, A, P)
        with collect() as captured:
            rap_fused_plan(R, A, P)
        assert fresh.records == captured.records

    def test_rap_fused_numeric_is_branch_free(self):
        A, P = self._rap_inputs()
        R = transpose(P)
        _, plan = rap_fused_plan(R, A, P)
        with collect() as log:
            rap_fused_numeric(plan, A, P)
        assert log.records
        assert all(r.branches == 0 for r in log.records)

    def _cf_inputs(self, seed=4):
        # CF-permuted operator: C points first, then F points.
        A = _jitter(laplace_2d_5pt(9), seed=seed)
        n = A.nrows
        nc = n // 2
        cf = np.full(n, -1, dtype=np.int64)
        cf[:nc] = 1
        rng = np.random.default_rng(seed)
        P_F = CSRMatrix.from_dense(
            np.eye(n - nc, nc)[rng.integers(0, nc, size=n - nc)]
            * rng.random(n - nc)[:, None]
        )
        return A, P_F, cf

    def test_rap_cf_block_plan_matches_fresh_kernel(self):
        A, P_F, cf = self._cf_inputs()
        C_fresh = rap_cf_block(A, P_F, cf, already_partitioned=True)
        C_plan, plan = rap_cf_block_plan(A, P_F, cf, already_partitioned=True)
        assert_same_matrix(C_fresh, C_plan)
        C_num = rap_cf_block_numeric(plan, A, P_F)
        assert_same_matrix(C_fresh, C_num)

    def test_rap_cf_block_numeric_on_new_values(self):
        A, P_F, cf = self._cf_inputs()
        _, plan = rap_cf_block_plan(A, P_F, cf, already_partitioned=True)
        A2 = _scale(A, 0.6)
        P2 = _scale(P_F, 1.4)
        ref = rap_cf_block(A2, P2, cf, already_partitioned=True)
        assert_same_matrix(ref, rap_cf_block_numeric(plan, A2, P2))

    def test_rap_cf_block_plan_capture_is_silent(self):
        A, P_F, cf = self._cf_inputs()
        with collect() as fresh:
            rap_cf_block(A, P_F, cf, already_partitioned=True)
        with collect() as captured:
            rap_cf_block_plan(A, P_F, cf, already_partitioned=True)
        assert fresh.records == captured.records

    def test_rap_cf_block_numeric_is_branch_free(self):
        A, P_F, cf = self._cf_inputs()
        _, plan = rap_cf_block_plan(A, P_F, cf, already_partitioned=True)
        with collect() as log:
            rap_cf_block_numeric(plan, A, P_F)
        assert log.records
        assert all(r.branches == 0 for r in log.records)

    def test_rap_cf_block_numeric_rejects_wrong_layout(self):
        A, P_F, cf = self._cf_inputs()
        _, plan = rap_cf_block_plan(A, P_F, cf, already_partitioned=True)
        with pytest.raises(ValueError, match="layout"):
            rap_cf_block_numeric(plan, laplace_2d_5pt(5), P_F)


class TestSpAddPlan:
    def test_numeric_matches_fresh_sp_add(self, rng):
        A = random_csr(30, 20, density=0.2, seed=1)
        B = random_csr(30, 20, density=0.25, seed=2)
        plan = SpAddPlan.capture(A, B)
        C_ref = sp_add(A, B)
        C_num = sp_add_numeric(plan, A, B)
        assert_same_matrix(C_ref, C_num)
        # New values through the same frozen union pattern.
        A2 = _scale(A, 2.5)
        B2 = _scale(B, -0.5)
        assert_same_matrix(sp_add(A2, B2), sp_add_numeric(plan, A2, B2))

    def test_numeric_with_scalars(self):
        A = random_csr(15, 15, density=0.3, seed=7)
        B = random_csr(15, 15, density=0.3, seed=8)
        plan = SpAddPlan.capture(A, B)
        ref = sp_add(A, B, alpha=2.0, beta=-1.0)
        got = sp_add_numeric(plan, A, B, alpha=2.0, beta=-1.0)
        assert_same_matrix(ref, got)

    def test_numeric_is_branch_free(self):
        A = random_csr(10, 10, density=0.4, seed=9)
        B = random_csr(10, 10, density=0.4, seed=10)
        plan = SpAddPlan.capture(A, B)
        with collect() as log:
            sp_add_numeric(plan, A, B)
        [rec] = log.records
        assert rec.branches == 0

    def test_shape_mismatch_raises(self):
        A = random_csr(10, 10, seed=11)
        plan = SpAddPlan.capture(A, A)
        with pytest.raises(ValueError, match="shape"):
            sp_add_numeric(plan, random_csr(9, 9, seed=12), A)


# ---------------------------------------------------------------------------
# Hierarchy.refresh
# ---------------------------------------------------------------------------

def _fused_config():
    from dataclasses import replace

    cfg = single_node_config(True)
    return replace(cfg, flags=replace(cfg.flags, rap_scheme="fused",
                                      cf_reorder=False,
                                      three_way_partition=False))


def _problems():
    return [
        ("lap2d", laplace_2d_5pt(20)),
        ("lap3d27", _jitter(laplace_3d_27pt(8))),
        ("aniso", anisotropic_2d(16)),
    ]


class TestRefresh:
    def test_capture_is_silent_in_perf_model(self):
        A = laplace_2d_5pt(16)
        cfg = single_node_config(True)
        with collect() as plain:
            build_hierarchy(A, cfg)
        with collect() as capturing:
            h = build_hierarchy(A, cfg, capture_plan=True)
        assert h.plan is not None
        assert plain.records == capturing.records

    def test_refresh_unchanged_values_bit_identical(self):
        A = laplace_2d_5pt(20)
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        ref = build_hierarchy(A, cfg)
        h2 = h.refresh(_scale(A, 1.0))
        assert h2 is not h  # fast path still returns a fresh hierarchy
        assert_same_hierarchy(h2, ref)

    @pytest.mark.parametrize("name,A", _problems())
    def test_refresh_equals_from_scratch_cf_block(self, name, A):
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        assert h.plan is not None, name
        A2 = _scale(A, 1.03)
        ref = build_hierarchy(A2, cfg)
        h2 = h.refresh(A2)
        assert h2 is not h, name
        assert_same_hierarchy(h2, ref)

    def test_refresh_equals_from_scratch_fused(self):
        cfg = _fused_config()
        A = laplace_2d_5pt(24)
        h = build_hierarchy(A, cfg, capture_plan=True)
        assert h.plan is not None
        A2 = _scale(A, 0.97)
        ref = build_hierarchy(A2, cfg)
        h2 = h.refresh(A2)
        assert h2 is not h
        assert_same_hierarchy(h2, ref)

    @pytest.mark.parametrize("interp", ["classical", "direct"])
    def test_refresh_equals_from_scratch_other_interp(self, interp):
        from dataclasses import replace

        cfg = replace(single_node_config(True), interp=interp)
        A = _jitter(laplace_2d_5pt(20))
        h = build_hierarchy(A, cfg, capture_plan=True)
        assert h.plan is not None
        A2 = _scale(A, 1.05)
        ref = build_hierarchy(A2, cfg)
        h2 = h.refresh(A2)
        assert h2 is not h
        assert_same_hierarchy(h2, ref)

    def test_refresh_leaves_original_untouched(self):
        """The input hierarchy is frozen: same objects, same values."""
        A = _jitter(laplace_3d_27pt(7))
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        before = [(lvl.A, lvl.A.data.copy(), lvl.P, lvl.smoother)
                  for lvl in h.levels]
        coarse_before = h.coarse_solver
        h2 = h.refresh(_scale(A, 1.3))
        assert h2 is not h
        assert h.coarse_solver is coarse_before
        for lvl, (A_ref, data, P_ref, smoother) in zip(h.levels, before):
            assert lvl.A is A_ref
            np.testing.assert_array_equal(lvl.A.data, data)
            assert lvl.P is P_ref
            assert lvl.smoother is smoother
        # The untouched original still equals a from-scratch build on the
        # operator it was set up for.
        assert_same_hierarchy(h, build_hierarchy(A, cfg))

    def test_refresh_sequence_of_steps(self):
        """A time-step walk: every refresh matches its from-scratch build."""
        A = _jitter(laplace_3d_27pt(7))
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        for t in range(1, 4):
            At = _scale(A, 1.0 + 0.02 * t)
            h = h.refresh(At)
            assert_same_hierarchy(h, build_hierarchy(At, cfg))

    def test_refresh_is_branch_free_resetup_phase(self):
        A = _jitter(laplace_3d_27pt(8))
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        with collect() as log:
            assert h.refresh(_scale(A, 1.01)) is not h
        assert log.records
        assert {r.phase for r in log.records} == {"Resetup"}
        assert all(r.branches == 0 for r in log.records)

    @staticmethod
    def _call_counters(monkeypatch):
        """``(calls, counted, scoped)``: ``counted(name, fn)`` tallies calls
        of *fn* as ``name@scope`` while a ``scoped(scope, fn)`` is running.
        ``rowcol_order`` — the library's one (row, col) sort — and
        ``group_rowcol`` — its one (row, col) grouping, which marks dense
        key spaces without sorting — are counted at every module that
        imports them."""
        import importlib
        from collections import Counter

        from repro.amg import interp_extended
        from repro.sparse import csr, ops

        spgemm_mod = importlib.import_module("repro.sparse.spgemm")

        calls: Counter = Counter()
        active: list[str] = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if active:
                    calls[f"{name}@{active[-1]}"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def scoped(scope, fn):
            def wrapper(*args, **kwargs):
                active.append(scope)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        for mod in (ops, csr, interp_extended):
            monkeypatch.setattr(mod, "rowcol_order",
                                counted("rowcol_order", mod.rowcol_order))
        for mod in (ops, csr, spgemm_mod, interp_extended):
            monkeypatch.setattr(mod, "group_rowcol",
                                counted("group_rowcol", mod.group_rowcol))
        monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
        return calls, counted, scoped

    @pytest.mark.parametrize("interp", ["extended+i", "classical"])
    def test_refresh_interp_step_runs_no_symbolic_work(self, monkeypatch, interp):
        """"Numeric-only" is a property of the vehicle, not only of the
        model: on the fast path the interpolation step of a refresh runs
        no membership test, SpGEMM, COO assembly or sort — not even in
        ``truncate_interpolation``, which ranks the new weights of the raw
        ``P`` by segmented max."""
        from dataclasses import replace

        from repro.amg import interp_classical, interp_extended, setup

        calls, counted, scoped = self._call_counters(monkeypatch)
        for mod in (interp_extended, interp_classical):
            monkeypatch.setattr(mod, "entries_in_pattern",
                                counted("entries_in_pattern", mod.entries_in_pattern))
        monkeypatch.setattr(interp_extended, "truncate_interpolation",
                            scoped("truncation",
                                   interp_extended.truncate_interpolation))
        monkeypatch.setattr(interp_extended, "spgemm",
                            counted("spgemm", interp_extended.spgemm))
        monkeypatch.setattr(CSRMatrix, "from_coo",
                            staticmethod(counted("from_coo", CSRMatrix.from_coo)))
        monkeypatch.setattr(np, "searchsorted",
                            counted("searchsorted", np.searchsorted))
        # Scope the level schemes' build and numeric; the captured plan
        # keeps the scoped scheme, so refresh runs through it too.
        lookup = setup.interp_scheme

        def scoped_scheme(config, level):
            s = lookup(config, level)
            return replace(s, build=scoped("interp", s.build),
                           numeric=scoped("interp", s.numeric))

        monkeypatch.setattr(setup, "interp_scheme", scoped_scheme)

        A = _jitter(laplace_3d_27pt(8))
        cfg = replace(single_node_config(True), interp=interp)
        h = build_hierarchy(A, cfg, capture_plan=True)
        # The counters see the symbolic work of a build...
        for name in ("entries_in_pattern", "from_coo", "rowcol_order",
                     "group_rowcol", "searchsorted"):
            assert calls[f"{name}@interp"] > 0, name
        assert (calls["spgemm@interp"] > 0) == (interp == "extended+i")
        # ...and none of it on refresh.
        calls.clear()
        with collect() as log:
            h.refresh(_scale(A, 1.02))
        assert {r.phase for r in log.records} == {"Resetup"}  # fast path
        assert dict(calls) == {}

    @pytest.mark.parametrize("scheme", ["cf_block", "fused"])
    def test_refresh_rap_step_runs_no_symbolic_work(self, monkeypatch, scheme):
        """The same for the Galerkin product: a cold build expands and
        groups the product terms (and sorts for the transpose); a fast-path
        refresh only gathers through the frozen term operands — no
        expansion, no grouping, no sort."""
        import importlib
        from dataclasses import replace

        from repro.amg import resetup, setup
        from repro.sparse import csr

        spgemm_mod = importlib.import_module("repro.sparse.spgemm")
        calls, counted, scoped = self._call_counters(monkeypatch)
        monkeypatch.setattr(spgemm_mod, "_expand",
                            counted("expand", spgemm_mod._expand))
        for mod in (spgemm_mod, csr):
            monkeypatch.setattr(
                mod, "gather_range_indices",
                counted("gather_range_indices", mod.gather_range_indices))
        monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
        monkeypatch.setattr(setup, "_galerkin", scoped("rap", setup._galerkin))
        for name in ("rap_cf_block_numeric", "rap_fused_numeric"):
            monkeypatch.setattr(resetup, name,
                                scoped("rap", getattr(resetup, name)))

        A = _jitter(laplace_3d_27pt(8))
        base = single_node_config(True)
        cfg = replace(base, flags=replace(base.flags, rap_scheme=scheme))
        h = build_hierarchy(A, cfg, capture_plan=True)
        for name in ("group_rowcol", "expand", "gather_range_indices", "argsort"):
            assert calls[f"{name}@rap"] > 0, name
        calls.clear()
        with collect() as log:
            h.refresh(_scale(A, 1.02))
        assert {r.phase for r in log.records} == {"Resetup"}  # fast path
        assert not [k for k in calls if k.endswith("@rap")], dict(calls)

    def test_plan_capture_sorts_nothing_twice(self, monkeypatch):
        """Capture is free in the vehicle as in the model: a capturing
        build orders and groups coordinates exactly as often as a plain
        one."""
        from repro.amg import setup

        calls, _, scoped = self._call_counters(monkeypatch)
        build = scoped("build", setup.build_hierarchy)
        A = _jitter(laplace_3d_27pt(8))
        cfg = single_node_config(True)
        build(A, cfg)
        plain = dict(calls)
        calls.clear()
        assert build(A, cfg, capture_plan=True).plan is not None
        for name in ("rowcol_order", "group_rowcol"):
            key = f"{name}@build"
            assert calls[key] == plain[key] > 0, name

    def test_refresh_flops_and_branches_win(self):
        """Acceptance: >= 2x modeled setup flops, branch-free refresh."""
        A = _jitter(laplace_3d_27pt(10))
        cfg = single_node_config(True)
        with collect() as cold:
            h = build_hierarchy(A, cfg, capture_plan=True)
        with collect() as warm:
            assert h.refresh(_scale(A, 1.01)) is not h
        cold_flops = sum(r.flops for r in cold.records)
        warm_flops = sum(r.flops for r in warm.records)
        assert cold_flops >= 2.0 * warm_flops
        assert sum(r.branches for r in cold.records) > 0
        assert sum(r.branches for r in warm.records) == 0

    def test_refreshed_hierarchy_solves(self):
        A = _jitter(laplace_3d_27pt(7))
        cfg = single_node_config(True)
        solver = AMGSolver(cfg)
        solver.setup(A)
        A2 = _scale(A, 1.04)
        solver.update(A2)
        b = np.random.default_rng(0).standard_normal(A.nrows)
        res = solver.solve(b, tol=1e-8)
        assert res.converged
        # Solution matches a cold-setup solver on the updated operator.
        fresh = AMGSolver(cfg)
        fresh.setup(A2)
        np.testing.assert_array_equal(res.x, fresh.solve(b, tol=1e-8).x)

    def test_pattern_mismatch_falls_back_with_logged_reason(self, caplog):
        A = laplace_2d_5pt(20)
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        B = laplace_2d_5pt(21)
        with caplog.at_level(logging.INFO, logger="repro.amg.resetup"):
            h2 = h.refresh(B)
        assert h2 is not h
        assert h2.levels[0].A.nrows == B.nrows
        assert any("sparsity pattern differs" in r.message
                   for r in caplog.records)
        # The fallback re-captures, so the chain of refreshes continues.
        assert h2.plan is not None

    def test_planless_hierarchy_falls_back(self, caplog):
        A = laplace_2d_5pt(16)
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg)  # capture_plan=False
        assert h.plan is None
        with caplog.at_level(logging.INFO, logger="repro.amg.resetup"):
            h2 = h.refresh(_scale(A, 1.1))
        assert h2 is not h
        assert any("no setup plan" in r.message for r in caplog.records)
        assert_same_hierarchy(h2, build_hierarchy(_scale(A, 1.1), cfg))

    def test_unsupported_config_builds_without_plan(self):
        # HYPRE_base runs the hypre RAP scheme, which has no plan kernel.
        h = build_hierarchy(laplace_2d_5pt(16), single_node_config(False),
                            capture_plan=True)
        assert h.plan is None

    def test_strength_drift_falls_back(self, caplog):
        """Values that flip the strength pattern must trigger a rebuild."""
        A = anisotropic_2d(12, epsilon=0.001)
        cfg = single_node_config(True)
        h = build_hierarchy(A, cfg, capture_plan=True)
        # Flip the anisotropy axis: same pattern, very different strength.
        flipped = anisotropic_2d(12, epsilon=1000.0)
        assert pattern_fingerprint(flipped) == pattern_fingerprint(A)
        with caplog.at_level(logging.INFO, logger="repro.amg.resetup"):
            h2 = h.refresh(flipped)
        assert any("falling back" in r.message for r in caplog.records)
        assert_same_hierarchy(h2, build_hierarchy(flipped, cfg))

    def test_refresh_rejects_nonsquare(self):
        A = laplace_2d_5pt(10)
        h = build_hierarchy(A, single_node_config(True), capture_plan=True)
        bad = CSRMatrix((4, 5), np.zeros(5, dtype=np.int64),
                        np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(ValueError, match="square"):
            h.refresh(bad)

    def test_sanitizers_pass_after_refresh(self):
        """REPRO_CHECK=full invariants hold on a refreshed hierarchy."""
        A = _jitter(laplace_3d_27pt(7))
        cfg = single_node_config(True)
        with check_scope("full"):
            h = build_hierarchy(A, cfg, capture_plan=True)
            h2 = h.refresh(_scale(A, 1.02))
            assert h2 is not h
            check_hierarchy(h2)


# ---------------------------------------------------------------------------
# Two-tier hierarchy cache
# ---------------------------------------------------------------------------

class TestCachePatternTier:
    def test_fingerprints_disagree_on_values_only(self, lap2d_small):
        A2 = _scale(lap2d_small, 2.0)
        assert matrix_fingerprint(lap2d_small) != matrix_fingerprint(A2)
        assert pattern_fingerprint(lap2d_small) == pattern_fingerprint(A2)
        B = laplace_2d_5pt(13)
        assert pattern_fingerprint(lap2d_small) != pattern_fingerprint(B)

    def test_pattern_hit_refreshes_instead_of_building(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        h1 = cache.get_or_build(lap2d_small, cfg)
        A2 = _scale(lap2d_small, 1.5)
        h2 = cache.get_or_build(A2, cfg)
        # Pattern hit: a new hierarchy derived from h1, counted as such.
        assert h2 is not h1
        assert cache.stats() == {"entries": 2, "hits": 0, "misses": 2,
                                 "evictions": 0, "pattern_hits": 1}
        assert_same_hierarchy(h2, build_hierarchy(A2, cfg))
        # The refreshed entry serves exact hits under its new fingerprint.
        assert cache.get(A2, cfg) is h2
        # ... and the seed entry stays cached, frozen, and exact-hittable
        # for the operator it was built with.
        assert cache.get(lap2d_small, cfg) is h1
        assert_same_hierarchy(h1, build_hierarchy(lap2d_small, cfg))

    def test_exact_hit_takes_precedence(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        h1 = cache.get_or_build(lap2d_small, cfg)
        assert cache.get_or_build(lap2d_small, cfg) is h1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["pattern_hits"] == 0

    def test_reuse_never_bypasses_both_tiers(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        h1 = cache.get_or_build(lap2d_small, cfg)
        h2 = cache.get_or_build(lap2d_small, cfg, reuse="never")
        assert h2 is not h1
        assert cache.stats()["pattern_hits"] == 0
        # The rebuilt hierarchy replaced the entry.
        assert cache.get(lap2d_small, cfg) is h2

    def test_reuse_pattern_forces_refresh_tier(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        h1 = cache.get_or_build(lap2d_small, cfg)
        h2 = cache.get_or_build(lap2d_small, cfg, reuse="pattern")
        assert h2 is not h1  # same values, but served through a refresh
        assert cache.stats()["pattern_hits"] == 1
        assert_same_hierarchy(h2, h1)
        # Same exact fingerprint: the refreshed entry replaced the seed.
        assert cache.get(lap2d_small, cfg) is h2

    def test_invalid_reuse_mode_raises(self, lap2d_small):
        cache = HierarchyCache()
        with pytest.raises(ValueError, match="reuse"):
            cache.get_or_build(lap2d_small, single_node_config(True),
                               reuse="sometimes")

    def test_different_config_never_pattern_hits(self, lap2d_small):
        cache = HierarchyCache()
        cache.get_or_build(lap2d_small, single_node_config(True))
        cache.get_or_build(_scale(lap2d_small, 2.0),
                           single_node_config(True, strength_threshold=0.5))
        assert cache.stats()["pattern_hits"] == 0
        assert len(cache) == 2

    def test_eviction_drops_pattern_index(self, lap2d_small):
        cache = HierarchyCache(max_entries=1)
        cfg = single_node_config(True)
        cache.get_or_build(lap2d_small, cfg)
        cache.get_or_build(laplace_2d_5pt(14), cfg)  # evicts lap2d entry
        assert cache.evictions == 1
        # The evicted pattern no longer refresh-hits: cold build instead.
        cache.get_or_build(_scale(lap2d_small, 3.0), cfg)
        assert cache.stats()["pattern_hits"] == 0

    def test_planless_entry_served_but_not_refreshed(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        h = build_hierarchy(lap2d_small, cfg)  # no plan
        cache.put(lap2d_small, cfg, h)
        assert cache.get(lap2d_small, cfg) is h
        h2 = cache.get_or_build(_scale(lap2d_small, 2.0), cfg)
        assert h2 is not h
        assert cache.stats()["pattern_hits"] == 0
        # The unrefreshable entry survives under its original key.
        assert cache.get(lap2d_small, cfg) is h

    def test_clear_resets_pattern_state(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        cache.get_or_build(lap2d_small, cfg)
        cache.get_or_build(_scale(lap2d_small, 1.2), cfg)
        cache.clear()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                 "evictions": 0, "pattern_hits": 0}
        cache.get_or_build(_scale(lap2d_small, 1.3), cfg)
        assert cache.stats()["pattern_hits"] == 0


# ---------------------------------------------------------------------------
# repro.api integration
# ---------------------------------------------------------------------------

class TestApiReuse:
    def test_pattern_fingerprint_exported_and_coerces(self, lap2d_small):
        fp_csr = repro.pattern_fingerprint(lap2d_small)
        dense = lap2d_small.to_dense()
        assert repro.pattern_fingerprint(dense) == fp_csr
        assert repro.api.pattern_fingerprint(dense) == fp_csr
        # Values-blind, unlike repro.fingerprint.
        assert repro.pattern_fingerprint(_scale(lap2d_small, 5.0)) == fp_csr
        assert repro.fingerprint(_scale(lap2d_small, 5.0)) != \
            repro.fingerprint(lap2d_small)

    def test_handle_update_refreshes_cached_hierarchy(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config(True)
        handle = repro.setup(lap2d_small, cfg, cache=cache)
        h1 = handle.hierarchy
        A2 = _scale(lap2d_small, 1.25)
        assert handle.update(A2) is handle
        assert handle.hierarchy is not h1  # rebound to a fresh hierarchy
        assert cache.stats()["pattern_hits"] == 1
        assert_same_hierarchy(handle.hierarchy, build_hierarchy(A2, cfg))
        b = np.ones(lap2d_small.nrows)
        assert handle.solve(b, tol=1e-8).converged

    def test_handle_update_uncached(self, lap2d_small):
        cfg = single_node_config(True)
        handle = repro.setup(lap2d_small, cfg, cache=None)
        h1 = handle.hierarchy
        handle.update(_scale(lap2d_small, 0.8))
        assert handle.hierarchy is not h1
        assert_same_hierarchy(
            handle.hierarchy, build_hierarchy(_scale(lap2d_small, 0.8), cfg))

    def test_setup_does_not_rewire_earlier_handles(self, lap2d_small):
        """Regression: a same-pattern setup through a shared cache must not
        mutate the hierarchy an earlier handle still solves with."""
        cache = HierarchyCache()
        cfg = single_node_config(True)
        handle1 = repro.setup(lap2d_small, cfg, cache=cache)
        h1 = handle1.hierarchy
        handle2 = repro.setup(_scale(lap2d_small, 4.0), cfg, cache=cache)
        assert cache.stats()["pattern_hits"] == 1
        assert handle2.hierarchy is not h1
        assert handle1.hierarchy is h1
        # handle1 still solves *its* system, bit-identical to a cold solve
        # of the original operator (not the scaled one handle2 holds).
        b = np.ones(lap2d_small.nrows)
        warm = handle1.solve(b, tol=1e-8)
        assert warm.converged
        cold = repro.solve(lap2d_small, b, config=cfg, cache=None, tol=1e-8)
        assert warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.x, cold.x)

    def test_handle_update_reuse_never_rebuilds(self, lap2d_small):
        cfg = single_node_config(True)
        handle = repro.setup(lap2d_small, cfg, cache=None)
        h1 = handle.hierarchy
        handle.update(_scale(lap2d_small, 0.8), reuse="never")
        assert handle.hierarchy is not h1

    def test_solve_reuse_modes_validated(self, lap2d_small):
        b = np.ones(lap2d_small.nrows)
        with pytest.raises(ValueError, match="reuse"):
            repro.solve(lap2d_small, b, reuse="bogus")
        with pytest.raises(ValueError, match="reuse"):
            repro.setup(lap2d_small, reuse="bogus")

    def test_solve_auto_reuse_bit_identical_to_cold(self, lap2d_small):
        """The refresh tier changes setup cost, never the answer."""
        cfg = single_node_config(True)
        b = np.ones(lap2d_small.nrows)
        A2 = _scale(lap2d_small, 1.1)
        warm_cache = HierarchyCache()
        repro.solve(lap2d_small, b, config=cfg, cache=warm_cache)
        warm = repro.solve(A2, b, config=cfg, cache=warm_cache)
        assert warm_cache.stats()["pattern_hits"] == 1
        cold = repro.solve(A2, b, config=cfg, cache=None)
        assert warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.x, cold.x)


# ---------------------------------------------------------------------------
# Serving integration (timestep workload, refresh_hits metric)
# ---------------------------------------------------------------------------

class TestServeRefresh:
    def test_timestep_preset_builds(self):
        from repro.serve import build
        from repro.serve.workload import NAMED_WORKLOADS

        spec = NAMED_WORKLOADS["timestep"]
        wl = build(spec)
        assert len(wl.items) == spec.requests
        assert len(wl.matrices) == spec.steps
        # All steps share one sparsity pattern, values differ per step.
        fps = {pattern_fingerprint(M) for M in wl.matrices}
        assert len(fps) == 1
        vals = {matrix_fingerprint(M) for M in wl.matrices}
        assert len(vals) == spec.steps
        # Steps arrive in time order.
        steps = [it.matrix_index for it in wl.items]
        assert steps == sorted(steps)

    def test_timestep_spec_roundtrip(self, tmp_path):
        from repro.serve.workload import NAMED_WORKLOADS, WorkloadSpec

        spec = NAMED_WORKLOADS["timestep"]
        path = tmp_path / "w.json"
        path.write_text(spec.to_json())
        assert WorkloadSpec.from_json_file(path) == spec

    def test_service_counts_refresh_hits(self):
        from repro.serve import ServiceConfig, SolveService, build
        from repro.serve.workload import NAMED_WORKLOADS

        svc = SolveService(ServiceConfig(max_batch=4, max_queue=64))
        results = svc.run_workload(build(NAMED_WORKLOADS["timestep"]))
        assert all(r.status == "completed" for r in results)
        snap = svc.metrics_snapshot()
        # 8 steps, one pattern: step 0 cold-builds, each later step's
        # first request refreshes.
        counters = snap["service"]["counters"]
        assert counters["refresh_hits"] >= 1
        assert svc.metrics.refresh_hits == counters["refresh_hits"]
        assert (snap["service"]["hierarchy_cache"]["pattern_hits"]
                >= counters["refresh_hits"])

    def test_service_refresh_results_match_cold_service(self):
        from repro.serve import ServiceConfig, SolveService, build
        from repro.serve.workload import NAMED_WORKLOADS

        wl = build(NAMED_WORKLOADS["timestep"])
        svc = SolveService(ServiceConfig(max_batch=4, max_queue=64))
        warm = svc.run_workload(wl)
        assert svc.metrics.refresh_hits >= 1
        # Refresh is a setup-cost optimization only: every served solution
        # is bit-identical to an uncached per-request solve.
        for r, item in zip(warm, wl.items):
            cold = repro.solve(wl.matrices[item.matrix_index], item.b,
                               config=svc.amg_config, cache=None)
            np.testing.assert_array_equal(r.x, cold.x)
