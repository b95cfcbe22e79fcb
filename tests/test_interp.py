"""Unit tests for interpolation operators and truncation (§3.1.2)."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amg import (
    ExtIPlan,
    build_hierarchy,
    classical_interpolation,
    direct_interpolation,
    extended_i_interpolation,
    extended_i_numeric,
    extended_i_reference,
    extended_i_symbolic,
    multipass_interpolation,
    pmis,
    aggressive_pmis,
    strength_matrix,
    truncate_interpolation,
    two_stage_extended_i,
)
from repro.amg.interp_extended import plan_numeric
from repro.perf import collect
from repro.problems import (
    anisotropic_2d,
    convection_diffusion_3d,
    laplace_2d_5pt,
    laplace_3d_7pt,
    laplace_3d_27pt,
    rotated_anisotropy_2d,
)
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix


def setup_cf(A, theta=0.25, seed=0, aggressive=False):
    S = strength_matrix(A, theta, 0.8)
    if aggressive:
        cf, cf1 = aggressive_pmis(S, seed=seed)
        return S, cf, cf1
    return S, pmis(S, seed=seed), None


class TestExtendedI:
    @pytest.mark.parametrize(
        "gen", [lambda: laplace_2d_5pt(10), lambda: laplace_3d_7pt(6),
                lambda: laplace_3d_27pt(5), lambda: anisotropic_2d(10)]
    )
    def test_matches_reference(self, gen):
        A = gen()
        S, cf, _ = setup_cf(A)
        P_vec = extended_i_interpolation(A, S, cf, truncate=False)
        P_ref = extended_i_reference(A, S, cf)
        np.testing.assert_allclose(
            P_vec.to_dense(), P_ref.to_dense(), atol=1e-13
        )

    def test_c_rows_are_identity(self):
        A = laplace_2d_5pt(10)
        S, cf, _ = setup_cf(A)
        P = extended_i_interpolation(A, S, cf, truncate=False)
        dense = P.to_dense()
        c_idx = np.cumsum(cf > 0) - 1
        for i in np.flatnonzero(cf > 0):
            row = dense[i]
            assert row[c_idx[i]] == 1.0
            assert np.count_nonzero(row) == 1

    def test_interior_row_sums_near_one(self):
        """Zero-row-sum interior rows of the Laplacian interpolate the
        constant exactly: P row sums = 1."""
        A = laplace_3d_7pt(7)
        S, cf, _ = setup_cf(A)
        P = extended_i_interpolation(A, S, cf, truncate=False)
        rs = P.to_dense().sum(axis=1)
        interior = np.abs(A.to_dense().sum(axis=1)) < 1e-12
        f_interior = interior & (cf <= 0)
        if f_interior.any():
            np.testing.assert_allclose(rs[f_interior], 1.0, atol=1e-10)

    def test_shape(self):
        A = laplace_2d_5pt(9)
        S, cf, _ = setup_cf(A)
        P = extended_i_interpolation(A, S, cf)
        assert P.shape == (A.nrows, int((cf > 0).sum()))

    def test_truncation_limits_row_size(self):
        """With a large relative factor the threshold is the max_elmts-th
        largest entry (paper: thr = min(tf*|p|_(1), |p|_(max_elmts))), so
        rows shrink to ~max_elmts (ties may add a few)."""
        A = laplace_3d_27pt(5)
        S, cf, _ = setup_cf(A, theta=0.25)
        P_raw = extended_i_interpolation(A, S, cf, truncate=False)
        P = extended_i_interpolation(A, S, cf, trunc_fact=0.9, max_elmts=4)
        assert P.nnz < P_raw.nnz
        # Laplacian symmetry creates ties; allow a margin above 4.
        assert np.median(P.row_nnz()[P.row_nnz() > 1]) <= 8

    def test_active_rows_restriction(self):
        A = laplace_2d_5pt(8)
        S, cf, _ = setup_cf(A)
        active = np.zeros(A.nrows, dtype=bool)
        active[: A.nrows // 2] = True
        P = extended_i_interpolation(A, S, cf, truncate=False, active_rows=active)
        assert np.all(P.row_nnz()[~active] == 0)
        P_full = extended_i_interpolation(A, S, cf, truncate=False)
        np.testing.assert_allclose(
            P.to_dense()[active], P_full.to_dense()[active]
        )

    def test_branch_counting_reordered(self):
        A = laplace_2d_5pt(10)
        S, cf, _ = setup_cf(A)
        with collect() as opt:
            extended_i_interpolation(A, S, cf, reordered=True)
        with collect() as base:
            extended_i_interpolation(A, S, cf, reordered=False)
        b_opt = sum(r.branches for r in opt.records if r.kernel == "interp.extended_i")
        b_base = sum(r.branches for r in base.records if r.kernel == "interp.extended_i")
        assert b_base > 2 * b_opt


class TestDirectInterpolation:
    def test_c_rows_identity(self):
        A = laplace_2d_5pt(8)
        S, cf, _ = setup_cf(A)
        P = direct_interpolation(A, S, cf)
        c_idx = np.cumsum(cf > 0) - 1
        dense = P.to_dense()
        for i in np.flatnonzero(cf > 0):
            assert dense[i, c_idx[i]] == 1.0

    def test_interior_row_sums(self):
        A = laplace_2d_5pt(10)
        S, cf, _ = setup_cf(A)
        P = direct_interpolation(A, S, cf)
        rs = P.to_dense().sum(axis=1)
        interior = np.abs(A.to_dense().sum(axis=1)) < 1e-12
        sel = interior & (cf <= 0) & (P.row_nnz() > 0)
        if sel.any():
            np.testing.assert_allclose(rs[sel], 1.0, atol=1e-10)

    def test_rows_subset(self):
        A = laplace_2d_5pt(8)
        S, cf, _ = setup_cf(A)
        f = np.flatnonzero(cf <= 0)[:3]
        P = direct_interpolation(A, S, cf, rows=f)
        nnz_f_rows = P.row_nnz()[np.flatnonzero(cf <= 0)]
        built = np.isin(np.flatnonzero(cf <= 0), f)
        assert np.all(nnz_f_rows[~built] == 0)

    def test_weights_nonnegative_for_mmatrix(self):
        A = laplace_2d_5pt(8)
        S, cf, _ = setup_cf(A)
        P = direct_interpolation(A, S, cf)
        assert P.data.min() >= 0.0


class TestTruncation:
    def test_row_sum_preserved(self, rng):
        dense = (rng.random((20, 8)) < 0.6) * rng.random((20, 8))
        P = CSRMatrix.from_dense(dense)
        Pt = truncate_interpolation(P, 0.2, 3)
        np.testing.assert_allclose(
            Pt.to_dense().sum(axis=1), P.to_dense().sum(axis=1), atol=1e-12
        )

    def test_keeps_at_least_max_elmts_entries(self, rng):
        dense = rng.random((10, 12)) + 0.1  # full rows, distinct values
        P = CSRMatrix.from_dense(dense)
        Pt = truncate_interpolation(P, 0.99, 4, rescale=False)
        assert np.all(Pt.row_nnz() >= 4)

    def test_relative_threshold_only_for_short_rows(self):
        P = CSRMatrix.from_dense(np.array([[1.0, 0.05, 0.5]]))
        Pt = truncate_interpolation(P, 0.1, 4, rescale=False)
        np.testing.assert_allclose(Pt.to_dense(), [[1.0, 0.0, 0.5]])

    def test_noop_when_disabled(self):
        P = CSRMatrix.from_dense(np.array([[1.0, 0.001]]))
        Pt = truncate_interpolation(P, 0.0, 0)
        assert Pt.nnz == 2

    def test_fused_counts_less_traffic(self, rng):
        dense = (rng.random((50, 20)) < 0.5) * rng.random((50, 20))
        P = CSRMatrix.from_dense(dense)
        with collect() as f:
            truncate_interpolation(P, 0.2, 3, fused=True)
        with collect() as u:
            truncate_interpolation(P, 0.2, 3, fused=False)
        assert f.total("bytes_total") < u.total("bytes_total")


class TestMultipass:
    def test_all_reachable_f_points_interpolated(self):
        A = laplace_2d_5pt(12)
        S, cf, _ = setup_cf(A, aggressive=True)
        P = multipass_interpolation(A, S, cf)
        f_rows = np.flatnonzero(cf <= 0)
        assert np.all(P.row_nnz()[f_rows] > 0)

    def test_c_rows_identity(self):
        A = laplace_2d_5pt(12)
        S, cf, _ = setup_cf(A, aggressive=True)
        P = multipass_interpolation(A, S, cf)
        c_idx = np.cumsum(cf > 0) - 1
        dense = P.to_dense()
        for i in np.flatnonzero(cf > 0):
            assert dense[i, c_idx[i]] == pytest.approx(1.0)

    def test_interior_row_sums(self):
        A = laplace_3d_7pt(7)
        S = strength_matrix(A, 0.25, 0.8)
        cf, _ = aggressive_pmis(S, seed=1)
        P = multipass_interpolation(A, S, cf, trunc_fact=0.0, max_elmts=0)
        rs = P.to_dense().sum(axis=1)
        interior = np.abs(A.to_dense().sum(axis=1)) < 1e-12
        sel = interior & (cf <= 0)
        # Exactly 1 only when every source row is itself interior; boundary
        # influence leaks in through later passes, so allow a band.
        assert sel.any()
        assert rs[sel].max() <= 1.0 + 1e-8
        assert rs[sel].min() >= 0.7
        assert rs[sel].mean() > 0.9


def _same_pattern(P: CSRMatrix, Q: CSRMatrix) -> bool:
    return (P.shape == Q.shape and np.array_equal(P.indptr, Q.indptr)
            and np.array_equal(P.indices, Q.indices))


def _degenerate_pairs(A: CSRMatrix, cf: np.ndarray) -> CSRMatrix:
    """Give every third F row off-diagonals of the diagonal's sign: its
    ``abar`` row vanishes, so each pair ``(i, k)`` through it has
    ``b_ik == 0`` and ``a_ik`` must be lumped into ``a~_ii``."""
    rid = A.row_ids()
    k_rows = np.zeros(A.nrows, dtype=bool)
    k_rows[np.flatnonzero(cf <= 0)[::3]] = True
    hit = k_rows[rid] & (A.indices != rid)
    return CSRMatrix(A.shape, A.indptr, A.indices,
                     np.where(hit, np.abs(A.data), A.data))


def _plan_cases():
    """name -> (A, S, cf, active_rows): the frozen side of each case."""
    ops = {
        "lap2d": laplace_2d_5pt(10),
        "lap3d27g": PROBLEM_BUILDERS["lap3d27g"](5),
        "rotaniso": rotated_anisotropy_2d(12),
        "nonsym": convection_diffusion_3d(5, 5, 5),
    }
    cases = {}
    for name, A in ops.items():
        S, cf, _ = setup_cf(A, seed=2)
        cases[name] = (A, S, cf, None)
    A, S, cf, _ = cases["lap2d"]
    cases["degenerate"] = (_degenerate_pairs(A, cf), S, cf, None)
    A, S, cf, _ = cases["lap3d27g"]
    active = np.zeros(A.nrows, dtype=bool)
    active[: (2 * A.nrows) // 3] = True
    cases["active_rows"] = (A, S, cf, active)
    return cases


PLAN_CASES = _plan_cases()
PERTURBATIONS = ("scale", "jitter", "flip")


def _perturb(A: CSRMatrix, kind: str, seed: int, amp: float) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    if kind == "scale":
        data = A.data * (1.0 + amp)
    elif kind == "jitter":
        data = A.data * (1.0 + amp * rng.random(A.nnz))
    else:  # sign flips on a seeded ~amp/4 share of the entries
        data = np.where(rng.random(A.nnz) < amp / 4, -A.data, A.data)
    return CSRMatrix(A.shape, A.indptr, A.indices, data)


TRUNC = dict(trunc_fact=0.1, max_elmts=4)


class TestExtendedIPlan:
    """Symbolic/numeric split: the frozen plan plus new values must give
    exactly what a fresh build on those values gives, or refuse."""

    @staticmethod
    def _check(name, kind, seed, amp):
        A, S, cf, active = PLAN_CASES[name]
        plan = extended_i_symbolic(A, S, cf, active)
        frozen = extended_i_interpolation(A, S, cf, active_rows=active, **TRUNC)
        A2 = _perturb(A, kind, seed, amp)
        fresh = extended_i_interpolation(A2, S, cf, active_rows=active, **TRUNC)
        got = extended_i_numeric(A2, S, cf, frozen, plan=plan, **TRUNC)
        if _same_pattern(fresh, frozen):
            assert got is not None
            assert _same_pattern(got, fresh)
            assert got.data.tobytes() == fresh.data.tobytes()
        else:
            assert got is None
        return got is not None

    @pytest.mark.parametrize("name", sorted(PLAN_CASES))
    @given(kind=st.sampled_from(PERTURBATIONS), seed=st.integers(0, 2**16),
           amp=st.floats(1e-4, 0.5))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_numeric_is_fresh_build_or_none(self, name, kind, seed, amp):
        self._check(name, kind, seed, amp)

    def test_both_outcomes_are_exercised(self):
        outcomes = {
            (name, kind): {self._check(name, kind, seed, amp)
                           for seed in range(3) for amp in (1e-3, 0.3)}
            for name in PLAN_CASES for kind in PERTURBATIONS
        }
        # A pure rescale never moves the pattern; large jitter and sign
        # flips do, on every operator.
        assert all(outcomes[name, "scale"] == {True} for name in PLAN_CASES)
        assert all(False in outcomes[name, "flip"] for name in PLAN_CASES)
        assert any(outcomes[name, "jitter"] == {True, False}
                   for name in PLAN_CASES)

    def test_degenerate_case_has_zero_b_pairs(self):
        A, S, cf, _ = PLAN_CASES["degenerate"]
        plan = extended_i_symbolic(A, S, cf)
        abar_zero = np.zeros(A.nrows, dtype=bool)
        abar_zero[np.flatnonzero(cf <= 0)[::3]] = True
        pair_k = A.indices[plan.pair_entry]
        assert abar_zero[pair_k].any()

    # (The per-row oracle interpolates every row: no active_rows case.)
    @pytest.mark.parametrize(
        "name", sorted(n for n, c in PLAN_CASES.items() if c[3] is None))
    @pytest.mark.parametrize("kind", PERTURBATIONS)
    def test_untruncated_matches_reference(self, name, kind):
        A, S, cf, _ = PLAN_CASES[name]
        plan = extended_i_symbolic(A, S, cf)
        A2 = _perturb(A, kind, seed=5, amp=0.2)
        fresh = extended_i_interpolation(A2, S, cf, truncate=False)
        got = extended_i_numeric(A2, S, cf, fresh, trunc_fact=0.0,
                                 max_elmts=0, plan=plan)
        ref = extended_i_reference(A2, S, cf)
        assert got is not None and _same_pattern(got, ref)
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-10, atol=1e-14)

    def test_planless_numeric_still_works(self):
        A, S, cf, _ = PLAN_CASES["rotaniso"]
        frozen = extended_i_interpolation(A, S, cf, **TRUNC)
        A2 = _perturb(A, "scale", 0, 0.02)
        with collect() as log:
            got = extended_i_numeric(A2, S, cf, frozen, reordered=True,
                                     fused_truncation=True, **TRUNC)
        fresh = extended_i_interpolation(A2, S, cf, **TRUNC)
        assert got.data.tobytes() == fresh.data.tobytes()
        assert [r.kernel for r in log.records] == [
            "interp.extended_i.numeric_only"]
        assert log.records[0].branches == 0.0

    def test_plan_rejects_other_pattern(self):
        A, S, cf, _ = PLAN_CASES["lap2d"]
        plan = extended_i_symbolic(A, S, cf)
        B = laplace_2d_5pt(9)
        with pytest.raises(ValueError, match="different operator pattern"):
            extended_i_numeric(B, S, cf, B, plan=plan)

    def test_plan_arrays_are_read_only(self):
        A, S, cf, active = PLAN_CASES["active_rows"]
        hierarchy = build_hierarchy(A, capture_plan=True)
        plans = [extended_i_symbolic(A, S, cf, active)]
        plans += [lp.interp_plan for lp in hierarchy.plan.levels]
        for plan in plans:
            assert isinstance(plan, ExtIPlan)
            arrays = [getattr(plan, f.name) for f in fields(plan)
                      if isinstance(getattr(plan, f.name), np.ndarray)]
            assert len(arrays) >= 10
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[:1] = 0

    @pytest.mark.parametrize("name", ["lap2d", "rotaniso", "nonsym", "degenerate"])
    @given(kind=st.sampled_from(PERTURBATIONS), seed=st.integers(0, 2**16),
           amp=st.floats(1e-4, 0.5))
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    def test_classical_numeric_is_fresh_build_or_none(self, name, kind, seed, amp):
        A, S, cf, _ = PLAN_CASES[name]
        frozen, plan = classical_interpolation(
            A, S, cf, truncate=True, return_plan=True, **TRUNC)
        A2 = _perturb(A, kind, seed, amp)
        fresh = classical_interpolation(A2, S, cf, truncate=True, **TRUNC)
        got = plan_numeric(plan, A2, frozen, **TRUNC)
        if _same_pattern(fresh, frozen):
            assert got is not None and _same_pattern(got, fresh)
            assert got.data.tobytes() == fresh.data.tobytes()
        else:
            assert got is None


class TestTwoStage:
    def test_shapes_and_coverage(self):
        A = laplace_3d_7pt(7)
        S = strength_matrix(A, 0.25, 0.8)
        cf, cf1 = aggressive_pmis(S, seed=1)
        P = two_stage_extended_i(A, S, cf, cf1)
        assert P.shape == (A.nrows, int((cf > 0).sum()))
        assert P.row_nnz().min() >= 0
        # Most F points should be reachable through two stages.
        covered = (P.row_nnz() > 0).mean()
        assert covered > 0.9

    def test_rejects_inconsistent_stages(self):
        A = laplace_2d_5pt(6)
        S = strength_matrix(A, 0.25, 0.8)
        cf1 = pmis(S, seed=0)
        bad_final = np.where(cf1 > 0, -1, 1)  # C points not a subset
        with pytest.raises(ValueError):
            two_stage_extended_i(A, S, bad_final, cf1)
