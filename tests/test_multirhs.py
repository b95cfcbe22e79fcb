"""Tests for the batched multi-RHS path, the hierarchy cache, and the
``repro.api`` facade."""

import numpy as np
import pytest

import repro
from repro.amg import AMGSolver, cycle
from repro.amg.cache import DEFAULT_CACHE, HierarchyCache, matrix_fingerprint
from repro.config import single_node_config
from repro.perf import VAL_BYTES, collect
from repro.perf.counters import IDX_BYTES, PTR_BYTES
from repro.sparse import CSRMatrix, axpy, dot, norm2, residual, spmv

from conftest import random_csr

SETUP_PHASES = {"Strength+Coarsen", "Interp", "RAP", "Setup_etc"}


# ---------------------------------------------------------------------------
# Blocked kernels
# ---------------------------------------------------------------------------

class TestBlockedKernels:
    def test_spmv_multi_matches_columnwise_spmv(self, rng):
        A = random_csr(40, 30, seed=5)
        X = rng.standard_normal((30, 6))
        Y = spmv(A, X)
        for j in range(6):
            np.testing.assert_array_equal(Y[:, j], spmv(A, X[:, j]))

    def test_spmv_multi_counts_matrix_once(self, rng):
        A = random_csr(25, 25, seed=6)
        k = 7
        X = rng.standard_normal((25, k))
        with collect() as log:
            spmv(A, X)
        assert len(log.records) == 1
        rec = log.records[0]
        assert rec.kernel == "spmv_multi"
        matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        # Matrix stream charged once; x gathered and y written k times.
        assert rec.bytes_read == matrix_bytes + k * A.nnz * VAL_BYTES
        assert rec.bytes_written == k * A.nrows * VAL_BYTES
        assert rec.flops == 2 * A.nnz * k
        # k single-RHS calls would charge the matrix k times.
        with collect() as log1:
            for j in range(k):
                spmv(A, X[:, j])
        assert {r.kernel for r in log1.records} == {"spmv"}
        assert sum(r.bytes_read for r in log1.records) == k * (
            matrix_bytes + A.nnz * VAL_BYTES
        )

    def test_residual_multi_matches_columnwise(self, rng):
        A = random_csr(30, 30, seed=7)
        X = rng.standard_normal((30, 4))
        B = rng.standard_normal((30, 4))
        R, nrms = residual(A, X, B, fused_norm=True)
        for j in range(4):
            rj = B[:, j] - A.to_dense() @ X[:, j]
            np.testing.assert_allclose(R[:, j], rj, atol=1e-12)
            assert nrms[j] == pytest.approx(np.linalg.norm(R[:, j]))
            r, nrm = residual(A, X[:, j], B[:, j], fused_norm=True)
            np.testing.assert_array_equal(R[:, j], r)
            assert nrms[j] == nrm

    def test_blas1_multi_matches_columnwise(self, rng):
        X = rng.standard_normal((50, 3))
        Y = rng.standard_normal((50, 3))
        # Compare against contiguous columns — the inputs the single-RHS
        # dot() would see (strided views can take a different BLAS path).
        np.testing.assert_array_equal(
            dot(X, Y),
            [dot(X[:, j].copy(), Y[:, j].copy()) for j in range(3)],
        )
        np.testing.assert_array_equal(
            norm2(X), [norm2(X[:, j].copy()) for j in range(3)])
        nrm = norm2(X)
        for j in range(3):
            assert nrm[j] == pytest.approx(np.linalg.norm(X[:, j]))
        Y2 = Y.copy()
        axpy(np.array([1.0, -2.0, 0.5]), X, Y2)
        np.testing.assert_allclose(
            Y2, Y + X * np.array([1.0, -2.0, 0.5]), atol=1e-14
        )

    def test_shape_validation(self, rng):
        A = random_csr(10, 10, seed=8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, rng.standard_normal((11, 2)))  # wrong rows
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, rng.standard_normal(11))  # wrong length
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, rng.standard_normal((10, 2, 1)))  # 3-D
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, np.zeros((10, 0)))  # a block needs a column


def test_perf_harness_aliases_are_the_polymorphic_entry_points():
    # benchmarks/perf/ladder.py still times these names (the *_multi8_s
    # rungs); each must stay the one entry point, not a second path.
    import inspect

    import repro.amg as amg
    import repro.sparse as sparse
    from repro.krylov import pcg_multi

    assert sparse.spmv_multi is sparse.spmv
    assert amg.vcycle_multi is amg.vcycle
    assert amg.HybridGSSmoother.presmooth_multi is amg.HybridGSSmoother.presmooth
    assert AMGSolver.precondition_multi is AMGSolver.precondition
    assert "precondition_multi" in inspect.signature(pcg_multi).parameters


# ---------------------------------------------------------------------------
# Batched cycles and solve_many
# ---------------------------------------------------------------------------

class TestBatchedCycle:
    @pytest.mark.parametrize("kind", ["V", "W", "F"])
    def test_block_cycle_matches_per_column(self, kind, lap2d_small, rng):
        solver = AMGSolver(single_node_config())
        h = solver.setup(lap2d_small)
        B = rng.standard_normal((lap2d_small.nrows, 5))
        X = cycle(h, B, kind)
        for j in range(5):
            np.testing.assert_array_equal(X[:, j], cycle(h, B[:, j], kind))

    def test_solve_many_matches_solve(self, lap2d_small, rng):
        solver = AMGSolver(single_node_config())
        solver.setup(lap2d_small)
        B = rng.standard_normal((lap2d_small.nrows, 4))
        results = solver.solve_many(B)
        for j, r in enumerate(results):
            ref = solver.solve(B[:, j])
            assert r.iterations == ref.iterations
            assert r.converged and ref.converged
            assert r.residuals == ref.residuals
            np.testing.assert_array_equal(r.x, ref.x)

    def test_solve_many_heterogeneous_convergence(self, lap2d_small, rng):
        """Columns converging at different iterations stay frozen."""
        solver = AMGSolver(single_node_config())
        solver.setup(lap2d_small)
        n = lap2d_small.nrows
        # Column 0 starts at the solution -> 0 iterations; column 1 is hard.
        x_easy = rng.standard_normal(n)
        B = np.column_stack([lap2d_small @ x_easy, rng.standard_normal(n)])
        results = solver.solve_many(B, x0=np.column_stack([x_easy, np.zeros(n)]))
        assert results[0].iterations == 0
        assert results[1].iterations > 0
        for j in (0, 1):
            assert results[j].converged

    def test_krylov_multi_matches(self, lap2d_small, rng):
        from repro.krylov import fgmres, fgmres_multi, pcg, pcg_multi

        solver = AMGSolver(single_node_config())
        solver.setup(lap2d_small)
        B = rng.standard_normal((lap2d_small.nrows, 3))
        for single, multi in ((pcg, pcg_multi), (fgmres, fgmres_multi)):
            results = multi(lap2d_small, B,
                            precondition_multi=solver.precondition,
                            tol=1e-9)
            for j, r in enumerate(results):
                ref = single(lap2d_small, B[:, j],
                             precondition=solver.precondition, tol=1e-9)
                assert r.iterations == ref.iterations
                assert r.residuals == ref.residuals
                np.testing.assert_array_equal(r.x, ref.x)


# ---------------------------------------------------------------------------
# Hierarchy cache
# ---------------------------------------------------------------------------

class TestHierarchyCache:
    def test_hit_and_miss(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config()
        h1 = cache.get_or_build(lap2d_small, cfg)
        assert (cache.hits, cache.misses) == (0, 1)
        h2 = cache.get_or_build(lap2d_small, cfg)
        assert h2 is h1
        assert (cache.hits, cache.misses) == (1, 1)
        # Different config -> different entry.
        cache.get_or_build(lap2d_small, single_node_config(False))
        assert cache.misses == 2

    def test_value_change_misses(self, lap2d_small):
        cache = HierarchyCache()
        cfg = single_node_config()
        cache.get_or_build(lap2d_small, cfg)
        perturbed = CSRMatrix(
            lap2d_small.shape, lap2d_small.indptr.copy(),
            lap2d_small.indices.copy(), lap2d_small.data * 1.5,
        )
        assert matrix_fingerprint(perturbed) != matrix_fingerprint(lap2d_small)
        cache.get_or_build(perturbed, cfg)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_lru_eviction(self):
        cache = HierarchyCache(max_entries=2)
        cfg = single_node_config()
        mats = [random_csr(30, 30, seed=s, spd=True) for s in range(3)]
        for A in mats:
            cache.get_or_build(A, cfg)
        assert len(cache) == 2
        cache.get_or_build(mats[0], cfg)  # evicted -> rebuilt
        assert cache.misses == 4 and cache.hits == 0

    def test_cached_setup_has_zero_setup_phase_records(self, lap2d_small):
        cache = HierarchyCache()
        solver = AMGSolver(single_node_config())
        with collect() as log1:
            solver.setup(lap2d_small, cache=cache)
        assert any(r.phase in SETUP_PHASES for r in log1.records)
        with collect() as log2:
            solver.setup(lap2d_small, cache=cache)
        assert not any(r.phase in SETUP_PHASES for r in log2.records)
        assert len(log2.records) == 0


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

class TestFacade:
    def test_solve_methods(self, lap2d_small, rng):
        b = rng.standard_normal(lap2d_small.nrows)
        for method in ("amg", "fgmres", "cg"):
            r = repro.solve(lap2d_small, b, method=method, cache=None)
            assert r.converged
            relres = np.linalg.norm(b - lap2d_small @ r.x) / np.linalg.norm(b)
            assert relres < 1e-6

    def test_repeat_solve_hits_default_cache(self, rng):
        A = random_csr(40, 40, seed=11, spd=True)
        b = rng.standard_normal(40)
        repro.solve(A, b)  # populate
        with collect() as log:
            repro.solve(A, b)
        assert not any(r.phase in SETUP_PHASES for r in log.records)

    def test_handle_solve_many(self, lap2d_small, rng):
        handle = repro.setup(lap2d_small, cache=None)
        B = rng.standard_normal((lap2d_small.nrows, 3))
        results = handle.solve_many(B)
        for j, r in enumerate(results):
            np.testing.assert_array_equal(r.x, handle.solve(B[:, j]).x)

    def test_dense_round_trip(self, rng):
        dense = random_csr(25, 25, seed=12, spd=True).to_dense()
        b = rng.standard_normal(25)
        r = repro.solve(dense, b, cache=None)
        assert r.converged
        np.testing.assert_allclose(dense @ r.x, b, atol=1e-5 * np.linalg.norm(b))

    def test_scipy_round_trip(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        A = random_csr(25, 25, seed=13, spd=True)
        b = rng.standard_normal(25)
        r_scipy = repro.solve(sp.csr_matrix(A.to_dense()), b, cache=None)
        r_native = repro.solve(A, b, cache=None)
        np.testing.assert_array_equal(r_scipy.x, r_native.x)

    def test_validation_errors(self, lap2d_small, rng):
        n = lap2d_small.nrows
        with pytest.raises(TypeError, match="CSRMatrix"):
            repro.solve("not a matrix", np.zeros(4))
        with pytest.raises(ValueError, match="solve_many"):
            repro.solve(lap2d_small, np.zeros((n, 2)), cache=None)
        with pytest.raises(ValueError, match="solve\\(\\)"):
            repro.solve_many(lap2d_small, np.zeros(n), cache=None)
        with pytest.raises(ValueError, match="unknown method"):
            repro.solve(lap2d_small, np.zeros(n), method="lu", cache=None)
        with pytest.raises(ValueError, match="length"):
            repro.solve(lap2d_small, np.zeros(n + 1), cache=None)

    def test_maxiter_kwarg_unification(self, lap2d_small, rng):
        b = rng.standard_normal(lap2d_small.nrows)
        solver = AMGSolver(single_node_config())
        solver.setup(lap2d_small)
        assert solver.solve(b, maxiter=3).iterations == 3
        # ``maxiter`` is the one spelling; the old ``max_iter`` is gone.
        with pytest.raises(TypeError):
            solver.solve(b, max_iter=3)

    def test_unified_result_types(self, lap2d_small, rng):
        from repro.krylov import pcg
        from repro.results import DistSolveResult, KrylovResult, SolveResult

        b = rng.standard_normal(lap2d_small.nrows)
        assert isinstance(repro.solve(lap2d_small, b, cache=None), SolveResult)
        kr = pcg(lap2d_small, b)
        assert isinstance(kr, KrylovResult) and isinstance(kr, SolveResult)
        assert issubclass(DistSolveResult, SolveResult)
        assert kr.final_relres == kr.residuals[-1] / kr.residuals[0]


# ---------------------------------------------------------------------------
# Distributed multi-column payloads
# ---------------------------------------------------------------------------

class TestDistMulti:
    def test_one_kwide_message_per_exchange(self, lap2d_small, rng):
        from repro.dist import (
            ParCSRMatrix,
            ParVector,
            RowPartition,
            SimComm,
            build_halo,
            dist_spmv,
        )

        n = lap2d_small.nrows
        part = RowPartition.uniform(n, 4)
        comm = SimComm(4)
        Ap = ParCSRMatrix.from_global(lap2d_small, part)
        halo = build_halo(comm, Ap, persistent=True)
        X = rng.standard_normal((n, 5))

        y1 = dist_spmv(comm, Ap, ParVector.from_global(X[:, 0], part), halo)
        msgs_1 = comm.message_count(tag="halo")
        bytes_1 = comm.comm_volume(tag="halo")
        comm.messages.clear()

        Y = dist_spmv(comm, Ap, ParVector.from_global(X, part), halo)
        # Same number of messages, k times the bytes.
        assert comm.message_count(tag="halo") == msgs_1
        assert comm.comm_volume(tag="halo") == 5 * bytes_1
        np.testing.assert_array_equal(Y.to_global()[:, 0], y1.to_global())
        for j in range(5):
            yj = dist_spmv(comm, Ap, ParVector.from_global(X[:, j], part), halo)
            np.testing.assert_array_equal(Y.to_global()[:, j], yj.to_global())

    def test_parvector_zeros_ncols(self):
        from repro.dist import ParVector, RowPartition

        part = RowPartition.uniform(20, 3)
        v = ParVector.zeros(part, ncols=4)
        for p in range(3):
            assert v.parts[p].shape == (part.size(p), 4)
        assert ParVector.zeros(part).parts[0].ndim == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCLI:
    def test_solve_rhs_flag(self, capsys):
        from repro.__main__ import main

        rc = main(["solve", "--problem", "lap2d", "--size", "16", "--rhs", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "k=3 right-hand sides" in out
        assert "per RHS" in out

    def test_solve_rhs_rejects_nonpositive(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["solve", "--problem", "lap2d", "--size", "16", "--rhs", "0"])
