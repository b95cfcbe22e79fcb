"""Per-column failure isolation in the blocked multi-RHS drivers.

A broken right-hand side (NaN entries, CG breakdown) must be frozen out of
the active block exactly like a converged one: flagged on its own result,
invisible to its siblings — whose iterates stay bit-identical to solo
solves.
"""

import numpy as np
import pytest

from repro import AMGSolver, single_node_config
from repro.krylov.cg import pcg, pcg_multi
from repro.krylov.gmres import fgmres, fgmres_multi
from repro.problems import laplace_2d_5pt
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def A():
    return laplace_2d_5pt(12)


@pytest.fixture(scope="module")
def B(A):
    rng = np.random.default_rng(0)
    return rng.standard_normal((A.nrows, 3))


def _with_nan_column(B, col=1):
    Bad = B.copy()
    Bad[0, col] = np.nan
    return Bad


class TestPCGMulti:
    def test_nan_column_frozen_siblings_identical(self, A, B):
        Bad = _with_nan_column(B)
        results = pcg_multi(A, Bad, tol=1e-9)
        assert not results[1].converged and results[1].degraded
        assert results[1].degraded_reason == "nonfinite initial residual"
        assert [e.kind for e in results[1].fault_events] == ["nonfinite"]
        assert results[1].iterations == 0
        for c in (0, 2):
            solo = pcg(A, B[:, c], tol=1e-9)
            assert results[c].converged and not results[c].degraded
            np.testing.assert_array_equal(results[c].x, solo.x)
            assert results[c].residuals == solo.residuals

    def test_breakdown_column_flagged(self):
        # Indefinite operator: CG's curvature p'Ap goes non-positive.
        A = CSRMatrix.from_dense(np.diag([1.0, 1.0, -1.0, 1.0]))
        B = np.eye(4)[:, 2:4] * 1.0
        results = pcg_multi(A, B, tol=1e-12)
        kinds = [e.kind for r in results for e in r.fault_events]
        assert "breakdown" in kinds
        assert any(r.degraded for r in results)
        # The driver terminated cleanly: every column has a result.
        assert len(results) == 2

    def test_breakdown_matches_scalar_driver(self):
        A = CSRMatrix.from_dense(np.diag([1.0, -2.0, 3.0]))
        b = np.array([0.5, 1.0, 0.25])
        solo = pcg(A, b, tol=1e-12)
        multi = pcg_multi(A, b[:, None], tol=1e-12)[0]
        assert solo.degraded == multi.degraded
        assert solo.converged == multi.converged
        np.testing.assert_array_equal(solo.x, multi.x)


class TestFGMRESMulti:
    def test_nan_column_frozen_siblings_identical(self, A, B):
        Bad = _with_nan_column(B)
        results = fgmres_multi(A, Bad, tol=1e-9)
        assert not results[1].converged and results[1].degraded
        assert results[1].degraded_reason == "nonfinite initial residual"
        for c in (0, 2):
            solo = fgmres(A, B[:, c], tol=1e-9)
            assert results[c].converged and not results[c].degraded
            assert results[c].iterations == solo.iterations
            assert results[c].residuals == solo.residuals
            assert results[c].x.tobytes() == solo.x.tobytes()

    def test_all_nan_block_terminates(self, A):
        Bad = np.full((A.nrows, 2), np.nan)
        results = fgmres_multi(A, Bad, tol=1e-9, maxiter=10)
        assert all(r.degraded and not r.converged for r in results)


class TestSolveMany:
    def test_nan_column_frozen_siblings_identical(self, A, B):
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        Bad = _with_nan_column(B)
        results = s.solve_many(Bad, tol=1e-9)
        assert not results[1].converged and results[1].degraded
        assert results[1].degraded_reason == \
            s.solve(Bad[:, 1], tol=1e-9).degraded_reason == \
            "nonfinite initial residual"
        assert results[1].iterations == 0
        for c in (0, 2):
            solo = s.solve(B[:, c], tol=1e-9)
            assert results[c].converged and not results[c].degraded
            np.testing.assert_array_equal(results[c].x, solo.x)
            assert results[c].residuals == solo.residuals

    def test_facade_rejects_nan_block_before_solving(self, A, B):
        import repro

        with pytest.raises(ValueError, match="column"):
            repro.solve_many(A, _with_nan_column(B))


def _pure_neumann(m):
    """5-point Laplacian with zero row sums: singular, so a right-hand side
    with a nonzero mean has no solution and the AMG iteration stalls."""
    L = laplace_2d_5pt(m).to_dense()
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return CSRMatrix.from_dense(L)


def _same_result(got, want):
    assert got.iterations == want.iterations
    # Bytes, not ==: a broken column's history ends in NaN.
    assert np.array(got.residuals).tobytes() == np.array(want.residuals).tobytes()
    assert got.fault_events == want.fault_events
    assert (got.converged, got.degraded) == (want.converged, want.degraded)
    assert got.degraded_reason == want.degraded_reason
    assert got.x.tobytes() == want.x.tobytes()
    assert type(got) is type(want)


def _krylov_case(A, B, case):
    """Operator, block and keywords of one column-vs-vector case."""
    if case == "clean":
        return A, B, {}
    if case == "nan-column":
        return A, _with_nan_column(B), {}
    if case == "maxiter":
        # Column 1 has three eigencomponents: unpreconditioned, it converges
        # in 3 iterations while its siblings run out of iterations.
        mixed = B.copy()
        mixed[:, 1] = np.linalg.eigh(A.to_dense())[1][:, [3, 50, 100]].sum(axis=1)
        return A, mixed, {"maxiter": 5}
    # Indefinite diagonal: CG's curvature p'Ap goes non-positive, except on
    # column 1, which has no component along the negative entries.
    d = np.arange(1.0, A.nrows + 1)
    d[::7] *= -1
    Bd = B.copy()
    Bd[::7, 1] = 0.0
    return CSRMatrix.from_dense(np.diag(d)), Bd, {}


@pytest.mark.parametrize("amg", [False, True], ids=["plain", "amg"])
@pytest.mark.parametrize("method,case", [
    (method, case) for method in ("pcg", "fgmres")
    for case in ("clean", "nan-column", "breakdown", "maxiter")
    if (method, case) != ("fgmres", "breakdown")  # no curvature test
])
def test_block_column_is_the_vector_solve(A, B, method, case, amg):
    """Every field of a blocked column's result is the solo solve's."""
    single, multi = {"pcg": (pcg, pcg_multi), "fgmres": (fgmres, fgmres_multi)}[method]
    op, block, kw = _krylov_case(A, B, case)
    M = None
    if amg:
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        M = s.precondition
    results = multi(op, block, precondition_multi=M, tol=1e-9, **kw)
    for j, r in enumerate(results):
        solo = single(op, block[:, j], precondition=M, tol=1e-9, **kw)
        _same_result(r, solo)
    kinds = [[e.kind for e in r.fault_events] for r in results]
    if case == "nan-column":
        assert kinds[1] == ["nonfinite"]
    if case == "breakdown":
        assert ["breakdown"] in kinds
    if case == "maxiter":
        assert any(not r.converged and not r.degraded for r in results)


def _stationary_case(A, B, case):
    """Operator, block and keywords of one stationary column-vs-vector
    case, and the guard verdicts its columns end on."""
    if case == "clean":
        return A, B, {}, [[], [], []]
    if case == "nan-column":
        return A, _with_nan_column(B), {}, [[], ["nonfinite"], []]
    if case == "inf-column":
        Bad = B.copy()
        Bad[3, 2] = np.inf
        return A, Bad, {}, [[], [], ["nonfinite"]]
    if case == "maxiter":
        # Column 1 is zero: it converges at the start, its siblings run
        # out of cycles.
        Bz = B.copy()
        Bz[:, 1] = 0.0
        return A, Bz, {"maxiter": 3}, [[], [], []]
    if case == "diverged":
        # Indefinite shift: the V-cycle iteration blows up.
        op = CSRMatrix.from_dense(laplace_2d_5pt(24).to_dense()
                                  - 0.5 * np.eye(576))
        Bd = np.random.default_rng(1).standard_normal((576, 3))
        Bd[:, 0] = 0.0
        return op, Bd, {}, [[], ["diverged"], ["diverged"]]
    # Pure Neumann with a nonzero-mean right-hand side: the columns stall,
    # each at its own cycle.
    op = _pure_neumann(16)
    return op, np.random.default_rng(0).standard_normal((256, 3)), {}, \
        [["stagnated"]] * 3


@pytest.mark.parametrize("case", ["clean", "nan-column", "inf-column",
                                  "maxiter", "diverged", "stagnated"])
def test_stationary_block_column_is_the_vector_solve(A, B, case):
    """``AMGSolver.solve_many``'s column *j* is ``solve(B[:, j])`` in every
    field, the texts of its verdicts included."""
    op, block, kw, kinds = _stationary_case(A, B, case)
    s = AMGSolver(single_node_config(nthreads=2))
    s.setup(op)
    results = s.solve_many(block, tol=1e-9, **kw)
    for j, r in enumerate(results):
        _same_result(r, s.solve(block[:, j], tol=1e-9, **kw))
    assert [[e.kind for e in r.fault_events] for r in results] == kinds
    for r in results:
        if r.degraded:
            assert not r.converged
            assert r.degraded_reason in (
                "nonfinite initial residual",
                f"{r.fault_events[-1].kind} at cycle {r.iterations}")
            assert r.fault_events[-1].detail in (
                "initial residual", f"cycle {r.iterations}")
    if case == "maxiter":
        assert [r.iterations for r in results] == [3, 0, 3]


class TestStagnationGuard:
    """``solve_many`` runs the same per-column guard as ``solve``."""

    @pytest.fixture(scope="class")
    def singular(self):
        A = _pure_neumann(16)
        B = np.random.default_rng(0).standard_normal((A.nrows, 2))
        return A, B

    def test_solve_many_stops_each_column_where_solve_does(self, singular):
        A, B = singular
        s = AMGSolver(single_node_config())
        s.setup(A)
        results = s.solve_many(B)
        for j, r in enumerate(results):
            solo = s.solve(B[:, j])
            assert [e.kind for e in solo.fault_events] == ["stagnated"]
            assert solo.iterations < 500
            _same_result(r, solo)

    def test_facade_falls_back_per_column(self, singular):
        import repro

        A, B = singular
        handle = repro.setup(A, cache=None)
        for method in ("amg", "cg"):  # stagnation; CG breakdown
            for j, r in enumerate(handle.solve_many(B, method=method)):
                solo = handle.solve(B[:, j], method=method)
                kinds = [e.kind for e in solo.fault_events]
                assert "degraded_fallback" in kinds
                _same_result(r, solo)


@pytest.mark.parametrize("method", ["amg", "cg", "fgmres"])
def test_zero_column_block_has_no_results(A, method):
    import repro

    handle = repro.setup(A, cache=None)
    assert handle.solve_many(np.zeros((A.nrows, 0)), method=method) == []
