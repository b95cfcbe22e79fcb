"""Unit tests for the SpGEMM kernels (§3.1.1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.perf import collect
from repro.sparse import (
    CSRMatrix,
    SpAddPlan,
    expansion_size,
    permute_rows,
    sp_add,
    sp_add_numeric,
    spgemm,
    spgemm_gustavson,
    spgemm_numeric,
    spgemm_symbolic,
)
from repro.sparse.spgemm import spgemm_traffic

from conftest import assert_csr_equal, random_csr


class TestSpGEMM:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        A = random_csr(25, 18, density=0.15, seed=seed)
        B = random_csr(18, 22, density=0.15, seed=seed + 100)
        assert_csr_equal(spgemm(A, B), A.to_scipy() @ B.to_scipy())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spgemm(CSRMatrix.identity(3), CSRMatrix.identity(4))

    def test_empty_result(self):
        A = CSRMatrix.zeros((4, 5))
        B = random_csr(5, 3, seed=1)
        C = spgemm(A, B)
        assert C.nnz == 0 and C.shape == (4, 3)

    def test_identity_neutral(self):
        A = random_csr(9, 9, seed=2)
        assert spgemm(CSRMatrix.identity(9), A).allclose(A)
        assert spgemm(A, CSRMatrix.identity(9)).allclose(A)

    def test_result_has_sorted_unique_columns(self):
        A = random_csr(12, 12, density=0.3, seed=3)
        C = spgemm(A, A)
        assert C.has_sorted_indices()

    def test_one_pass_vs_two_pass_same_values(self):
        A = random_csr(15, 15, seed=4)
        assert spgemm(A, A, method="one_pass").allclose(
            spgemm(A, A, method="two_pass")
        )

    def test_unknown_method_rejected(self):
        A = random_csr(4, 4, seed=5)
        with pytest.raises(ValueError):
            spgemm_traffic(A.nnz, A.nrows, 4, A.nnz, "bogus")


class TestTrafficModel:
    def test_two_pass_branches_twice(self):
        A = random_csr(30, 30, density=0.2, seed=6)
        with collect() as one:
            spgemm(A, A, method="one_pass")
        with collect() as two:
            spgemm(A, A, method="two_pass")
        assert two.total("branches") == pytest.approx(2 * one.total("branches"))

    def test_one_pass_wins_when_output_smaller(self, lap3d27_small):
        """§3.1.1: saving one input read beats the output copy when the
        output matrix is a couple of times smaller than the inputs — the
        AMG coarse-operator regime."""
        from repro.amg import extended_i_interpolation, pmis, strength_matrix
        from repro.sparse import transpose

        A = lap3d27_small
        S = strength_matrix(A, 0.25, 0.8)
        cf = pmis(S, seed=1, nthreads=4)
        P = extended_i_interpolation(A, S, cf)
        R = transpose(P)
        with collect() as one:
            spgemm(R, A, method="one_pass")
        with collect() as two:
            spgemm(R, A, method="two_pass")
        assert one.total("bytes_total") < two.total("bytes_total")

    def test_one_pass_writes_output_twice(self):
        A = random_csr(30, 30, density=0.2, seed=7)
        with collect() as one:
            spgemm(A, A, method="one_pass")
        with collect() as two:
            spgemm(A, A, method="two_pass")
        assert one.total("bytes_written") > two.total("bytes_written")

    def test_flops_equal_twice_expansion(self):
        A = random_csr(20, 20, seed=8)
        with collect() as log:
            spgemm(A, A)
        assert log.total("flops") == 2 * expansion_size(A, A)


class TestGustavsonReference:
    @pytest.mark.parametrize("preallocate", [True, False])
    def test_matches_vectorized(self, preallocate):
        A = random_csr(15, 12, density=0.25, seed=9)
        B = random_csr(12, 10, density=0.25, seed=10)
        C = spgemm_gustavson(A, B, preallocate=preallocate)
        assert C.allclose(spgemm(A, B))

    def test_counts_branches(self):
        A = random_csr(10, 10, density=0.3, seed=11)
        with collect() as log:
            spgemm_gustavson(A, A)
        assert log.total("branches") >= expansion_size(A, A)


class TestPatternReuse:
    def test_numeric_matches_full(self):
        A = random_csr(20, 20, density=0.2, seed=12)
        B = random_csr(20, 20, density=0.2, seed=13)
        plan = spgemm_symbolic(A, B)
        C = spgemm_numeric(plan, A, B)
        assert C.allclose(spgemm(A, B))

    def test_numeric_reuse_with_new_values(self):
        A = random_csr(20, 20, density=0.2, seed=14)
        plan = spgemm_symbolic(A, A)
        A2 = CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(), A.data * 3.0)
        C = spgemm_numeric(plan, A2, A2)
        assert C.allclose(spgemm(A2, A2))

    def test_numeric_has_no_branches(self):
        A = random_csr(20, 20, seed=15)
        plan = spgemm_symbolic(A, A)
        with collect() as log:
            spgemm_numeric(plan, A, A)
        assert log.total("branches") == 0

    def test_empty_plan(self):
        A = CSRMatrix.zeros((5, 5))
        plan = spgemm_symbolic(A, A)
        C = spgemm_numeric(plan, A, A)
        assert C.nnz == 0


class TestSpAdd:
    def test_matches_scipy(self):
        A = random_csr(10, 12, seed=16)
        B = random_csr(10, 12, seed=17)
        assert_csr_equal(
            sp_add(A, B, 2.0, -0.5),
            (2.0 * A.to_scipy() - 0.5 * B.to_scipy()),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sp_add(CSRMatrix.identity(3), CSRMatrix.identity(4))

    def test_cancellation_keeps_explicit_zero(self):
        A = CSRMatrix.from_coo((1, 1), [0], [0], [1.0])
        C = sp_add(A, A, 1.0, -1.0)
        np.testing.assert_allclose(C.to_dense(), [[0.0]])


# ---------------------------------------------------------------------------
# Plans as a by-product: spgemm / sp_add (..., return_plan=True)
# ---------------------------------------------------------------------------

PLAN = dict(deadline=None, max_examples=60,
            suppress_health_check=[HealthCheck.too_slow])


def _random_pattern(rng, nrows, ncols, density):
    dense = (rng.random((nrows, ncols)) < density) * rng.standard_normal((nrows, ncols))
    return CSRMatrix.from_dense(dense)


def _revalued(M: CSRMatrix, kind: str, rng) -> CSRMatrix:
    """Same pattern, new values: the updates a plan must survive."""
    if kind == "jitter":
        data = M.data * (1.0 + 0.3 * rng.standard_normal(M.nnz))
    elif kind == "sign":
        data = M.data * rng.choice([-1.0, 1.0], M.nnz)
    else:  # explicit zeros stay stored entries
        data = np.where(rng.random(M.nnz) < 0.4, 0.0, M.data)
    return CSRMatrix(M.shape, M.indptr.copy(), M.indices.copy(), data)


def _same_bits(X: CSRMatrix, Y: CSRMatrix) -> None:
    assert X.shape == Y.shape
    np.testing.assert_array_equal(X.indptr, Y.indptr)
    np.testing.assert_array_equal(X.indices, Y.indices)
    assert X.data.tobytes() == Y.data.tobytes()


def _assert_frozen(*arrays) -> None:
    for a in arrays:
        assert a.dtype == np.int32 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0


@st.composite
def products(draw):
    """Rectangular ``(A, B)`` with matching inner dimension; density 0
    (an empty operand, hence an empty product) included."""
    n, k, m = (draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    da, db = (draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])) for _ in range(2))
    return _random_pattern(rng, n, k, da), _random_pattern(rng, k, m, db), rng


KINDS = st.sampled_from(["jitter", "sign", "zero"])


class TestPlanByProduct:
    @given(products(), KINDS)
    @settings(**PLAN)
    def test_spgemm_return_plan(self, abr, kind):
        A, B, rng = abr
        with collect() as plain:
            C = spgemm(A, B, kernel="k", method="two_pass")
        with collect() as planned:
            C2, plan = spgemm(A, B, kernel="k", method="two_pass", return_plan=True)
        _same_bits(C, C2)
        assert plain.records == planned.records
        sym = spgemm_symbolic(A, B)
        np.testing.assert_array_equal(plan.indptr, sym.indptr)
        np.testing.assert_array_equal(plan.indices, sym.indices)
        for name in ("term_b", "term_slot", "a_counts"):
            np.testing.assert_array_equal(getattr(plan, name), getattr(sym, name))
        _assert_frozen(plan.term_b, plan.term_slot, plan.a_counts)
        assert plan.expansion == expansion_size(A, B) == len(plan.term_b)
        assert len(plan.term_slot) == plan.expansion == int(plan.a_counts.sum())
        assert len(plan.a_counts) == A.nnz
        A2, B2 = _revalued(A, kind, rng), _revalued(B, kind, rng)
        for p in (plan, sym):
            _same_bits(spgemm(A2, B2), spgemm_numeric(p, A2, B2))

    @given(products(), KINDS, st.sampled_from([(1.0, 1.0), (2.5, -0.75), (-1.0, 3.0)]))
    @settings(**PLAN)
    def test_sp_add_return_plan(self, abr, kind, scalars):
        A, _, rng = abr
        B = _random_pattern(rng, *A.shape, 0.3)
        alpha, beta = scalars
        with collect() as plain:
            C = sp_add(A, B, alpha, beta, kernel="k")
        with collect() as planned:
            C2, plan = sp_add(A, B, alpha, beta, kernel="k", return_plan=True)
        _same_bits(C, C2)
        assert plain.records == planned.records
        cap = SpAddPlan.capture(A, B)
        for name in ("indptr", "indices", "slot_a", "slot_b"):
            np.testing.assert_array_equal(getattr(plan, name), getattr(cap, name))
        _assert_frozen(plan.slot_a, plan.slot_b)
        A2, B2 = _revalued(A, kind, rng), _revalued(B, kind, rng)
        for p in (plan, cap):
            _same_bits(sp_add(A2, B2, alpha, beta),
                       sp_add_numeric(p, A2, B2, alpha, beta))

    def test_planning_call_does_not_freeze_its_operands(self):
        A = random_csr(8, 8, density=0.4, seed=40)
        C, plan = spgemm(A, A, return_plan=True)
        S, _ = sp_add(A, C, return_plan=True)
        for M in (A, C, S):
            assert M.indptr.flags.writeable and M.indices.flags.writeable

    def test_numeric_output_does_not_alias_the_plan(self):
        A = random_csr(8, 8, density=0.4, seed=41)
        _, plan = spgemm(A, A, return_plan=True)
        C = spgemm_numeric(plan, A, A)
        assert not np.shares_memory(C.indices, plan.indices)
        assert not np.shares_memory(C.indptr, plan.indptr)


class TestPlanGuards:
    """A frozen plan names operand entries: foreign operands must raise,
    not index out of range or silently sum the wrong terms."""

    def _operands(self):
        A = random_csr(12, 12, density=0.3, seed=50)
        B = random_csr(12, 12, density=0.3, seed=51)
        return A, B

    def _foreign(self, A):
        """Same shape: another pattern, and a row permutation of *A* itself
        (same nnz, same expansion against a uniform ``B``)."""
        other = random_csr(*A.shape, density=0.45, seed=52)
        assert other.nnz != A.nnz
        perm = np.roll(np.arange(A.nrows), 1)
        permuted = permute_rows(A, perm)
        assert permuted.nnz == A.nnz and permuted.shape == A.shape
        assert not np.array_equal(permuted.indices, A.indices)
        return other, permuted

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_spgemm_numeric_rejects_foreign_pattern(self, which):
        A, B = self._operands()
        plan = spgemm_symbolic(A, B)
        for bad in self._foreign(A if which == "A" else B):
            ops = (bad, B) if which == "A" else (A, bad)
            with pytest.raises(ValueError, match="different operator pattern"):
                spgemm_numeric(plan, *ops)
        spgemm_numeric(plan, A, B)  # the plan itself is intact

    def test_spgemm_numeric_rejects_swapped_and_reshaped(self):
        A = random_csr(9, 6, density=0.3, seed=53)
        B = random_csr(6, 9, density=0.3, seed=54)
        plan = spgemm_symbolic(A, B)
        with pytest.raises(ValueError, match="different operator pattern"):
            spgemm_numeric(plan, B, A)
        wide = CSRMatrix((9, 7), A.indptr, A.indices, A.data)  # same arrays
        with pytest.raises(ValueError, match="different operator pattern"):
            spgemm_numeric(plan, wide, B)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_sp_add_numeric_rejects_foreign_pattern(self, which):
        A, B = self._operands()
        _, plan = sp_add(A, B, return_plan=True)
        for bad in self._foreign(A if which == "A" else B):
            ops = (bad, B) if which == "A" else (A, bad)
            with pytest.raises(ValueError, match="different operator pattern"):
                sp_add_numeric(plan, *ops)
