"""Property-based tests on smoothing, coloring, and interpolation."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amg import (
    block_of_rows,
    build_gs_schedule,
    extended_i_interpolation,
    greedy_coloring,
    gs_sweep,
    gs_sweep_reference,
    pmis,
    strength_matrix,
    truncate_interpolation,
)
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv

COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_spd(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * -rng.random((n, n))
    dense = dense + dense.T
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, -dense.sum(axis=1) + 0.5 + rng.random(n))
    return CSRMatrix.from_dense(dense)


class TestGSProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 20),
           nblocks=st.integers(1, 6), forward=st.booleans())
    @settings(**COMMON)
    def test_wavefront_equals_sequential(self, seed, n, nblocks, forward):
        """The wavefront-scheduled sweep must reproduce the literal
        sequential hybrid-GS sweep on any symmetric-pattern SPD matrix."""
        A = random_spd(n, seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        blk = block_of_rows(n, nblocks, A)
        x1 = rng.standard_normal(n)
        x2 = x1.copy()
        gs_sweep(A, x1, b, build_gs_schedule(A, blk, forward=forward))
        gs_sweep_reference(A, x2, b, blk, forward=forward)
        np.testing.assert_allclose(x1, x2, atol=1e-10)

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 20))
    @settings(**COMMON)
    def test_gs_is_a_contraction_for_spd(self, seed, n):
        """Symmetric GS sweeps must not increase the A-norm error on SPD
        systems (classical convergence theory)."""
        A = random_spd(n, seed)
        rng = np.random.default_rng(seed + 2)
        x_star = rng.standard_normal(n)
        b = spmv(A, x_star)
        x = np.zeros(n)
        blk = block_of_rows(n, 1, A)
        fs = build_gs_schedule(A, blk, forward=True)
        bs = build_gs_schedule(A, blk, forward=False)
        dense = A.to_dense()

        def a_norm(e):
            return float(e @ (dense @ e))

        e0 = a_norm(x - x_star)
        for _ in range(3):
            gs_sweep(A, x, b, fs)
            gs_sweep(A, x, b, bs)
        assert a_norm(x - x_star) <= e0 * (1 + 1e-10)


class TestColoringProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    @settings(**COMMON)
    def test_proper_coloring_on_random_graphs(self, seed, n):
        A = random_spd(n, seed, density=0.4)
        color = greedy_coloring(A, seed=seed)
        rid = A.row_ids()
        off = A.indices != rid
        assert not np.any(color[rid[off]] == color[A.indices[off]])
        # Colors are contiguous 0..max.
        assert set(np.unique(color)) == set(range(color.max() + 1))


class TestInterpolationProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(6, 20),
           theta=st.floats(0.15, 0.6))
    @settings(**COMMON)
    def test_extended_i_rows_bounded_and_c_identity(self, seed, n, theta):
        A = random_spd(n, seed)
        S = strength_matrix(A, theta)
        cf = pmis(S, seed=seed)
        if not (cf > 0).any():
            return
        P = extended_i_interpolation(A, S, cf, truncate=False)
        # C rows are exact unit vectors.
        c_idx = np.cumsum(cf > 0) - 1
        dense = P.to_dense()
        for i in np.flatnonzero(cf > 0):
            assert dense[i, c_idx[i]] == 1.0
            assert np.count_nonzero(dense[i]) == 1
        # Weights are finite.
        assert np.isfinite(P.data).all()

    @given(seed=st.integers(0, 10_000), n=st.integers(6, 20),
           tf=st.floats(0.05, 0.5), k=st.integers(1, 5))
    @settings(**COMMON)
    def test_truncation_idempotent(self, seed, n, tf, k):
        """Truncating twice with the same parameters changes nothing
        (after the first rescale the relative ordering is preserved)."""
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, 5)) < 0.7) * rng.random((n, 5))
        P = CSRMatrix.from_dense(dense)
        P1 = truncate_interpolation(P, tf, k)
        P2 = truncate_interpolation(P1, tf, k)
        np.testing.assert_allclose(P1.to_dense(), P2.to_dense(), atol=1e-12)
