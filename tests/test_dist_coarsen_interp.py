"""Distributed coarsening/interpolation vs. the sequential kernels (§4.2–4.3)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.amg import (
    aggressive_pmis,
    extended_i_interpolation,
    multipass_interpolation,
    pmis,
    random_measures,
    strength_matrix,
)
from repro.dist import (
    ParCSRMatrix,
    RowPartition,
    SimComm,
    dist_aggressive_pmis,
    dist_extended_i,
    dist_multipass,
    dist_pmis,
    dist_strength,
    dist_two_stage_ei,
)
from repro.problems import laplace_2d_5pt, laplace_3d_7pt, laplace_3d_27pt


def make_dist(A, nranks):
    part = RowPartition.uniform(A.nrows, nranks)
    comm = SimComm(nranks)
    Ap = ParCSRMatrix.from_global(A, part)
    return comm, Ap, part


def same_measures(A, part):
    m = random_measures(A.nrows, 11, 4, True)
    return m, [m[part.lo(p): part.hi(p)] for p in range(part.nranks)]


@pytest.fixture(params=[lambda: laplace_2d_5pt(14), lambda: laplace_3d_27pt(6)])
def problem(request):
    return request.param()


class TestDistStrength:
    def test_matches_sequential(self, problem):
        comm, Ap, _ = make_dist(problem, 4)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        Ss = strength_matrix(problem, 0.25, 0.8)
        assert Sd.to_global().allclose(Ss)

    def test_max_row_sum_respected(self, problem):
        comm, Ap, _ = make_dist(problem, 3)
        Sd = dist_strength(comm, Ap, 0.25, 0.5)
        Ss = strength_matrix(problem, 0.25, 0.5)
        assert Sd.to_global().allclose(Ss)


class TestDistPMIS:
    @pytest.mark.parametrize("nranks", [2, 5])
    def test_matches_sequential(self, problem, nranks):
        comm, Ap, part = make_dist(problem, nranks)
        m, mparts = same_measures(problem, part)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        Ss = strength_matrix(problem, 0.25, 0.8)
        cf_d = np.concatenate(dist_pmis(comm, Sd, measures=mparts))
        cf_s = pmis(Ss, measures=m)
        np.testing.assert_array_equal(cf_d, cf_s)

    @pytest.mark.parametrize("fractions", ["random", "tied"])
    def test_stored_diagonal_terminates(self, fractions):
        # A strength matrix that stores a diagonal entry: the 3-point path
        # with S[1, 1], and (every measure tied, so a round selects nobody
        # without the progress guarantee) the 2-point path.  Before the fix
        # the point's own measure entered its neighbour maximum and the
        # round loop never returned: run in a child with a timeout so that
        # a regression fails instead of hanging.
        code = textwrap.dedent(f"""
            import numpy as np
            from repro.amg import pmis
            from repro.dist import ParCSRMatrix, RowPartition, SimComm, dist_pmis
            from repro.sparse import CSRMatrix

            cases = [(CSRMatrix.from_dense(np.array(
                [[0, 1, 0], [1, 1, 1], [0, 1, 0]], float)), [-1, 1, -1]),
                     (CSRMatrix.from_dense(np.array([[0, 1], [1, 0]], float)),
                      [1, -1])]
            for S, want in cases:
                n = S.nrows
                m = (np.full(n, 0.5) if {fractions!r} == "tied"
                     else np.random.default_rng(4).random(n))
                node = pmis(S, measures=m).tolist()
                for nranks in sorted({{1, n}}):
                    part = RowPartition.uniform(n, nranks)
                    got = np.concatenate(dist_pmis(
                        SimComm(nranks), ParCSRMatrix.from_global(S, part),
                        measures=[m[part.lo(p):part.hi(p)] for p in range(nranks)]))
                    assert got.tolist() == node, (n, nranks, got, node)
                if n == 3 or {fractions!r} == "tied":
                    assert node == want, node
            print("ok")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr

    def test_aggressive_subset(self, problem):
        comm, Ap, part = make_dist(problem, 4)
        m, mparts = same_measures(problem, part)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        cff, cf1 = dist_aggressive_pmis(comm, Sd, measures=mparts)
        cff = np.concatenate(cff)
        cf1 = np.concatenate(cf1)
        assert np.all((cff != 1) | (cf1 == 1))
        assert 0 < (cff == 1).sum() < (cf1 == 1).sum()


class TestDistExtendedI:
    @pytest.mark.parametrize("filter_comm", [False, True])
    def test_matches_sequential(self, problem, filter_comm):
        comm, Ap, part = make_dist(problem, 4)
        m, mparts = same_measures(problem, part)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        Ss = strength_matrix(problem, 0.25, 0.8)
        cf_parts = dist_pmis(comm, Sd, measures=mparts)
        cf = np.concatenate(cf_parts)
        Pd, cp = dist_extended_i(comm, Ap, Sd, cf_parts, filter_comm=filter_comm)
        Ps = extended_i_interpolation(problem, Ss, cf)
        np.testing.assert_allclose(
            Pd.to_global().to_dense(), Ps.to_dense(), atol=1e-12
        )
        assert cp.n == int((cf > 0).sum())

    def test_filtering_reduces_volume(self):
        A = laplace_3d_27pt(7)
        results = {}
        for filt in (False, True):
            comm, Ap, part = make_dist(A, 4)
            m, mparts = same_measures(A, part)
            Sd = dist_strength(comm, Ap, 0.25, 0.8)
            cf_parts = dist_pmis(comm, Sd, measures=mparts)
            before = comm.comm_volume(tag="interp")
            dist_extended_i(comm, Ap, Sd, cf_parts, filter_comm=filt)
            results[filt] = comm.comm_volume(tag="interp") - before
        assert results[True] < 0.6 * results[False]


class TestDistMultipass:
    def test_matches_sequential(self):
        A = laplace_3d_7pt(6)
        comm, Ap, part = make_dist(A, 4)
        m, mparts = same_measures(A, part)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        Ss = strength_matrix(A, 0.25, 0.8)
        cff, _ = dist_aggressive_pmis(comm, Sd, measures=mparts)
        cf = np.concatenate(cff)
        Pd, _ = dist_multipass(comm, Ap, Sd, cff)
        Ps = multipass_interpolation(A, Ss, cf)
        np.testing.assert_allclose(
            Pd.to_global().to_dense(), Ps.to_dense(), atol=1e-10
        )


class TestDistTwoStage:
    def test_produces_valid_operator(self):
        A = laplace_3d_7pt(6)
        comm, Ap, part = make_dist(A, 4)
        m, mparts = same_measures(A, part)
        Sd = dist_strength(comm, Ap, 0.25, 0.8)
        cff, cf1 = dist_aggressive_pmis(comm, Sd, measures=mparts)
        P, cp = dist_two_stage_ei(comm, Ap, Sd, cff, cf1)
        nc = int(np.concatenate(cff).astype(np.int64).clip(0).sum())
        assert P.shape == (A.nrows, nc)
        G = P.to_global()
        # Most rows interpolate from something.
        assert (G.row_nnz() > 0).mean() > 0.9
