"""The compiled distributed solve phase against the per-rank loops it replaced.

The solve phase runs every distributed kernel once over all ranks (stacked
operators, one backing array per vector, merged GS schedules) and logs from
frozen message batches and per-rank record tables.  The oracle here is *not*
that code: the ``ref_*`` functions below are the deleted per-rank loop
bodies of the halo exchange, ``dist_spmv``, the smoother's boundary term and
sweeps, the BLAS1 wrappers, the V-cycle and the coarse gather/scatter, kept
literally — ``comm.log_message`` per message, ``with comm.on_rank(p)`` per
rank, one 128-row kernel call per block.  Everything is compared bit for
bit: arrays with ``np.array_equal``, the message log, the collectives and
every rank's record stream with ``==``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dist.comm as comm_mod
import repro.dist.krylov as krylov_mod
import repro.dist.smoothers as smoothers_mod
import repro.dist.solver as solver_mod
import repro.dist.spmv as spmv_mod
import repro.perf.counters as counters_mod
from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    build_halo,
    dist_fgmres,
    dist_spmv,
    dist_vcycle,
)
from repro.amg.smoothers import HybridGSSmoother
from repro.dist.smoothers import DistSmoother
from repro.dist.solver import par_axpy, par_dot
from repro.faults.comm import CommFault, FaultyComm
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.perf.counters import VAL_BYTES, count, phase, silent
from repro.problems import laplace_3d_27pt
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv
from repro.topo import NodeTopology

# ---------------------------------------------------------------------------
# The per-rank reference: the loop bodies this PR deleted, on lists of parts
# ---------------------------------------------------------------------------


def ref_halo(comm, halo, parts):
    multi = parts[0].ndim == 2
    width = parts[0].shape[1] if multi else 1
    reliable = getattr(comm, "reliable_send", None)
    if reliable is not None:
        for (src, dst), n in halo.pattern.items():
            if src != dst:
                reliable(src, dst, n * width * VAL_BYTES, tag="halo",
                         persistent=halo.persistent)
    elif halo.node_aware:
        for tag, pat in halo._node_exchange.rounds:
            for (src, dst), n in pat.items():
                if src != dst:
                    comm.log_message(src, dst, n * width * 8.0,
                                     persistent=halo.persistent, tag=tag)
        for leader, elems in halo.node_plan.relay.items():
            with comm.on_rank(leader):
                count("halo.stage", bytes_read=elems * width * VAL_BYTES,
                      bytes_written=elems * width * VAL_BYTES)
    else:
        for (src, dst), n in halo.pattern.items():
            comm.log_message(src, dst, n * width * VAL_BYTES,
                             persistent=halo.persistent, tag="halo")
    ext = []
    for p in range(comm.nranks):
        pieces = [parts[q][ids] for q, ids in halo.recv_plan[p]]
        ext.append(np.concatenate(pieces) if pieces
                   else np.empty((0, width) if multi else 0))
        n = sum(len(ids) for _, ids in halo.recv_plan[p])
        with comm.on_rank(p):
            count("halo.pack_unpack", bytes_read=n * width * VAL_BYTES,
                  bytes_written=n * width * VAL_BYTES)
    return ext


def ref_spmv(comm, A, parts, halo, kernel="spmv"):
    ext = ref_halo(comm, halo, parts)
    out = []
    for p, blk in enumerate(A.blocks):
        with comm.on_rank(p):
            y = spmv(blk.diag, parts[p], kernel=kernel)
            if blk.offd.nnz:
                y += spmv(blk.offd, ext[p], kernel=kernel + ".offd")
        out.append(y)
    return out


def ref_local_smoothers(A, cf_parts=None, *, seed=0, **kw):
    """One ``HybridGSSmoother`` per rank on its ``diag`` block with the
    arguments the ``DistSmoother`` under test was given — the per-rank
    smoothers the old loop swept, built here and silently (the stacked
    side logged their set-up records when it built its own)."""
    with silent():
        return [HybridGSSmoother(blk.diag, cf_marker=None if cf_parts is None
                                 else cf_parts[p], seed=seed + p, **kw)
                for p, blk in enumerate(A.blocks)]


def ref_level_smoothers(h, lvl):
    """:func:`ref_local_smoothers` of a distributed hierarchy level, from
    the hierarchy's configuration."""
    cfg = h.config
    variant = {"hybrid_gs": "hybrid"}.get(cfg.smoother, cfg.smoother)
    return ref_local_smoothers(lvl.smoother.A, lvl.cf_parts,
                               nthreads=cfg.nthreads, variant=variant,
                               optimized=cfg.flags.three_way_partition,
                               seed=cfg.seed)


def ref_smooth(sm, local, x, b, *, forward, zero_guess=False):
    """Old ``DistSmoother.presmooth`` / ``postsmooth`` incl. ``_offd_rhs``,
    sweeping the per-rank smoothers *local* (:func:`ref_local_smoothers`)."""
    comm = sm.comm
    if zero_guess:
        rhs = [bp.copy() for bp in b]
    else:
        ext = ref_halo(comm, sm.halo, x)
        rhs = []
        for p, blk in enumerate(sm.A.blocks):
            with comm.on_rank(p):
                if blk.offd.nnz:
                    rhs.append(b[p] - spmv(blk.offd, ext[p], kernel="gs.offd"))
                    count("gs.offd_sub", flops=blk.nrows,
                          bytes_read=blk.nrows * VAL_BYTES,
                          bytes_written=blk.nrows * VAL_BYTES)
                else:
                    rhs.append(b[p].copy())
    for p in range(comm.nranks):
        with comm.on_rank(p):
            if forward:
                local[p].presmooth(x[p], rhs[p], zero_guess=zero_guess)
            else:
                local[p].postsmooth(x[p], rhs[p])
    return x


def ref_dot(comm, x, y):
    locals_ = []
    for p in range(comm.nranks):
        with comm.on_rank(p):
            n = len(x[p])
            count("blas1.dot", flops=2 * n, bytes_read=2 * n * VAL_BYTES)
        locals_.append(float(x[p] @ y[p]))
    return comm.allreduce(locals_)


def ref_axpy(comm, alpha, x, y):
    for p in range(comm.nranks):
        with comm.on_rank(p):
            n = len(x[p])
            y[p] += alpha * x[p]
            count("blas1.axpy", flops=2 * n, bytes_read=2 * n * VAL_BYTES,
                  bytes_written=n * VAL_BYTES)
    return y


def ref_vcycle(h, b, level=0):
    """Old ``dist_vcycle`` (kept-transpose arm) with the dense coarse solve."""
    comm = h.comm
    if level == h.num_levels - 1:
        cs = h.coarse_solver
        assert cs.direct
        with phase("Solve_etc"):
            for p in range(1, comm.nranks):
                comm.log_message(p, 0, len(b[p]) * VAL_BYTES, tag="coarse.b")
            x = cs.inv @ np.concatenate(b)
            with comm.on_rank(0):
                count("coarse.direct_solve", flops=2.0 * cs.n * cs.n,
                      bytes_read=cs.n * cs.n * VAL_BYTES)
            for p in range(1, comm.nranks):
                comm.log_message(0, p, len(b[p]) * VAL_BYTES, tag="coarse.x")
        return split(x, cs.A.row_part)
    lvl = h.levels[level]
    local = ref_level_smoothers(h, lvl)
    x = [np.zeros(len(bp)) for bp in b]
    with phase("GS"):
        ref_smooth(lvl.smoother, local, x, b, forward=True, zero_guess=True)
    with phase("SpMV"):
        Ax = ref_spmv(comm, lvl.A, x, lvl.halo, "spmv.residual")
        r = [bp - ap for bp, ap in zip(b, Ax)]
        for p in range(comm.nranks):
            with comm.on_rank(p):
                n = len(r[p])
                count("residual_sub", flops=n, bytes_read=2 * n * VAL_BYTES,
                      bytes_written=n * VAL_BYTES)
    with phase("SpMV"):
        rc = ref_spmv(comm, lvl.R, r, lvl.halo_R, "spmv.restrict")
    xc = ref_vcycle(h, rc, level + 1)
    with phase("SpMV"):
        corr = ref_spmv(comm, lvl.P, xc, lvl.halo_P, "spmv.interp")
    with phase("BLAS1"):
        ref_axpy(comm, 1.0, corr, x)
    with phase("GS"):
        ref_smooth(lvl.smoother, local, x, b, forward=False)
    return x


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def split(x, part):
    return [x[part.lo(p): part.hi(p)].copy() for p in range(part.nranks)]


def logs(comm):
    return ([(m.event, m.phase) for m in comm.messages],
            list(comm.collectives),
            [list(log.records) for log in comm.rank_logs])


def assert_same_logs(new, ref):
    for got, want, what in zip(logs(new), logs(ref),
                               ("messages", "collectives", "records")):
        assert got == want, what


def assert_parts_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def sym_matrix(n, seed, density=None):
    """Structurally symmetric, diagonally dominant, otherwise random."""
    rng = np.random.default_rng(seed)
    density = min(0.5, 6.0 / n) if density is None else density
    dense = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def check_stack(A, bounds, *, ppn=1, persistent=True, k=3, cf=None, seed=0,
                nthreads=2, comm_factory=SimComm):
    """Run every stacked kernel and its per-rank reference on twin
    communicators; compare outputs and complete logs.  Returns the stacked
    side's ``(comm, halo, smoother)`` for further assertions."""
    part = RowPartition(np.asarray(bounds, dtype=np.int64))
    nranks, n = part.nranks, part.n
    cf_parts = None if cf is None else split(np.asarray(cf), part)

    def build():
        comm = comm_factory(nranks)
        Ap = ParCSRMatrix.from_global(A, part)
        topo = NodeTopology(nranks, ppn) if ppn > 1 else None
        halo = build_halo(comm, Ap, persistent=persistent, topology=topo)
        sm = DistSmoother(comm, Ap, cf_parts, nthreads=nthreads,
                          persistent=persistent, topology=topo)
        return comm, Ap, halo, sm

    (comm, Ap, halo, sm), (rcomm, rAp, rhalo, rsm) = build(), build()
    local = ref_local_smoothers(rAp, cf_parts, nthreads=nthreads)
    rng = np.random.default_rng(seed)
    x, y, b = (rng.standard_normal(n) for _ in range(3))
    X = rng.standard_normal((n, k))

    # One exchange pattern under two phases and at two widths.
    for ph in ("SpMV", "GS"):
        for v in (x, X):
            with phase(ph):
                got = halo(ParVector.from_global(v, part))
                want = ref_halo(rcomm, rhalo, split(v, part))
            assert_parts_equal(got, want)
    for v in (x, X):
        with phase("SpMV"):
            got = dist_spmv(comm, Ap, ParVector.from_global(v, part), halo,
                            kernel="spmv.krylov")
            want = ref_spmv(rcomm, rAp, split(v, part), rhalo, "spmv.krylov")
        assert_parts_equal(got.parts, want)

    # Zero-guess pre-smoothing, then a warm pre- and a post-smoothing pass.
    xs, rxs = ParVector.zeros(part), split(np.zeros(n), part)
    bp = ParVector.from_global(b, part)
    for fwd, zg in ((True, True), (True, False), (False, False)):
        with phase("GS"):
            if fwd:
                sm.presmooth(xs, bp, zero_guess=zg)
            else:
                sm.postsmooth(xs, bp)
            ref_smooth(rsm, local, rxs, split(b, part), forward=fwd,
                       zero_guess=zg)
        assert_parts_equal(xs.parts, rxs)

    xp, yp = ParVector.from_global(x, part), ParVector.from_global(y, part)
    rx, ry = split(x, part), split(y, part)
    with phase("BLAS1"):
        assert par_dot(comm, xp, yp) == ref_dot(rcomm, rx, ry)
        par_axpy(comm, -0.75, xp, yp)
        ref_axpy(rcomm, -0.75, rx, ry)
    assert_parts_equal(yp.parts, ry)
    assert_same_logs(comm, rcomm)
    return comm, halo, sm


# ---------------------------------------------------------------------------
# Stacked kernels == per-rank loops
# ---------------------------------------------------------------------------


@st.composite
def stack_cases(draw):
    n = draw(st.integers(1, 400))
    nranks = draw(st.sampled_from([1, 2, 3, 5, 8]))
    # Non-uniform partitions, zero-row ranks included.
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=nranks - 1,
                                max_size=nranks - 1)))
    seed = draw(st.integers(0, 2**31 - 1))
    cf = None
    if draw(st.booleans()):
        cf = np.where(np.random.default_rng(seed).random(n) < 0.4, 1, -1)
    return dict(
        A=sym_matrix(n, seed), bounds=[0, *cuts, n],
        ppn=draw(st.sampled_from([1, 2, 4])), persistent=draw(st.booleans()),
        k=draw(st.sampled_from([1, 3])), cf=cf, seed=seed)


class TestStackedEqualsPerRank:
    @given(case=stack_cases())
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_operators_and_partitions(self, case):
        check_stack(**case)

    @pytest.mark.parametrize("persistent", [True, False])
    def test_rank_with_zero_rows(self, persistent):
        check_stack(sym_matrix(12, 1, 0.4), [0, 5, 5, 12],
                    persistent=persistent)

    def test_single_rank_has_empty_batch_and_gather(self):
        comm, halo, _ = check_stack(sym_matrix(9, 2, 0.4), [0, 9])
        assert len(comm.messages) == 0 and len(halo._gather) == 0

    def test_no_rank_has_offdiagonal_entries(self):
        A = CSRMatrix.from_dense(np.diag(np.arange(1.0, 11.0)))
        comm, _, sm = check_stack(A, [0, 3, 6, 10], ppn=2)
        assert len(comm.messages) == 0
        assert all(b.offd.nnz == 0 for b in sm.A.blocks)

    def test_colmap_empty_on_most_ranks(self):
        # A coarse-level shape: only ranks 1 and 2 couple, everybody else
        # is block-diagonal (empty colmap, no gs.offd / .offd records).
        dense = sym_matrix(40, 3, 0.3).to_dense()
        bounds = [0, 8, 16, 24, 32, 40]
        mask = np.zeros_like(dense, dtype=bool)
        for lo, hi in zip(bounds, bounds[1:]):
            mask[lo:hi, lo:hi] = True
        mask[8:16, 16:24] = mask[16:24, 8:16] = True
        _, _, sm = check_stack(CSRMatrix.from_dense(dense * mask), bounds,
                               ppn=2)
        assert [len(b.colmap) > 0 for b in sm.A.blocks] == [
            False, True, True, False, False]

    def test_first_cf_group_empty_on_one_rank(self):
        # Rank 1 has no C rows: its zero-guess record moves to the F sweep.
        cf = np.where(np.arange(30) % 3 == 0, 1, -1)
        cf[10:20] = -1
        _, _, sm = check_stack(sym_matrix(30, 4, 0.25), [0, 10, 20, 30],
                               cf=cf)
        local = ref_local_smoothers(sm.A, split(cf, sm.A.row_part), nthreads=2)
        assert local[1]._schedules[(0, True)].nrows == 0

    def test_node_aware_aggregated_arm(self):
        # Dense coupling between 8 small ranks: the 3-step plan wins.
        _, halo, _ = check_stack(sym_matrix(64, 5, 0.6), range(0, 65, 8),
                                 ppn=4)
        assert halo.node_aware

    @pytest.mark.parametrize("variant", ["lex", "multicolor", "jacobi"])
    def test_other_smoother_variants(self, variant):
        A = sym_matrix(36, 6, 0.2)
        part = RowPartition.uniform(36, 3)
        pair = []
        for _ in range(2):
            comm = SimComm(3)
            sm = DistSmoother(comm, ParCSRMatrix.from_global(A, part), None,
                              nthreads=2, variant=variant)
            pair.append((comm, sm))
        (comm, sm), (rcomm, rsm) = pair
        local = ref_local_smoothers(rsm.A, nthreads=2, variant=variant)
        b = np.random.default_rng(7).standard_normal(36)
        xs, rxs = ParVector.zeros(part), split(np.zeros(36), part)
        for fwd, zg in ((True, True), (True, False), (False, False)):
            if fwd:
                sm.presmooth(xs, ParVector.from_global(b, part), zero_guess=zg)
            else:
                sm.postsmooth(xs, ParVector.from_global(b, part))
            ref_smooth(rsm, local, rxs, split(b, part), forward=fwd,
                       zero_guess=zg)
            assert_parts_equal(xs.parts, rxs)
        assert_same_logs(comm, rcomm)


# ---------------------------------------------------------------------------
# Whole V-cycles, and a desparsified hierarchy
# ---------------------------------------------------------------------------


def twin_hierarchies(cfg, *, nranks=4, size=8, ppn=2):
    A = laplace_3d_27pt(size)
    part = RowPartition.uniform(A.nrows, nranks)
    out = []
    for _ in range(2):
        comm = SimComm(nranks)
        s = DistAMGSolver(comm, cfg, topology=NodeTopology(nranks, ppn))
        s.setup(ParCSRMatrix.from_global(A, part))
        out.append(s)
    return A, part, out


class TestVCycle:
    @pytest.mark.parametrize("persistent", [True, False])
    def test_vcycle_equals_per_rank_reference(self, persistent):
        cfg = multi_node_config("ei", nthreads=4)
        cfg = replace(cfg, flags=replace(cfg.flags, persistent_comm=persistent))
        A, part, (s, rs) = twin_hierarchies(cfg)
        r = np.random.default_rng(1).standard_normal(A.nrows)
        for _ in range(2):  # cold tables, then warm ones
            got = dist_vcycle(s.hierarchy, ParVector.from_global(r, part))
            want = ref_vcycle(rs.hierarchy, split(r, part))
            assert_parts_equal(got.parts, want)
        assert_same_logs(s.comm, rs.comm)


#: ``desparsify_case()`` at the parent of the PR that stacked the ranks
#: (platform-independent content only; the iterate is checked against the
#: per-rank reference below).
DESPARSIFY_AT_PARENT = {
    "iterations": 11,
    "events": [("sparsify_fallback", "iteration budget at iteration 3")],
    "messages": (1095, "1bc34d4c873cc9d6"),
    "records": ([574, 528, 566, 524], "33a39ce6dc0a0776"),
}

SPARSIFY_CFG = replace(multi_node_config("ei", nthreads=4), sparsify_tol=0.3,
                       sparsify_fallback_iters=3)


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def desparsify_case():
    """A sparsified hierarchy whose solve trips the iteration-budget
    guardrail: ``DistAMGSolver.solve`` desparsifies mid-solve."""
    A = laplace_3d_27pt(10)
    part = RowPartition.uniform(A.nrows, 4)
    comm = SimComm(4)
    s = DistAMGSolver(comm, SPARSIFY_CFG, topology=NodeTopology(4, 2))
    s.setup(ParCSRMatrix.from_global(A, part))
    assert s.hierarchy.sparsified
    b = np.random.default_rng(5).standard_normal(A.nrows)
    res = s.solve(ParVector.from_global(b, part), tol=1e-8)
    assert res.converged and not s.hierarchy.sparsified
    streams = [[(r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
                 r.branches, r.mispredicts, r.parallel, r.level)
                for r in log.records] for log in comm.rank_logs]
    return {
        "iterations": res.iterations,
        "events": [(e.kind, e.detail) for e in res.fault_events],
        "messages": (len(comm.messages),
                     _sha([(m.event, m.phase) for m in comm.messages])),
        "records": ([len(s) for s in streams], _sha(streams)),
    }


class TestDesparsify:
    def test_solve_logs_what_it_logged_before_stacking(self):
        assert desparsify_case() == DESPARSIFY_AT_PARENT

    def test_desparsified_levels_run_on_the_full_operators(self):
        A, part, (s, rs) = twin_hierarchies(SPARSIFY_CFG, size=10)
        r = np.random.default_rng(2).standard_normal(A.nrows)
        sparse_out = dist_vcycle(s.hierarchy, ParVector.from_global(r, part))
        ref_vcycle(rs.hierarchy, split(r, part))
        assert s.hierarchy.desparsify() and rs.hierarchy.desparsify()
        for lvl in s.hierarchy.levels[:-1]:
            assert lvl.smoother.A is lvl.A and lvl.A_full is None
        got = dist_vcycle(s.hierarchy, ParVector.from_global(r, part))
        want = ref_vcycle(rs.hierarchy, split(r, part))
        assert_parts_equal(got.parts, want)
        assert not np.array_equal(got.to_global(), sparse_out.to_global())
        assert_same_logs(s.comm, rs.comm)


# ---------------------------------------------------------------------------
# Aliased log entries are frozen
# ---------------------------------------------------------------------------


class TestFrozenLog:
    def test_logged_message_is_immutable(self):
        comm = SimComm(2)
        comm.log_message(0, 1, 64, tag="halo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            comm.messages[0].phase = "GS"
        with pytest.raises(dataclasses.FrozenInstanceError):
            comm.messages[0].event.nbytes = 0

    def test_log_batch_takes_only_tuples(self):
        comm = SimComm(2)
        batch = comm_mod.frozen_messages({(0, 1): 4, (1, 1): 9}, 8.0, tag="t")
        assert [m.event.nbytes for m in batch] == [32]  # self-send skipped
        with pytest.raises(TypeError):
            comm.log_batch(list(batch))
        comm.log_batch(batch)
        assert comm.messages == list(batch)

    @pytest.mark.parametrize("persistent", [True, False])
    @pytest.mark.parametrize("ppn", [1, 4])
    def test_clear_logs_then_exchange_relogs_the_same_batch(self, persistent,
                                                            ppn):
        A = sym_matrix(64, 5, 0.6)
        part = RowPartition.uniform(64, 8)
        comm = SimComm(8)
        halo = build_halo(comm, ParCSRMatrix.from_global(A, part),
                          persistent=persistent,
                          topology=NodeTopology(8, ppn) if ppn > 1 else None)
        x = ParVector.from_global(np.arange(64.0), part)
        halo(x)
        first, recs = list(comm.messages), logs(comm)[2]
        assert first
        comm.clear_logs()
        assert not comm.messages
        halo(x)
        assert len(comm.messages) == len(first)
        assert all(a is b for a, b in zip(comm.messages, first))
        assert logs(comm)[2] == recs


# ---------------------------------------------------------------------------
# Faults still decide per message
# ---------------------------------------------------------------------------


#: sha256 of the ``fault_events`` of ``test_checkpoint_rollback_events_and_
#: iterate``'s solve at the parent of the rank-stacking PR.
FAULT_EVENTS_AT_PARENT = "198f9a4ea944d24c"


@pytest.mark.faults
class TestFaultsPerMessage:
    def test_reliable_arm_with_random_drops(self):
        check_stack(sym_matrix(48, 9, 0.3), [0, 10, 24, 30, 48], ppn=2,
                    comm_factory=lambda n: FaultyComm(
                        n, FaultPlan(seed=3, drop_prob=0.2)))

    def test_exhausted_retries_abort_after_the_same_prefix(self):
        """Rank 2 dies after four clean deliveries: the first later message
        touching it burns its retries and the exchange raises — same sends,
        acks and retries as the per-message loop, nothing gathered."""
        A = sym_matrix(40, 8, 0.5)
        part = RowPartition.uniform(40, 4)
        plan = FaultPlan(seed=1, rank_failures=[(2, 5, 500)],
                         retry=RetryPolicy(max_retries=2))
        comm, rcomm = FaultyComm(4, plan), FaultyComm(4, plan)
        halo = build_halo(comm, ParCSRMatrix.from_global(A, part),
                          persistent=True, topology=NodeTopology(4, 2))
        x = ParVector.from_global(np.ones(40), part)
        with pytest.raises(CommFault) as got:
            halo(x)
        with pytest.raises(CommFault) as want:
            for (src, dst), n in halo.pattern.items():
                rcomm.reliable_send(src, dst, n * VAL_BYTES, tag="halo",
                                    persistent=True)
        assert type(got.value) is type(want.value)
        assert (got.value.src, got.value.dst, got.value.seq) == (
            want.value.src, want.value.dst, want.value.seq)
        tags = [m.event.tag for m in comm.messages]
        assert tags.count("halo.retry") == 2 and tags.count("halo.ack") >= 4
        assert comm.events == rcomm.events
        assert_same_logs(comm, rcomm)
        # Raised before any rank's data was gathered or packed.
        assert all(len(log.records) == 0 for log in comm.rank_logs)

    def test_checkpoint_rollback_events_and_iterate(self):
        """A lossy link forces checkpoint restarts; the solve still lands on
        the fault-free iterate, with the fault history of the per-message
        protocol (pinned at the parent of the rank-stacking PR)."""
        A = laplace_3d_27pt(8)
        part = RowPartition.uniform(A.nrows, 4)
        b = ParVector.from_global(
            np.random.default_rng(3).standard_normal(A.nrows), part)
        results = []
        for comm in (FaultyComm(4, FaultPlan(seed=11, drop_prob=0.45)),
                     SimComm(4)):
            s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4),
                              topology=NodeTopology(4, 2))
            s.setup(ParCSRMatrix.from_global(A, part))
            results.append(s.solve(b, tol=1e-8))
        faulty, clean = results
        assert faulty.converged and not faulty.degraded
        assert faulty.iterations == clean.iterations == 11
        assert np.array_equal(faulty.x.to_global(), clean.x.to_global())
        kinds = [e.kind for e in faulty.fault_events]
        assert (kinds.count("drop"), kinds.count("delivered_after_retry"),
                kinds.count("checkpoint_restart")) == (458, 237, 3)
        assert _sha([dataclasses.astuple(e) for e in faulty.fault_events]) \
            == FAULT_EVENTS_AT_PARENT


# ---------------------------------------------------------------------------
# The per-rank Python is gone: exact call counts on the benchmark's shape
# ---------------------------------------------------------------------------


def build32():
    """The benchmark's distributed workload: 32 ranks, 4 per node."""
    A = laplace_3d_27pt(16)
    part = RowPartition.uniform(A.nrows, 32)
    comm = SimComm(32)
    Ap = ParCSRMatrix.from_global(A, part)
    topo = NodeTopology(32, 4)
    s = DistAMGSolver(comm, multi_node_config("ei"), topology=topo,
                      net=topo.network())
    s.setup(Ap)
    b = ParVector.from_global(
        np.random.default_rng(0).standard_normal(A.nrows), part)
    return comm, Ap, s, b


@pytest.fixture(scope="module")
def warm32():
    return build32()


#: ``_sha`` of the message and record streams of one ``dist_fgmres`` on
#: ``build32()``'s hierarchy (9,908 messages), at the parent of the segment
#: logs.
SOLVE_STREAM_AT_PARENT = "bf832139f9a6ef18"


def solve_stream(comm, marks=(0, None)) -> str:
    """``_sha`` of everything logged since *marks* (message count, record
    count per rank)."""
    m0, r0 = marks
    return _sha(([(m.event, m.phase) for m in comm.messages[m0:]],
                 [log.records[a:] for log, a in
                  zip(comm.rank_logs, r0 or [0] * comm.nranks)]))


def log_marks(comm):
    return len(comm.messages), [len(log.records) for log in comm.rank_logs]


#: What building a log entry calls: a read builds them, a solve must not.
BUILDS = ("MessageEvent", "LoggedMessage", "KernelRecord", "replace",
          "dataclasses.replace", "flush")


class TestNoPerRankPython:
    @staticmethod
    def counting(monkeypatch) -> dict:
        calls = {}

        def wrap(name, owner, attr):
            fn = getattr(owner, attr)
            calls.setdefault(name, 0)

            def counted(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)

            monkeypatch.setattr(owner, attr, counted)

        wrap("log_message", SimComm, "log_message")
        wrap("on_rank", SimComm, "on_rank")
        wrap("MessageEvent", comm_mod, "MessageEvent")
        wrap("LoggedMessage", comm_mod, "_LoggedMessage")
        wrap("KernelRecord", counters_mod, "KernelRecord")
        wrap("replace", counters_mod, "replace")
        wrap("dataclasses.replace", dataclasses, "replace")
        wrap("spmv", spmv_mod, "spmv")
        wrap("gs.spmv", smoothers_mod, "spmv")
        wrap("dist_spmv", solver_mod, "dist_spmv")  # the V-cycle's
        wrap("dist_spmv", krylov_mod, "dist_spmv")  # the Krylov driver's
        wrap("offd_rhs", DistSmoother, "_offd_rhs")
        wrap("flush", SimComm, "_flush")
        return calls

    def solve_counted(self, monkeypatch, warm32, **kw):
        comm, Ap, s, b = warm32
        calls = self.counting(monkeypatch)
        comm.clear_logs()
        res = dist_fgmres(comm, Ap, b, precondition=s.precondition, tol=1e-7,
                          **kw)
        return res, calls

    def assert_read_once(self, comm, calls, marks=(0, None)):
        """A read builds the parent's stream; a second read builds nothing."""
        assert solve_stream(comm, marks) == SOLVE_STREAM_AT_PARENT
        assert calls["flush"] == 1
        built = {name: calls[name] for name in BUILDS}
        assert solve_stream(comm, marks) == SOLVE_STREAM_AT_PARENT
        assert {name: calls[name] for name in BUILDS} == built

    def test_first_solve_builds_no_log_entries(self, monkeypatch):
        # The first solve on a freshly set-up hierarchy appends its
        # messages and records as segments: nothing is built, retagged or
        # handed out until a read, and len() reads the pending count.
        comm, Ap, s, b = build32()
        marks = log_marks(comm)
        calls = self.counting(monkeypatch)
        res = dist_fgmres(comm, Ap, b, precondition=s.precondition, tol=1e-7)
        assert res.iterations == 6
        assert log_marks(comm)[0] == marks[0] + 9908
        for name in BUILDS + ("log_message", "on_rank"):
            assert calls[name] == 0, name
        self.assert_read_once(comm, calls, marks)

    def test_second_solve_on_the_hierarchys_halo(self, monkeypatch, warm32):
        comm, Ap, s, b = warm32
        halo = s.hierarchy.levels[0].halo
        comm.clear_logs()
        first = dist_fgmres(comm, Ap, b, precondition=s.precondition,
                            tol=1e-7, halo=halo)
        sizes = log_marks(comm)
        comm.clear_logs()
        res, calls = self.solve_counted(monkeypatch, warm32, halo=halo)
        assert res.iterations == first.iterations == 6
        assert np.array_equal(res.x.to_global(), first.x.to_global())
        assert sizes == log_marks(comm)
        # Nothing reads the logs during a solve, and len() builds nothing:
        # the messages and rows stay in their segments.
        for name in BUILDS + ("log_message", "on_rank"):
            assert calls[name] == 0, name
        self.assert_read_once(comm, calls)
        # Two stacked SpMVs per product, one per boundary term (the
        # zero-guess pre-smoothing passes skip theirs).
        assert calls["spmv"] == 2 * calls["dist_spmv"] > 0
        assert 0 < calls["gs.spmv"] <= calls["offd_rhs"]

    def test_default_halo_freezes_one_batch_per_solve(self, monkeypatch,
                                                      warm32):
        # halo=None solves on the operator's one Krylov halo, built on the
        # first such solve: its single batch and pack table are frozen then,
        # as columns, and a later solve freezes nothing.
        comm, Ap, s, b = warm32
        assert Ap not in comm.krylov_halos
        res, calls = self.solve_counted(monkeypatch, warm32)
        assert res.iterations == 6
        for name in BUILDS + ("log_message", "on_rank"):
            assert calls[name] == 0, name
        assert len(comm.messages) == 9908
        assert list(comm.krylov_halos[Ap]._wire._batches) == [1]
        self.assert_read_once(comm, calls)
        requests = len(comm.persistent_requests)
        res, calls = self.solve_counted(monkeypatch, warm32)
        assert res.iterations == 6
        for name in BUILDS:
            assert calls[name] == 0, name
        assert len(comm.persistent_requests) == requests
        assert len(comm.messages) == 9908
