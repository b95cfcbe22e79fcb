"""Distributed AMG setup (§4): hierarchy construction over ParCSR.

Mirrors :mod:`repro.amg.setup` with the distributed kernels: distributed
strength, distributed (aggressive) PMIS, distributed extended+i / multipass
/ 2-stage interpolation with §4.2 renumbering and §4.3 comm filtering, and
the distributed Galerkin product.  Phase attribution matches Fig. 5/7.
Each level looks its distributed interpolation kernel up by the scheme
:func:`~repro.amg.interp.interp_scheme` gives it; classical and direct
interpolation have no distributed build and are refused before any work.
Every kernel on the way runs over the rank-stacked storage of
:class:`~repro.dist.parcsr.ParCSRMatrix` — the node-level extended+i and
the local SpGEMM product once per chunk of ranks, multipass, aggressive
PMIS, truncation and the GS schedules once over the whole stack — and
charges the ranks one way: a :class:`~repro.perf.counters.RecordTable` from
per-rank sizes, appended with
:meth:`~repro.dist.comm.SimComm.record_on_ranks`.  Only the Jacobi /
multicolour smoothers are still built per rank (a colouring is seeded by
its rank), silently (see docs/architecture.md, "Distributed set-up").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import check_dist_hierarchy, check_parcsr, checking
from ..analysis.sched import check_schedule
from ..amg.interp import EXTENDED_I, MULTIPASS, TWO_STAGE_EI, interp_scheme
from ..amg.smoothers import smoother_variant
from ..config import AMGConfig
from ..perf.counters import VAL_BYTES, RecordTable, make_record, phase
from .comm import MessageBatch, SimComm, frozen_messages
from .halo import HaloExchange, build_halo
from .interp import dist_extended_i, dist_multipass, dist_two_stage_ei
from .parcsr import ParCSRMatrix, ParVector
from .pmis import dist_aggressive_pmis, dist_pmis, dist_random_measures
from .smoothers import DistSmoother
from .sparsify import sparsify_parcsr
from .spgemm import dist_rap
from .strength import dist_strength

__all__ = ["DistLevel", "DistHierarchy", "dist_build_hierarchy"]


def _common(config: AMGConfig) -> dict:
    flags = config.flags
    return dict(trunc_fact=config.trunc_fact, max_elmts=config.max_elmts,
                fused_truncation=flags.fused_truncation,
                parallel_renumber=flags.parallel_renumber,
                nthreads=config.nthreads)


#: scheme -> ``(comm, A, S, cf, cf_stage1, config) -> (P, coarse_part)``
_DIST_INTERP = {
    EXTENDED_I: lambda comm, A, S, cf, cf1, config: dist_extended_i(
        comm, A, S, cf, reordered=config.flags.three_way_partition,
        filter_comm=config.flags.filter_interp_comm, **_common(config)),
    TWO_STAGE_EI: lambda comm, A, S, cf, cf1, config: dist_two_stage_ei(
        comm, A, S, cf, cf1, theta=config.strength_threshold,
        max_row_sum=config.max_row_sum,
        reordered=config.flags.three_way_partition,
        filter_comm=config.flags.filter_interp_comm, **_common(config)),
    MULTIPASS: lambda comm, A, S, cf, cf1, config: dist_multipass(
        comm, A, S, cf, **_common(config)),
}


def _dist_interp(config: AMGConfig, level: int):
    """The level's scheme and its distributed build (ValueError if none)."""
    scheme = interp_scheme(config, level)
    if scheme not in _DIST_INTERP:
        raise ValueError(f"no distributed build for {scheme.name!r} "
                         "interpolation; the distributed set-up runs "
                         + ", ".join(repr(s.name) for s in _DIST_INTERP))
    return scheme, _DIST_INTERP[scheme]


@dataclass
class DistLevel:
    A: ParCSRMatrix
    halo: HaloExchange | None = None
    cf_parts: list[np.ndarray] | None = None
    P: ParCSRMatrix | None = None
    halo_P: HaloExchange | None = None
    #: Kept restriction (``keep_transpose``); baseline recomputes it per
    #: restriction in the solve phase (§3.2).
    R: ParCSRMatrix | None = None
    halo_R: HaloExchange | None = None
    smoother: DistSmoother | None = None
    #: Full Galerkin operator kept while ``A`` is its sparsified form
    #: (``sparsify_tol``); the guardrail's fallback swaps it back.
    A_full: ParCSRMatrix | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]


class DistCoarseSolver:
    """Gather-to-root dense coarsest solve (messages logged)."""

    def __init__(self, comm: SimComm, A: ParCSRMatrix, *, dense_threshold: int,
                 nthreads: int) -> None:
        self.comm = comm
        self.A = A
        self.n = A.shape[0]
        self.direct = self.n <= dense_threshold
        if self.direct:
            # Gather the coarsest operator to rank 0 once, at setup.
            senders = np.arange(1, comm.nranks)
            comm.log_batch(MessageBatch(
                senders, np.zeros_like(senders),
                sum(A.rank_nnz())[1:] * 16, "coarse.gather"))
            dense = A.to_global().to_dense()
            with phase("Setup_etc"):
                comm.record_on_ranks(RecordTable([[make_record(
                    "coarse.factorize", flops=2.0 * self.n**3,
                    bytes_written=self.n * self.n * VAL_BYTES)]]))
            self.inv = np.linalg.pinv(dense)
            self.smoother = None
            # Each solve gathers b to the root and scatters x back; sizes
            # follow the row partition, so both batches (and the root's
            # dense-solve record) are frozen here, under solve()'s phase.
            sizes = [(p, A.row_part.size(p)) for p in range(1, comm.nranks)]
            with phase("Solve_etc"):
                self._gather = frozen_messages(
                    {(p, 0): n for p, n in sizes}, VAL_BYTES, tag="coarse.b")
                self._scatter = frozen_messages(
                    {(0, p): n for p, n in sizes}, VAL_BYTES, tag="coarse.x")
            self._solve_recs = RecordTable([[make_record(
                "coarse.direct_solve", flops=2.0 * self.n * self.n,
                bytes_read=self.n * self.n * VAL_BYTES)]])
        else:
            self.inv = None
            self.smoother = DistSmoother(
                comm, A, None, nthreads=nthreads, persistent=True
            )

    def solve(self, b: ParVector) -> ParVector:
        with phase("Solve_etc"):
            if self.direct:
                self.comm.log_batch(self._gather)
                x = self.inv @ b.array
                self.comm.record_on_ranks(self._solve_recs)
                self.comm.log_batch(self._scatter)
                return ParVector(x, b.part)
            x = ParVector.zeros(b.part)
            self.smoother.presmooth(x, b, zero_guess=True)
            for _ in range(3):
                self.smoother.presmooth(x, b)
                self.smoother.postsmooth(x, b)
            return x


@dataclass
class DistHierarchy:
    comm: SimComm
    levels: list[DistLevel]
    coarse_solver: DistCoarseSolver
    config: AMGConfig
    #: Node topology the halos were built against (None = flat).
    topology: object | None = None
    #: Network model used to price node-aware aggregation decisions.
    net: object | None = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    @property
    def sparsified(self) -> bool:
        """Whether any level currently runs on a sparsified operator."""
        return any(lvl.A_full is not None for lvl in self.levels)

    def desparsify(self) -> bool:
        """Revert every sparsified level to its full Galerkin operator.

        The guardrail's fallback path: swaps ``A_full`` back in and
        rebuilds the affected halos and smoothers.  The rebuilt exchanges
        are non-persistent — a fallback is a one-off mid-solve event, and
        re-freezing patterns would only recreate the setup cost the
        original persistent requests already paid.  Returns whether
        anything was reverted.
        """
        reverted = False
        config = self.config
        with phase("Resetup"):
            for lvl in self.levels:
                if lvl.A_full is None:
                    continue
                reverted = True
                lvl.A = lvl.A_full
                lvl.A_full = None
                lvl.halo = build_halo(
                    self.comm, lvl.A, persistent=False,
                    topology=self.topology, net=self.net)
                if lvl.smoother is not None:
                    lvl.smoother = DistSmoother(
                        self.comm, lvl.A, lvl.cf_parts,
                        nthreads=config.nthreads,
                        variant=smoother_variant(config.smoother, distributed=True),
                        optimized=config.flags.three_way_partition,
                        persistent=False,
                        seed=config.seed,
                        topology=self.topology,
                        net=self.net,
                    )
        return reverted


def dist_build_hierarchy(
    comm: SimComm, A0: ParCSRMatrix, config: AMGConfig | None = None,
    *, topology=None, net=None,
) -> DistHierarchy:
    """Build the distributed hierarchy.

    ``topology`` (a :class:`repro.topo.NodeTopology`) enables node-aware
    halo exchanges priced against ``net`` (default: the topology's two-tier
    model); with no topology the build is byte-identical to before the
    topology subsystem existed.
    """
    config = config or AMGConfig()
    if topology is not None and net is None:
        net = topology.network()
    flags = config.flags
    interps = [_dist_interp(config, l) for l in range(config.max_levels - 1)]
    levels: list[DistLevel] = [DistLevel(A=A0)]

    for l, (scheme, build_interp) in enumerate(interps):
        lvl = levels[l]
        A = lvl.A
        if A.shape[0] <= config.coarse_size:
            break

        with phase("Strength+Coarsen"):
            S = dist_strength(
                comm, A, config.strength_threshold, config.max_row_sum,
                parallel=flags.parallel_setup_kernels,
            )
            measures = dist_random_measures(comm, A.row_part, config.seed + l)
            if scheme.aggressive:
                cf, cf1 = dist_aggressive_pmis(comm, S, seed=config.seed + l,
                                               measures=measures)
            else:
                cf = dist_pmis(comm, S, seed=config.seed + l, measures=measures)
                cf1 = None
            if checking():
                check_parcsr(S, name=f"S[{l}]", level=l)
        nc = int(comm.allreduce([float((c > 0).sum()) for c in cf],
                                kind="setup.nc"))
        if nc == 0 or nc == A.shape[0]:
            break
        lvl.cf_parts = cf

        with phase("Interp"):
            P, _ = build_interp(comm, A, S, cf, cf1, config)
            if checking():
                check_parcsr(P, name=f"P[{l}]", level=l)
        lvl.P = P

        with phase("RAP"):
            Ac, R = dist_rap(
                comm, A, P,
                parallel_renumber=flags.parallel_renumber,
                spgemm_method="one_pass" if flags.spgemm_one_pass else "two_pass",
                nthreads=config.nthreads,
            )
            if checking():
                check_parcsr(Ac, name=f"A[{l + 1}]", level=l + 1)
        if flags.keep_transpose:
            lvl.R = R
        levels.append(DistLevel(A=Ac))
        if Ac.shape[0] <= config.coarse_size:
            break

    with phase("Setup_etc"):
        if config.sparsify_tol > 0.0:
            # Sparsify the intermediate coarse operators (not the finest —
            # it is the user's matrix — and not the coarsest, whose gathered
            # factorization / smoother the coarse solver owns a reference
            # to).  The full operator stays on the level for the fallback.
            for lvl in levels[1:-1]:
                As, dropped = sparsify_parcsr(comm, lvl.A, config.sparsify_tol)
                if dropped:
                    lvl.A_full = lvl.A
                    lvl.A = As
        for l, lvl in enumerate(levels):
            lvl.halo = build_halo(comm, lvl.A, persistent=flags.persistent_comm,
                                  topology=topology, net=net)
            if lvl.P is not None:
                lvl.halo_P = build_halo(comm, lvl.P, persistent=flags.persistent_comm,
                                        topology=topology, net=net)
                if lvl.R is not None:
                    lvl.halo_R = build_halo(
                        comm, lvl.R, persistent=flags.persistent_comm,
                        topology=topology, net=net,
                    )
            # Build the transfer operators' slab layouts now (the smoother
            # does the same for A), so no solve pays for a build.
            for M in (lvl.P, lvl.R):
                if M is not None:
                    for block in M.stacked():
                        block.layout()
            if l < len(levels) - 1 or levels[-1].A.shape[0] > config.dense_coarse_threshold:
                lvl.smoother = DistSmoother(
                    comm, lvl.A, lvl.cf_parts,
                    nthreads=config.nthreads,
                    variant=smoother_variant(config.smoother, distributed=True),
                    optimized=flags.three_way_partition,
                    persistent=flags.persistent_comm,
                    seed=config.seed,
                    topology=topology,
                    net=net,
                )
        coarse = DistCoarseSolver(
            comm, levels[-1].A,
            dense_threshold=config.dense_coarse_threshold,
            nthreads=config.nthreads,
        )
    hierarchy = DistHierarchy(comm, levels, coarse, config,
                              topology=topology, net=net)
    if checking():
        # Per-level ParCSR + frozen-halo consistency, inter-level partition
        # plumbing; full adds per-block sortedness/finiteness sweeps.
        check_dist_hierarchy(hierarchy)
    if checking("full"):
        # Static comm-schedule verification: cross-check every frozen
        # halo's declared/registered pattern against the colmaps and run
        # the compiled per-rank comm programs through the deadlock machine
        # (charges zero kernel records — owner_of is uncharged).
        check_schedule(hierarchy)
    return hierarchy
