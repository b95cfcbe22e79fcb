"""Benchmark drivers shared by the ``benchmarks/`` harness.

Every experiment runs the real solver under instrumentation and converts
the counted work into modeled seconds on the Table 1 machines / the
Endeavor network (DESIGN.md §2).  The functions here return plain dicts so
the pytest-benchmark files can both print the paper's rows and assert the
headline shapes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..amg import AMGSolver
from ..config import AMGConfig, amgx_config
from ..dist import DistAMGSolver, ParCSRMatrix, ParVector, RowPartition, SimComm, dist_fgmres
from ..perf import HaswellModel, K40cModel, MachineModel, FDRInfinibandModel, PerfLog, collect
from ..sparse.csr import CSRMatrix

__all__ = [
    "bench_scale",
    "SingleNodeResult",
    "run_single_node",
    "machine_for",
    "SOLVE_PHASES",
    "SETUP_PHASES",
    "DistRunResult",
    "run_distributed",
    "RANKS_PER_NODE",
]

#: Fig. 5 breakdown buckets.  ``Resetup`` is the pattern-reuse numeric
#: resetup phase (:meth:`repro.amg.Hierarchy.refresh`): zero on a cold
#: build, and the *only* non-zero setup bucket on a same-pattern refresh.
SETUP_PHASES = ("Strength+Coarsen", "Interp", "RAP", "Resetup", "Setup_etc")
SOLVE_PHASES = ("GS", "SpMV", "BLAS1", "Solve_etc")

#: §5.1.2: 1 MPI rank per socket, 2 sockets per Endeavor node.
RANKS_PER_NODE = 2

#: Calibrated irregular-access bandwidth efficiencies: the §3.1.1 software
#: prefetch + 8x unrolling raise the sustained bandwidth of gather-bound
#: kernels; without them Haswell stalls on the serial dependent loads.
IRREGULAR_EFF_PREFETCH = 0.55
IRREGULAR_EFF_BASE = 0.38


def bench_scale(default: int = 64) -> int:
    """Problem down-scaling factor; override with ``REPRO_BENCH_SCALE``."""
    return int(os.environ.get("REPRO_BENCH_SCALE", default))


def machine_for(config: AMGConfig, *, gpu: bool = False) -> MachineModel:
    if gpu:
        return K40cModel()
    m = HaswellModel(threads=min(config.nthreads, 14))
    m.irregular_efficiency = (
        IRREGULAR_EFF_PREFETCH
        if config.flags.software_prefetch
        else IRREGULAR_EFF_BASE
    )
    return m


@dataclass
class SingleNodeResult:
    name: str
    config_label: str
    iterations: int
    converged: bool
    operator_complexity: float
    setup_phase_times: dict[str, float]
    solve_phase_times: dict[str, float]

    @property
    def setup_time(self) -> float:
        return sum(self.setup_phase_times.values())

    @property
    def solve_time(self) -> float:
        return sum(self.solve_phase_times.values())

    @property
    def total_time(self) -> float:
        return self.setup_time + self.solve_time

    @property
    def time_per_iteration(self) -> float:
        return self.solve_time / max(self.iterations, 1)

    def phase_times(self) -> dict[str, float]:
        out = dict(self.setup_phase_times)
        out.update(self.solve_phase_times)
        return out


def _split_phases(times: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    setup = {p: times.get(p, 0.0) for p in SETUP_PHASES}
    solve = {p: times.get(p, 0.0) for p in SOLVE_PHASES}
    # Anything unattributed is setup bookkeeping.
    leftover = sum(v for k, v in times.items()
                   if k not in SETUP_PHASES and k not in SOLVE_PHASES)
    setup["Setup_etc"] += leftover
    return setup, solve


def run_single_node(
    A: CSRMatrix,
    config: AMGConfig,
    *,
    label: str,
    gpu: bool = False,
    tol: float = 1e-7,
    maxiter: int = 400,
    seed: int = 7,
    name: str = "",
) -> SingleNodeResult:
    """Run setup+solve under instrumentation; return modeled phase times."""
    machine = machine_for(config, gpu=gpu)
    b = np.random.default_rng(seed).standard_normal(A.nrows)
    solver = AMGSolver(config)
    with collect() as setup_log:
        solver.setup(A)
    with collect() as solve_log:
        res = solver.solve(b, tol=tol, maxiter=maxiter)
    setup_t, _ = _split_phases(machine.phase_times(setup_log))
    _, solve_t = _split_phases(machine.phase_times(solve_log))
    return SingleNodeResult(
        name=name or label,
        config_label=label,
        iterations=res.iterations,
        converged=res.converged,
        operator_complexity=solver.operator_complexity,
        setup_phase_times=setup_t,
        solve_phase_times=solve_t,
    )


def run_amgx(A: CSRMatrix, *, tol: float = 1e-7, seed: int = 7,
             rows_per_block: int = 16, name: str = "") -> SingleNodeResult:
    """The AmgX comparison point (classical AMG, GPU model, §5.2).

    AmgX reports only setup/solve totals, so all its time lands in the
    ``Setup_etc`` / ``Solve_etc`` buckets, as in Fig. 5.
    """
    res = run_single_node(
        A, amgx_config(rows_per_block=rows_per_block), label="AmgX", gpu=True,
        tol=tol, seed=seed, name=name,
    )
    setup = {p: 0.0 for p in SETUP_PHASES}
    setup["Setup_etc"] = res.setup_time
    solve = {p: 0.0 for p in SOLVE_PHASES}
    solve["Solve_etc"] = res.solve_time
    res.setup_phase_times = setup
    res.solve_phase_times = solve
    return res


# ---------------------------------------------------------------------------
# Distributed (multi-node) runs
# ---------------------------------------------------------------------------

@dataclass
class DistRunResult:
    label: str
    nodes: int
    nranks: int
    iterations: int
    converged: bool
    operator_complexity: float
    #: Modeled compute seconds per phase (makespan over ranks).
    setup_compute: dict[str, float]
    solve_compute: dict[str, float]
    #: Modeled communication seconds attributed to setup / solve phases.
    setup_comm: float
    solve_comm: float
    comm_volume: float
    interp_comm_volume: float
    halo_messages: int
    #: Node topology accounting (``ppn`` runs only; 0 = flat run).
    ppn: int = 0
    #: Wire messages / bytes that crossed a node boundary (all phases).
    internode_messages: int = 0
    internode_volume: float = 0.0
    #: Levels whose A-halo adopted the 3-step aggregated schedule.
    node_aware_levels: int = 0

    @property
    def setup_time(self) -> float:
        return sum(self.setup_compute.values()) + self.setup_comm

    @property
    def solve_time(self) -> float:
        return sum(self.solve_compute.values()) + self.solve_comm

    @property
    def total_time(self) -> float:
        return self.setup_time + self.solve_time

    def phase_times(self) -> dict[str, float]:
        out = dict(self.setup_compute)
        out.update(self.solve_compute)
        out["Setup_MPI"] = self.setup_comm
        out["Solve_MPI"] = self.solve_comm
        return out


#: Down-scale factor applied to the network's fixed per-message costs in
#: the multi-node benches, matching the problem down-scaling (see
#: :meth:`repro.perf.network.NetworkModel.scaled`).  Override with
#: ``REPRO_NET_SCALE``.
def net_scale(default: float = 64.0) -> float:
    return float(os.environ.get("REPRO_NET_SCALE", default))


def run_distributed(
    A: CSRMatrix,
    config: AMGConfig,
    nodes: int,
    *,
    label: str,
    rank_sizes: np.ndarray | None = None,
    tol: float = 1e-7,
    outer: str = "fgmres",
    seed: int = 7,
    maxiter: int = 300,
    network_scale: float | None = None,
    ppn: int | None = None,
) -> DistRunResult:
    """Distributed setup + (FGMRES-preconditioned) solve on ``nodes`` nodes.

    ``ppn`` models that many ranks per node (instead of the flat default of
    ``RANKS_PER_NODE`` ranks with no node structure): the run then prices
    communication on the two-tier network and the halos may adopt the
    node-aware 3-step schedule.  ``ppn=None`` is byte-identical to before
    the topology subsystem existed.
    """
    topo = None
    if ppn is not None:
        from ..topo import NodeTopology

        nranks = nodes * ppn
        topo = NodeTopology(nranks, ppn)
    else:
        nranks = nodes * RANKS_PER_NODE
    part = (
        RowPartition.from_sizes(rank_sizes)
        if rank_sizes is not None
        else RowPartition.uniform(A.nrows, nranks)
    )
    comm = SimComm(nranks)
    Ap = ParCSRMatrix.from_global(A, part)
    machine = machine_for(config)
    scale = network_scale if network_scale is not None else net_scale()
    base_net = FDRInfinibandModel()
    net = (topo.network(base_net) if topo is not None else base_net).scaled(scale)

    b = np.random.default_rng(seed).standard_normal(A.nrows)
    bp = ParVector.from_global(b, part)

    solver = DistAMGSolver(comm, config, topology=topo, net=net)
    solver.setup(Ap)
    n_setup_msgs = len(comm.messages)
    setup_compute = comm.compute_phase_makespan(machine)
    setup_comm = comm.comm_time(net)
    interp_vol = comm.comm_volume(tag="interp") + comm.comm_volume(tag="interp.req")

    # Fresh accounting for the solve phase.
    setup_records = [len(log.records) for log in comm.rank_logs]
    pre_msgs = len(comm.messages)
    pre_coll = len(comm.collectives)

    if outer == "fgmres":
        res = dist_fgmres(comm, Ap, bp, precondition=solver.precondition,
                          tol=tol, maxiter=maxiter)
    else:
        res = solver.solve(bp, tol=tol, maxiter=maxiter)

    solve_logs = []
    for p, log in enumerate(comm.rank_logs):
        sub = PerfLog()
        sub.records = log.records[setup_records[p]:]
        solve_logs.append(sub)
    solve_compute: dict[str, float] = {}
    for log in solve_logs:
        for ph, t in machine.phase_times(log).items():
            solve_compute[ph] = max(solve_compute.get(ph, 0.0), t)

    msgs, _ = comm.messages.columns()
    solve_comm = net.exchange_time(msgs.take(slice(pre_msgs, None)), nranks)
    for c in comm.collectives[pre_coll:]:
        solve_comm += net.allreduce_time(c.nranks, c.nbytes)

    halo_msgs = comm.message_count(tag="halo")

    internode_msgs = 0
    internode_vol = 0.0
    node_aware_levels = 0
    if topo is not None:
        off = topo.node_of(msgs.src) != topo.node_of(msgs.dst)
        internode_msgs = int(np.count_nonzero(off))
        internode_vol = float(msgs.nbytes[off].sum())
        node_aware_levels = sum(
            1 for lvl in solver.hierarchy.levels
            if lvl.halo is not None and lvl.halo.node_aware)

    return DistRunResult(
        label=label,
        nodes=nodes,
        nranks=nranks,
        iterations=res.iterations,
        converged=res.converged,
        operator_complexity=solver.hierarchy.operator_complexity(),
        setup_compute={k: v for k, v in setup_compute.items()},
        solve_compute=solve_compute,
        setup_comm=setup_comm,
        solve_comm=solve_comm,
        comm_volume=comm.comm_volume(),
        interp_comm_volume=interp_vol,
        halo_messages=halo_msgs,
        ppn=ppn or 0,
        internode_messages=internode_msgs,
        internode_volume=internode_vol,
        node_aware_levels=node_aware_levels,
    )
