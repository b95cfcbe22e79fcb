"""The four benchmark workloads.

Each workload builds its inputs from the seed (the library never sees the
seed or the workload name), exposes its end-to-end operations as plain
callables, and implements two passes:

``timed``   tracing and ``perf.collect()`` off; wall samples of the
            end-to-end operations -> the end-to-end metrics.
``traced``  the same operations re-run under spans with ``collect()`` on
            (counts -> the exact metrics), then the layer ladder.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

import repro
import repro.amg as amg
import repro.dist as dist
import repro.perf as perf
import repro.serve as serve
from repro.bench import machine_for, run_distributed
from repro.bench.runner import net_scale
from repro.problems import laplace_3d_27pt, rotated_anisotropy_2d
from repro.results import SERVICE_STATUSES
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix
from repro.topo import NodeTopology

import ladder as ld
from harness import (exact, interleave, peak_rss_mb, percentile_beyond,
                     prefault_heap, repeat, summarize)

#: Blocked right-hand sides per ``solve_many``.
K = 8


def scaled_values(A: CSRMatrix, factor: float) -> CSRMatrix:
    """Same sparsity pattern, values times *factor* (a refresh input)."""
    return CSRMatrix(A.shape, A.indptr, A.indices, A.data * factor)


class Workload:
    """Shared pass structure; subclasses provide inputs and operations.

    ``ops(ledger)`` returns the four end-to-end operations by name —
    ``setup``, ``refresh``, ``solve``, ``solve_many`` — each a callable
    doing one rep and returning its result.  What each one is on a given
    workload is tabulated in README.md ("End-to-end metrics").
    """

    name = ""
    tol = 1e-8
    #: Calls of each end-to-end operation per round-robin round, sized so
    #: that no operation is starved of samples.
    calls: dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed % 2**32      # any integer makes a valid stream
        self.smoke = smoke
        self.rng = np.random.default_rng(self.seed)
        self.min_reps = 1 if smoke else 3
        #: Right-hand sides one ``solve_many`` rep clears.
        self.rhs_per_rep = K

    # -- timed pass ----------------------------------------------------------
    def timed(self, seconds: float, check, ledger) -> dict:
        ops = self.ops(ledger)
        peak = []

        def after_warmup():
            # Peak RSS is read here: after set-up plus one full round of
            # every operation — a fixed amount of work (the high-water mark
            # at the *end* of the pass also counts however many rounds the
            # time budget allowed).  Then the heap is pre-faulted, so the
            # measured rounds pay no page faults for the little the heap
            # still grows.
            peak.append(peak_rss_mb())
            prefault_heap(64 if self.smoke else 256)

        samples, last = interleave(
            {op: (ops[op], n) for op, n in self.calls.items()},
            budget_s=seconds, min_rounds=self.min_reps,
            after_warmup=after_warmup)
        self.verify(last, check)
        n = self.rhs_per_rep
        metrics = {
            "setup_s": summarize(samples["setup"], "s"),
            "refresh_s": summarize(samples["refresh"], "s"),
            "solve_s": summarize(samples["solve"], "s"),
            "rhs_per_s": summarize(samples["solve_many"], "1/s",
                                   transform=lambda wall: n / wall),
        }
        for op, entry in zip(("setup", "refresh", "solve", "solve_many"),
                             metrics.values()):
            entry["samples"] = samples[op]         # detail file only
        metrics["peak_rss_mb"] = exact(peak[0], "MB")
        return metrics

    def rewind(self) -> None:
        """Put input-cycling operations back at their first input, so the
        traced reps of one operation are the same call (exact counts)."""

    # -- traced pass helpers -------------------------------------------------
    def trace_ops(self, ops, tracer, ledger):
        """Run every end-to-end op untraced and under a span with
        ``collect()`` on, alternately (two of each, the same call every
        time).  Returns ``(plain medians, record logs, last results, trace
        overhead share)``."""
        plain, traced, logs, last = {}, {}, {}, {}
        for op in self.calls:
            untraced, spanned = [], []
            for _ in range(2):
                # ops() has just set the workload up: no separate warm-up.
                self.rewind()
                gc.collect()
                t0 = time.perf_counter()
                ops[op]()
                untraced.append(time.perf_counter() - t0)
                self.rewind()
                gc.collect()
                with tracer.span(f"e2e.{op}") as span, perf.collect() as log:
                    last[op] = ops[op]()
                spanned.append(span["end"] - span["start"])
                log = self.records_of(last[op], log)
                ledger.observe(f"records.{op}", len(log))
                ledger.observe(f"bytes.{op}", log.total("bytes_total"))
            plain[op] = statistics.median(untraced)
            traced[op], logs[op] = statistics.median(spanned), log
        overhead = sum(traced.values()) / sum(plain.values()) - 1.0
        return plain, logs, last, overhead

    def records_of(self, result, collected):
        """The kernel records of one traced end-to-end call: what
        ``collect()`` around it gathered, unless the callee keeps its own
        log (nested ``collect()`` blocks record into the innermost)."""
        return collected


# ---------------------------------------------------------------------------
# node-lap27 / node-rotaniso2d
# ---------------------------------------------------------------------------

class NodeWorkload(Workload):
    """One operator, one sequential hierarchy, all four operations."""

    calls = {"setup": 1, "refresh": 1, "solve": 4, "solve_many": 1}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.A = self.build_operator()
        self.A2 = scaled_values(self.A, 1.02)
        self.B = self.rng.standard_normal((self.A.nrows, K))
        self.b = self.B[:, 0]
        self.calls_made = 0

    def next_rhs(self):
        """Single-RHS solves cycle through the K columns: the iteration
        count depends on the right-hand side (11 to 15 V-cycles on
        ``node-lap27``), and a median over all columns depends far less on
        the seed than any one column's time does."""
        j = self.calls_made % K
        self.calls_made += 1
        return j, self.B[:, j]

    def rewind(self) -> None:
        self.calls_made = 0

    def verify(self, last: dict, check) -> None:
        singles = [self.solve_one(self.B[:, j]) for j in range(K)]
        for j, (single, blocked) in enumerate(zip(singles,
                                                  last["solve_many"])):
            check.solve(self.A, self.B[:, j], single, self.tol,
                        f"solve of column {j}")
            check.solve(self.A, self.B[:, j], blocked, self.tol,
                        f"solve_many column {j}")
        check.columns_match_singles(last["solve_many"], singles, "solve_many")
        A_now, res = self.solve_after_refresh(last["refresh"])
        check.solve(A_now, self.b, res, self.tol, "post-refresh solve")

    def traced(self, seconds: float, tracer, check, ledger) -> dict:
        ops = self.ops(ledger)
        plain, logs, last, overhead = self.trace_ops(ops, tracer, ledger)
        self.verify(last, check)
        solver = self.amg_solver()
        machine = machine_for(solver.config)
        L = ld.Ladder(tracer, seconds, self.smoke)
        L.put("modeled_setup_s", machine.log_time(logs["setup"]), "modeled_s")
        L.put("modeled_refresh_s", machine.log_time(logs["refresh"]),
              "modeled_s")
        L.put("modeled_solve_s", machine.log_time(logs["solve"]), "modeled_s")
        L.put("iterations", last["solve"].iterations, "count")
        L.put("modeled_bytes",
              logs["setup"].total("bytes_total") + logs["solve"].total("bytes_total"), "B")
        L.put("vehicle.trace_overhead_share", overhead, "wall_ratio")
        ld.node_ladder(
            L, A=self.A, cfg=solver.config, solver=solver, b=self.b,
            B8=self.B, tol=self.tol, rng=self.rng,
            e2e={op: (plain[op], logs[op]) for op in ("setup", "solve")})
        return L.out


class NodeLap27(NodeWorkload):
    """Setup-bound: dense 27-point stencil through the class API."""

    name = "node-lap27"

    def build_operator(self) -> CSRMatrix:
        return PROBLEM_BUILDERS["lap3d27g"](8 if self.smoke else 20)

    def ops(self, ledger) -> dict:
        cfg = repro.single_node_config(True)
        self.solver = repro.AMGSolver(cfg)
        self.solver.setup(self.A)
        h = self.solver.hierarchy

        def solve():
            j, b = self.next_rhs()
            res = self.solver.solve(b, tol=self.tol)
            ledger.observe(f"iterations[{j}]", res.iterations)
            return res

        return {
            "setup": lambda: amg.build_hierarchy(self.A, cfg,
                                                 capture_plan=True),
            "refresh": lambda: h.refresh(self.A2),
            "solve": solve,
            "solve_many": lambda: self.solver.solve_many(self.B, tol=self.tol),
        }

    def solve_one(self, b):
        return self.solver.solve(b, tol=self.tol)

    def solve_after_refresh(self, refreshed):
        s = repro.AMGSolver(self.solver.config)
        s.hierarchy = refreshed
        return self.A2, s.solve(self.b, tol=self.tol)

    def amg_solver(self):
        return self.solver


class NodeRotAniso2D(NodeWorkload):
    """Solve-bound Krylov: sparse 9-point operator through the facade."""

    name = "node-rotaniso2d"

    def build_operator(self) -> CSRMatrix:
        return rotated_anisotropy_2d(32 if self.smoke else 128)

    def ops(self, ledger) -> dict:
        self.handle = repro.setup(self.A, cache=None)
        self.updated = repro.setup(self.A, cache=None)
        self.flip = [self.A2, self.A]

        def solve():
            j, b = self.next_rhs()
            res = self.handle.solve(b, method="cg", tol=self.tol)
            ledger.observe(f"iterations[{j}]", res.iterations)
            return res

        def refresh():
            # Alternate between the two value sets: every call is a
            # same-pattern numeric resetup, never a no-op.
            self.flip.reverse()
            return self.updated.update(self.flip[1])

        return {
            "setup": lambda: repro.setup(self.A, cache=None),
            "refresh": refresh,
            "solve": solve,
            "solve_many": lambda: self.handle.solve_many(
                self.B, method="cg", tol=self.tol),
        }

    def solve_one(self, b):
        return self.handle.solve(b, method="cg", tol=self.tol)

    def solve_after_refresh(self, handle):
        return handle.A, handle.solve(self.b, method="cg", tol=self.tol)

    def amg_solver(self):
        return self.handle.amg


# ---------------------------------------------------------------------------
# dist-lap27-32r
# ---------------------------------------------------------------------------

class DistLap27(Workload):
    """Distributed set-up and FGMRES on simulated ranks with node structure.

    Ranks are simulated in one process: wall time is simulator host time
    and no wall-clock scaling efficiency is reported.  The distributed
    layer has neither a numeric resetup nor a blocked solve, so a user
    whose values change pays a full ``DistAMGSolver.setup`` on the new
    values (``refresh``), and a user with ``K`` right-hand sides calls
    ``dist_fgmres`` ``K`` times (``solve_many``).
    """

    name = "dist-lap27-32r"
    tol = 1e-7
    calls = {"setup": 1, "refresh": 1, "solve": 2, "solve_many": 1}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.nodes, self.ppn = (4, 2) if smoke else (8, 4)
        self.nranks = self.nodes * self.ppn
        self.A = laplace_3d_27pt(8 if smoke else 16)
        self.A2 = scaled_values(self.A, 1.02)
        self.cfg = repro.multi_node_config("ei")
        # The first draw of default_rng(seed): the right-hand side
        # run_distributed(seed=...) generates, so iteration counts agree.
        self.b = self.rng.standard_normal(self.A.nrows)
        self.B = self.rng.standard_normal((self.A.nrows, K))
        self.topo = NodeTopology(self.nranks, self.ppn)
        self.net = self.topo.network(
            perf.FDRInfinibandModel()).scaled(net_scale())
        self.part = dist.RowPartition.uniform(self.A.nrows, self.nranks)

    def build(self, A: CSRMatrix) -> dict:
        comm = dist.SimComm(self.nranks)
        Ap = dist.ParCSRMatrix.from_global(A, self.part)
        solver = dist.DistAMGSolver(comm, self.cfg, topology=self.topo,
                                    net=self.net)
        solver.setup(Ap)
        return {"A": A, "comm": comm, "Ap": Ap, "solver": solver,
                "setup_end": _log_marks(comm)}

    def fgmres(self, run: dict, b):
        return dist.dist_fgmres(
            run["comm"], run["Ap"], dist.ParVector.from_global(b, self.part),
            precondition=run["solver"].precondition, tol=self.tol)

    def ops(self, ledger) -> dict:
        def setup():
            self.run = self.build(self.A)
            ledger.observe("setup messages", len(self.run["comm"].messages))
            return self.run

        def refresh():
            # (rescaling flips a few strength / truncation ties on this
            # uniform stencil, so the two value sets count apart)
            run = self.build(self.A2)
            ledger.observe("refresh messages", len(run["comm"].messages))
            return run

        def solve():
            run = self.run
            run["solve_begin"] = _log_marks(run["comm"])
            run["result"] = self.fgmres(run, self.b)
            run["solve_end"] = _log_marks(run["comm"])
            ledger.observe("iterations", run["result"].iterations)
            ledger.observe("solve messages", run["solve_end"]["messages"]
                           - run["solve_begin"]["messages"])
            return run

        def solve_many():
            return [self.fgmres(self.run, self.B[:, j]) for j in range(K)]

        return {"setup": setup, "refresh": refresh, "solve": solve,
                "solve_many": solve_many}

    def verify(self, last: dict, check) -> None:
        reference = repro.solve(self.A, self.b, method="fgmres",
                                config=self.cfg, tol=1e-10, cache=None)
        res = last["solve"]["result"]
        if check.record(res.converged, "distributed solve: not converged"):
            x = res.x.to_global()
            check.residual(self.A, x, self.b, self.tol, "distributed solve")
            check.close(x, reference.x, 1e-5,
                        "distributed vs sequential solution")
        for j, res in enumerate(last["solve_many"]):
            if check.record(res.converged, f"distributed solve of column {j}: "
                                           "not converged"):
                check.residual(self.A, res.x.to_global(), self.B[:, j],
                               self.tol, f"distributed solve of column {j}")
        # The set-up on the rescaled values must solve its own system.
        run = last["refresh"]
        res = self.fgmres(run, self.b)
        if check.record(res.converged, "post-refresh solve: not converged"):
            check.residual(self.A2, res.x.to_global(), self.b, self.tol,
                           "post-refresh solve")

    # -- traced pass ---------------------------------------------------------
    def traced(self, seconds: float, tracer, check, ledger) -> dict:
        ops = self.ops(ledger)
        plain, _, last, overhead = self.trace_ops(ops, tracer, ledger)
        self.verify(last, check)
        run = last["solve"]
        # Read the communicator's logs now: the ladder below keeps using it.
        counts, setup_log, solve_log = self.counts(run)

        L = ld.Ladder(tracer, seconds, self.smoke)
        for name, (value, unit) in counts.items():
            L.put(name, value, unit)
        L.put("vehicle.trace_overhead_share", overhead, "wall_ratio")
        self.modeled(L, ledger)
        # The traced runs' message and record logs — half a million objects
        # after the solves — have been read; emptying them keeps the
        # gc.collect() before each rung from walking them every time.
        for used in (run, last["refresh"]):
            used["comm"].clear_logs()
        L.section(self.dist_ladder, run, plain)

        # The sequential rungs, on the same operator and configuration.
        solver = repro.AMGSolver(self.cfg)
        solver.setup(self.A)
        ld.node_ladder(
            L, A=self.A, cfg=self.cfg, solver=solver, b=self.b, B8=self.B,
            tol=self.tol, rng=self.rng,
            e2e={"setup": (plain["setup"], setup_log),
                 "solve": (plain["solve"], solve_log)})
        return L.out

    def counts(self, run: dict):
        """Message, byte and collective counts of the set-up and of the
        last solve on it, plus the two phases' merged record logs."""
        comm, end = run["comm"], run["setup_end"]
        begin, done = run["solve_begin"], run["solve_end"]
        setup = [m.event for m in comm.messages[:end["messages"]]]
        solve = [m.event
                 for m in comm.messages[begin["messages"]:done["messages"]]]
        solve_halo = [e for e in solve if e.tag.startswith("halo")]
        internode = [e for e in setup + solve
                     if not self.topo.on_node(e.src, e.dst)]
        setup_log, solve_log = perf.PerfLog(), perf.PerfLog()
        for log, e, b, d in zip(comm.rank_logs, end["records"],
                                begin["records"], done["records"]):
            setup_log.records.extend(log.records[:e])
            solve_log.records.extend(log.records[b:d])
        h = run["solver"].hierarchy
        plans = [lvl.halo.node_plan for lvl in h.levels
                 if lvl.halo is not None and lvl.halo.node_plan is not None]
        flat = sum(p.off_node_messages for p in plans)
        counts = {
            "dist.halo_messages": (len(solve_halo), "count"),
            "dist.halo_bytes": (sum(e.nbytes for e in solve_halo), "B"),
            "dist.setup_messages": (len(setup), "count"),
            "dist.setup_bytes": (sum(e.nbytes for e in setup), "B"),
            "dist.collectives": (
                end["collectives"] + done["collectives"]
                - begin["collectives"], "count"),
            "dist.internode_messages": (len(internode), "count"),
            "dist.internode_bytes": (sum(e.nbytes for e in internode), "B"),
            "dist.levels": (h.num_levels, "count"),
            "topo.node_aware_levels": (
                sum(1 for lvl in h.levels
                    if lvl.halo is not None and lvl.halo.node_aware), "count"),
            # 3-step over flat inter-node message count, same hierarchy.
            "topo.internode_message_ratio": (
                sum(p.internode_messages for p in plans) / flat
                if flat else None, "ratio"),
            "iterations": (run["result"].iterations, "count"),
            "modeled_bytes": (
                setup_log.total("bytes_total") + solve_log.total("bytes_total"), "B"),
        }
        return counts, setup_log, solve_log

    def modeled(self, L, ledger) -> None:
        """The modeled clock, from the library's own bench driver."""
        r = run_distributed(
            self.A, self.cfg, self.nodes, label=self.name, tol=self.tol,
            seed=self.seed, ppn=self.ppn)
        ledger.observe("iterations", r.iterations)
        L.put("modeled_setup_s", r.setup_time, "modeled_s")
        # No numeric resetup in the distributed layer: a value change is
        # modeled (and timed) as a full set-up.
        L.put("modeled_refresh_s", r.setup_time, "modeled_s")
        L.put("modeled_solve_s", r.solve_time, "modeled_s")
        L.put("dist.modeled_comm_share_setup",
              r.setup_comm / r.setup_time, "ratio")
        L.put("dist.modeled_comm_share_solve",
              r.solve_comm / r.solve_time, "ratio")

    def dist_ladder(self, L, run: dict, plain: dict) -> None:
        comm = dist.SimComm(self.nranks)
        cfg, flags = self.cfg, self.cfg.flags
        A0 = L.time("dist.parcsr_build_s",
                    lambda: dist.ParCSRMatrix.from_global(self.A, self.part))
        rungs = ("dist.strength_s", "dist.pmis_s", "dist.interp_s",
                 "dist.rap_s", "dist.halo_build_s")
        per_rep = []

        def replay():
            """``dist_build_hierarchy`` step by step (ext+i pipeline)."""
            acc = dict.fromkeys(rungs, 0.0)

            def step(name, fn, level):
                dt, res = L.tracer.timed(name, fn, level=level)
                acc[name] += dt
                return res

            comm.clear_logs()
            with L.tracer.span("ladder.dist_setup", decomposes="e2e.setup"):
                A, mats = A0, []
                for l in range(cfg.max_levels - 1):
                    if A.shape[0] <= cfg.coarse_size:
                        break
                    S = step("dist.strength_s", lambda: dist.dist_strength(
                        comm, A, cfg.strength_threshold, cfg.max_row_sum,
                        parallel=flags.parallel_setup_kernels), l)
                    cf = step("dist.pmis_s", lambda: dist.dist_pmis(
                        comm, S, seed=cfg.seed + l,
                        measures=dist.dist_random_measures(
                            comm, A.row_part, cfg.seed + l)), l)
                    nc = sum(int((c > 0).sum()) for c in cf)
                    if nc == 0 or nc == A.shape[0]:
                        break
                    P, _ = step("dist.interp_s", lambda: dist.dist_extended_i(
                        comm, A, S, cf, trunc_fact=cfg.trunc_fact,
                        max_elmts=cfg.max_elmts,
                        reordered=flags.three_way_partition,
                        fused_truncation=flags.fused_truncation,
                        filter_comm=flags.filter_interp_comm,
                        parallel_renumber=flags.parallel_renumber,
                        nthreads=cfg.nthreads), l)
                    Ac, R = step("dist.rap_s", lambda: dist.dist_rap(
                        comm, A, P, parallel_renumber=flags.parallel_renumber,
                        spgemm_method="one_pass", nthreads=cfg.nthreads), l)
                    mats += [A, P, R]
                    A = Ac
                mats.append(A)
                step("dist.halo_build_s", lambda: [
                    dist.build_halo(comm, M, persistent=flags.persistent_comm,
                                    topology=self.topo, net=self.net)
                    for M in mats], None)
            per_rep.append(acc)
            return len(mats) // 3 + 1, mats

        _, (levels, mats) = repeat(replay, budget_s=L.seconds * 0.10,
                                   min_reps=min(3, L.min_reps), warmup=0)
        h = run["solver"].hierarchy
        if levels != h.num_levels:
            raise AssertionError(
                f"dist replay built {levels} levels, the library {h.num_levels}")
        for name in rungs:
            L.out[name] = summarize([acc[name] for acc in per_rep], "s")
        L.put("dist.setup_unattributed_share",
              1.0 - (L.get("dist.parcsr_build_s")
                     + sum(L.get(n) for n in rungs)) / plain["setup"],
                     "wall_ratio")

        # Sub-steps of interp / RAP, level 0.
        A, P = mats[0], mats[1]
        needed = [blk.colmap for blk in A.blocks]
        L.time("dist.rowgather_s",
               lambda: dist.gather_matrix_rows(comm, P, needed))
        L.time("dist.spgemm_s", lambda: dist.dist_spgemm(
            comm, A, P, parallel_renumber=flags.parallel_renumber,
            nthreads=cfg.nthreads), share=0.02)
        blk = max(A.blocks, key=lambda b: len(b.colmap))
        queries = np.concatenate([blk.colmap, blk.colmap[::-1]])
        L.time("dist.renumber_s", lambda: dist.renumber_parallel(
            blk.colmap[::2], queries, nthreads=cfg.nthreads))

        # Solve-phase rungs on the hierarchy the traced run built.
        lvl0 = h.levels[0]
        x = dist.ParVector.from_global(self.b, self.part)
        flat = dist.build_halo(comm, A, persistent=flags.persistent_comm)
        L.time("dist.halo_exchange_s", lambda: flat(x))
        if lvl0.halo.node_aware:
            L.time("dist.halo_exchange_nodeaware_s", lambda: lvl0.halo(x))
        L.time("dist.spmv_s",
               lambda: dist.dist_spmv(h.comm, lvl0.A, x, lvl0.halo))
        L.time("dist.vcycle_s", lambda: dist.dist_vcycle(h, x), share=0.02)

        # The node-aware plan of the level-0 halo, from its public inputs.
        import repro.topo as topo

        col_part = A.col_part
        needs = []
        for b in A.blocks:
            owners = col_part.owner_of(b.colmap)
            needs.append([(int(q), b.colmap[owners == q])
                          for q in np.unique(owners)])
        L.time("topo.plan_build_s", lambda: topo.build_node_plan(
            needs, self.topo, net=self.net, bytes_per_elem=perf.VAL_BYTES,
            persistent=flags.persistent_comm))


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: Modeled p95 latency limit of the rate ladder (seconds).
LATENCY_LIMIT = 2e-3
RATE_LADDER = (2000.0, 4000.0, 8000.0, 16000.0)


class ServeMixed(Workload):
    """A mixed request stream through the single and the sharded service.

    Arrivals are an open-loop Poisson schedule on the *modeled* clock; the
    wall side is one closed loop (a single caller of ``run_workload``).
    ``solve_many`` is one ``run_workload`` per arm, each on a fresh
    service, so ``rhs_per_s`` is completed requests per wall second with
    both arms pooled (every request is one right-hand side).  The three
    other operations put one request per operator of the mix through a
    fresh ``SolveService`` whose hierarchy cache is empty (``setup``: three
    cold builds), holds the same patterns with other values (``refresh``:
    three refresh hits) or holds the operators themselves (``solve``: three
    exact hits) — the service's three cache outcomes, dispatch included.
    """

    name = "serve-mixed"
    tol = 1e-7
    calls = {"setup": 3, "refresh": 4, "solve": 8, "solve_many": 1}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.requests = 24 if smoke else 240
        self.rhs_per_rep = 2 * self.requests
        self.workload = serve.build(self.spec(4000.0))
        steps = self.workload.spec.steps
        #: Value step *t* of each of the mix's operators (same patterns).
        self.step = [self.workload.matrices[t::steps] for t in range(steps)]
        self.rhs = [self.rng.standard_normal(A.nrows) for A in self.step[0]]
        self.B = self.rng.standard_normal((self.step[0][0].nrows, K))
        # max_queue >= requests is required: run_workload submits the whole
        # stream before draining, so the default queue of 64 would reject.
        self.arms = {
            "single": lambda: serve.SolveService(
                serve.ServiceConfig(max_batch=K, max_queue=512)),
            "sharded": lambda: serve.ShardedSolveService(
                serve.ServiceConfig(max_batch=K, max_queue=512, ranks=4,
                                    replicas=2)),
        }

    def spec(self, rate: float):
        return serve.WorkloadSpec(
            seed=self.seed + 2, requests=self.requests, rate=rate,
            problems=({"problem": "lap2d", "size": 24, "weight": 2.0},
                      {"problem": "lap3d27g", "size": 8, "weight": 1.0},
                      {"problem": "anisotropic", "size": 20, "weight": 1.0}),
            priorities={"interactive": 1.0, "batch": 2.0, "bulk": 1.0},
            steps=4, step_shift=0.02, tol=self.tol)

    def one_each(self, cache, matrices):
        """One request per operator through a fresh single service over
        *cache*; returns ``(service, matrices, results)``."""
        svc = serve.SolveService(
            serve.ServiceConfig(max_batch=K, max_queue=512), cache=cache)
        tickets = [svc.submit(A, b, tol=self.tol)
                   for A, b in zip(matrices, self.rhs)]
        svc.run()
        return svc, matrices, [svc.result(t, wait=False) for t in tickets]

    def ops(self, ledger) -> dict:
        n = len(self.rhs)
        warm = amg.HierarchyCache(n)
        self.one_each(warm, self.step[0])
        self.refreshes = None
        self.rewind()

        def setup():
            svc, *_ = out = self.one_each(amg.HierarchyCache(n), self.step[0])
            ledger.observe("cold builds", svc.cache.stats()["misses"])
            return out

        def refresh():
            self.refreshes += 1
            svc, *_ = out = self.one_each(
                self.stepping, self.step[1 + self.refreshes % 3])
            ledger.observe("refresh hits per rep", svc.metrics.refresh_hits)
            return out

        def solve():
            hits = warm.stats()["hits"]
            out = self.one_each(warm, self.step[0])
            ledger.observe("exact hits per rep", warm.stats()["hits"] - hits)
            return out

        def both_arms():
            out = {}
            for arm, make in self.arms.items():
                svc = make()
                out[arm] = (svc, svc.run_workload(self.workload))
                ledger.observe(f"latency_p95.{arm}",
                               self.latency(out[arm][1], 0.05))
            return out

        return {"setup": setup, "refresh": refresh, "solve": solve,
                "solve_many": both_arms}

    def rewind(self) -> None:
        # Room for two value sets per operator, cycling through three: the
        # set a rep asks for is never cached (no exact hit), another set of
        # the same pattern always is (a pattern-tier hit, i.e. a refresh).
        if self.refreshes != 0:
            self.stepping = amg.HierarchyCache(2 * len(self.rhs))
            self.one_each(self.stepping, self.step[0])
            self.refreshes = 0

    def latency(self, results, tail: float) -> float:
        """Modeled latency with ``tail`` of the requests beyond it."""
        return percentile_beyond(
            [r.latency_seconds for r in results if r.status == "completed"],
            int(len(results) * tail))

    def verify(self, last: dict, check) -> None:
        for op, want in (("setup", "cold build"), ("refresh", "refresh hit"),
                         ("solve", "exact hit")):
            svc, matrices, results = last[op]
            for A, b, res in zip(matrices, self.rhs, results):
                if check.record(res is not None and res.ok,
                                f"{want} request: {res and res.status}"):
                    check.residual(A, res.x, b, self.tol, f"{want} request")
        stats = {op: last[op][0].cache.stats() for op in ("setup", "solve")}
        check.record(stats["setup"]["hits"] == 0, "cold service hit its cache")
        check.record(last["refresh"][0].metrics.refresh_hits == len(self.rhs),
                     "refresh op did not take the pattern tier")
        check.record(all(r.cache_hit for r in last["solve"][2]),
                     "warm service missed its cache")
        for arm, (_, results) in last["solve_many"].items():
            check.service_results(
                results, self.workload.items, self.workload.matrices,
                self.tol, SERVICE_STATUSES, arm)

    # -- traced pass ---------------------------------------------------------
    def records_of(self, result, collected):
        # A service collects into its own log (ServiceMetrics.perf), one
        # per rank of the sharded tier.
        arms = (result.values() if isinstance(result, dict)
                else [result])
        merged = perf.PerfLog()
        for svc, *_ in arms:
            for rank in getattr(svc, "services", [svc]):
                merged.merge(rank.metrics.perf)
        return merged

    def traced(self, seconds: float, tracer, check, ledger) -> dict:
        ops = self.ops(ledger)
        plain, logs, last, overhead = self.trace_ops(ops, tracer, ledger)
        self.verify(last, check)
        L = ld.Ladder(tracer, seconds, self.smoke)
        machine = perf.HaswellModel(threads=serve.ServiceConfig().threads)
        L.put("modeled_setup_s", machine.log_time(logs["setup"]), "modeled_s")
        L.put("modeled_refresh_s", machine.log_time(logs["refresh"]),
              "modeled_s")
        L.put("modeled_solve_s", machine.log_time(logs["solve"]), "modeled_s")
        L.put("iterations", sum(r.iterations for r in last["solve"][2]),
              "count")
        L.put("modeled_bytes",
              logs["setup"].total("bytes_total") + logs["solve"].total("bytes_total"), "B")
        L.put("vehicle.trace_overhead_share", overhead, "wall_ratio")
        L.section(self.serve_ladder, last["solve_many"])

        # The sequential rungs, on the mix's heaviest-weighted operator.
        A, cfg = self.step[0][0], repro.single_node_config()
        solver = repro.AMGSolver(cfg)
        solver.setup(A)
        ld.node_ladder(
            L, A=A, cfg=cfg, solver=solver, b=self.rhs[0], B8=self.B,
            tol=self.tol, rng=self.rng,
            e2e={op: (plain[op], logs[op]) for op in ("setup", "solve")})
        return L.out

    def serve_ladder(self, L, last: dict) -> None:
        items, matrices = self.workload.items, self.workload.matrices
        spec = self.workload.spec

        # submit() and run() apart, on the single arm.
        submits, drains = [], []

        def submit_then_drain():
            svc = self.arms["single"]()
            submits.append(L.tracer.timed("serve.submit_us", lambda: [
                svc.submit(matrices[it.matrix_index], it.b,
                           method=spec.method, tol=spec.tol,
                           priority=it.priority, arrival=it.arrival)
                for it in items])[0])
            drains.append(L.tracer.timed("serve.drain_s", svc.run)[0])

        L.time("aux.submit_then_drain", submit_then_drain, share=0.04)
        L.out["serve.submit_us"] = summarize(
            submits, "us", transform=lambda s: s * 1e6 / len(items))
        L.out["serve.drain_s"] = summarize(drains, "s")

        def direct():
            cache = amg.HierarchyCache(8)
            return [repro.solve(matrices[it.matrix_index], it.b,
                                method=spec.method, tol=spec.tol, cache=cache)
                    for it in items]

        # Each arm on its own, and the same 240 pairs without any service;
        # alternated so that the ratio sees one host.
        L.time_together({
            "serve.single_wall_s": lambda: self.arms["single"]().run_workload(
                self.workload),
            "serve.sharded_wall_s": lambda: self.arms[
                "sharded"]().run_workload(self.workload),
            "serve.direct_wall_s": direct}, share=0.12)
        L.put("serve.speedup_over_direct",
              L.get("serve.direct_wall_s") / L.get("serve.single_wall_s"),
              "wall_ratio")

        # Counts: the sharded arm of the traced end-to-end run.
        svc, results = last["sharded"]
        snap = svc.metrics_snapshot()
        counters = snap["sharded"]["counters"]
        caches = [r["service"]["hierarchy_cache"] for r in snap["ranks"]]
        hits = sum(c.get("hits", 0) for c in caches)
        lookups = hits + sum(c.get("misses", 0) for c in caches)
        L.put("serve.batches", counters["batches"], "count")
        L.put("serve.mean_batch_size",
              counters["completed"] / counters["batches"], "ratio")
        L.put("serve.cache_hit_rate", hits / lookups, "ratio")
        L.put("serve.refresh_hits", counters["refresh_hits"], "count")
        L.put("serve.forwarded", counters["forwarded"], "count")
        L.put("serve.locality_hit_rate",
              snap["sharded"]["locality"]["hit_rate"], "ratio")
        L.put("serve.modeled_latency_p50_s", self.latency(results, 0.5),
              "modeled_s")
        L.put("modeled_latency_p95_s", self.latency(results, 0.05),
              "modeled_s")
        L.put("serve.single.modeled_latency_p95_s",
              self.latency(last["single"][1], 0.05), "modeled_s")

        # Rate ladder, sharded arm: p95 at fixed rates, and the highest
        # rate that meets the limit with nothing rejected.
        best = 0.0
        for rate in RATE_LADDER:
            res = results if rate == spec.rate else self.arms[
                "sharded"]().run_workload(serve.build(self.spec(rate)))
            p95 = self.latency(res, 0.05)
            L.put(f"serve.modeled_latency_p95_s.r{rate:g}", p95, "modeled_s")
            if p95 <= LATENCY_LIMIT and all(r.ok for r in res):
                best = max(best, rate)
        L.put("serve.max_rate_under_limit", best, "modeled_1/s")


def _log_marks(comm) -> dict:
    """Current lengths of a communicator's logs (a phase boundary)."""
    return {"messages": len(comm.messages),
            "collectives": len(comm.collectives),
            "records": [len(log.records) for log in comm.rank_logs]}


WORKLOADS = {w.name: w
             for w in (NodeLap27, NodeRotAniso2D, DistLap27, ServeMixed)}
