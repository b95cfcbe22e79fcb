"""The layer ladder of the traced pass.

Each rung times one call into a *public* function of one library layer
(``sparse`` / ``amg`` / ``krylov`` / ``dist`` / ``topo`` / ``serve`` /
``api`` / ``perf`` / ``analysis``) under a span, on the operator and
hierarchy of the workload being traced, or reads a counter at the same
boundary.  Functions are looked up as module attributes at call time, so a
rung whose function has been removed or renamed yields an *absent* metric
and a warning — never a crash (a later PR that deletes a ``*_multi`` twin
must still be able to run the benchmark).

Metric names and their meaning are the contract documented in README.md.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
import types
import warnings

import numpy as np

import repro
import repro.amg as amg
import repro.amg.solveplan as solveplan
import repro.analysis as analysis
import repro.krylov as krylov
import repro.perf as perf
import repro.sparse as sparse
from repro.bench import machine_for

from checks import csr_matvec
from harness import GC_EVERY_REP_ABOVE_S, exact, repeat, summarize


#: A rung at least this slow per call is "heavy" (see :meth:`Ladder.time`).
HEAVY_RUNG_S = 0.1
#: Cap on the rounds of a rung group: a microsecond rung would otherwise
#: fill its time slice with tens of thousands of spans.
MAX_ROUNDS = 1000


class Ladder:
    """Collects per-layer metrics for one traced workload."""

    def __init__(self, tracer, seconds: float, smoke: bool) -> None:
        self.tracer = tracer
        self.seconds = seconds
        self.min_reps = 1 if smoke else 5
        self.out: dict[str, dict] = {}

    # -- recording -----------------------------------------------------------
    def put(self, name: str, value, unit: str) -> None:
        """Record a derived or counted metric; ``None`` (an absent input
        upstream) leaves the metric absent."""
        if value is not None:
            self.out[name] = exact(value, unit)

    def get(self, name: str) -> float | None:
        entry = self.out.get(name)
        return None if entry is None else entry["value"]

    def time(self, name: str, fn, *, share: float = 0.005, unit: str = "s",
             scale: float = 1.0):
        """Median wall of ``fn()`` under a span named *name*; returns the
        last result (``None`` when the rung's public function is missing).
        See :meth:`time_together`, of which this is the one-rung case."""
        return self.time_together({name: fn}, share=share, unit=unit,
                                  scale=scale).get(name)

    def time_together(self, rungs: dict, *, share: float = 0.005,
                      unit: str = "s", scale: float = 1.0) -> dict:
        """Time several rungs round-robin, each call under a span named
        after its rung; returns the last result per rung.

        For rungs that are read *against each other* (a ratio, a
        difference): alternating their calls exposes them to the same host
        drift.  ``share`` is the group's slice of the run's ``--seconds``;
        ``scale`` converts seconds into *unit*.  The first round decides the
        regime: quick rungs discard it as warm-up and then run at least
        ``min_reps`` rounds; if any rung is heavy (>= ``HEAVY_RUNG_S`` per
        call) the first round is kept and at least two more follow.  A rung
        whose public function is missing is left out with a warning.
        """
        samples, last, took = {}, {}, {}

        def call(name):
            if took.get(name, 1.0) >= GC_EVERY_REP_ABOVE_S:
                gc.collect()
            took[name], last[name] = self.tracer.timed(name, rungs[name])
            samples.setdefault(name, []).append(took[name])

        for name in rungs:
            try:
                call(name)
            except (AttributeError, ImportError) as exc:
                if not _is_missing_public(exc):
                    raise
                warnings.warn(f"layer metric {name} absent: {exc}",
                              stacklevel=3)
        heavy = any(walls[0] >= HEAVY_RUNG_S for walls in samples.values())
        if not heavy:
            for walls in samples.values():
                walls.clear()
        rounds = min(2, self.min_reps) if heavy else self.min_reps
        begin = time.perf_counter()
        done = 0
        while samples and done < MAX_ROUNDS and (
                done < rounds
                or time.perf_counter() - begin < self.seconds * share):
            for name in samples:
                call(name)
            done += 1
        for name, walls in samples.items():
            self.out[name] = summarize(walls, unit,
                                       transform=lambda v: v * scale)
        return last

    def section(self, fn, *args) -> None:
        """Run one ladder section; a missing public function skips the rest
        of that section with a warning."""
        try:
            fn(self, *args)
        except (AttributeError, ImportError) as exc:
            if not _is_missing_public(exc):
                raise
            warnings.warn(f"ladder section {fn.__name__} cut short: {exc}",
                          stacklevel=2)


def _is_missing_public(exc: BaseException) -> bool:
    """An attribute missing *from a module* (or a failed import) — i.e. a
    public function that no longer exists, not a bug inside the library."""
    if isinstance(exc, ImportError):
        return True
    return isinstance(getattr(exc, "obj", None), types.ModuleType)


def _div(num, den):
    """``num / den``; ``None`` when an input is absent or the base is 0."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def _sub(a, b):
    return None if a is None or b is None else a - b


def _sum(*values):
    return None if any(v is None for v in values) else sum(values)


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------

def sparse_section(L: Ladder, A, hierarchy, rng) -> None:
    lvl0 = hierarchy.levels[0]
    x = rng.standard_normal(A.ncols)
    X8 = rng.standard_normal((A.ncols, 8))
    L.time_together({"sparse.spmv_s": lambda: sparse.spmv(A, x),
                     "vehicle.ref_spmv_s": lambda: csr_matvec(A, x)})
    L.put("sparse.spmv_over_ref",
          _div(L.get("sparse.spmv_s"), L.get("vehicle.ref_spmv_s")),
          "wall_ratio")
    with perf.collect() as log:
        sparse.spmv(A, x)
    # Bytes are the model's count for one SpMV, not measured traffic.
    L.put("sparse.spmv_ns_per_modeled_byte",
          _div(L.get("sparse.spmv_s"), log.total("bytes_total") * 1e-9), "ns/B")
    L.time("sparse.spmv_multi8_s", lambda: sparse.spmv_multi(A, X8))
    if lvl0.P_F is not None:
        xc = rng.standard_normal(lvl0.P_F.ncols)
        L.time("sparse.spmv_identity_block_s",
               lambda: sparse.spmv_identity_block(lvl0.P_F, xc, lvl0.cperm))
    if lvl0.P is not None:
        L.time("sparse.spgemm_s", lambda: sparse.spgemm(lvl0.A, lvl0.P),
               share=0.01)
        L.time("sparse.transpose_s", lambda: sparse.transpose(lvl0.P))


# ---------------------------------------------------------------------------
# amg setup: replay of build_hierarchy through the public per-step functions
# ---------------------------------------------------------------------------

#: Setup rungs, in execution order; their sum is compared with the
#: end-to-end set-up (``amg.setup_unattributed_share``).
SETUP_RUNGS = ("amg.strength_s", "amg.pmis_s", "amg.reorder_s", "amg.interp_s",
               "sparse.rap_s", "amg.smoother_build_s", "amg.plan_compile_s")


def replay_setup(tracer, A0, cfg):
    """Rebuild the hierarchy of ``build_hierarchy(A0, cfg)`` step by step.

    Mirrors the optimized pipeline (PMIS, CF reorder + 3-way partition,
    extended+i, CF-block RAP) — the only one the benchmark's workloads
    configure.  Returns ``(hierarchy, per-rung seconds summed over levels,
    per-level pieces)``; the caller asserts the result matches the real
    build, which is what makes the rung times attributable.
    """
    flags = cfg.flags
    if not (flags.cf_reorder and flags.three_way_partition
            and flags.rap_scheme == "cf_block"
            and cfg.interp == "extended+i" and cfg.coarsening == "pmis"):
        raise ValueError("setup replay covers the optimized ext+i pipeline only")
    acc = dict.fromkeys(SETUP_RUNGS, 0.0)
    pieces = []

    def step(name, fn, level):
        dt, res = tracer.timed(name, fn, level=level)
        acc[name] += dt
        return res

    levels = [amg.Level(A=A0)]
    A = A0
    for l in range(cfg.max_levels - 1):
        if A.nrows <= cfg.coarse_size:
            break
        lvl = levels[l]
        S = step("amg.strength_s", lambda: amg.strength_matrix(
            A, cfg.strength_threshold, cfg.max_row_sum,
            parallel=flags.parallel_setup_kernels), l)
        cf = step("amg.pmis_s", lambda: amg.pmis(
            S, seed=cfg.seed + l, nthreads=cfg.nthreads,
            parallel_rng=flags.parallel_rng,
            parallel=flags.parallel_setup_kernels), l)
        nc = int((cf > 0).sum())
        if nc == 0 or nc == A.nrows:
            break

        def reorder():
            new2old, old2new = sparse.cf_permutation(cf)
            Ap = sparse.permute_matrix(A, new2old, kernel="reorder.operator")
            Sp = sparse.permute_matrix(S, new2old, kernel="reorder.strength")
            cfp = cf[new2old]
            if l > 0:
                parent = levels[l - 1]
                parent.P = sparse.CSRMatrix(
                    parent.P.shape, parent.P.indptr,
                    old2new[parent.P.indices], parent.P.data).sort_indices()
                parent.cperm = old2new
            is_c = cfp[Ap.indices] > 0
            cat = np.where(is_c & (Ap.data >= 0), 0, np.where(is_c, 1, 2))
            sparse.partition_rows_by_category(
                Ap, cat, 3, kernel="reorder.threeway", fused_with_permute=True)
            return Ap, Sp, cfp, new2old

        A, S, cf, new2old = step("amg.reorder_s", reorder, l)
        lvl.A, lvl.new2old, lvl.cf_marker, lvl.n_coarse = A, new2old, cf, nc
        P = step("amg.interp_s", lambda: amg.extended_i_interpolation(
            A, S, cf, trunc_fact=cfg.trunc_fact, max_elmts=cfg.max_elmts,
            reordered=True, fused_truncation=flags.fused_truncation), l)
        lvl.P = P
        P_F = P.extract_rows(np.arange(nc, A.nrows, dtype=np.int64))
        rap_kw = dict(
            method="one_pass" if flags.spgemm_one_pass else "two_pass",
            already_partitioned=True)
        pieces.append((A, cf, P_F, rap_kw))
        A = step("sparse.rap_s",
                 lambda: sparse.rap_cf_block(A, P_F, cf, **rap_kw), l)
        levels.append(amg.Level(A=A))

    def smoothers():
        for lv in levels[:-1]:
            lv.P_F = lv.P.extract_rows(
                np.arange(lv.n_coarse, lv.A.nrows, dtype=np.int64))
            lv.smoother = amg.HybridGSSmoother(
                lv.A, nthreads=cfg.nthreads, cf_marker=lv.cf_marker,
                variant="hybrid", optimized=True, cf_contiguous=True,
                seed=cfg.seed)
        return amg.CoarseSolver(
            levels[-1].A, dense_threshold=cfg.dense_coarse_threshold,
            nthreads=cfg.nthreads)

    coarse = step("amg.smoother_build_s", smoothers, None)
    h = amg.Hierarchy(levels=levels, coarse_solver=coarse, config=cfg)
    step("amg.plan_compile_s", lambda: solveplan.attach_solve_plan(h), None)
    return h, acc, pieces


def amg_setup_section(L: Ladder, A, cfg, hierarchy) -> None:
    """Setup and refresh rungs, and how much of one capturing build / one
    refresh they leave unattributed."""
    L.put("amg.levels", hierarchy.num_levels, "count")
    L.put("amg.operator_complexity", hierarchy.operator_complexity(), "ratio")
    L.put("amg.grid_complexity", hierarchy.grid_complexity(), "ratio")

    per_rep = []

    def one_replay():
        with L.tracer.span("ladder.setup", decomposes="e2e.setup"):
            h, acc, pieces = replay_setup(L.tracer, A, cfg)
        per_rep.append(acc)
        return h, pieces

    _, (h2, pieces) = repeat(one_replay, budget_s=L.seconds * 0.10,
                             min_reps=min(3, L.min_reps), warmup=0)
    if h2.level_sizes() != hierarchy.level_sizes():
        raise AssertionError(
            f"setup replay built {h2.level_sizes()}, the library built "
            f"{hierarchy.level_sizes()}: the ladder no longer mirrors setup")
    for name in SETUP_RUNGS:
        L.out[name] = summarize([acc[name] for acc in per_rep], "s")

    # Plan capture: what capture_plan=True (the default user path) adds.
    L.time_together({
        "aux.build_plain": lambda: amg.build_hierarchy(A, cfg),
        "aux.build_capture": lambda: amg.build_hierarchy(
            A, cfg, capture_plan=True)}, share=0.12)
    L.put("amg.plan_capture_s",
          _sub(L.get("aux.build_capture"), L.get("aux.build_plain")), "s")
    capture = L.get("amg.plan_capture_s")
    attributed = _sum(*(L.get(n) for n in SETUP_RUNGS),
                      None if capture is None else max(capture, 0.0))
    L.put("amg.setup_unattributed_share",
          _sub(1.0, _div(attributed, L.get("aux.build_capture"))),
          "wall_ratio")

    # RAP counts, RAP plan capture and the numeric (refresh) twins, summed
    # over the levels like the rungs above.
    with perf.collect() as rap_log:
        for A_l, cf, P_F, kw in pieces:
            sparse.rap_cf_block(A_l, P_F, cf, **kw)
    L.put("sparse.rap_modeled_flops", rap_log.total("flops"), "flop")
    L.put("sparse.rap_modeled_bytes", rap_log.total("bytes_total"), "B")
    L.time("sparse.rap_plan_s", lambda: [
        sparse.rap_cf_block_plan(A_l, P_F, cf, **kw)
        for A_l, cf, P_F, kw in pieces], share=0.03)
    plan = hierarchy.plan
    if plan is None:
        warnings.warn("hierarchy carries no setup plan: refresh rungs absent")
        return
    L.time("amg.interp_numeric_s", lambda: [
        amg.extended_i_numeric(
            A_l, lp.S, cf, lp.p_raw, trunc_fact=cfg.trunc_fact,
            max_elmts=cfg.max_elmts, reordered=True,
            fused_truncation=cfg.flags.fused_truncation)
        for (A_l, cf, _, _), lp in zip(pieces, plan.levels)],
        share=0.02)
    L.time("sparse.rap_numeric_s", lambda: [
        sparse.rap_cf_block_numeric(lp.rap, A_l, P_F)
        for (A_l, _, P_F, _), lp in zip(pieces, plan.levels)],
        share=0.02)
    A2 = sparse.CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    L.time("aux.refresh", lambda: hierarchy.refresh(A2), share=0.02)
    with perf.collect() as log:
        hierarchy.refresh(A2)
    # A refresh whose guards trip rebuilds from scratch: cold-phase records.
    L.put("amg.refresh_fallbacks", int(any(
        r.phase in ("Strength+Coarsen", "Interp", "RAP")
        for r in log.records)), "count")
    numeric = _sum(L.get("amg.interp_numeric_s"), L.get("sparse.rap_numeric_s"))
    L.put("amg.refresh_unattributed_share",
          _sub(1.0, _div(numeric, L.get("aux.refresh"))), "wall_ratio")


def setup_peak_mb(A, cfg) -> float:
    """tracemalloc peak of one capturing build (slow: run last, once)."""
    gc.collect()
    tracemalloc.start()
    try:
        amg.build_hierarchy(A, cfg, capture_plan=True)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# amg solve, krylov, perf
# ---------------------------------------------------------------------------

def amg_solve_section(L: Ladder, solver, b, B8) -> None:
    h = solver.hierarchy
    lvl0 = h.levels[0]
    bp = b[lvl0.new2old] if lvl0.new2old is not None else b
    Bp = B8[lvl0.new2old] if lvl0.new2old is not None else B8
    n = len(bp)
    if lvl0.smoother is not None:
        L.time("amg.gs_sweep_s",
               lambda: lvl0.smoother.presmooth(np.zeros(n), bp))
        L.time("amg.gs_sweep_multi8_s",
               lambda: lvl0.smoother.presmooth_multi(np.zeros((n, 8)), Bp))
    L.time("amg.vcycle_s", lambda: amg.vcycle(h, bp), share=0.01)
    L.time("amg.vcycle_multi8_s", lambda: amg.vcycle_multi(h, Bp), share=0.01)
    bc = np.ones(h.levels[-1].A.nrows)
    L.time("amg.coarse_solve_s", lambda: h.coarse_solver.solve(bc))
    with perf.collect() as log:
        amg.vcycle(h, bp)
    L.put("amg.vcycle_records", len(log), "count")
    L.put("amg.vcycle_modeled_bytes", log.total("bytes_total"), "B")


def solve_overheads_section(L: Ladder, A, cfg, solver, b, tol: float) -> None:
    """One standalone AMG solve four ways, alternated so that host drift
    hits all alike: plain, under ``collect()``, at check level ``cheap``,
    and through the facade on a warm cache."""
    cache = amg.HierarchyCache(4)
    repro.setup(A, cfg, cache=cache)

    def collected():
        with perf.collect():
            return solver.solve(b, tol=tol)

    def checked():
        with analysis.check_scope("cheap"):
            return solver.solve(b, tol=tol)

    last = L.time_together({
        "aux.amg_solve": lambda: solver.solve(b, tol=tol),
        "aux.solve_collect": collected,
        "aux.solve_cheap": checked,
        "api.cache_hit_solve_s": lambda: repro.solve(
            A, b, config=cfg, tol=tol, cache=cache),
    }, share=0.05)
    plain, res = L.get("aux.amg_solve"), last.get("aux.amg_solve")
    vcycle_s = L.get("amg.vcycle_s")
    if res is not None and vcycle_s is not None:
        L.put("amg.solve_unattributed_share",
              1.0 - res.iterations * vcycle_s / plain, "wall_ratio")
    L.put("api.facade_overhead_s",
          _sub(L.get("api.cache_hit_solve_s"), plain), "s")
    L.put("perf.collect_overhead_share",
          _sub(_div(L.get("aux.solve_collect"), plain), 1.0), "wall_ratio")
    L.put("analysis.check_cheap_overhead_share",
          _sub(_div(L.get("aux.solve_cheap"), plain), 1.0), "wall_ratio")


def krylov_section(L: Ladder, A, solver, b, B8, tol: float) -> None:
    def per_iteration(name, run, iterations, share):
        res = L.time(name, run, share=share)
        if res is not None:
            its = max(iterations(res), 1)
            L.out[name] = {k: v / its if isinstance(v, float) else v
                           for k, v in L.out[name].items()}

    per_iteration("krylov.pcg_iter_s", lambda: krylov.pcg(
        A, b, precondition=solver.precondition, tol=tol),
        lambda r: r.iterations, 0.01)
    per_iteration("krylov.fgmres_iter_s", lambda: krylov.fgmres(
        A, b, precondition=solver.precondition, tol=tol),
        lambda r: r.iterations, 0.01)
    per_iteration("krylov.pcg_multi8_iter_s", lambda: krylov.pcg_multi(
        A, B8, precondition_multi=solver.precondition_multi, tol=tol),
        lambda rs: max(r.iterations for r in rs), 0.02)
    # BLAS-1, guards and bookkeeping: what a PCG iteration costs beyond its
    # V-cycle and its SpMV.
    kernels = _sum(L.get("amg.vcycle_s"), L.get("sparse.spmv_s"))
    L.put("krylov.overhead_share",
          _sub(1.0, _div(kernels, L.get("krylov.pcg_iter_s"))), "wall_ratio")


def perf_section(L: Ladder, cfg, e2e: dict) -> None:
    """*e2e* maps ``setup`` / ``solve`` to ``(untraced wall seconds, record
    log)`` of the workload's own end-to-end operation."""
    calls = 20000

    def count_loop():
        with perf.collect():
            for _ in range(calls):
                perf.count("bench.noop", flops=1.0, bytes_read=8.0)

    L.time("perf.count_call_ns", count_loop, unit="ns", scale=1e9 / calls)
    for op, (wall, log) in e2e.items():
        L.put(f"perf.records_per_{op}", len(log), "count")
        # The vehicle's overhead figure: wall time per byte the model counts.
        L.put(f"perf.wall_ns_per_modeled_byte.{op}",
              _div(wall, log.total("bytes_total") * 1e-9), "ns/B")
    machine = machine_for(cfg)
    setup_log = e2e["setup"][1]
    L.time("perf.log_time_s", lambda: machine.log_time(setup_log))


def base_flags_section(L: Ladder, A, cfg, b, tol: float) -> None:
    """The paper's Fig. 5 ratio for this input: modeled HYPRE_opt over
    HYPRE_base, set-up and standalone solve.  Exact — a vehicle-only PR
    must leave both unchanged."""
    modeled = {}
    for label, config in (("opt", cfg),
                          ("base", cfg.with_flags(repro.HYPRE_BASE_FLAGS))):
        solver, machine = repro.AMGSolver(config), machine_for(config)
        with perf.collect() as setup_log:
            solver.setup(A)
        with perf.collect() as solve_log:
            solver.solve(b, tol=tol)
        modeled[label] = (machine.log_time(setup_log),
                          machine.log_time(solve_log))
    L.put("perf.opt_over_base_modeled_setup",
          _div(modeled["opt"][0], modeled["base"][0]), "ratio")
    L.put("perf.opt_over_base_modeled_solve",
          _div(modeled["opt"][1], modeled["base"][1]), "ratio")


def node_ladder(L: Ladder, *, A, cfg, solver, b, B8, tol, rng, e2e) -> None:
    """Every rung that needs only one operator and its sequential
    hierarchy — run by all four workloads on their own operator.

    ``solver`` is an ``AMGSolver`` set up on ``(A, cfg)``; ``e2e`` feeds
    :func:`perf_section`.
    """
    h = solver.hierarchy
    L.section(sparse_section, A, h, rng)
    L.section(amg_setup_section, A, cfg, h)
    L.section(amg_solve_section, solver, b, B8)
    L.section(solve_overheads_section, A, cfg, solver, b, tol)
    L.section(krylov_section, A, solver, b, B8, tol)
    L.time("api.fingerprint_s", lambda: repro.fingerprint(A, cfg))
    L.section(perf_section, cfg, e2e)
    L.section(base_flags_section, A, cfg, b, tol)
    L.put("amg.setup_peak_mb", setup_peak_mb(A, cfg), "MB")
    for name in [n for n in L.out if n.startswith("aux.")]:
        del L.out[name]
