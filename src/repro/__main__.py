"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Generate a problem, run AMG (standalone or FGMRES-preconditioned),
    print convergence and modeled Haswell times.  ``--rhs K`` (K > 1) solves
    a block of K random right-hand sides through the batched multi-RHS path
    (one hierarchy, blocked kernels) and reports the modeled solve time
    per right-hand side.  ``--ranks N`` runs the distributed solver on N
    simulated ranks; ``--faults PLAN.json`` additionally injects the
    communication faults described by the plan (see docs/robustness.md)
    and prints a fault/retry summary.
``info``
    Print the hierarchy a configuration produces for a problem.
``suite``
    List the Table 2 surrogate suite.
``serve-bench``
    Replay a seeded workload (a named preset or a WorkloadSpec JSON file)
    through the batching solve service (see docs/serving.md) and print the
    combined service/kernel metrics report.  ``--ranks N`` shards the
    service across N modeled ranks behind the consistent-hash router
    (``--replicas``/``--shed-depth``/``--autoscale`` configure the tier)
    and prints the fleet report instead.  ``--chaos PLAN.json`` injects
    seeded rank failures (crash/flap/slow windows) through the fault-
    tolerant router — health-tracked failover, hedged retries via
    ``--hedge-delay`` (which needs the plan), cache re-warm on rejoin —
    and appends a fault lifecycle section to the report.  ``--json PATH``
    additionally writes the deterministic metrics snapshot (bit-identical
    across runs of the same workload and seed, with or without chaos; CI
    diffs it).
    Under ``--check cheap`` (or stricter) the service also records the
    ticket-lifecycle event log and runs the happens-before checker on it
    after the workload drains (see docs/analysis.md).
``verify-comm``
    Build a distributed hierarchy on N simulated ranks and *statically*
    verify its communication schedule — no solve is executed.  The
    verifier reconstructs every level's send/recv graphs from the frozen
    halos and colmaps, cross-checks them against independently recomputed
    patterns, runs the compiled per-rank message programs through a
    rendezvous deadlock detector, and prints the per-level message
    count/volume matrix.  ``--json PATH`` writes the schedule snapshot
    (deterministic; CI diffs it); exits non-zero on any finding.

Examples::

    python -m repro solve --problem lap3d27 --size 16 --scheme ei
    python -m repro solve --problem lap3d27 --size 16 --rhs 8
    python -m repro solve --problem lap3d27 --size 12 --ranks 8
    python -m repro solve --problem lap3d27 --size 12 --ranks 8 --faults plan.json
    python -m repro solve --problem reservoir --size 24 --baseline
    python -m repro info --problem lap2d --size 64
    python -m repro suite
    python -m repro serve-bench --workload tiny --seed 0
    python -m repro serve-bench --workload fleet --ranks 4 --replicas 2
    python -m repro serve-bench --workload tiny --ranks 4 --chaos chaos.json
    python -m repro serve-bench --workload W.json --k 8 --json metrics.json
    python -m repro verify-comm --problem lap3d27 --size 12 --ranks 8
    python -m repro verify-comm --problem lap2d --size 48 --ranks 4 --json s.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .amg import AMGSolver
from .config import multi_node_config, single_node_config
from .krylov import fgmres
from .perf import HaswellModel, collect
from .problems import (
    TABLE2_SUITE,
    generate,
    laplace_2d_5pt,
    laplace_3d_7pt,
    laplace_3d_27pt,
    reservoir_problem,
    suite_names,
)
from .sparse.spmv import spmv


def _build_problem(name: str, size: int, seed: int):
    if name == "lap2d":
        A = laplace_2d_5pt(size)
    elif name == "lap3d7":
        A = laplace_3d_7pt(size)
    elif name == "lap3d27":
        A = laplace_3d_27pt(size)
    elif name == "reservoir":
        A, b, _ = reservoir_problem(size, size, max(size // 2, 2), seed=seed)
        return A, b
    elif name in suite_names():
        A, _ = generate(name, scale=64)
    else:
        raise SystemExit(
            f"unknown problem {name!r}; pick from lap2d, lap3d7, lap3d27, "
            f"reservoir, or a Table 2 name: {', '.join(suite_names())}"
        )
    b = np.random.default_rng(seed).standard_normal(A.nrows)
    return A, b


def _config(args):
    if args.scheme:
        cfg = multi_node_config(args.scheme, optimized=not args.baseline,
                                nthreads=args.threads)
    else:
        cfg = single_node_config(optimized=not args.baseline,
                                 strength_threshold=args.theta,
                                 nthreads=args.threads)
    if args.smoother:
        cfg = replace(cfg, smoother=args.smoother)
    if args.cycle:
        cfg = replace(cfg, cycle_type=args.cycle)
    return cfg


def _topology(args, nranks: int):
    """The ``--topology ppn=N`` knob as a NodeTopology (None = flat)."""
    spec = getattr(args, "topology", None)
    if not spec:
        return None
    from .topo import NodeTopology

    return NodeTopology.parse(spec, nranks)


def _solve_distributed(args, A, b, cfg) -> int:
    """``--ranks``/``--faults`` path: distributed AMG, optionally faulty."""
    from .dist import DistAMGSolver, ParCSRMatrix, ParVector, RowPartition, SimComm
    from .faults import FaultPlan
    from .faults.comm import CommFault, FaultyComm
    from .perf import FDRInfinibandModel
    from .perf.report import format_fault_summary

    nranks = args.ranks if args.ranks > 0 else 4
    plan = None
    if args.faults:
        plan = FaultPlan.from_json_file(args.faults)
        comm = FaultyComm(nranks, plan)
    else:
        comm = SimComm(nranks)

    part = RowPartition.uniform(A.nrows, nranks)
    Ad = ParCSRMatrix.from_global(A, part)
    bd = ParVector.from_global(b, part)
    topo = _topology(args, nranks)
    net = topo.network(FDRInfinibandModel()) if topo else FDRInfinibandModel()
    solver = DistAMGSolver(comm, cfg, topology=topo, net=net)
    machine = HaswellModel(threads=args.threads)

    try:
        solver.setup(Ad)
    except CommFault as exc:
        print(f"set-up failed: {exc}")
        print(format_fault_summary(comm.events, title="fault summary"))
        return 1
    # Kernels charge each rank's log; a phase costs its slowest rank.
    t_setup = sum(comm.compute_phase_makespan(machine).values())
    t_comm_setup = comm.comm_time(net)
    comm.clear_logs()

    res = solver.solve(bd, tol=args.tol)
    t_solve = sum(comm.compute_phase_makespan(machine).values())
    t_comm_solve = comm.comm_time(net)

    x = res.x.to_global()
    true_res = np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b)
    print(f"problem       : {args.problem}  (n={A.nrows}, nnz={A.nnz}, "
          f"ranks={nranks})")
    print(f"configuration : {'baseline' if args.baseline else 'optimized'}"
          f", cycle={cfg.cycle_type}, smoother={cfg.smoother}"
          f"{', faults=' + args.faults if args.faults else ''}")
    print(f"hierarchy     : {solver.hierarchy.num_levels} levels")
    if topo:
        # dist_vcycle hands the coarsest level to the coarse solver, which
        # never sends that level's halo: only the levels above it do.
        sent = solver.hierarchy.levels[:-1]
        agg = sum(1 for lvl in sent
                  if lvl.halo is not None and lvl.halo.node_aware)
        print(f"topology      : {topo.ppn} ranks/node x {topo.nnodes} "
              f"nodes, node-aware halos on {agg}/{len(sent)} levels")
    print(f"convergence   : {res.iterations} iterations, "
          f"converged={res.converged}, degraded={res.degraded}, "
          f"true relres={true_res:.2e}")
    print(f"modeled time  : setup {(t_setup + t_comm_setup) * 1e3:.3f} ms, "
          f"solve {(t_solve + t_comm_solve) * 1e3:.3f} ms "
          f"(comm {t_comm_solve * 1e3:.3f} ms)  (Haswell + FDR IB model)")
    if plan is not None:
        print(format_fault_summary(res.fault_events,
                                   title="fault summary"))
    return 0 if res.converged else 1


def cmd_solve(args) -> int:
    A, b = _build_problem(args.problem, args.size, args.seed)
    cfg = _config(args)
    if args.rhs < 1:
        raise SystemExit("--rhs must be >= 1")
    if args.ranks > 0 or args.faults:
        if args.rhs > 1 or args.krylov:
            raise SystemExit("--ranks/--faults use the distributed V-cycle "
                             "solver; combine with neither --rhs nor --krylov")
        return _solve_distributed(args, A, b, cfg)
    solver = AMGSolver(cfg)
    with collect() as setup_log:
        solver.setup(A)
    machine = HaswellModel(threads=args.threads)
    t_setup = machine.log_time(setup_log)
    print(f"problem       : {args.problem}  (n={A.nrows}, nnz={A.nnz})")
    print(f"configuration : {'baseline' if args.baseline else 'optimized'}"
          f"{' + FGMRES' if args.krylov else ''}"
          f", cycle={cfg.cycle_type}, smoother={cfg.smoother}")
    print(f"hierarchy     : {solver.hierarchy.num_levels} levels, "
          f"operator complexity {solver.operator_complexity:.2f}")

    if args.rhs > 1:
        from .krylov import fgmres_multi

        rng = np.random.default_rng(args.seed)
        B = np.column_stack([b] + [rng.standard_normal(A.nrows)
                                   for _ in range(args.rhs - 1)])
        with collect() as solve_log:
            if args.krylov:
                results = fgmres_multi(
                    A, B, precondition_multi=solver.precondition,
                    tol=args.tol)
            else:
                results = solver.solve_many(B, tol=args.tol)
        t_solve = machine.log_time(solve_log)
        iters = [r.iterations for r in results]
        all_conv = all(r.converged for r in results)
        print(f"convergence   : k={args.rhs} right-hand sides, "
              f"{min(iters)}-{max(iters)} iterations, converged={all_conv}")
        print(f"modeled time  : setup {t_setup * 1e3:.3f} ms, "
              f"batched solve {t_solve * 1e3:.3f} ms "
              f"= {t_solve / args.rhs * 1e3:.3f} ms per RHS  (Haswell model)")
        return 0 if all_conv else 1

    with collect() as solve_log:
        if args.krylov:
            res = fgmres(A, b, precondition=solver.precondition, tol=args.tol)
        else:
            res = solver.solve(b, tol=args.tol)
    true_res = np.linalg.norm(b - spmv(A, res.x)) / np.linalg.norm(b)
    t_solve = machine.log_time(solve_log)
    print(f"convergence   : {res.iterations} iterations, "
          f"converged={res.converged}, true relres={true_res:.2e}")
    print(f"modeled time  : setup {t_setup * 1e3:.3f} ms, "
          f"solve {t_solve * 1e3:.3f} ms  (Haswell model)")
    return 0 if res.converged else 1


def cmd_info(args) -> int:
    A, _ = _build_problem(args.problem, args.size, args.seed)
    solver = AMGSolver(_config(args))
    h = solver.setup(A)
    print(f"{args.problem}: n={A.nrows}, nnz={A.nnz}")
    print(f"{'level':>5} {'rows':>9} {'nnz':>10} {'nnz/row':>8}")
    for l, (n, nnz) in enumerate(h.level_sizes()):
        print(f"{l:>5} {n:>9} {nnz:>10} {nnz / max(n, 1):>8.1f}")
    print(f"operator complexity {h.operator_complexity():.3f}, "
          f"grid complexity {h.grid_complexity():.3f}")
    return 0


def cmd_serve_bench(args) -> int:
    from pathlib import Path

    from .perf.report import format_service_report, format_shard_report
    from .results import SERVICE_STATUSES
    from .serve import (ServiceConfig, ShardedSolveService, SolveService,
                        build, named_workload)
    from .serve.workload import WorkloadSpec

    if Path(args.workload).suffix == ".json":
        spec = WorkloadSpec.from_json_file(args.workload)
        if args.seed is not None:
            from dataclasses import asdict

            spec = WorkloadSpec.from_dict({**asdict(spec), "seed": args.seed})
    else:
        spec = named_workload(args.workload, seed=args.seed)

    plan = None
    if args.chaos:
        from .faults import ShardFaultPlan

        plan = ShardFaultPlan.from_json_file(args.chaos)

    # A plain single-rank request is served by SolveService itself so the
    # report (and --json bytes) stay exactly what this command has always
    # produced; any sharded-tier feature routes through the sharded front.
    sharded = (args.ranks > 1 or args.shed_depth is not None
               or args.autoscale or plan is not None
               or args.hedge_delay is not None)
    try:
        config = ServiceConfig(
            max_queue=args.queue, max_batch=args.k, max_wait=args.max_wait,
            threads=args.threads, ranks=args.ranks,
            replicas=min(args.replicas, args.ranks),
            shed_depth=args.shed_depth, autoscale=args.autoscale,
            min_ranks=min(args.min_ranks, args.ranks),
            heartbeat_interval=args.heartbeat, hedge_delay=args.hedge_delay)
        service = (ShardedSolveService(config, fault_plan=plan) if sharded
                   else SolveService(config))
    except ValueError as exc:
        raise SystemExit(f"serve-bench: {exc}") from None
    results = service.run_workload(build(spec))

    from .analysis import check_event_log, checking
    if checking("cheap"):
        # The drained workload's ticket-lifecycle log must pass the
        # happens-before checks (double completions, slot leaks, lost
        # cancels); at 'off' the log is empty and this is skipped.
        check_event_log(service.events)

    print(f"workload      : {args.workload}  (seed={spec.seed}, "
          f"{spec.requests} requests, rate="
          f"{spec.rate if spec.rate is not None else 'closed'})")
    print(f"service       : k={args.k}, queue={args.queue}, "
          f"max_wait={args.max_wait:g}s"
          + (f", ranks={config.ranks}, replicas={config.replicas}"
             if sharded else ""))
    if sharded:
        print(format_shard_report(service.metrics_snapshot()))
    else:
        print(format_service_report(service.metrics_snapshot()))
    if args.json:
        Path(args.json).write_text(service.metrics_json() + "\n")
        print(f"metrics JSON  : wrote {args.json}")
    ok = all(r is not None and r.status in SERVICE_STATUSES for r in results)
    completed = [r for r in results if r.status == "completed"]
    return 0 if ok and all(r.converged or r.degraded for r in completed) else 1


def cmd_verify_comm(args) -> int:
    from pathlib import Path

    from .analysis.sched import (extract_schedule, format_schedule_report,
                                 scan_schedule, schedule_to_json)
    from .dist import DistAMGSolver, ParCSRMatrix, RowPartition, SimComm

    A, _b = _build_problem(args.problem, args.size, args.seed)
    cfg = _config(args)
    nranks = args.ranks if args.ranks > 0 else 4
    comm = SimComm(nranks)
    part = RowPartition.uniform(A.nrows, nranks)
    Ad = ParCSRMatrix.from_global(A, part)
    topo = _topology(args, nranks)
    solver = DistAMGSolver(comm, cfg, topology=topo)
    solver.setup(Ad)

    sched = extract_schedule(solver.hierarchy)
    findings = scan_schedule(sched)
    print(f"problem       : {args.problem}  (n={A.nrows}, nnz={A.nnz}, "
          f"ranks={nranks})")
    print(f"configuration : {'baseline' if args.baseline else 'optimized'}"
          f", cycle={cfg.cycle_type}, smoother={cfg.smoother}"
          f"{f', topology=ppn={topo.ppn}' if topo else ''}")
    print(format_schedule_report(sched, findings=findings))
    if args.json:
        Path(args.json).write_text(schedule_to_json(sched) + "\n")
        print(f"schedule JSON : wrote {args.json}")
    return 1 if findings else 0


def cmd_suite(_args) -> int:
    print(f"{'name':<16} {'paper rows':>11} {'nnz/row':>8} {'str_thr':>8}")
    for m in TABLE2_SUITE:
        print(f"{m.name:<16} {m.paper_rows:>11} {m.paper_nnz_per_row:>8} "
              f"{m.strength_threshold:>8}")
    return 0


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", default="lap2d")
    p.add_argument("--size", type=int, default=48, help="grid edge length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="HYPRE_base flags (all optimizations off)")
    p.add_argument("--scheme", choices=["ei", "2s-ei", "mp"], default=None,
                   help="Table 4 multi-node preset instead of Table 3")
    p.add_argument("--smoother", default=None,
                   choices=["hybrid_gs", "lex", "multicolor", "jacobi",
                            "l1_jacobi", "chebyshev"])
    p.add_argument("--cycle", default=None, choices=["V", "W", "F"])
    p.add_argument("--threads", type=int, default=14)
    p.add_argument("--theta", type=float, default=0.25,
                   help="strength threshold")
    p.add_argument("--topology", default=None, metavar="ppn=N",
                   help="model N ranks per node (repro.topo): two-tier "
                        "network pricing and node-aware halo aggregation "
                        "on distributed runs (default: flat network)")
    p.add_argument("--check", default=None, choices=["off", "cheap", "full"],
                   help="run the repro.analysis invariant sanitizers at this "
                        "level (overrides the REPRO_CHECK environment "
                        "variable; default: off)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an AMG solve")
    _common(p_solve)
    p_solve.add_argument("--tol", type=float, default=1e-7)
    p_solve.add_argument("--krylov", action="store_true",
                         help="use AMG as FGMRES preconditioner")
    p_solve.add_argument("--rhs", type=int, default=1, metavar="K",
                         help="solve K right-hand sides through the batched "
                              "multi-RHS path (default 1)")
    p_solve.add_argument("--ranks", type=int, default=0, metavar="N",
                         help="run the distributed solver on N simulated "
                              "ranks (default: single-node path)")
    p_solve.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="inject communication faults from a FaultPlan "
                              "JSON file (implies --ranks, default 4)")
    p_solve.set_defaults(func=cmd_solve)

    p_info = sub.add_parser("info", help="print the AMG hierarchy")
    _common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_suite = sub.add_parser("suite", help="list the Table 2 suite")
    p_suite.set_defaults(func=cmd_suite)

    p_serve = sub.add_parser(
        "serve-bench",
        help="replay a seeded workload through the batching solve service")
    p_serve.add_argument("--workload", default="tiny",
                         help="named preset (tiny/small/mixed) or a "
                              "WorkloadSpec JSON file path")
    p_serve.add_argument("--seed", type=int, default=None,
                         help="override the workload seed")
    p_serve.add_argument("--k", type=int, default=8, metavar="K",
                         help="micro-batch cap (default 8)")
    p_serve.add_argument("--queue", type=int, default=64,
                         help="admission queue capacity (default 64)")
    p_serve.add_argument("--max-wait", type=float, default=1e-3,
                         help="micro-batch deadline in modeled seconds "
                              "(default 1e-3)")
    p_serve.add_argument("--threads", type=int, default=14)
    p_serve.add_argument("--ranks", type=int, default=1, metavar="N",
                         help="shard the service across N modeled ranks "
                              "with consistent-hash routing (default 1: "
                              "the plain single-rank service)")
    p_serve.add_argument("--replicas", type=int, default=2, metavar="R",
                         help="candidate ranks per routing key (home + "
                              "R-1 spill targets; default 2, capped at "
                              "--ranks)")
    p_serve.add_argument("--shed-depth", type=int, default=None,
                         metavar="D",
                         help="shed requests at the router when every "
                              "candidate queue is >= D deep (default: "
                              "no shedding)")
    p_serve.add_argument("--autoscale", action="store_true",
                         help="grow/shrink active ranks from queue depth "
                              "(starts at --min-ranks)")
    p_serve.add_argument("--min-ranks", type=int, default=1,
                         help="autoscaler floor (default 1)")
    p_serve.add_argument("--chaos", default=None, metavar="PLAN.json",
                         help="inject the rank failures described by a "
                              "ShardFaultPlan JSON file: health-tracked "
                              "failover, cache re-warm, and a faults "
                              "section in the report (docs/robustness.md)")
    p_serve.add_argument("--hedge-delay", type=float, default=None,
                         metavar="S",
                         help="hedge interactive requests still unresolved "
                              "after S modeled seconds with one duplicate "
                              "on another rank; hedges fire at heartbeat "
                              "ticks, so this needs a non-empty --chaos "
                              "plan (default: no hedging)")
    p_serve.add_argument("--heartbeat", type=float, default=1e-3,
                         metavar="S",
                         help="health-tracker heartbeat interval in modeled "
                              "seconds (default 1e-3; heartbeats tick only "
                              "under a non-empty --chaos plan)")
    p_serve.add_argument("--json", default=None, metavar="PATH",
                         help="write the deterministic metrics snapshot "
                              "JSON here")
    p_serve.add_argument("--check", default=None,
                         choices=["off", "cheap", "full"],
                         help="at cheap or stricter, record the ticket-"
                              "lifecycle event log and run the happens-"
                              "before checker after the workload drains "
                              "(overrides REPRO_CHECK; default: off)")
    p_serve.set_defaults(func=cmd_serve_bench)

    p_verify = sub.add_parser(
        "verify-comm",
        help="statically verify a distributed hierarchy's comm schedule")
    _common(p_verify)
    p_verify.add_argument("--ranks", type=int, default=4, metavar="N",
                          help="simulated ranks to build the hierarchy on "
                               "(default 4)")
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="write the deterministic schedule snapshot "
                               "JSON here")
    p_verify.set_defaults(func=cmd_verify_comm)

    args = parser.parse_args(argv)
    if getattr(args, "check", None):
        from .analysis import set_check_level

        set_check_level(args.check)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
