"""Node-aware halo aggregation — inter-node traffic and scaling deltas.

For each node count the bench builds the same lap3d27 hierarchy twice on
``nodes * ppn`` ranks: once flat (no topology — the wire schedule is the
logical halo pattern) and once node-aware (``repro.topo`` 3-step
aggregation where the two-tier model says it wins).  Both runs must
produce **bit-identical** solve iterates — aggregation only re-routes the
wire messages — so the comparison isolates pure communication effects:

* per level: off-node wire messages/bytes of the flat vs aggregated
  schedule (the static-schedule wire split of ``repro.analysis.sched``),
  plus each A-halo plan's modeled flat/aggregated exchange times;
* per point: modeled solve-phase communication seconds under the *same*
  two-tier network, flat vs node-aware — the fig6/fig8-style delta.

Acceptance (ISSUE 9): at >= 16 ranks with ppn >= 4 the node-aware
schedule reduces modeled inter-node message counts on coarse levels with
bit-identical iterates.

Run as a script for the CI determinism smoke: ``python
benchmarks/bench_nodeaware.py --smoke --json OUT.json`` writes sorted
JSON; two runs must produce identical bytes.
"""

import json
import os

import numpy as np

from repro.analysis.sched import extract_schedule, message_matrix, scan_schedule
from repro.bench import net_scale
from repro.config import multi_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, ParVector, RowPartition, SimComm
from repro.perf import FDRInfinibandModel, format_table
from repro.problems import laplace_3d_27pt
from repro.topo import NodeTopology

PPN = int(os.environ.get("REPRO_NODEAWARE_PPN", "4"))
SIZE = int(os.environ.get("REPRO_NODEAWARE_SIZE", "14"))
NODES = tuple(int(x) for x in os.environ.get(
    "REPRO_NODEAWARE_NODES", "2,4,8").split(","))
SMOKE_NODES = NODES[:2]
TOL = 1e-7


def _solve(A, part, comm, topo, net, b):
    solver = DistAMGSolver(comm, multi_node_config("ei"),
                           topology=topo, net=net)
    solver.setup(Ap := ParCSRMatrix.from_global(A, part))
    pre_msgs = len(comm.messages)
    pre_coll = len(comm.collectives)
    res = solver.solve(ParVector.from_global(b, part), tol=TOL)
    t_comm = net.exchange_time(
        comm.messages.columns()[0].take(slice(pre_msgs, None)), comm.nranks)
    for c in comm.collectives[pre_coll:]:
        t_comm += net.allreduce_time(c.nranks, c.nbytes)
    del Ap
    return solver, res, t_comm


def run_point(nodes: int, *, size: int = SIZE, ppn: int = PPN) -> dict:
    """Flat vs node-aware run of one strong-scaling point."""
    nranks = nodes * ppn
    topo = NodeTopology(nranks, ppn)
    net = topo.network(FDRInfinibandModel()).scaled(net_scale())
    A = laplace_3d_27pt(size)
    part = RowPartition.uniform(A.nrows, nranks)
    b = np.random.default_rng(7).standard_normal(A.nrows)

    s_flat, r_flat, t_flat = _solve(A, part, SimComm(nranks), None, net, b)
    s_node, r_node, t_node = _solve(A, part, SimComm(nranks), topo, net, b)

    identical = (
        r_flat.residuals == r_node.residuals
        and r_flat.iterations == r_node.iterations
        and all(np.array_equal(a, c)
                for a, c in zip(r_flat.x.parts, r_node.x.parts))
    )

    # Static wire schedules, both split by the same topology.
    sched_flat = extract_schedule(s_flat.hierarchy)
    sched_flat.topology = topo  # flat wire schedule, node-split accounting
    sched_node = extract_schedule(s_node.hierarchy)
    assert not scan_schedule(sched_node), "node-aware schedule must verify"
    mat_flat = message_matrix(sched_flat)
    mat_node = message_matrix(sched_node)

    levels = []
    for ent_f, ent_n, lvl in zip(mat_flat["levels"], mat_node["levels"],
                                 s_node.hierarchy.levels):
        plan = lvl.halo.node_plan if lvl.halo is not None else None
        levels.append({
            "level": ent_f["level"],
            "flat_offnode_msgs": ent_f["off_node"]["counts"],
            "flat_offnode_bytes": ent_f["off_node"]["bytes"],
            "nodeaware_offnode_msgs": ent_n["off_node"]["counts"],
            "nodeaware_offnode_bytes": ent_n["off_node"]["bytes"],
            "aggregated": bool(plan is not None and plan.aggregated),
            "halo_t_flat": plan.t_flat if plan is not None else 0.0,
            "halo_t_aggregated": (plan.t_aggregated
                                  if plan is not None else 0.0),
        })

    return {
        "nodes": nodes,
        "ppn": ppn,
        "nranks": nranks,
        "n": A.nrows,
        "iterations": r_node.iterations,
        "converged": bool(r_node.converged),
        "bit_identical": bool(identical),
        "levels": levels,
        "solve_comm_flat": t_flat,
        "solve_comm_nodeaware": t_node,
        "comm_delta": (t_flat - t_node) / t_flat if t_flat > 0 else 0.0,
    }


def run_sweep(nodes=NODES) -> dict:
    return {
        "problem": f"lap3d27 n={SIZE}^3, strong scaling, tol {TOL:g}",
        "ppn": PPN,
        "points": [run_point(n) for n in nodes],
    }


def _report(res: dict) -> str:
    rows = []
    for p in res["points"]:
        coarse = [l for l in p["levels"] if l["level"] >= 1]
        rows.append([
            p["nodes"], p["nranks"], p["iterations"],
            sum(l["flat_offnode_msgs"] for l in coarse),
            sum(l["nodeaware_offnode_msgs"] for l in coarse),
            round(p["solve_comm_flat"] * 1e3, 3),
            round(p["solve_comm_nodeaware"] * 1e3, 3),
            f"{p['comm_delta'] * 100:.1f}%",
            "yes" if p["bit_identical"] else "NO",
        ])
    return format_table(
        ["nodes", "ranks", "iters", "coarse off-node msgs (flat)",
         "(node-aware)", "solve comm flat [ms]", "node-aware [ms]",
         "delta", "bit-identical"],
        rows,
        title=f"Node-aware halo aggregation — {res['problem']}, "
              f"ppn={res['ppn']}")


def _point(res: dict, nodes: int) -> dict:
    return next(p for p in res["points"] if p["nodes"] == nodes)


def test_nodeaware_reduces_internode_messages(benchmark):
    from conftest import emit, tick

    res = run_sweep()
    emit("nodeaware", _report(res))
    for p in res["points"]:
        # Aggregation must never change the numerics, only the wire.
        assert p["bit_identical"], p["nodes"]
        assert p["converged"], p["nodes"]
    # ISSUE 9 acceptance: >= 16 ranks, ppn >= 4 -> fewer modeled inter-node
    # messages on the coarse levels, where the halo surfaces are small and
    # the flat schedule pays per-message latency ppn^2 times per node pair.
    big = [p for p in res["points"] if p["nranks"] >= 16]
    assert big, "sweep must include a >=16-rank point"
    for p in big:
        coarse = [l for l in p["levels"] if l["level"] >= 1]
        assert any(l["aggregated"] for l in coarse), p["nodes"]
        flat = sum(l["flat_offnode_msgs"] for l in coarse)
        node = sum(l["nodeaware_offnode_msgs"] for l in coarse)
        assert node < flat, (p["nodes"], flat, node)
    tick(benchmark)


def test_aggregation_follows_model(benchmark):
    from conftest import tick

    res = run_point(4)
    for l in res["levels"]:
        if l["aggregated"]:
            assert l["halo_t_aggregated"] < l["halo_t_flat"], l
    tick(benchmark)


def test_sweep_is_deterministic():
    a = run_point(SMOKE_NODES[0])
    b = run_point(SMOKE_NODES[0])
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="node-aware halo aggregation benchmark (JSON output)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as sorted JSON to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI subset: nodes {SMOKE_NODES} only")
    args = parser.parse_args()
    result = run_sweep(SMOKE_NODES if args.smoke else NODES)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    print(_report(result))
    bad = [p["nodes"] for p in result["points"] if not p["bit_identical"]]
    if bad:
        raise SystemExit(f"bit-identity violated at nodes={bad}")
