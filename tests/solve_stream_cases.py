"""Solve-phase case matrix pinned by ``tests/golden/solve_streams.json``.

The golden was generated from the legacy per-sweep execution arm at the
last commit that still had one (PR 12, with its solve-plan gate off), so it
is the fixed point every later solve-phase change is compared against: per case
the PerfLog record stream (count, sha256 and per-kernel totals — the
totals make a mismatch debuggable), the iteration counts and the residual
histories.  Only platform-independent content is stored; iterate bytes
depend on the BLAS behind ``inv @ b`` and are compared host-locally with
``--iterates``.

Regenerate (only when a PR changes solve-phase *accounting* on purpose)::

    PYTHONPATH=src python tests/solve_stream_cases.py --write
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.amg import build_hierarchy
from repro.amg.solver import AMGSolver
from repro.config import multi_node_config, single_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    dist_fgmres,
    dist_pcg,
)
from repro.perf import collect
from repro.problems import laplace_2d_5pt, laplace_3d_27pt
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix
from repro.topo import NodeTopology

GOLDEN = Path(__file__).parent / "golden" / "solve_streams.json"

VARIANTS = ["hybrid_gs", "lex", "multicolor", "jacobi", "l1_jacobi", "chebyshev"]
TOL = 1e-8


def config(smoother="hybrid_gs", cycle="V", **kw):
    return replace(single_node_config(True), smoother=smoother,
                   cycle_type=cycle, nthreads=4, **kw)


def record_stream(records):
    return [
        (r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
         r.branches, r.mispredicts, r.parallel, r.level)
        for r in records
    ]


def summarize(stream):
    """Count + sha256 of a record stream, plus per-kernel totals."""
    kernels: dict[str, list[float]] = {}
    for _, kernel, flops, br, bw, branches, *_ in stream:
        tot = kernels.setdefault(kernel, [0, 0.0, 0.0, 0.0, 0.0])
        tot[0] += 1
        for i, v in enumerate((flops, br, bw, branches), start=1):
            tot[i] += float(v)
    digest = hashlib.sha256("\n".join(map(repr, stream)).encode()).hexdigest()
    return {"count": len(stream), "sha256": digest,
            "kernels": dict(sorted(kernels.items()))}


def _x_hash(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _node_solves(solver, A, k=3, seed=3):
    """``solve`` then ``solve_many`` (k columns) on a set-up *solver*."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(A.nrows)
    B = rng.standard_normal((A.nrows, k))
    with collect() as log:
        res = solver.solve(b, tol=TOL)
    with collect() as mlog:
        many = solver.solve_many(B, tol=TOL)
    return {
        "solve": {
            "iterations": res.iterations,
            "residuals": [float(r) for r in res.residuals],
            "records": summarize(record_stream(log.records)),
            "iterates": [_x_hash(res.x)],
        },
        "solve_many": {
            "iterations": [r.iterations for r in many],
            "residuals": [[float(v) for v in r.residuals] for r in many],
            "records": summarize(record_stream(mlog.records)),
            "iterates": [_x_hash(r.x) for r in many],
        },
    }


def _node_case(cfg, A=None):
    A = laplace_3d_27pt(10) if A is None else A
    s = AMGSolver(cfg)
    with collect():
        s.setup(A)
    return _node_solves(s, A)


def _refresh_case():
    cfg = config()
    A = PROBLEM_BUILDERS["lap3d27g"](10)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    with collect():
        h2 = build_hierarchy(A, cfg, capture_plan=True).refresh(A2)
    s = AMGSolver(cfg)
    s.hierarchy = h2
    return _node_solves(s, A2, seed=5)


def _dist_case(krylov, ppn):
    nranks = 4
    A = laplace_3d_27pt(10)
    part = RowPartition.uniform(A.nrows, nranks)
    comm = SimComm(nranks)
    Ap = ParCSRMatrix.from_global(A, part)
    topo = NodeTopology(nranks, ppn) if ppn else None
    s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4), topology=topo)
    with collect():
        s.setup(Ap)
    b = np.random.default_rng(3).standard_normal(A.nrows)
    rank0 = [len(log.records) for log in comm.rank_logs]
    msg0 = len(comm.messages)
    with collect() as log:
        res = krylov(comm, Ap, ParVector.from_global(b, part),
                     precondition=s.precondition, tol=TOL)
    stream = record_stream(log.records)
    for p, rlog in enumerate(comm.rank_logs):
        stream += record_stream(rlog.records[rank0[p]:])
    messages = [(m.event.src, m.event.dst, m.event.nbytes, m.event.persistent,
                 m.event.tag, m.phase) for m in comm.messages[msg0:]]
    return {
        "solve": {
            "iterations": res.iterations,
            "residuals": [float(r) for r in res.residuals],
            "records": summarize(stream),
            "messages": {
                "count": len(messages),
                "sha256": hashlib.sha256(
                    "\n".join(map(repr, messages)).encode()).hexdigest(),
            },
            "node_aware_levels": sum(
                1 for lvl in s.hierarchy.levels
                if lvl.halo is not None and lvl.halo.node_aware),
            "iterates": [_x_hash(res.x.to_global())],
        },
    }


CASES = {
    **{f"{v}-V": (lambda v=v: _node_case(config(smoother=v))) for v in VARIANTS},
    # Four levels: the smallest depth at which W, F and V all differ.
    "hybrid_gs-W": lambda: _node_case(config(cycle="W"), laplace_2d_5pt(32)),
    "hybrid_gs-F": lambda: _node_case(config(cycle="F"), laplace_2d_5pt(32)),
    "refresh-solve": _refresh_case,
    # Coarsest level *swept* by CoarseSolver.smoother, not solved densely.
    "swept-coarse": lambda: _node_case(config(dense_coarse_threshold=8)),
    "dist-fgmres-4r-flat": lambda: _dist_case(dist_fgmres, 0),
    "dist-fgmres-4r-ppn2": lambda: _dist_case(dist_fgmres, 2),
    "dist-pcg-4r-flat": lambda: _dist_case(dist_pcg, 0),
    "dist-pcg-4r-ppn2": lambda: _dist_case(dist_pcg, 2),
}


def run_case(name: str) -> dict:
    return CASES[name]()


def strip_iterates(case: dict) -> tuple[dict, dict]:
    """Split a case result into (committed content, host-local iterate hashes)."""
    kept, iterates = {}, {}
    for part, body in case.items():
        kept[part] = {k: v for k, v in body.items() if k != "iterates"}
        iterates[part] = body["iterates"]
    return kept, iterates


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {GOLDEN.relative_to(Path(__file__).parent)}")
    ap.add_argument("--out", type=Path, help="write the golden content here")
    ap.add_argument("--iterates", type=Path,
                    help="write host-local iterate hashes (sha256 of x) here")
    args = ap.parse_args(argv)
    golden, iterates = {}, {}
    for name in CASES:
        golden[name], iterates[name] = strip_iterates(run_case(name))
    out = GOLDEN if args.write else args.out
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(golden, indent=1, sort_keys=True)
        # One line per innermost list (kernel totals, residual histories).
        text = re.sub(r"\[[^\[\]{}]*\]",
                      lambda m: " ".join(m.group().split()), text)
        out.write_text(text + "\n")
    if args.iterates is not None:
        args.iterates.write_text(
            json.dumps(iterates, indent=1, sort_keys=True) + "\n")
    for name, case in golden.items():
        print(name, {part: body["records"]["count"] for part, body in case.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
