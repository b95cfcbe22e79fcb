"""Distributed set-up case matrix pinned by ``tests/golden/dist_setup_streams.json``.

The golden was generated at the last commit whose distributed set-up ran
one rank at a time (the parent of the rank-stacked set-up), so it is the
fixed point every later set-up change is compared against: per case the
message log, the collectives, every rank's record stream, the CF splitting
and every level's ``A`` / ``P`` / ``R`` (``diag``, ``offd``, ``colmap`` per
rank), each as a count plus a sha256 of the exact bytes (set-up values come
from elementwise arithmetic and ``bincount`` sums in a fixed order — no
BLAS — so they are reproducible across hosts).

Regenerate (only when a PR changes set-up *accounting* on purpose)::

    PYTHONPATH=src python tests/dist_setup_cases.py --write
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.config import multi_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, RowPartition, SimComm
from repro.problems import laplace_3d_27pt
from repro.topo import NodeTopology

GOLDEN = Path(__file__).parent / "golden" / "dist_setup_streams.json"

RANKS = (1, 2, 3, 5, 8, 32)
INTERPS = ("ei", "2s-ei", "mp")
#: (ppn, sparsify_tol, filter_interp_comm): every rank count x scheme x
#: opt/base cell takes one of the eight, rotating, so each pair of values
#: occurs with every rank count and every scheme.
KNOBS = [(ppn, tol, filt) for ppn in (1, 4) for tol in (0.0, 0.3)
         for filt in (True, False)]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _matrix(M: ParCSRMatrix) -> dict:
    parts = [M.row_part.bounds.tobytes(), M.col_part.bounds.tobytes()]
    for blk in M.blocks:
        for csr in (blk.diag, blk.offd):
            parts += [csr.shape, csr.indptr.astype(np.int64).tobytes(),
                      csr.indices.astype(np.int64).tobytes(),
                      csr.data.astype(np.float64).tobytes()]
        parts.append(np.asarray(blk.colmap, dtype=np.int64).tobytes())
    return {"shape": list(M.shape), "nnz": int(M.nnz), "sha256": _sha(parts)}


def setup_case(nranks: int, interp: str, optimized: bool, ppn: int,
               sparsify_tol: float, filter_comm: bool, size: int = 8) -> dict:
    A = laplace_3d_27pt(size)
    part = RowPartition.uniform(A.nrows, nranks)
    cfg = multi_node_config(interp, optimized=optimized, nthreads=4)
    cfg = replace(cfg, coarse_size=24, sparsify_tol=sparsify_tol,
                  flags=replace(cfg.flags, filter_interp_comm=filter_comm))
    comm = SimComm(nranks)
    topo = NodeTopology(nranks, ppn) if ppn > 1 else None
    h = DistAMGSolver(comm, cfg, topology=topo).setup(
        ParCSRMatrix.from_global(A, part))
    messages = [(m.event.src, m.event.dst, m.event.nbytes, m.event.persistent,
                 m.event.tag, m.phase) for m in comm.messages]
    streams = [[(r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
                 r.branches, r.mispredicts, r.parallel, r.level)
                for r in log.records] for log in comm.rank_logs]
    levels = []
    for lvl in h.levels:
        ops = {"A": _matrix(lvl.A)}
        for name in ("P", "R", "A_full"):
            M = getattr(lvl, name)
            if M is not None:
                ops[name] = _matrix(M)
        if lvl.cf_parts is not None:
            ops["cf"] = _sha(np.asarray(c, dtype=np.int64).tobytes()
                             for c in lvl.cf_parts)
        ops["node_aware"] = bool(lvl.halo.node_aware)
        levels.append(ops)
    return {
        "messages": {"count": len(messages), "sha256": _sha(messages)},
        "collectives": {
            "count": len(comm.collectives),
            "sha256": _sha((c.kind, c.nranks, c.nbytes, c.phase)
                           for c in comm.collectives)},
        "records": {"counts": [len(s) for s in streams],
                    "sha256": _sha(streams)},
        "persistent_created": comm.persistent_created,
        "levels": levels,
    }


def _cases() -> dict:
    cases = {}
    cell = 0
    for nranks in RANKS:
        for interp in INTERPS:
            for optimized in (True, False):
                ppn, tol, filt = KNOBS[cell % len(KNOBS)]
                cell += 3  # coprime with 8: walks all eight combinations
                cases[_name(nranks, interp, optimized, ppn, tol, filt)] = (
                    nranks, interp, optimized, ppn, tol, filt)
    # The benchmark's shape (32 ranks, ext+i, optimized): all eight.
    for ppn, tol, filt in KNOBS:
        cases[_name(32, "ei", True, ppn, tol, filt)] = (
            32, "ei", True, ppn, tol, filt)
    # More rows per rank: four levels, multi-hop renumbering.
    cases["8r-ei-opt-ppn4-n1000"] = (8, "ei", True, 4, 0.0, True, 10)
    cases["5r-ei-base-ppn1-n1000"] = (5, "ei", False, 1, 0.3, False, 10)
    # Aggressive coarsening deep enough to sparsify a middle level.
    cases["3r-2s-ei-base-ppn1-n1728"] = (3, "2s-ei", False, 1, 0.3, False, 12)
    cases["8r-mp-opt-ppn4-n1728"] = (8, "mp", True, 4, 0.3, True, 12)
    return cases


def _name(nranks, interp, optimized, ppn, tol, filt) -> str:
    return (f"{nranks}r-{interp}-{'opt' if optimized else 'base'}-ppn{ppn}"
            f"-{'sparsify' if tol else 'full'}-{'filter' if filt else 'nofilter'}")


CASES = _cases()


def run_case(name: str) -> dict:
    return setup_case(*CASES[name])


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {GOLDEN.relative_to(Path(__file__).parent)}")
    ap.add_argument("--out", type=Path, help="write the golden content here")
    args = ap.parse_args(argv)
    golden = {}
    for name in CASES:
        golden[name] = run_case(name)
        print(name, golden[name]["messages"]["count"],
              len(golden[name]["levels"]))
    out = GOLDEN if args.write else args.out
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
