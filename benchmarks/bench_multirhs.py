"""Multi-RHS batching — amortizing the hierarchy stream over k solves.

Every solve-phase kernel is memory-bound on the matrix stream (Fig. 5's
GS/SpMV buckets).  Solving a block of k right-hand sides with the blocked
kernels reads each level matrix, smoother structure, and coarse factor once
per cycle for all k columns instead of once per column, so the modeled
per-RHS solve time drops toward the pure vector-stream floor.  This bench
measures that amortization on lap3d27 (27-point stencil: matrix-heavy, the
best case the paper's Table 2 suite contains) and verifies the batched
answers match the one-at-a-time solves.
"""

import numpy as np
import pytest

from repro.amg import AMGSolver
from repro.config import single_node_config
from repro.perf import HaswellModel, collect, format_table
from repro.problems import laplace_3d_27pt

from conftest import emit, tick

SIZE = 12          # 12^3 = 1728 rows, 27-point stencil
BATCHES = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def setup():
    A = laplace_3d_27pt(SIZE)
    cfg = single_node_config()
    solver = AMGSolver(cfg)
    solver.setup(A)
    machine = HaswellModel(threads=cfg.nthreads)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((A.nrows, max(BATCHES)))
    return A, solver, machine, B


def test_multirhs_amortization(benchmark, setup):
    A, solver, machine, B = setup
    kmax = max(BATCHES)

    # k independent single-RHS solves (hierarchy reused, solve phase only).
    singles = []
    t_single = 0.0
    for j in range(kmax):
        with collect() as log:
            singles.append(solver.solve(B[:, j]))
        t_single += machine.log_time(log)
    t_single_per_rhs = t_single / kmax

    rows = [[1, round(t_single_per_rhs * 1e3, 4), 1.0]]
    speedup_at = {}
    for k in BATCHES:
        with collect() as log:
            results = solver.solve_many(B[:, :k])
        t_batch = machine.log_time(log)
        per_rhs = t_batch / k
        speedup_at[k] = t_single_per_rhs / per_rhs
        rows.append([k, round(per_rhs * 1e3, 4), round(speedup_at[k], 2)])
        for j, r in enumerate(results):
            ref = singles[j]
            assert r.converged and ref.converged
            err = np.linalg.norm(r.x - ref.x) / np.linalg.norm(ref.x)
            assert err <= 1e-10, (k, j, err)

    emit(
        "multirhs_amortization",
        format_table(
            ["k (block size)", "per-RHS solve (ms)", "speedup vs k solos"],
            rows,
            title=f"Batched multi-RHS V-cycles, lap3d27 n={A.nrows} "
                  "(modeled Haswell solve time per right-hand side)",
        ),
    )
    # The headline claim: at k=8 the per-RHS modeled time is at least 1.5x
    # lower than running 8 independent solves.
    assert speedup_at[8] >= 1.5, speedup_at
    # Amortization is monotone in k (each step spreads the matrix stream
    # over more columns).
    ks = sorted(speedup_at)
    assert all(speedup_at[a] <= speedup_at[b] + 1e-9
               for a, b in zip(ks, ks[1:]))
    tick(benchmark, lambda: solver.solve_many(B[:, :4], maxiter=2))


def test_multirhs_krylov_amortization(benchmark, setup):
    """The same effect through the blocked Krylov drivers."""
    from repro.krylov import fgmres, fgmres_multi

    A, solver, machine, B = setup
    k = 8
    t_single = 0.0
    for j in range(k):
        with collect() as log:
            r = fgmres(A, B[:, j], precondition=solver.precondition)
        assert r.converged
        t_single += machine.log_time(log)
    with collect() as log:
        results = fgmres_multi(A, B[:, :k],
                               precondition_multi=solver.precondition)
    t_batch = machine.log_time(log)
    assert all(r.converged for r in results)
    speedup = t_single / t_batch
    emit(
        "multirhs_krylov",
        f"AMG-preconditioned FGMRES, lap3d27 n={A.nrows}, k={k}:\n"
        f"  {t_single / k * 1e3:.4f} ms/RHS solo -> "
        f"{t_batch / k * 1e3:.4f} ms/RHS batched "
        f"({speedup:.2f}x)",
    )
    assert speedup >= 1.5
    tick(benchmark)
