"""Extension study — coarsening and interpolation trade-offs (§2).

The paper's §2 narrates the history: classical (Ruge–Stüben) coarsening
converges fast but over-coarsens in 3-D; PMIS coarsens cheaply but breaks
distance-one interpolation; distance-two operators (extended+i) repair it.
This bench quantifies the whole story on one 3-D problem, plus the V/W/F
cycle and smoother menus.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import AMGSolver, single_node_config
from repro.perf import format_table
from repro.problems import laplace_3d_7pt

from conftest import emit, tick


@pytest.fixture(scope="module")
def A():
    return laplace_3d_7pt(14)


def _solve(A, **overrides):
    cfg = replace(single_node_config(nthreads=14), **overrides)
    s = AMGSolver(cfg)
    s.setup(A)
    res = s.solve(np.ones(A.nrows), tol=1e-7, maxiter=200)
    return s, res


def test_coarsening_interpolation_matrix(benchmark, A):
    tick(benchmark)
    rows = []
    results = {}
    for coarsening in ("rs", "pmis"):
        for interp in ("classical", "extended+i"):
            s, res = _solve(A, coarsening=coarsening, interp=interp)
            rows.append([coarsening, interp, res.iterations,
                         round(s.operator_complexity, 2), res.converged])
            results[(coarsening, interp)] = (s, res)
    emit(
        "coarsening_interp_matrix",
        format_table(
            ["coarsening", "interpolation", "iterations", "op complexity",
             "converged"],
            rows,
            title="The §2 story on 3-D 7-pt Poisson",
        ),
    )
    # PMIS + classical degrades; extended+i repairs it (§2).
    it_pc = results[("pmis", "classical")][1].iterations
    it_pe = results[("pmis", "extended+i")][1].iterations
    assert it_pc > it_pe
    # All converge.
    assert all(r.converged for _, r in results.values())


def test_cycle_comparison(benchmark, A):
    tick(benchmark)
    rows = []
    iters = {}
    for ct in ("V", "W", "F"):
        s, res = _solve(A, cycle_type=ct)
        rows.append([ct, res.iterations, res.converged])
        iters[ct] = res.iterations
    emit(
        "cycle_comparison",
        format_table(["cycle", "iterations", "converged"], rows,
                     title="Cycle types (W/F trade work per cycle for "
                           "fewer cycles)"),
    )
    assert iters["W"] <= iters["V"]
    assert iters["F"] <= iters["V"]


def test_smoother_menu(benchmark, A):
    tick(benchmark)
    rows = []
    its = {}
    for sm in ("hybrid_gs", "lex", "multicolor", "jacobi", "l1_jacobi",
               "chebyshev"):
        s, res = _solve(A, smoother=sm)
        rows.append([sm, res.iterations, res.converged])
        its[sm] = res.iterations
    emit(
        "smoother_menu",
        format_table(["smoother", "iterations", "converged"], rows,
                     title="Smoother comparison (hybrid GS is the paper's "
                           "default; polynomial smoothers trade iterations "
                           "for parallelism)"),
    )
    # GS variants must beat plain damped Jacobi.
    assert its["hybrid_gs"] <= its["jacobi"]
    assert its["lex"] <= its["jacobi"]
