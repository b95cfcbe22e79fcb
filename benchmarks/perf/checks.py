"""Output checks feeding ``attempted`` / ``failed`` (the failure rate).

Every check is independent of the library's own kernels: residuals are
recomputed with plain numpy on the CSR arrays, so a wrong answer cannot
vouch for itself.
"""

from __future__ import annotations

import numpy as np

#: Slack on the solvers' own stopping test: they stop on a recurrence or a
#: fused residual norm, the check recomputes ``b - A x`` from scratch.
RESIDUAL_SLACK = 1.0 + 1e-6


class Checker:
    """Counts attempted / failed operations and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    # -- numeric checks ------------------------------------------------------
    def residual(self, A, x, b, tol: float, what: str) -> bool:
        """``||b - A x|| <= tol * ||b||`` with a numpy-only matvec."""
        if x is None:
            return self.record(False, f"{what}: no solution returned")
        r = np.asarray(b, dtype=np.float64) - csr_matvec(A, x)
        rel = float(np.linalg.norm(r) / np.linalg.norm(b))
        return self.record(rel <= tol * RESIDUAL_SLACK,
                           f"{what}: relative residual {rel:.3e} > {tol:g}")

    def solve(self, A, b, res, tol: float, what: str) -> bool:
        """A converged solve whose independent residual meets *tol*."""
        if not res.converged:
            return self.record(False, f"{what}: not converged "
                               f"after {res.iterations} iterations")
        return self.residual(A, res.x, b, tol, what)

    def columns_match_singles(self, blocked, singles, what: str) -> None:
        """``solve_many`` column *j* == single solve of column *j*, bit for
        bit, iteration count included (the library's stated contract)."""
        for j, (rb, rs) in enumerate(zip(blocked, singles)):
            same = (rb.iterations == rs.iterations
                    and np.array_equal(rb.x, rs.x))
            self.record(same, f"{what}: column {j} differs from its "
                        f"single-RHS solve ({rb.iterations} vs "
                        f"{rs.iterations} iterations)")

    def close(self, x, x_ref, rtol: float, what: str) -> bool:
        err = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
        return self.record(err <= rtol, f"{what}: relative difference "
                           f"{err:.3e} > {rtol:g}")

    def service_results(self, results, items, matrices, tol: float,
                        statuses, what: str) -> None:
        """Every request ends in a known state; anything but a completed,
        converged, residual-checked solve counts as a failure."""
        for i, (res, item) in enumerate(zip(results, items)):
            tag = f"{what}: request {i}"
            if res is None or res.status not in statuses:
                self.record(False, f"{tag}: no terminal status")
            elif not res.ok:
                self.record(False, f"{tag}: status {res.status!r}, "
                            f"converged={res.converged}")
            else:
                self.residual(matrices[item.matrix_index], res.x, item.b,
                              tol, tag)


def csr_matvec(A, x) -> np.ndarray:
    """``A @ x`` from the raw CSR arrays (``np.add.reduceat`` row sums).

    Also the harness's plain single-threaded yardstick
    (``vehicle.ref_spmv_s``).  Empty rows are handled explicitly because
    ``reduceat`` returns the *next* element for an empty segment.
    """
    prod = A.data * np.asarray(x, dtype=np.float64)[A.indices]
    starts = A.indptr[:-1]
    y = np.zeros(len(starts))
    nonempty = A.indptr[1:] > starts
    if prod.size:
        y[nonempty] = np.add.reduceat(prod, starts[nonempty])
    return y


class ExactLedger:
    """Exact metrics must repeat bit-for-bit across the reps of one run."""

    def __init__(self) -> None:
        self.values: dict[str, object] = {}
        self.mismatches: list[str] = []

    def observe(self, name: str, value) -> None:
        if name not in self.values:
            self.values[name] = value
        elif self.values[name] != value:
            self.mismatches.append(
                f"{name}: {self.values[name]!r} then {value!r}")
