"""Structural sanitizers for CSR matrices, ParCSR matrices, and hierarchies.

Every checker raises :class:`~repro.analysis.errors.InvariantViolation` on
the first broken invariant and returns the checked object otherwise, so
call sites can write ``A = check_csr(A)``.  The checks are written against
the *attributes* of the objects (``indptr``/``indices``/``data``, blocks,
levels) rather than their classes, which keeps this module import-light —
:mod:`repro.sparse.io` can call :func:`check_csr` without an import cycle.

None of the checkers report through :func:`repro.perf.counters.count`:
validation must never perturb modeled times, at any check level.  The
linear-algebra probes (``R == P^T``, the Galerkin RAP spot-check) therefore
use private raw-numpy matvecs instead of the instrumented kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, checking

__all__ = [
    "check_csr",
    "check_parcsr",
    "check_hierarchy",
    "check_dist_hierarchy",
]


# ---------------------------------------------------------------------------
# Raw (uninstrumented) helpers
# ---------------------------------------------------------------------------

def _row_ids(indptr: np.ndarray) -> np.ndarray:
    counts = np.diff(indptr)
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _raw_spmv(A, x: np.ndarray) -> np.ndarray:
    """``A @ x`` without touching the instrumented kernels."""
    out = np.zeros(A.shape[0], dtype=np.float64)
    np.add.at(out, _row_ids(A.indptr), A.data * x[A.indices])
    return out


def _raw_spmv_t(A, x: np.ndarray) -> np.ndarray:
    """``A.T @ x`` without touching the instrumented kernels."""
    out = np.zeros(A.shape[1], dtype=np.float64)
    np.add.at(out, A.indices, A.data * x[_row_ids(A.indptr)])
    return out


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------

def check_csr(
    A,
    *,
    name: str = "A",
    level: int | None = None,
    rank: int | None = None,
    context: str = "",
    full: bool | None = None,
    sorted_indices: bool = True,
) -> "A":
    """Validate the CSR invariants of *A* (anything with
    ``shape``/``indptr``/``indices``/``data``).

    Cheap checks: indptr shape, start-at-zero, monotonicity, nnz/array-length
    consistency, column indices in ``[0, ncols)``.  Full checks add: column
    indices strictly increasing within each row (which also rules out
    duplicates; skipped when ``sorted_indices=False``), memoised slab
    layouts still holding ``A.data``'s values, and all values finite.

    ``full=None`` follows the active :func:`~repro.analysis.checking` level.
    """
    if full is None:
        full = checking("full")
    kw = dict(level=level, rank=rank, context=context or name)
    nrows, ncols = int(A.shape[0]), int(A.shape[1])
    indptr = A.indptr
    indices = A.indices
    data = A.data

    if indptr.ndim != 1 or len(indptr) != nrows + 1:
        raise InvariantViolation(
            "csr.indptr_shape",
            f"{name}.indptr has shape {indptr.shape}, expected ({nrows + 1},)",
            **kw)
    if len(indptr) and indptr[0] != 0:
        raise InvariantViolation(
            "csr.indptr_start", f"{name}.indptr[0] = {indptr[0]}, expected 0",
            **kw)
    d = np.diff(indptr)
    if len(d) and d.min() < 0:
        row = int(np.argmin(d >= 0))
        raise InvariantViolation(
            "csr.indptr_monotone",
            f"{name}.indptr decreases at row {row} "
            f"({indptr[row]} -> {indptr[row + 1]})",
            **kw)
    nnz = int(indptr[-1]) if len(indptr) else 0
    if len(indices) != nnz or len(data) != nnz:
        raise InvariantViolation(
            "csr.nnz_consistent",
            f"{name}: indptr[-1]={nnz} but len(indices)={len(indices)}, "
            f"len(data)={len(data)}",
            **kw)
    if nnz:
        cmin, cmax = int(indices.min()), int(indices.max())
        if cmin < 0 or cmax >= ncols:
            raise InvariantViolation(
                "csr.indices_range",
                f"{name} has column index range [{cmin}, {cmax}] outside "
                f"[0, {ncols})",
                **kw)
    if not full:
        return A
    if nnz > 1 and sorted_indices:
        di = np.diff(indices)
        row_start = indptr[1:-1]
        interior = np.ones(nnz - 1, dtype=bool)
        starts = row_start[(row_start > 0) & (row_start < nnz)]
        interior[starts - 1] = False
        bad = interior & (di <= 0)
        if bad.any():
            k = int(np.argmax(bad))
            which = "duplicate" if di[k] == 0 else "unsorted"
            row = int(np.searchsorted(indptr, k + 1, side="right")) - 1
            raise InvariantViolation(
                "csr.indices_sorted",
                f"{name} has {which} column index {int(indices[k + 1])} in "
                f"row {row}",
                **kw)
    for direction, lay in zip(("row", "column"), getattr(A, "_layout", ())):
        # A slab layout snapshots the values it was bound to.
        if lay is not None and not lay.holds(data):
            raise InvariantViolation(
                "csr.stale_layout",
                f"{name}.data changed after its {direction} slab layout "
                "was built, without invalidate_cache()",
                **kw)
    if nnz and not np.isfinite(data).all():
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise InvariantViolation(
            "csr.values_finite",
            f"{name} stores {bad} non-finite (NaN/Inf) value"
            f"{'' if bad == 1 else 's'}",
            **kw)
    return A


# ---------------------------------------------------------------------------
# ParCSR
# ---------------------------------------------------------------------------

def check_parcsr(
    A,
    *,
    name: str = "A",
    level: int | None = None,
    halo=None,
    full: bool | None = None,
) -> "A":
    """Validate a :class:`~repro.dist.parcsr.ParCSRMatrix`.

    Per rank: the diag/offd split widths, ``colmap`` sorted strictly
    increasing (the ``searchsorted``-based renumbering kernels silently
    require this), colmap entries globally in range and *outside* the
    rank's own column range (owned columns belong in ``diag``).  With
    *halo*, the frozen receive pattern is cross-checked against the
    colmap ownership it was built from.  Full adds per-block CSR checks.
    """
    if full is None:
        full = checking("full")
    row_part, col_part = A.row_part, A.col_part
    nranks = row_part.nranks
    if len(A.blocks) != nranks:
        raise InvariantViolation(
            "parcsr.block_count",
            f"{name} has {len(A.blocks)} rank blocks, partition has "
            f"{nranks} ranks",
            level=level, context=name)
    if col_part.nranks != nranks:
        raise InvariantViolation(
            "parcsr.partition_ranks",
            f"{name}: row partition has {nranks} ranks, column partition "
            f"has {col_part.nranks}",
            level=level, context=name)
    for p, blk in enumerate(A.blocks):
        kw = dict(level=level, rank=p, context=name)
        lo, hi = col_part.lo(p), col_part.hi(p)
        if blk.diag.shape[0] != row_part.size(p):
            raise InvariantViolation(
                "parcsr.row_size",
                f"{name} rank {p}: {blk.diag.shape[0]} rows, row partition "
                f"says {row_part.size(p)}",
                **kw)
        if blk.offd.shape[0] != blk.diag.shape[0]:
            raise InvariantViolation(
                "parcsr.offd_rows",
                f"{name} rank {p}: offd has {blk.offd.shape[0]} rows, diag "
                f"has {blk.diag.shape[0]}",
                **kw)
        if blk.diag.shape[1] != hi - lo:
            raise InvariantViolation(
                "parcsr.diag_width",
                f"{name} rank {p}: diag is {blk.diag.shape[1]} columns wide, "
                f"column partition owns {hi - lo}",
                **kw)
        colmap = np.asarray(blk.colmap)
        if blk.offd.shape[1] != len(colmap):
            raise InvariantViolation(
                "parcsr.offd_width",
                f"{name} rank {p}: offd is {blk.offd.shape[1]} columns wide "
                f"but colmap has {len(colmap)} entries",
                **kw)
        if len(colmap):
            if len(colmap) > 1 and (np.diff(colmap) <= 0).any():
                k = int(np.argmax(np.diff(colmap) <= 0))
                raise InvariantViolation(
                    "parcsr.colmap_sorted",
                    f"{name} rank {p}: colmap not strictly increasing at "
                    f"position {k} ({int(colmap[k])} -> {int(colmap[k + 1])})",
                    **kw)
            gmin, gmax = int(colmap.min()), int(colmap.max())
            if gmin < 0 or gmax >= col_part.n:
                raise InvariantViolation(
                    "parcsr.colmap_range",
                    f"{name} rank {p}: colmap spans [{gmin}, {gmax}] outside "
                    f"the global column range [0, {col_part.n})",
                    **kw)
            owned = (colmap >= lo) & (colmap < hi)
            if owned.any():
                g = int(colmap[owned][0])
                raise InvariantViolation(
                    "parcsr.colmap_owned",
                    f"{name} rank {p}: colmap lists owned column {g} "
                    f"(rank owns [{lo}, {hi})); it belongs in diag",
                    **kw)
        if full:
            check_csr(blk.diag, name=f"{name}.diag", full=True, **kw)
            check_csr(blk.offd, name=f"{name}.offd", full=True, **kw)
    if halo is not None:
        _check_halo_pattern(A, halo, name=name, level=level)
    return A


def _check_halo_pattern(A, halo, *, name: str, level: int | None) -> None:
    """The frozen halo receive pattern must match colmap ownership."""
    col_part = A.col_part
    expected: dict[tuple[int, int], int] = {}
    for p, blk in enumerate(A.blocks):
        if len(blk.colmap) == 0:
            continue
        owners = col_part.owner_of(np.asarray(blk.colmap))
        for q in np.unique(owners):
            expected[(int(q), p)] = int((owners == q).sum())
    if dict(halo.pattern) != expected:
        missing = sorted(set(expected) - set(halo.pattern))
        extra = sorted(set(halo.pattern) - set(expected))
        sized = sorted(
            k for k in set(halo.pattern) & set(expected)
            if halo.pattern[k] != expected[k]
        )
        raise InvariantViolation(
            "parcsr.halo_pattern",
            f"{name}: frozen halo pattern drifted from colmap ownership "
            f"(missing pairs {missing}, extra pairs {extra}, "
            f"wrong sizes {sized})",
            level=level, context=name)


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------

def check_hierarchy(
    h,
    *,
    full: bool | None = None,
    probe_seed: int = 1234,
    rap_rtol: float = 1e-8,
) -> "h":
    """Validate a node-level :class:`~repro.amg.setup.Hierarchy`.

    Per level: CSR checks on ``A``/``P``, CF-splitting bookkeeping
    (``n_coarse`` vs the marker, coarse size vs the next level), and — when
    the CF-reorder optimization is on — the C-first ordering of the marker.
    Full adds the ``P = [I; P_F]`` identity/permutation-block check, the
    kept ``R == P^T`` probe, and a Galerkin spot-check: for a seeded random
    coarse probe ``u``, ``A_next u`` must equal ``P^T A P u`` to rounding.
    """
    if full is None:
        full = checking("full")
    flags = h.config.flags
    rng = np.random.default_rng(probe_seed)
    for l, lvl in enumerate(h.levels):
        A = lvl.A
        check_csr(A, name=f"A[{l}]", level=l, full=full)
        if A.shape[0] != A.shape[1]:
            raise InvariantViolation(
                "hierarchy.square",
                f"level operator A[{l}] is {A.shape[0]}x{A.shape[1]}",
                level=l)
        if lvl.P is None:
            continue
        P = lvl.P
        check_csr(P, name=f"P[{l}]", level=l, full=full)
        cf = lvl.cf_marker
        if cf is None or len(cf) != A.shape[0]:
            raise InvariantViolation(
                "hierarchy.cf_marker",
                f"level {l}: cf_marker length "
                f"{'missing' if cf is None else len(cf)} != {A.shape[0]} rows",
                level=l)
        nc = int((cf > 0).sum())
        if nc != lvl.n_coarse:
            raise InvariantViolation(
                "hierarchy.cf_count",
                f"level {l}: n_coarse={lvl.n_coarse} but cf_marker has "
                f"{nc} C points",
                level=l)
        if P.shape != (A.shape[0], nc):
            raise InvariantViolation(
                "hierarchy.p_shape",
                f"level {l}: P is {P.shape}, expected ({A.shape[0]}, {nc})",
                level=l)
        if l + 1 < len(h.levels) and h.levels[l + 1].A.shape[0] != nc:
            raise InvariantViolation(
                "hierarchy.coarse_size",
                f"level {l}: {nc} C points but level {l + 1} has "
                f"{h.levels[l + 1].A.shape[0]} rows",
                level=l)
        if flags.cf_reorder:
            if nc and not (cf[:nc] > 0).all() or (cf[nc:] > 0).any():
                raise InvariantViolation(
                    "hierarchy.cf_partitioned",
                    f"level {l}: cf_marker is not C-first under cf_reorder",
                    level=l)
            if full and lvl.P_F is not None:
                _check_identity_block(lvl, l, nc)
        if full and lvl.R is not None:
            _check_kept_transpose(lvl, l, rng, rap_rtol)
        if full and l + 1 < len(h.levels):
            _check_galerkin(lvl, h.levels[l + 1].A, l, rng, rap_rtol)
    return h


def _check_identity_block(lvl, l: int, nc: int) -> None:
    """Coarse rows of P must be the identity (or the recorded permutation)."""
    P = lvl.P
    row_nnz = np.diff(P.indptr[: nc + 1])
    if (row_nnz != 1).any():
        row = int(np.argmax(row_nnz != 1))
        raise InvariantViolation(
            "hierarchy.p_identity_block",
            f"level {l}: coarse row {row} of P has {int(row_nnz[row])} "
            f"entries, expected exactly 1",
            level=l)
    cols = P.indices[:nc]
    vals = P.data[:nc]
    want = lvl.cperm if lvl.cperm is not None else np.arange(nc, dtype=np.int64)
    if (cols != want[:nc]).any() or (vals != 1.0).any():
        row = int(np.argmax((cols != want[:nc]) | (vals != 1.0)))
        raise InvariantViolation(
            "hierarchy.p_identity_block",
            f"level {l}: coarse row {row} of P is ({int(cols[row])}, "
            f"{vals[row]!r}), expected ({int(want[row])}, 1.0)",
            level=l)
    # The stored fine block must be exactly the fine rows of P.
    P_F = lvl.P_F
    fine = slice(int(P.indptr[nc]), None)
    if (
        P_F.shape != (P.shape[0] - nc, P.shape[1])
        or len(P_F.data) != len(P.data[fine])
        or (P_F.indices != P.indices[fine]).any()
        or (P_F.data != P.data[fine]).any()
    ):
        raise InvariantViolation(
            "hierarchy.p_fine_block",
            f"level {l}: P_F does not match the fine rows of P",
            level=l)


def _check_kept_transpose(lvl, l: int, rng, rtol: float) -> None:
    """The kept restriction must still be P's transpose."""
    P, R = lvl.P, lvl.R
    if R.shape != (P.shape[1], P.shape[0]) or R.nnz != P.nnz:
        raise InvariantViolation(
            "hierarchy.r_is_pt",
            f"level {l}: R has shape {R.shape}/nnz {R.nnz}, P^T would have "
            f"({P.shape[1]}, {P.shape[0]})/{P.nnz}",
            level=l)
    v = rng.standard_normal(P.shape[0])
    rv = _raw_spmv(R, v)
    ptv = _raw_spmv_t(P, v)
    scale = float(np.linalg.norm(ptv)) or 1.0
    if float(np.linalg.norm(rv - ptv)) > rtol * scale:
        raise InvariantViolation(
            "hierarchy.r_is_pt",
            f"level {l}: ||R v - P^T v|| = "
            f"{float(np.linalg.norm(rv - ptv)):.3e} on a random probe "
            f"(scale {scale:.3e}); R drifted from the setup-time transpose",
            level=l)


def _check_galerkin(lvl, A_next, l: int, rng, rtol: float) -> None:
    """Spot-check ``A_next == P^T A P`` on a seeded random probe vector."""
    P, A = lvl.P, lvl.A
    u = rng.standard_normal(P.shape[1])
    want = _raw_spmv_t(P, _raw_spmv(A, _raw_spmv(P, u)))
    got = _raw_spmv(A_next, u)
    scale = float(np.linalg.norm(want)) or 1.0
    err = float(np.linalg.norm(got - want))
    if err > rtol * scale:
        raise InvariantViolation(
            "hierarchy.galerkin",
            f"level {l}: ||A_next u - P^T A P u|| = {err:.3e} "
            f"(scale {scale:.3e}) on a random probe; the coarse operator "
            f"is not the Galerkin product of this level",
            level=l)


# ---------------------------------------------------------------------------
# Distributed hierarchy
# ---------------------------------------------------------------------------

def check_dist_hierarchy(h, *, full: bool | None = None) -> "h":
    """Validate a :class:`~repro.dist.setup.DistHierarchy`.

    Runs :func:`check_parcsr` (with halo-pattern cross-checks) on every
    level operator, interpolation, and kept restriction, and verifies the
    inter-level partition plumbing (P's column partition is the next
    level's row partition).
    """
    if full is None:
        full = checking("full")
    for l, lvl in enumerate(h.levels):
        check_parcsr(lvl.A, name=f"A[{l}]", level=l, halo=lvl.halo, full=full)
        if lvl.P is not None:
            check_parcsr(lvl.P, name=f"P[{l}]", level=l, halo=lvl.halo_P,
                         full=full)
            if l + 1 < len(h.levels):
                nxt = h.levels[l + 1].A
                if lvl.P.col_part.bounds.tolist() != nxt.row_part.bounds.tolist():
                    raise InvariantViolation(
                        "dist.level_partition",
                        f"level {l}: P's column partition does not match "
                        f"level {l + 1}'s row partition",
                        level=l)
        if lvl.R is not None:
            check_parcsr(lvl.R, name=f"R[{l}]", level=l, halo=lvl.halo_R,
                         full=full)
            if lvl.P is not None and lvl.R.shape != lvl.P.shape[::-1]:
                raise InvariantViolation(
                    "dist.r_shape",
                    f"level {l}: R has shape {lvl.R.shape}, P^T would have "
                    f"{lvl.P.shape[::-1]}",
                    level=l)
    return h
