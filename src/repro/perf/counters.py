"""Kernel instrumentation: operation/traffic counters.

Every computational kernel in :mod:`repro` reports what a tuned native
implementation of the same algorithm would do to the memory system and the
core: floating-point operations, bytes read and written, data-dependent
branches executed and (estimated) mispredicted.  The counts are *structural*
— they follow from matrix sizes/sparsity patterns and from which algorithmic
variant ran (e.g. one-pass vs. two-pass SpGEMM), not from wall-clock
measurements of the Python vehicle.

A :class:`PerfLog` collects :class:`KernelRecord` entries.  Kernels report
through the module-level :func:`count` helper, which writes into the
currently *active* log (see :func:`collect`).  When no log is active,
counting is a no-op, so library code can always call :func:`count`
unconditionally.

Phases mirror the paper's Fig. 5 breakdown labels::

    Strength+Coarsen | Interp | RAP | Setup_etc | GS | SpMV | BLAS1 | Solve_etc

plus the multi-node phases of Fig. 7 (``Solve_MPI`` etc.) and ``Resetup``,
the pattern-reuse numeric resetup of :meth:`repro.amg.Hierarchy.refresh`
(all of a same-pattern re-setup's work lands in that one bucket).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "IDX_BYTES",
    "VAL_BYTES",
    "PTR_BYTES",
    "KernelRecord",
    "RecordTable",
    "PerfLog",
    "collect",
    "silent",
    "phase",
    "count",
    "count_batch",
    "count_record",
    "make_record",
    "make_records",
    "active_log",
    "current_phase",
    "current_level",
]

#: Bytes per column index in the modeled native implementation (HYPRE uses
#: 32-bit local indices).
IDX_BYTES = 4
#: Bytes per matrix/vector value (double precision, Table 3: non-complex FP64).
VAL_BYTES = 8
#: Bytes per row-pointer entry.
PTR_BYTES = 4


@dataclass
class KernelRecord:
    """One instrumented kernel invocation.

    Attributes
    ----------
    phase:
        Breakdown bucket (Fig. 5 / Fig. 7 label) active when the kernel ran.
    kernel:
        Fine-grained kernel name, e.g. ``"spgemm.numeric"``.
    flops:
        Floating point operations (adds + multiplies counted separately).
    bytes_read / bytes_written:
        Memory traffic of the modeled native kernel, in bytes.  Reads that a
        native kernel would serve from cache (e.g. the fused ``B`` rows in the
        Fig. 1a RAP) are *not* counted.
    branches:
        Data-dependent (unpredictable) branches executed.  Loop-bound branches
        are excluded: they are well predicted.
    mispredicts:
        Estimated mispredicted branches.
    parallel:
        Whether the kernel is thread-parallel in the modeled implementation.
        ``HYPRE_base`` runs several setup kernels serially (§3.3).
    level:
        Multigrid level, when applicable.
    """

    phase: str
    kernel: str
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    branches: float = 0.0
    mispredicts: float = 0.0
    parallel: bool = True
    level: int | None = None

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


#: Default fraction of data-dependent branches that mispredict.  Sparse
#: accumulation hit/miss branches are close to coin flips on first touch and
#: biased afterwards; 0.3 matches the 2.1x pattern-reuse speedup (§3.1.1)
#: under the Haswell penalty.
DEFAULT_MISPREDICT_RATE = 0.3


# The phase/level stacks are process-global (not per-log) so that a phase
# opened around a distributed operation tags the counts of *every* rank's
# log, whichever one is active when a kernel reports.
_PHASE_STACK: list[str] = []
_LEVEL_STACK: list[int] = []


class PerfLog:
    """Accumulates kernel records, organized by phase."""

    def __init__(self) -> None:
        self.records: list[KernelRecord] = []

    # -- recording -----------------------------------------------------
    def add(
        self,
        kernel: str,
        *,
        flops: float = 0.0,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        branches: float = 0.0,
        mispredicts: float | None = None,
        parallel: bool = True,
        phase: str | None = None,
    ) -> KernelRecord:
        if mispredicts is None:
            mispredicts = branches * DEFAULT_MISPREDICT_RATE
        rec = KernelRecord(
            phase=phase if phase is not None else self.phase,
            kernel=kernel,
            flops=float(flops),
            bytes_read=float(bytes_read),
            bytes_written=float(bytes_written),
            branches=float(branches),
            mispredicts=float(mispredicts),
            parallel=parallel,
            level=_LEVEL_STACK[-1] if _LEVEL_STACK else None,
        )
        self.records.append(rec)
        return rec

    def count_batch(self, kernel: str, n: int, **kw) -> None:
        """Record *n* identical kernel invocations in one bulk append.

        The record *stream* is indistinguishable from *n* individual
        :meth:`add` calls with the same arguments — per-record machine-model
        costs (launch overhead, sequential time summation) and all
        aggregations see the same sequence — but the Python-side cost is one
        record construction instead of *n*.  The appended entries alias one
        :class:`KernelRecord` instance; records are treated as immutable
        once logged.
        """
        if n <= 0:
            return
        rec = self.add(kernel, **kw)
        if n > 1:
            self.records.extend([rec] * (n - 1))

    def add_record(self, rec: KernelRecord) -> None:
        """Append a prebuilt record, retagging phase/level if the current
        stacks differ from the template's (plan-table fast path)."""
        ph = _PHASE_STACK[-1] if _PHASE_STACK else "unattributed"
        lv = _LEVEL_STACK[-1] if _LEVEL_STACK else None
        if rec.phase != ph or rec.level != lv:
            rec = replace(rec, phase=ph, level=lv)
        self.records.append(rec)

    # -- phase management ------------------------------------------------
    @property
    def phase(self) -> str:
        return _PHASE_STACK[-1] if _PHASE_STACK else "unattributed"

    @contextmanager
    def in_phase(self, name: str):
        _PHASE_STACK.append(name)
        try:
            yield self
        finally:
            _PHASE_STACK.pop()

    @contextmanager
    def at_level(self, level: int):
        _LEVEL_STACK.append(level)
        try:
            yield self
        finally:
            _LEVEL_STACK.pop()

    # -- aggregation -----------------------------------------------------
    def totals_by_phase(self) -> dict[str, KernelRecord]:
        """Aggregate records into one synthetic record per phase."""
        out: dict[str, KernelRecord] = {}
        for r in self.records:
            agg = out.get(r.phase)
            if agg is None:
                out[r.phase] = KernelRecord(
                    phase=r.phase,
                    kernel="*",
                    flops=r.flops,
                    bytes_read=r.bytes_read,
                    bytes_written=r.bytes_written,
                    branches=r.branches,
                    mispredicts=r.mispredicts,
                    parallel=r.parallel,
                )
            else:
                agg.flops += r.flops
                agg.bytes_read += r.bytes_read
                agg.bytes_written += r.bytes_written
                agg.branches += r.branches
                agg.mispredicts += r.mispredicts
        return out

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.records)

    def phase_total(self, phase: str, attr: str = "bytes_total") -> float:
        return sum(getattr(r, attr) for r in self.records if r.phase == phase)

    def merge(self, other: "PerfLog") -> None:
        self.records.extend(other.records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


# --------------------------------------------------------------------------
# Module-level active log
# --------------------------------------------------------------------------

_ACTIVE: list[PerfLog | None] = []  # None = recording suspended (silent)


def active_log() -> PerfLog | None:
    """The innermost active :class:`PerfLog`, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def current_phase() -> str:
    return _PHASE_STACK[-1] if _PHASE_STACK else "unattributed"


def current_level() -> int | None:
    return _LEVEL_STACK[-1] if _LEVEL_STACK else None


@contextmanager
def collect(log: PerfLog | None = None):
    """Activate *log* (a fresh one if ``None``) for the enclosed block.

    Yields the active log.  Nested ``collect`` blocks record into the
    innermost log only; callers that want merged numbers should use
    :meth:`PerfLog.merge`.
    """
    if log is None:
        log = PerfLog()
    _ACTIVE.append(log)
    try:
        yield log
    finally:
        _ACTIVE.pop()


@contextmanager
def silent():
    """Suspend recording for the enclosed block.

    For callers that run one stacked kernel over many logs' worth of work
    and then append each log's share from a prebuilt :class:`RecordTable`.
    """
    _ACTIVE.append(None)
    try:
        yield
    finally:
        _ACTIVE.pop()


@contextmanager
def phase(name: str):
    """Tag records emitted in the enclosed block with phase *name*.

    The tag applies process-wide (it survives switching the active log, so
    per-rank logs in the distributed simulator see it too).
    """
    _PHASE_STACK.append(name)
    try:
        yield active_log()
    finally:
        _PHASE_STACK.pop()


def count(kernel: str, **kw) -> None:
    """Record a kernel invocation into the active log (no-op otherwise).

    Keyword arguments are those of :meth:`PerfLog.add`.
    """
    log = active_log()
    if log is not None:
        log.add(kernel, **kw)


def count_batch(kernel: str, n: int, **kw) -> None:
    """Record *n* identical invocations into the active log (no-op otherwise).

    See :meth:`PerfLog.count_batch`: the stream equals *n* ``count`` calls.
    """
    log = active_log()
    if log is not None:
        log.count_batch(kernel, n, **kw)


def count_record(rec: KernelRecord) -> None:
    """Append a prebuilt (plan-table) record into the active log.

    Solve plans precompute each kernel invocation's traffic once from the
    frozen sparsity (:func:`make_record`); the hot loop then just appends.
    Phase/level are retagged from the live stacks when they differ from the
    template, so the resulting stream is identical to an equivalent
    :func:`count` call.
    """
    log = active_log()
    if log is not None:
        log.add_record(rec)


class RecordTable:
    """Prebuilt records in rows, one row per destination log (a rank), as
    phase-free columns in row order (``lengths[p]`` records in row *p*).

    ``live(phase, level)`` is what appending every row through
    :func:`count_record` under those tags would log: built once per
    ``(phase, level)``, one :class:`KernelRecord` call each, and aliased
    by every later hand-out (records are immutable once logged).
    """

    def __init__(self, rows) -> None:
        """The table of *rows* of template records (their phase and level
        are dropped)."""
        rows = [tuple(row) for row in rows]
        recs = [r for row in rows for r in row]
        self._set([len(row) for row in rows], [r.kernel for r in recs],
                  [(r.flops, r.bytes_read, r.bytes_written, r.branches,
                    r.mispredicts) for r in recs], [r.parallel for r in recs])

    def _set(self, lengths, kernel: list, values, parallel: list) -> None:
        #: Records per row.
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.nrows = len(self.lengths)
        self._kernel, self._parallel = kernel, parallel
        self._values = np.asarray(values, dtype=np.float64).reshape(-1, 5)
        self._build = None
        self._live: dict[tuple[str, int | None], tuple] = {}

    @classmethod
    def later(cls, lengths, build) -> "RecordTable":
        """The table ``build()`` returns, whose rows hold *lengths* records,
        built on its first hand-out."""
        table = cls.__new__(cls)
        table._set(lengths, [], (), [])
        table._build = build
        return table

    @classmethod
    def per_rank(cls, kernel: str, n: int, *, flops=0.0, bytes_read=0.0,
                 bytes_written=0.0, branches=0.0, parallel: bool = True,
                 present=None) -> "RecordTable":
        """One *kernel* record in each of *n* rows — the rows of *present*
        only, when given — with fields as in :func:`make_records`
        (length-*n* arrays or one value for all)."""
        values = np.empty((n, 5))
        values[:, 0], values[:, 1], values[:, 2], values[:, 3] = (
            flops, bytes_read, bytes_written, branches)
        np.multiply(values[:, 3], DEFAULT_MISPREDICT_RATE, out=values[:, 4])
        lengths = np.ones(n, dtype=np.int64)
        if present is not None:
            lengths = np.asarray(present, dtype=np.int64)
            values = values[lengths > 0]
        table = cls.__new__(cls)
        table._set(lengths, [kernel] * len(values), values,
                   [parallel] * len(values))
        return table

    @classmethod
    def join(cls, *tables: "RecordTable") -> "RecordTable":
        """Row *p* of every table in turn, as row *p*."""
        for t in tables:
            t._resolve()
        nrows = max(t.nrows for t in tables)
        row = np.concatenate([np.repeat(np.arange(t.nrows), t.lengths)
                              for t in tables])
        order = np.argsort(row, kind="stable")
        kernel = [k for t in tables for k in t._kernel]
        parallel = [p for t in tables for p in t._parallel]
        table = cls.__new__(cls)
        table._set(np.bincount(row, minlength=nrows),
                   [kernel[i] for i in order.tolist()],
                   np.concatenate([t._values for t in tables])[order],
                   [parallel[i] for i in order.tolist()])
        return table

    def _resolve(self) -> None:
        """Build a :meth:`later` table's columns."""
        if self._build is not None:
            built = self._build()
            if not np.array_equal(built.lengths, self.lengths):
                raise ValueError("built table does not fit its row lengths")
            self._set(self.lengths, built._kernel, built._values,
                      built._parallel)

    def live(self, phase: str, level: int | None
             ) -> tuple[tuple[KernelRecord, ...], ...]:
        rows = self._live.get((phase, level))
        if rows is None:
            self._resolve()
            recs = [KernelRecord(phase, k, f, r, w, b, m, par, level)
                    for k, (f, r, w, b, m), par in zip(
                        self._kernel, self._values.tolist(), self._parallel)]
            ends = np.cumsum(self.lengths).tolist()
            rows = self._live[(phase, level)] = tuple(
                tuple(recs[a:b]) for a, b in zip([0, *ends], ends))
        return rows


def make_record(
    kernel: str,
    *,
    flops: float = 0.0,
    bytes_read: float = 0.0,
    bytes_written: float = 0.0,
    branches: float = 0.0,
    mispredicts: float | None = None,
    parallel: bool = True,
    phase: str = "unattributed",
    level: int | None = None,
) -> KernelRecord:
    """Build a template :class:`KernelRecord` without logging it.

    Field semantics match :meth:`PerfLog.add` (including the default
    mispredict estimate), so a template appended via :func:`count_record`
    is byte-for-byte what the equivalent :func:`count` call would record.
    """
    if mispredicts is None:
        mispredicts = branches * DEFAULT_MISPREDICT_RATE
    return KernelRecord(
        phase=phase,
        kernel=kernel,
        flops=float(flops),
        bytes_read=float(bytes_read),
        bytes_written=float(bytes_written),
        branches=float(branches),
        mispredicts=float(mispredicts),
        parallel=parallel,
        level=level,
    )


def make_records(
    kernel: str,
    n: int,
    *,
    flops=0.0,
    bytes_read=0.0,
    bytes_written=0.0,
    branches=0.0,
    parallel: bool = True,
) -> list[KernelRecord]:
    """*n* records of *kernel*, tagged with the live phase and level.

    Each field is a length-*n* array (or one value for all): record *i* is
    byte for byte what ``count(kernel, flops=flops[i], ...)`` would log
    now, built without *n* calls — the per-rank records of a kernel that
    ran once over all ranks, from segment sums over the rank boundaries.
    """
    table = RecordTable.per_rank(
        kernel, n, flops=flops, bytes_read=bytes_read,
        bytes_written=bytes_written, branches=branches, parallel=parallel)
    return [row[0] for row in table.live(current_phase(), current_level())]
