"""Simulated MPI layer (§4, §5.1.2).

The distributed algorithms of :mod:`repro.dist` are written against this
communicator: *P* ranks live in one Python process, every point-to-point
message and collective is **executed** (the payload really moves between the
ranks' data structures) **and logged**, and a
:class:`repro.perf.network.NetworkModel` turns the log into modeled seconds
afterwards.  Message counts and volumes — the quantities the paper's §4
optimizations change — are therefore exact; only the clock is modeled.

Per-rank *compute* is attributed the same way: each rank owns a
:class:`repro.perf.counters.PerfLog`.  A kernel that runs once over all
ranks appends rank *p*'s row of a :class:`~repro.perf.counters.RecordTable`
(:meth:`SimComm.record_on_ranks`) — frozen rows in the solve phase, whose
records are pure functions of the partition and the sparsity; rows built
from per-rank counts (:func:`~repro.perf.counters.make_records`) in the
set-up.  Node-level kernels that stay per rank count into their rank's log
through :meth:`SimComm.run_on_ranks` (or a ``with comm.on_rank(r):``
block).  A phase's modeled compute time is the makespan over ranks.

The rank logs are paid per kernel, not per rank: ``record_on_ranks`` only
queues the table's live rows (one append), and the queue is handed out to
the ranks' logs — one ``list.extend`` per rank for everything queued — the
first time anything touches a rank log's ``records``: a read, a direct
count inside ``on_rank``, ``run_on_ranks``'s append.  Every rank's stream is
therefore the one an immediate per-rank append gives, in the same order.

Persistent communication (§4.4): a :class:`PersistentExchange` freezes a
neighbor-exchange pattern once; every subsequent ``start()`` logs its
messages with the ``persistent`` flag so the network model can drop the
per-exchange setup cost, reproducing the 1.7–1.8x halo speedup the paper
measures.

Logging in bulk: an exchange logs the same messages every time it runs, so
each exchange object freezes one tuple of immutable log entries per
``(width, phase)`` (:func:`frozen_messages`) and :meth:`SimComm.log_batch`
appends it with a single ``list.extend``; a set-up kernel builds the batch
of everything it sends from arrays (:func:`message_batch`).  The log holds
the same entries in the same order as per-message
:meth:`SimComm.log_message` calls would produce; repeated exchanges alias
the same entry objects.

Fault injection: :class:`repro.faults.comm.FaultyComm` subclasses this
communicator and adds a ``reliable_send`` protocol (sequence-numbered acks,
bounded retries).  Consumers that want resilient delivery — the halo
exchange, and through it ``dist_spmv`` and the smoothers — check
``supports_fault_injection`` / ``reliable_send`` and fall back to the plain
logging path on a vanilla ``SimComm``, which therefore stays bit-identical
(and modeled-time-identical) to the pre-fault-harness behavior.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..perf.counters import KernelRecord, PerfLog, RecordTable, collect, current_phase
from ..perf.network import MessageEvent, NetworkModel

__all__ = ["SimComm", "PersistentExchange", "NodeAwareExchange",
           "CollectiveEvent", "frozen_messages", "message_batch"]


@dataclass(frozen=True)
class CollectiveEvent:
    """One logged collective (allreduce/allgather)."""

    kind: str
    nranks: int
    nbytes: float
    phase: str


@dataclass(frozen=True, slots=True)
class _LoggedMessage:
    event: MessageEvent
    phase: str


def frozen_messages(pattern: dict[tuple[int, int], int], elem_bytes: float,
                    *, persistent: bool = False,
                    tag: str = "") -> tuple[_LoggedMessage, ...]:
    """The log entries of one exchange of *pattern* (``(src, dst) -> element
    count``, self-sends skipped) under the live phase, as a frozen batch."""
    ph = current_phase()
    return tuple(
        _LoggedMessage(
            MessageEvent(src, dst, int(n * elem_bytes), persistent, tag), ph)
        for (src, dst), n in pattern.items() if src != dst)


def message_batch(src, dst, nbytes, tags, *,
                  persistent: bool = False) -> tuple[_LoggedMessage, ...]:
    """The log entries of messages ``src[i] -> dst[i]`` of ``nbytes[i]``
    bytes tagged ``tags[i]`` (arrays in send order; *tags* may be one str
    for all) under the live phase, as a frozen batch — what one
    :meth:`SimComm.log_message` per message would append, self-sends
    skipped."""
    ph = current_phase()
    if isinstance(tags, str):
        tags = [tags] * len(src)
    return tuple(
        _LoggedMessage(MessageEvent(s, d, int(b), persistent, t), ph)
        for s, d, b, t in zip(src.tolist(), dst.tolist(), nbytes.tolist(), tags)
        if s != d)


class SimComm:
    """A simulated communicator over ``nranks`` ranks."""

    #: True on communicators whose deliveries can fail and be retried
    #: (:class:`repro.faults.comm.FaultyComm`); solvers use it to decide
    #: whether checkpoint/restart bookkeeping is worth doing.
    supports_fault_injection = False

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        #: Live rows of the tables recorded since the last hand-out, oldest
        #: first, each padded to one row per rank (see :meth:`_flush`).
        self._queued: list[tuple] = []
        self.rank_logs: list[PerfLog] = [_RankLog(self) for _ in range(nranks)]
        self.messages: list[_LoggedMessage] = []
        self.collectives: list[CollectiveEvent] = []
        self.persistent_created = 0
        #: Every :class:`PersistentExchange` frozen against this communicator
        #: (in creation order) — the registry the comm-trace replay checks
        #: persistent traffic against (``comm.persistent_drift``).
        self.persistent_requests: list[PersistentExchange] = []
        #: The persistent halo Krylov products with an operator use on this
        #: communicator, built on first use (:mod:`repro.dist.krylov`).
        self.krylov_halos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- per-rank compute attribution -----------------------------------
    def _flush(self) -> None:
        """Hand the queued rows out: rank *p* gets row *p* of every queued
        table, in queue order, in one ``list.extend``."""
        queued, self._queued = self._queued, []
        for log, rows in zip(self.rank_logs, zip(*queued)):
            log._records.extend(chain.from_iterable(rows))

    @contextmanager
    def on_rank(self, rank: int):
        """Attribute kernel counts in the block to *rank*'s compute log."""
        with collect(self.rank_logs[rank]) as log:
            yield log

    # -- point to point ---------------------------------------------------
    def log_message(self, src: int, dst: int, nbytes: float, *,
                    persistent: bool = False, tag: str = "") -> None:
        self.messages.append(
            _LoggedMessage(
                MessageEvent(src, dst, int(nbytes), persistent, tag),
                current_phase(),
            )
        )

    def log_batch(self, batch: tuple[_LoggedMessage, ...]) -> None:
        """Append a frozen batch (see :func:`frozen_messages`) in one go.

        Only tuples are accepted: the entries are aliased by every later
        append of the same batch, so the batch must not be editable.
        """
        if not isinstance(batch, tuple):
            raise TypeError("log_batch takes a tuple of frozen log entries")
        self.messages.extend(batch)

    def record_on_ranks(self, table: RecordTable) -> None:
        """Append row *p* of *table* to rank *p*'s compute log — the stream
        ``with on_rank(p): count_record(...)`` per rank would produce.

        The rows are queued, one append per call (a table shorter than the
        rank count is padded with empty rows), and reach the rank logs when
        a log's ``records`` is next touched.
        """
        rows = table.live()
        if len(rows) < self.nranks:
            rows += ((),) * (self.nranks - len(rows))
        self._queued.append(rows)

    def run_on_ranks(self, kernel) -> list:
        """``kernel(p)`` for every rank *p* in turn, the records of call *p*
        attributed to rank *p* — what ``with on_rank(p): kernel(p)`` per
        rank logs, under one log activation.  Returns the results."""
        out, marks = [], [0]
        with collect() as log:
            for p in range(self.nranks):
                out.append(kernel(p))
                marks.append(len(log.records))
        for rank_log, a, b in zip(self.rank_logs, marks, marks[1:]):
            rank_log.records.extend(log.records[a:b])
        return out

    def exchange(
        self,
        payloads: dict[tuple[int, int], np.ndarray],
        *,
        persistent: bool = False,
        tag: str = "",
        bytes_per_elem: float = 8.0,
    ) -> dict[tuple[int, int], np.ndarray]:
        """Deliver ``payloads[(src, dst)]`` to every destination.

        Returns the same mapping (delivery is by reference — ranks share the
        process); the side effect is the message log.
        """
        for (src, dst), data in payloads.items():
            if src == dst:
                continue
            self.log_message(src, dst, len(data) * bytes_per_elem,
                             persistent=persistent, tag=tag)
        return payloads

    # -- collectives -------------------------------------------------------
    def allreduce(self, values, *, kind: str = "allreduce") -> float:
        """Sum a scalar contributed by each rank; logs one collective."""
        total = float(np.sum(values))
        self.collectives.append(
            CollectiveEvent(kind, self.nranks, 8.0, current_phase())
        )
        return total

    def scan_offsets(self, counts: np.ndarray) -> np.ndarray:
        """Exclusive prefix sum across ranks (MPI_Scan); logs a collective."""
        counts = np.asarray(counts, dtype=np.int64)
        self.collectives.append(
            CollectiveEvent("scan", self.nranks, 8.0, current_phase())
        )
        out = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=out[1:])
        return out

    # -- modeled times -----------------------------------------------------
    def comm_time(self, net: NetworkModel, *, phase: str | None = None) -> float:
        """Modeled seconds of all logged point-to-point traffic (+collectives).

        Point-to-point messages are grouped by tag occurrence order into
        exchanges is an over-refinement; the per-rank serialization rule of
        :meth:`NetworkModel.exchange_time` applied to the whole log gives the
        same asymptotics, so we use it per phase.
        """
        msgs = [m.event for m in self.messages if phase is None or m.phase == phase]
        t = net.exchange_time(msgs, self.nranks)
        for c in self.collectives:
            if phase is None or c.phase == phase:
                t += net.allreduce_time(c.nranks, c.nbytes)
        return t

    def comm_volume(self, *, phase: str | None = None, tag: str | None = None) -> float:
        """Total logged point-to-point bytes (optionally filtered)."""
        return float(
            sum(
                m.event.nbytes
                for m in self.messages
                if (phase is None or m.phase == phase)
                and (tag is None or m.event.tag == tag)
            )
        )

    def message_count(self, *, tag: str | None = None) -> int:
        return sum(1 for m in self.messages if tag is None or m.event.tag == tag)

    def compute_phase_makespan(self, machine, irregular_fraction: float = 0.5) -> dict[str, float]:
        """Per-phase compute makespan over ranks (modeled seconds)."""
        out: dict[str, float] = {}
        for log in self.rank_logs:
            for ph, t in machine.phase_times(log, irregular_fraction).items():
                out[ph] = max(out.get(ph, 0.0), t)
        return out

    def clear_logs(self) -> None:
        self._queued.clear()
        for log in self.rank_logs:
            log.clear()
        self.messages.clear()
        self.collectives.clear()


class _RankLog(PerfLog):
    """One rank's compute log on a :class:`SimComm`: touching ``records``
    first hands out the rows the communicator has queued, so the log always
    reads, and appends after, everything recorded so far."""

    def __init__(self, comm: SimComm) -> None:
        self._comm = comm
        self._records: list[KernelRecord] = []

    @property
    def records(self) -> list[KernelRecord]:
        if self._comm._queued:
            self._comm._flush()
        return self._records


class _FrozenExchange:
    """An exchange over ``rounds`` of ``(tag, pattern)`` that logs the same
    messages on every :meth:`start`: one frozen batch per (width, phase)."""

    def __init__(self, comm: SimComm, rounds, bytes_per_elem: float,
                 persistent: bool) -> None:
        self.comm = comm
        self.rounds = rounds
        self.bytes_per_elem = bytes_per_elem
        self.persistent = persistent
        self._batches: dict[tuple[int, str], tuple[_LoggedMessage, ...]] = {}

    def start(self, *, width: int = 1) -> None:
        """Log one message per neighbor pair of every round, in round order.

        ``width > 1`` sends a *k*-column block through the same frozen
        pattern: still one message per pair, *k* times the bytes.
        """
        key = (width, current_phase())
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = tuple(
                m for tag, pat in self.rounds
                for m in frozen_messages(pat, width * self.bytes_per_elem,
                                         persistent=self.persistent, tag=tag))
        self.comm.log_batch(batch)


class PersistentExchange(_FrozenExchange):
    """A frozen neighbor-exchange pattern (§4.4 persistent communication).

    ``pattern`` maps ``(src, dst) -> element count``.  Creation logs the
    one-time request-setup cost; each :meth:`start` logs the messages with
    the persistent flag.
    """

    def __init__(self, comm: SimComm, pattern: dict[tuple[int, int], int],
                 *, bytes_per_elem: float = 8.0, tag: str = "halo") -> None:
        self.pattern = dict(pattern)
        self.tag = tag
        super().__init__(comm, [(tag, self.pattern)], bytes_per_elem, True)
        comm.persistent_created += len(self.pattern)
        comm.persistent_requests.append(self)


class NodeAwareExchange(_FrozenExchange):
    """A multi-round wire schedule (the node-aware 3-step halo, §4.4-style).

    ``rounds`` is an ordered list of ``(tag, pattern)`` wire rounds — the
    on-node direct round plus the gather / inter-node / scatter rounds of a
    :class:`~repro.topo.NodeAwarePlan`, or the single round of a flat
    non-persistent halo.  With ``persistent=True`` every round is
    registered as its own :class:`PersistentExchange` (so the §4.4 setup
    amortization and the comm-trace persistent-drift replay both see each
    round as one frozen pattern); otherwise each :meth:`start` logs the
    rounds' messages with the per-exchange setup cost.
    """

    def __init__(self, comm: SimComm,
                 rounds: list[tuple[str, dict[tuple[int, int], int]]],
                 *, bytes_per_elem: float = 8.0,
                 persistent: bool = True) -> None:
        super().__init__(comm, [(tag, dict(pat)) for tag, pat in rounds if pat],
                         bytes_per_elem, persistent)
        self._reqs = (
            [PersistentExchange(comm, pat, bytes_per_elem=bytes_per_elem,
                                tag=tag)
             for tag, pat in self.rounds]
            if persistent
            else None
        )
