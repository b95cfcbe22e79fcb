"""Simulated MPI layer (§4, §5.1.2).

The distributed algorithms of :mod:`repro.dist` are written against this
communicator: *P* ranks live in one Python process, every point-to-point
message and collective is **executed** (the payload really moves between the
ranks' data structures) **and logged**, and a
:class:`repro.perf.network.NetworkModel` turns the log into modeled seconds
afterwards.  Message counts and volumes — the quantities the paper's §4
optimizations change — are therefore exact; only the clock is modeled.

Per-rank *compute* is attributed the same way: each rank owns a
:class:`repro.perf.counters.PerfLog`.  Every kernel runs once over all
ranks and appends rank *p*'s row of a
:class:`~repro.perf.counters.RecordTable` (:meth:`SimComm.record_on_ranks`)
— tables frozen per kernel in the solve phase, whose records are pure
functions of the partition and the sparsity; tables built from per-rank
sizes in the set-up.  That is the one way a rank is charged: node-level
work that runs over the rank stack counts nothing itself.  A phase's
modeled compute time is the makespan over ranks.

The rank logs are paid per kernel and built when read: ``record_on_ranks``
queues the table with the live phase and level (one append), ``len`` of a
rank log adds the queue's row lengths to a per-rank pending count, and the
first read of a rank log's ``records`` — anything but ``len`` — hands the
queue out, one ``list.extend`` per rank.  Every rank's stream is therefore
the one an immediate per-rank append gives, in the same order.

Persistent communication (§4.4): a :class:`PersistentExchange` freezes a
neighbor-exchange pattern once; every subsequent ``start()`` logs its
messages with the ``persistent`` flag so the network model can drop the
per-exchange setup cost, reproducing the 1.7–1.8x halo speedup the paper
measures.

Logging in bulk: an exchange logs the same messages every time it runs, so
each exchange keeps one :class:`MessageBatch` — its sends as phase-free
columns — per width, and a set-up kernel builds the batch of everything it
sends from arrays.  :meth:`SimComm.log_batch` appends a batch as one
segment under the live phase, :meth:`SimComm.log_message` one message; the
log's ``len`` is a running count, and its entries are built on the first
read, once per (batch, phase), so repeated exchanges alias the same
entries.  The log reads as per-message ``log_message`` calls would leave it.
The modeled clock reads the segments as columns instead
(:meth:`SimComm.comm_time`, :meth:`~SimComm.comm_volume`,
:meth:`~SimComm.message_count`): the phase and tag filters are masks, and
no entry is built to price, count or sum the traffic.

Fault injection: :class:`repro.faults.comm.FaultyComm` subclasses this
communicator and replaces one method, :meth:`SimComm.log_exchange`, through
which every frozen exchange (the halo's wire, flat or node-aware) sends its
batch; here it *is* :meth:`~SimComm.log_batch`.  A ``FaultyComm`` sends the
same batch in acknowledged attempt rounds (sequence numbers, acks, bounded
retries), so a vanilla ``SimComm`` stays bit-identical (and
modeled-time-identical) to the pre-fault-harness behavior.  Set-up halo
gathers go through a frozen exchange too and are faulted; the other set-up
batches (transposes, row gathers, the coarse gather and scatter) call
``log_batch`` directly and are not.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..perf.counters import (
    KernelRecord,
    PerfLog,
    RecordTable,
    current_level,
    current_phase,
)
from ..perf.network import MessageColumns, MessageEvent, NetworkModel

__all__ = ["SimComm", "PersistentExchange", "NodeAwareExchange",
           "CollectiveEvent", "MessageBatch", "frozen_messages"]


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


class MessageBatch:
    """The messages ``src[i] -> dst[i]`` of ``nbytes[i]`` bytes tagged
    ``tags[i]`` (arrays in send order; *tags* may be one str for all, and
    *persistent* one bool for all or a flag per message), self-sends
    dropped, as phase-free columns (:meth:`columns`).  Its log entries are
    built once per phase; iterating it yields those of the live phase."""

    def __init__(self, src, dst, nbytes, tags, *, persistent=False) -> None:
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        keep = src != dst
        if isinstance(tags, str):
            tags = [tags] * len(src)
        self._n = int(np.count_nonzero(keep))
        self._columns = MessageColumns(
            src[keep], dst[keep], np.asarray(nbytes)[keep].astype(np.int64),
            np.broadcast_to(np.asarray(persistent, dtype=bool), keep.shape)[keep],
            np.asarray(tags, dtype=object)[keep])
        self._build = None
        self._entries: dict[str, tuple[_LoggedMessage, ...]] = {}

    @classmethod
    def later(cls, n: int, build) -> "MessageBatch":
        """The batch ``build()`` returns, of *n* messages, built on its
        first read."""
        batch = cls.__new__(cls)
        batch._n, batch._build, batch._entries = n, build, {}
        return batch

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.entries(current_phase()))

    def columns(self) -> MessageColumns:
        """The messages as columns (a deferred batch builds them here, and
        no entry)."""
        if self._build is not None:
            built = self._build()
            if len(built) != self._n:
                raise ValueError("built batch does not fit its length")
            self._columns, self._build = built._columns, None
        return self._columns

    def entries(self, phase: str) -> tuple[_LoggedMessage, ...]:
        out = self._entries.get(phase)
        if out is None:
            c = self.columns()
            out = self._entries[phase] = tuple(
                _LoggedMessage(MessageEvent(s, d, b, p, t), phase)
                for s, d, b, p, t in zip(c.src.tolist(), c.dst.tolist(),
                                         c.nbytes.tolist(),
                                         c.persistent.tolist(), c.tag.tolist()))
        return out


def _rounds_batch(rounds, elem_bytes: float, persistent: bool) -> MessageBatch:
    """One exchange of every ``(tag, pattern)`` round in turn (*pattern*
    maps ``(src, dst) -> element count``) at *elem_bytes* per element."""
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(
        pat for _, pat in rounds)), dtype=np.int64).reshape(-1, 2)
    counts = np.fromiter(chain.from_iterable(pat.values() for _, pat in rounds),
                         dtype=np.int64)
    tags = np.repeat(np.array([tag for tag, _ in rounds], dtype=object),
                     [len(pat) for _, pat in rounds])
    return MessageBatch(pairs[:, 0], pairs[:, 1], counts * elem_bytes, tags,
                        persistent=persistent)


def frozen_messages(pattern: dict[tuple[int, int], int], elem_bytes: float,
                    *, persistent: bool = False, tag: str = "") -> MessageBatch:
    """One exchange of *pattern* (``(src, dst) -> element count``,
    self-sends skipped) as a batch."""
    return _rounds_batch([(tag, pattern)], elem_bytes, persistent)


class _Deferred:
    """A log that reads as a list whose pending tail is built on first
    read: ``len`` counts the pending entries, and an index, a slice,
    iteration, ``==``, ``append``, ``extend`` or ``clear`` builds them."""

    __slots__ = ()
    __hash__ = None

    def __iter__(self):
        return iter(self._list())

    def __getitem__(self, i):
        return self._list()[i]

    def __eq__(self, other):
        return self._list() == (
            other._list() if isinstance(other, _Deferred) else other)

    def __repr__(self) -> str:
        return repr(self._list())

    def append(self, entry) -> None:
        self._list().append(entry)

    def extend(self, entries) -> None:
        self._list().extend(entries)

    def clear(self) -> None:
        self._list().clear()


class _MessageLog(_Deferred):
    """:attr:`SimComm.messages`: segments — a batch or one message's fields
    ``(src, dst, nbytes, persistent, tag)``, each with the phase it was
    appended under — read as entries built for the segments not built yet,
    or as columns (:meth:`columns`), which build no entry."""

    __slots__ = ("_segments", "_len", "_built", "_nbuilt", "_cols", "_ncols")

    def __init__(self) -> None:
        self.clear()

    def _add(self, source, phase: str, n: int) -> None:
        self._segments.append((source, phase))
        self._len += n

    def _list(self) -> list[_LoggedMessage]:
        built = self._built
        for source, ph in self._segments[self._nbuilt:]:
            if isinstance(source, MessageBatch):
                built.extend(source.entries(ph))
            else:
                built.append(_LoggedMessage(MessageEvent(*source), ph))
        self._nbuilt = len(self._segments)
        return built

    def columns(self) -> tuple[MessageColumns, np.ndarray]:
        """Every message's fields as columns, in log order, and its phase
        (an object array).  Segments appended since the last call are added
        to the cached columns: a batch as its columns, each run of
        one-message segments as one set of arrays."""
        new = self._segments[self._ncols:]
        if self._cols is None or new:
            parts = [] if self._cols is None else [self._cols[0]]
            phases, sizes, rows = [], [], []
            for source, ph in new:
                if isinstance(source, MessageBatch):
                    if rows:
                        parts.append(MessageColumns.from_rows(rows))
                        rows = []
                    parts.append(source.columns())
                    sizes.append(len(source))
                else:
                    rows.append(source)
                    sizes.append(1)
                phases.append(ph)
            if rows or not parts:
                parts.append(MessageColumns.from_rows(rows))
            phase = np.repeat(np.array(phases, dtype=object), sizes)
            if self._cols is not None:
                phase = np.concatenate([self._cols[1], phase])
            self._cols = (MessageColumns(*map(np.concatenate, zip(*parts))),
                          phase)
            self._ncols = len(self._segments)
        return self._cols

    def __len__(self) -> int:
        return self._len

    def append(self, entry: _LoggedMessage) -> None:
        e = entry.event
        self._add((e.src, e.dst, e.nbytes, e.persistent, e.tag), entry.phase, 1)

    def extend(self, entries) -> None:
        for entry in entries:
            self.append(entry)

    def clear(self) -> None:
        self._segments, self._len = [], 0
        self._built, self._nbuilt = [], 0
        self._cols, self._ncols = None, 0


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
        #: ``(table, phase, level)`` per table recorded since the last
        #: hand-out (see :meth:`_flush`); the records per rank of the first
        #: ``_counted`` of them (see :meth:`_pending_lengths`).
        self._queued: list[tuple] = []
        self._pending = np.zeros(nranks, dtype=np.int64)
        self._counted = 0
        self.rank_logs: list[PerfLog] = [_RankLog(self, p) for p in range(nranks)]
        self.messages = _MessageLog()
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
        table under its tags, in queue order, in one ``list.extend``."""
        queued, self._queued = self._queued, []
        self._pending[:], self._counted = 0, 0
        n, empty = self.nranks, ((),) * self.nranks
        rows = [t.live(ph, lv) for t, ph, lv in queued]
        rows = [r if len(r) >= n else r + empty[len(r):] for r in rows]
        for log, recs in zip(self.rank_logs, zip(*rows)):
            log._records._built.extend(chain.from_iterable(recs))

    # -- point to point ---------------------------------------------------
    def log_message(self, src: int, dst: int, nbytes: float, *,
                    persistent: bool = False, tag: str = "") -> None:
        self.messages._add((src, dst, int(nbytes), persistent, tag),
                           current_phase(), 1)

    def log_batch(self, batch: MessageBatch) -> None:
        """Append a batch (see :func:`frozen_messages`) under the live
        phase, as one segment."""
        if not isinstance(batch, MessageBatch):
            raise TypeError("log_batch takes a MessageBatch")
        self.messages._add(batch, current_phase(), len(batch))

    #: How a frozen exchange sends its batch (:meth:`_FrozenExchange.start`):
    #: plain logging here; :class:`repro.faults.comm.FaultyComm` delivers the
    #: batch in acknowledged attempt rounds instead.
    log_exchange = log_batch

    def record_on_ranks(self, table: RecordTable) -> None:
        """Append row *p* of *table* to rank *p*'s compute log — the stream
        counting row *p*'s records into rank *p*'s log would produce.

        The table is queued with the live phase and level, one append per
        call, and its rows reach the rank logs when a log's ``records`` is
        next read; rows past the rank count are dropped.
        """
        self._queued.append((table, current_phase(), current_level()))

    def _pending_lengths(self) -> np.ndarray:
        """Records per rank in the queue: the count so far plus each table
        queued since, once per distinct table."""
        if self._counted < len(self._queued):
            new = Counter(t for t, _, _ in self._queued[self._counted:])
            for table, times in new.items():
                n = min(table.nrows, self.nranks)
                self._pending[:n] += times * table.lengths[:n]
            self._counted = len(self._queued)
        return self._pending

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
        msgs, phases = self.messages.columns()
        if phase is not None:
            msgs = msgs.take(phases == phase)
        t = net.exchange_time(msgs, self.nranks)
        for c in self.collectives:
            if phase is None or c.phase == phase:
                t += net.allreduce_time(c.nranks, c.nbytes)
        return t

    def comm_volume(self, *, phase: str | None = None, tag: str | None = None) -> float:
        """Total logged point-to-point bytes (optionally filtered)."""
        msgs, phases = self.messages.columns()
        keep = np.ones(len(phases), dtype=bool)
        if phase is not None:
            keep &= phases == phase
        if tag is not None:
            keep &= msgs.tag == tag
        return float(msgs.nbytes[keep].sum())

    def message_count(self, *, tag: str | None = None) -> int:
        if tag is None:
            return len(self.messages)
        return int(np.count_nonzero(self.messages.columns()[0].tag == tag))

    def compute_phase_makespan(self, machine, irregular_fraction: float = 0.5) -> dict[str, float]:
        """Per-phase compute makespan over ranks (modeled seconds)."""
        out: dict[str, float] = {}
        for log in self.rank_logs:
            for ph, t in machine.phase_times(log, irregular_fraction).items():
                out[ph] = max(out.get(ph, 0.0), t)
        return out

    def clear_logs(self) -> None:
        self._queued.clear()
        self._pending[:], self._counted = 0, 0
        for log in self.rank_logs:
            log._records._built.clear()
        self.messages.clear()
        self.collectives.clear()


class _RankRecords(_Deferred):
    """Rank *p*'s ``records``: a read first hands out the tables the
    communicator has queued; ``len`` adds the rank's queued count."""

    __slots__ = ("_comm", "_rank", "_built")

    def __init__(self, comm: SimComm, rank: int) -> None:
        self._comm, self._rank = comm, rank
        self._built: list[KernelRecord] = []

    def _list(self) -> list[KernelRecord]:
        if self._comm._queued:
            self._comm._flush()
        return self._built

    def __len__(self) -> int:
        return len(self._built) + int(self._comm._pending_lengths()[self._rank])


class _RankLog(PerfLog):
    """One rank's compute log on a :class:`SimComm`, always reading (and
    appending after) everything recorded so far (see :class:`_RankRecords`)."""

    def __init__(self, comm: SimComm, rank: int) -> None:
        self._records = _RankRecords(comm, rank)

    @property
    def records(self) -> _RankRecords:
        return self._records


class _FrozenExchange:
    """An exchange over ``rounds`` of ``(tag, pattern)`` that logs the same
    messages on every :meth:`start`: one batch per width."""

    def __init__(self, comm: SimComm, rounds, bytes_per_elem: float,
                 persistent: bool) -> None:
        self.comm = comm
        self.rounds = rounds
        self.bytes_per_elem = bytes_per_elem
        self.persistent = persistent
        self._batches: dict[int, MessageBatch] = {}

    def start(self, *, width: int = 1) -> None:
        """Log one message per neighbor pair of every round, in round order.

        ``width > 1`` sends a *k*-column block through the same frozen
        pattern: still one message per pair, *k* times the bytes.
        """
        batch = self._batches.get(width)
        if batch is None:
            batch = self._batches[width] = MessageBatch.later(
                sum(s != d for _, pat in self.rounds for s, d in pat),
                lambda: _rounds_batch(self.rounds, width * self.bytes_per_elem,
                                      self.persistent))
        self.comm.log_exchange(batch)


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
