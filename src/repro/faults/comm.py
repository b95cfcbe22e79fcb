"""Fault-injecting communicator: :class:`FaultyComm`.

``FaultyComm`` is a drop-in :class:`~repro.dist.comm.SimComm` that sends
each frozen exchange's wire batch — the flat halo or the node-aware 3-step
schedule — under a **reliable protocol** (:meth:`FaultyComm.log_exchange`),
in attempt rounds.  A round numbers its pending messages' clocks
consecutively, classifies every attempt at once (:meth:`FaultPlan.draw`) and
logs one batch: each attempt, followed by the receiver's ack when it
succeeded.  Round 0 keeps the batch's tags and persistent flags; later
rounds retransmit what failed, tagged ``tag + ".retry"``, not persistent.
All protocol traffic is logged, so the
:class:`~repro.perf.network.NetworkModel` charges the recovery cost alongside
the useful traffic; the sender-side timeout/backoff stalls are added on top
via :meth:`NetworkModel.retry_penalty`.  A one-message batch runs the
classic per-message protocol, and a fault-free round 0 logs a cached batch.

Because the rank "memories" share one Python process, payloads always
arrive intact once an attempt succeeds: corruption is modeled as a checksum
failure at the receiver (nack → retransmission), never as silently wrong
numbers reaching the solver.  A solve that survives its fault plan is
therefore **bit-identical** to the fault-free solve — the faults cost
modeled time and show up in ``SolveResult.fault_events``, nothing else.

An exchange whose retries run out raises :class:`RetriesExhausted`, or
:class:`RankFailure` when a transient rank-failure window is the cause, for
its first undelivered message (counted in ``exhausted``); the stationary
driver rolls back to its last checkpoint (:func:`repro.amg.solver.stationary`).
"""

from __future__ import annotations

import weakref

import numpy as np

from ..dist.comm import MessageBatch, SimComm
from ..perf.counters import current_phase
from ..perf.network import MessageColumns, NetworkModel
from .plan import FAULT_KINDS, FaultEvent, FaultPlan

__all__ = ["FaultyComm", "CommFault", "RetriesExhausted", "RankFailure",
           "ACK_BYTES"]

#: Modeled size of an ack/nack message (sequence number + checksum).
ACK_BYTES = 16.0


def _attempts(c: MessageColumns, ok: np.ndarray, tags, persistent) -> MessageBatch:
    """One attempt round as a batch: each message of *c*, sent under *tags*
    with the *persistent* flag(s), followed by the receiver's ack (tagged
    with the message's own tag + ``".ack"``) where *ok*."""
    per = 1 + ok
    row = np.repeat(np.arange(len(ok)), per)
    ack = np.zeros(len(row), dtype=bool)
    ack[(np.cumsum(per) - 1)[ok]] = True
    return MessageBatch(
        np.where(ack, c.dst[row], c.src[row]),
        np.where(ack, c.src[row], c.dst[row]),
        np.where(ack, int(ACK_BYTES), c.nbytes[row]),
        np.where(ack, (c.tag + ".ack")[row], np.asarray(tags)[row]),
        persistent=~ack & np.broadcast_to(persistent, ok.shape)[row])


class CommFault(RuntimeError):
    """A reliable delivery (or collective) could not complete."""

    def __init__(self, msg: str, *, src: int = -1, dst: int = -1,
                 tag: str = "", seq: int = -1) -> None:
        super().__init__(msg)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seq = seq


class RetriesExhausted(CommFault):
    """Every retransmission of a message was dropped/corrupted."""


class RankFailure(CommFault):
    """A delivery failed because a rank was inside a failure window."""

    def __init__(self, rank: int, **kw) -> None:
        super().__init__(f"rank {rank} is down", **kw)
        self.rank = rank


class FaultyComm(SimComm):
    """A :class:`SimComm` that injects the faults of a :class:`FaultPlan`.

    The ``clock`` advances by one per point-to-point delivery attempt (and
    per collective attempt), which is the time base of the plan's
    ``rank_failures`` windows.  ``events`` records every injected fault and
    every delivery that needed retries; solvers snapshot it into
    ``SolveResult.fault_events``.
    """

    supports_fault_injection = True

    def __init__(self, nranks: int, plan: FaultPlan | None = None) -> None:
        super().__init__(nranks)
        self.plan = plan if plan is not None else FaultPlan()
        self.events: list[FaultEvent] = []
        self.clock = 0
        #: Exchanges that ran out of retries since the logs were cleared:
        #: only those leave sends without an ack in ``messages``.
        self.exhausted = 0
        self._rng = np.random.default_rng(self.plan.seed)
        self._next_seq = 0
        #: A batch's fault-free round 0 (each message and its ack), per batch.
        self._acked: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- reliable delivery of a frozen exchange ----------------------------
    def log_exchange(self, batch: MessageBatch) -> None:
        """Deliver *batch* in attempt rounds (see the module docstring);
        raise :class:`RankFailure` / :class:`RetriesExhausted` for the first
        message still pending when the retry budget runs out."""
        plan, n = self.plan, len(batch)
        c = sub = batch.columns()
        seqs = np.arange(self._next_seq, self._next_seq + n)
        self._next_seq += n
        pending = np.arange(n)
        for attempt in range(plan.retry.max_retries + 1):
            clock = np.arange(self.clock + 1, self.clock + len(pending) + 1)
            self.clock += len(pending)
            fault = plan.draw(self._rng, sub.src, sub.dst, clock)
            ok = fault < 0
            if attempt == 0 and ok.all():
                if batch not in self._acked:
                    self._acked[batch] = MessageBatch.later(
                        2 * n, lambda: _attempts(c, ok, c.tag, c.persistent))
                self.log_batch(self._acked[batch])
                return
            self.log_batch(_attempts(sub, ok, sub.tag + ".retry" if attempt
                                     else sub.tag, not attempt and sub.persistent))
            phase = current_phase()
            for i in np.flatnonzero(~ok | (attempt > 0)).tolist():
                self.events.append(FaultEvent(
                    FAULT_KINDS[fault[i]] if fault[i] >= 0 else "delivered_after_retry",
                    src=int(sub.src[i]), dst=int(sub.dst[i]), tag=sub.tag[i],
                    seq=int(seqs[pending[i]]), attempt=attempt,
                    clock=int(clock[i]), phase=phase))
            pending, last = pending[~ok], clock[~ok]
            if not len(pending):
                return
            sub = c.take(pending)
        self.exhausted += 1
        src, dst, tag, seq = int(sub.src[0]), int(sub.dst[0]), sub.tag[0], int(seqs[pending[0]])
        rank = plan.failed_rank((src, dst), int(last[0]))
        if rank is not None:
            raise RankFailure(rank, src=src, dst=dst, tag=tag, seq=seq)
        raise RetriesExhausted(
            f"message {src}->{dst} tag={tag!r} seq={seq} lost after "
            f"{plan.retry.max_retries + 1} attempts",
            src=src, dst=dst, tag=tag, seq=seq,
        )

    # -- collectives --------------------------------------------------------
    def _collective_gate(self, kind: str) -> None:
        """Fail a collective while any participating rank is down."""
        policy = self.plan.retry
        phase = current_phase()
        ranks = range(self.nranks)
        for attempt in range(policy.max_retries + 1):
            self.clock += 1
            rank = self.plan.failed_rank(ranks, self.clock)
            if rank is None:
                return
            self.events.append(FaultEvent(
                "collective_down", src=rank, tag=kind, attempt=attempt,
                clock=self.clock, phase=phase,
            ))
        raise RankFailure(rank, tag=kind)

    def allreduce(self, values, *, kind: str = "allreduce") -> float:
        self._collective_gate(kind)
        return super().allreduce(values, kind=kind)

    def scan_offsets(self, counts: np.ndarray) -> np.ndarray:
        self._collective_gate("scan")
        return super().scan_offsets(counts)

    # -- modeled time -------------------------------------------------------
    def comm_time(self, net: NetworkModel, *, phase: str | None = None) -> float:
        """Logged traffic time plus retry stalls and slow-rank surcharges."""
        t = super().comm_time(net, phase=phase)
        policy = self.plan.retry
        for e in self.events:
            if phase is not None and e.phase != phase:
                continue
            if e.kind in ("drop", "corrupt", "rank_down", "collective_down"):
                t += net.retry_penalty(policy.timeout, e.attempt, policy.backoff)
        if self.plan.slow_ranks:
            # Each message on a slow rank costs (factor - 1) times its own
            # time more, added to t in message order (cumsum adds in order).
            msgs, phases = self.messages.columns()
            if phase is not None:
                msgs = msgs.take(phases == phase)
            slow = np.array([self.plan.slow_ranks.get(p, 1.0)
                             for p in range(self.nranks)], dtype=float)
            factor = np.maximum(slow[msgs.src], slow[msgs.dst])
            msgs = msgs.take(factor > 1.0)
            extra = (factor[factor > 1.0] - 1.0) * net.message_times(
                msgs.src, msgs.dst, msgs.nbytes, msgs.persistent)
            t = float(np.cumsum(np.r_[t, extra])[-1])
        return t

    # -- bookkeeping --------------------------------------------------------
    def event_counts(self) -> dict[str, int]:
        """Histogram of recorded fault-event kinds."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear_logs(self) -> None:
        super().clear_logs()
        self.events.clear()
        self.exhausted = 0
