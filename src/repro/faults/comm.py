"""Fault-injecting communicator: :class:`FaultyComm`.

``FaultyComm`` is a drop-in :class:`~repro.dist.comm.SimComm` whose
point-to-point deliveries run a **reliable protocol**: every message is
sequence-numbered, acknowledged by the receiver, and retransmitted with
exponential backoff when the :class:`~repro.faults.plan.FaultPlan` drops or
corrupts it.  All protocol traffic — the original send, every
retransmission, and every ack — is logged through the normal ``SimComm``
message log, so the :class:`~repro.perf.network.NetworkModel` charges the
recovery cost alongside the useful traffic; the sender-side timeout/backoff
stalls are added on top via :meth:`NetworkModel.retry_penalty`.

Because the rank "memories" share one Python process, payloads always
arrive intact once an attempt succeeds: corruption is modeled as a checksum
failure at the receiver (nack → retransmission), never as silently wrong
numbers reaching the solver.  A solve that survives its fault plan is
therefore **bit-identical** to the fault-free solve — the faults cost
modeled time and show up in ``SolveResult.fault_events``, nothing else.

Deliveries that exhaust their retries raise :class:`RetriesExhausted`, or
:class:`RankFailure` when a transient rank-failure window is the cause;
``DistAMGSolver.solve`` catches these and resumes from its last iterate
checkpoint (see :mod:`repro.dist.solver`).
"""

from __future__ import annotations

import numpy as np

from ..dist.comm import SimComm
from ..perf.counters import current_phase
from ..perf.network import NetworkModel
from .plan import FaultEvent, FaultPlan

__all__ = ["FaultyComm", "CommFault", "RetriesExhausted", "RankFailure",
           "ACK_BYTES"]

#: Modeled size of an ack/nack message (sequence number + checksum).
ACK_BYTES = 16.0


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
        self._rng = np.random.default_rng(self.plan.seed)
        self._next_seq = 0

    # -- reliable point-to-point -------------------------------------------
    def reliable_send(self, src: int, dst: int, nbytes: float, *,
                      tag: str = "", persistent: bool = False) -> int:
        """Deliver one sequence-numbered message, retrying on faults.

        Returns the number of retransmissions that were needed (0 on a
        clean first attempt).  Raises :class:`RankFailure` /
        :class:`RetriesExhausted` when the retry budget runs out.
        """
        plan, policy = self.plan, self.plan.retry
        seq = self._next_seq
        self._next_seq += 1
        phase = current_phase()
        for attempt in range(policy.max_retries + 1):
            self.clock += 1
            retry = attempt > 0
            self.log_message(
                src, dst, nbytes,
                persistent=persistent and not retry,
                tag=tag if not retry else f"{tag}.retry",
            )
            fault = plan.draw(self._rng, src, dst, self.clock)
            if fault is None:
                # Receiver checksums the payload and acks the sequence number.
                self.log_message(dst, src, ACK_BYTES, tag=f"{tag}.ack")
                if retry:
                    self.events.append(FaultEvent(
                        "delivered_after_retry", src=src, dst=dst, tag=tag,
                        seq=seq, attempt=attempt, clock=self.clock,
                        phase=phase,
                    ))
                return attempt
            self.events.append(FaultEvent(
                fault, src=src, dst=dst, tag=tag, seq=seq, attempt=attempt,
                clock=self.clock, phase=phase,
            ))
        rank = plan.failed_rank((src, dst), self.clock)
        if rank is not None:
            raise RankFailure(rank, src=src, dst=dst, tag=tag, seq=seq)
        raise RetriesExhausted(
            f"message {src}->{dst} tag={tag!r} seq={seq} lost after "
            f"{policy.max_retries + 1} attempts",
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
