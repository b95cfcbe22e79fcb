"""Network model for the simulated cluster (Endeavor, §5.1.2).

Messages logged by :class:`repro.dist.comm.SimComm` are converted into
modeled seconds with a latency/bandwidth (alpha-beta) model, augmented with
the small-message effect the paper measures: on 128 nodes, halo-exchange
messages shrink below 100 KB and sustain under 1 GB/s effective
uni-directional bandwidth — about 1/6 of the FDR InfiniBand peak.  We model
effective per-message time as::

    t(msg) = alpha + setup + bytes / beta(bytes)

where ``beta`` ramps from ``small_msg_bw`` to ``peak_bw`` as the message
grows past ``rampup_bytes``, and ``setup`` is the per-exchange software cost
(posting Isend/Irecv pairs, protocol handshakes) that *persistent
communication* (§4.4) amortizes: persistent exchanges pay it once at request
creation instead of on every exchange, reproducing the observed 1.7–1.8x
halo-exchange speedup.

Point-to-point traffic is priced by columns: :meth:`NetworkModel.message_times`
evaluates the formula elementwise over ``(src, dst, nbytes, persistent)``
arrays, and every other pricing of messages (:meth:`~NetworkModel.message_time`,
:meth:`~NetworkModel.exchange_time`) goes through it.

Collectives: an allreduce over P ranks costs ``ceil(log2 P)`` latency-bound
rounds (recursive doubling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["NetworkModel", "FDRInfinibandModel", "MessageEvent",
           "MessageColumns"]


@dataclass(frozen=True)
class MessageEvent:
    """One logged point-to-point message."""

    src: int
    dst: int
    nbytes: int
    persistent: bool
    tag: str = ""


class MessageColumns(NamedTuple):
    """Point-to-point messages as columns, in send order: ``src``, ``dst``
    and ``nbytes`` arrays, a bool ``persistent`` array and an object
    ``tag`` array — the fields of :class:`MessageEvent`, one array each."""

    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    persistent: np.ndarray
    tag: np.ndarray

    @classmethod
    def of(cls, events: Iterable[MessageEvent]) -> "MessageColumns":
        """The columns of a sequence of events."""
        return cls.from_rows((e.src, e.dst, e.nbytes, e.persistent, e.tag)
                             for e in events)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "MessageColumns":
        """The columns of ``(src, dst, nbytes, persistent, tag)`` rows."""
        rows = list(rows)
        src, dst, nbytes, persistent, tag = zip(*rows) if rows else ((),) * 5
        return cls(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                   np.array(nbytes, dtype=None if rows else np.int64),
                   np.array(persistent, dtype=bool), np.array(tag, dtype=object))

    def take(self, index) -> "MessageColumns":
        """The messages at *index* (a slice, a mask or positions)."""
        return MessageColumns(*(c[index] for c in self))


def _tier_times(nbytes: np.ndarray, persistent, alpha: float, small_bw: float,
                peak_bw: float, rampup_bytes: float, setup: float) -> np.ndarray:
    """``alpha + nbytes / bw`` (+ ``setup`` where not persistent) over the
    quadratic ramp of one link tier, elementwise — the float operations of
    the one-message formula, in its order."""
    frac = nbytes / rampup_bytes
    bw = np.where(nbytes >= rampup_bytes, peak_bw,
                  small_bw + frac * frac * (peak_bw - small_bw))
    t = alpha + nbytes / bw
    return np.where(persistent, t, t + setup)


@dataclass
class NetworkModel:
    name: str
    #: Wire latency per message, seconds.
    alpha: float
    #: Peak uni-directional bandwidth per node, bytes/s.
    peak_bw: float
    #: Effective bandwidth for small messages, bytes/s (paper: <1 GB/s for
    #: <100 KB messages on 128 nodes).
    small_msg_bw: float
    #: Message size at which effective bandwidth reaches the peak.
    rampup_bytes: float
    #: Per-exchange software setup cost for non-persistent communication
    #: (request allocation, rendezvous handshake); persistent requests pay it
    #: once at creation.
    exchange_setup: float
    #: One-time cost to create a persistent request.
    persistent_create: float

    def scaled(self, factor: float) -> "NetworkModel":
        """A copy with all fixed per-message costs divided by *factor*.

        The benchmarks run problems scaled down ~``factor``x from the
        paper's sizes; per-rank compute shrinks proportionally while wire
        latency and software setup are physical constants, so an unscaled
        network would drown every run in latency.  Scaling the fixed costs
        (and the ramp knee, since messages shrink with the surface) keeps
        the compute:communication balance of the paper's configuration —
        the quantity its scaling figures are about (DESIGN.md §2).
        """
        from dataclasses import replace

        return replace(
            self,
            name=f"{self.name} (1/{factor:g} scale)",
            alpha=self.alpha / factor,
            exchange_setup=self.exchange_setup / factor,
            persistent_create=self.persistent_create / factor,
            rampup_bytes=max(self.rampup_bytes / factor, 4096),
        )

    def message_bw(self, nbytes: float) -> float:
        """Effective bandwidth for a message of *nbytes*.

        Quadratic ramp: sub-100 KB messages stay near ``small_msg_bw``
        (the <1 GB/s the paper measures on 128 nodes) and the peak is only
        reached near ``rampup_bytes``.
        """
        if nbytes >= self.rampup_bytes:
            return self.peak_bw
        frac = nbytes / self.rampup_bytes
        return self.small_msg_bw + frac * frac * (self.peak_bw - self.small_msg_bw)

    def message_times(self, src, dst, nbytes, persistent) -> np.ndarray:
        """Modeled seconds of each message ``src[i] -> dst[i]`` of
        ``nbytes[i]`` bytes (``persistent`` may be one flag for all)::

            alpha + nbytes / message_bw(nbytes)   (+ exchange_setup)

        The flat model prices every pair alike; a two-tier model picks the
        tier per pair."""
        return _tier_times(np.asarray(nbytes), persistent, self.alpha,
                           self.small_msg_bw, self.peak_bw, self.rampup_bytes,
                           self.exchange_setup)

    def message_time(self, msg: MessageEvent) -> float:
        """:meth:`message_times` of one message."""
        return float(self.message_times([msg.src], [msg.dst], [msg.nbytes],
                                        [msg.persistent])[0])

    def exchange_time(self, messages: MessageColumns | Iterable[MessageEvent],
                      nranks: int) -> float:
        """Modeled time of one neighborhood exchange.

        Each rank sends/receives its messages concurrently; the exchange
        completes when the busiest rank finishes.  Per-rank time is the sum
        over its messages (serialized through one NIC), which matches the
        paper's observation that halo exchange does not overlap across
        neighbors of a rank.

        The sums are one ``bincount`` over the interleaved ids ``[src0,
        dst0, src1, dst1, ...]`` with each time repeated twice: ``bincount``
        adds in input order, so every rank's total is the one a per-message
        ``per_rank[src] += t; per_rank[dst] += t`` loop leaves, bit for bit
        (a self-send counts twice on its rank, as there).  A sequence of
        :class:`MessageEvent` is read as its columns.
        """
        if not isinstance(messages, MessageColumns):
            messages = MessageColumns.of(messages)
        if nranks == 0 or len(messages.src) == 0:
            return 0.0
        t = self.message_times(messages.src, messages.dst, messages.nbytes,
                               messages.persistent)
        ids = np.stack([messages.src, messages.dst], axis=1).ravel()
        return float(np.bincount(ids, weights=np.repeat(t, 2),
                                 minlength=nranks).max())

    def transfer_time(self, nbytes: float) -> float:
        """Modeled seconds of a one-off, non-persistent transfer.

        The service tier uses this for request forwarding and result return
        between modeled service ranks (:mod:`repro.serve.shard`): each hop
        is a single message that pays wire latency, the per-exchange
        software setup (these transfers are sporadic, so nothing amortizes
        it), and the size-dependent effective bandwidth — the same ramp the
        halo exchanges see, so forwarding a small right-hand side is
        latency-bound while shipping a whole operator rides the bandwidth
        curve.
        """
        return self.alpha + self.exchange_setup + nbytes / self.message_bw(nbytes)

    def state_transfer_time(self, nbytes: float) -> float:
        """Modeled seconds of a bulk state transfer (cache re-warm).

        A rejoining service rank pulls whole hierarchies from a surviving
        replica as one streamed transfer: a single setup handshake, then
        the payload at the peak-bandwidth end of the ramp (state transfers
        are large and contiguous, unlike the sporadic per-request hops of
        :meth:`transfer_time`, so they always ride the full pipe).
        """
        return self.alpha + self.exchange_setup + nbytes / self.peak_bw

    def retry_penalty(self, timeout: float, attempt: int, backoff: float) -> float:
        """Sender-side seconds lost to one failed delivery attempt.

        The reliable protocol of :class:`repro.faults.comm.FaultyComm`
        waits out the (exponentially backed-off) ack timeout before
        retransmitting; the retransmission and its ack are logged as
        ordinary messages, so this charges only the stall.  One wire
        latency is added for the ack that never arrived.
        """
        return timeout * (backoff ** attempt) + self.alpha

    def allreduce_time(self, nranks: int, nbytes: float = 8.0) -> float:
        if nranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nranks))
        return rounds * (self.alpha + nbytes / self.small_msg_bw + self.exchange_setup * 0.25)


def FDRInfinibandModel() -> NetworkModel:
    """FDR InfiniBand fat-tree (Endeavor cluster).

    Peak ~6 GB/s per direction per node; the paper measures <1 GB/s for
    sub-100 KB messages, which the ramp reproduces.
    """
    return NetworkModel(
        name="FDR InfiniBand fat-tree",
        alpha=1.5e-6,
        peak_bw=6e9,
        small_msg_bw=0.85e9,
        rampup_bytes=1e6,
        exchange_setup=4e-6,
        persistent_create=6e-6,
    )
