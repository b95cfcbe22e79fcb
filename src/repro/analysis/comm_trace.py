"""Post-hoc communication-trace replay: deadlock & mismatch detection.

A :class:`CommTrace` is a neutral snapshot of everything a
:class:`~repro.dist.comm.SimComm` (or fault-injecting
:class:`~repro.faults.comm.FaultyComm`) logged: the point-to-point message
stream, the per-rank collective sequences, and whether the trace was
produced under the ack/retry reliable protocol.  :func:`scan_comm_trace`
replays it and reports:

``comm.rank_range`` / ``comm.self_message``
    Messages addressed outside ``[0, nranks)`` or from a rank to itself
    (the simulator never logs loopback traffic, so one in the trace means
    a pattern was built against the wrong partition).
``comm.unreceived_send``
    On a reliable trace: an initial send that was never acknowledged by
    its receiver — in a real MPI run, a send with no matching receive.
``comm.recv_without_send``
    An acknowledgement for a message that was never sent — a receive
    posted against a phantom send.
``comm.collective_order``
    Rank collective sequences that differ (kind or count).  In a real MPI
    run two ranks entering different collectives — or one rank skipping
    one — deadlocks the job; in the simulator it shows up only in the log,
    which is exactly why the replay exists.
``comm.persistent_drift``
    Persistent-exchange traffic whose per-round (src, dst) sequence does
    not match any frozen pattern registered for its tag (§4.4 persistent
    requests must never change topology after creation).

:func:`check_comm_trace` raises a structured
:class:`~repro.analysis.errors.InvariantViolation` for the first finding.

A trace recorded under **injected faults** legitimately breaks send/ack
matching: an exchange that runs out of retries (``CommFault``) leaves sends
that were never acknowledged.  That check is not silently skipped — the
skip is returned as a structured :class:`SkippedCheck` record
(``scan_comm_trace(..., with_skips=True)``) and surfaced by
:func:`check_comm_trace` as a ``RuntimeWarning`` plus its return value, so
a clean report can never be mistaken for a complete one.  (Persistent
traffic stays judgeable: retransmissions are never persistent.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import InvariantViolation

__all__ = [
    "TraceMessage",
    "CommTrace",
    "SkippedCheck",
    "persistent_patterns_of",
    "scan_comm_trace",
    "check_comm_trace",
]

#: Tag suffixes appended by the reliable protocol to acks and
#: retransmissions (:meth:`repro.faults.comm.FaultyComm.log_exchange`).
ACK_SUFFIX = ".ack"
RETRY_SUFFIX = ".retry"


@dataclass(frozen=True)
class TraceMessage:
    """One logged point-to-point message."""

    src: int
    dst: int
    nbytes: float
    tag: str = ""
    persistent: bool = False
    phase: str = ""


@dataclass(frozen=True)
class SkippedCheck:
    """A replay check that could not run on this trace, with the reason.

    ``check`` is the invariant-id family the skip disables (e.g.
    ``"comm.unreceived_send"``); ``reason`` says why the trace makes that
    family unjudgeable rather than merely clean.
    """

    check: str
    reason: str


@dataclass
class CommTrace:
    """Neutral snapshot of a communicator's logged traffic.

    ``collectives`` holds one ordered list of collective kinds per rank;
    a :class:`~repro.dist.comm.SimComm` executes collectives process-wide,
    so :meth:`from_comm` replicates its log onto every rank — synthesized
    traces (tests, external tooling) may diverge per rank.
    """

    nranks: int
    messages: list[TraceMessage] = field(default_factory=list)
    collectives: list[list[str]] = field(default_factory=list)
    #: Whether the trace was produced under the ack/retry protocol
    #: (enables send/ack matching).
    reliable: bool = False
    #: Whether faults actually fired while the trace was recorded (the
    #: communicator logged at least one FaultEvent): send/ack matching is
    #: unjudgeable on such a trace and is reported as a
    #: :class:`SkippedCheck` record instead of findings.
    faulty: bool = False

    @classmethod
    def from_comm(cls, comm) -> "CommTrace":
        msgs = [
            TraceMessage(m.event.src, m.event.dst, m.event.nbytes,
                         m.event.tag, m.event.persistent, m.phase)
            for m in comm.messages
        ]
        kinds = [c.kind for c in comm.collectives]
        return cls(
            nranks=comm.nranks,
            messages=msgs,
            collectives=[list(kinds) for _ in range(comm.nranks)],
            reliable=bool(getattr(comm, "supports_fault_injection", False)),
            faulty=bool(getattr(comm, "events", ())),
        )


def _base_tag(tag: str) -> str | None:
    """Strip protocol suffixes; None means the message is an ack."""
    if tag.endswith(ACK_SUFFIX):
        return None
    if tag.endswith(RETRY_SUFFIX):
        return tag[: -len(RETRY_SUFFIX)]
    return tag


def _finding(invariant: str, detail: str, **kw) -> InvariantViolation:
    return InvariantViolation(invariant, detail, **kw)


def persistent_patterns_of(comm) -> dict[str, list[list[tuple[int, int]]]]:
    """The frozen pair sequences of every persistent exchange registered on
    *comm*, grouped by tag — ready to pass as ``persistent_patterns``."""
    patterns: dict[str, list[list[tuple[int, int]]]] = {}
    for req in getattr(comm, "persistent_requests", ()):
        patterns.setdefault(req.tag, []).append(
            [(int(s), int(d)) for (s, d) in req.pattern]
        )
    return patterns


def scan_comm_trace(
    trace,
    *,
    persistent_patterns: dict[str, list[list[tuple[int, int]]]] | None = None,
    max_findings: int = 64,
    with_skips: bool = False,
):
    """Replay *trace* (a :class:`CommTrace` or a communicator) and return
    every violation found, unraised.

    ``persistent_patterns`` maps a tag to the list of frozen
    ``(src, dst)`` pair sequences registered for it (one per
    :class:`~repro.dist.comm.PersistentExchange`); when given, every
    contiguous round of persistent traffic under that tag must replay one
    of them exactly.

    With ``with_skips=True`` the return value is a ``(findings, skips)``
    pair; a check the trace makes unjudgeable (send/ack matching on a
    faulty run, see :class:`SkippedCheck`) contributes a skip record
    instead of silently reporting clean.
    """
    if not isinstance(trace, CommTrace):
        trace = CommTrace.from_comm(trace)
    findings: list[InvariantViolation] = []
    skips: list[SkippedCheck] = []

    def done(out):
        return (out, skips) if with_skips else out

    def add(v: InvariantViolation) -> bool:
        findings.append(v)
        return len(findings) >= max_findings

    # -- rank sanity --------------------------------------------------------
    n = trace.nranks
    for m in trace.messages:
        if not (0 <= m.src < n and 0 <= m.dst < n):
            if add(_finding(
                "comm.rank_range",
                f"message {m.src}->{m.dst} (tag={m.tag!r}) is outside the "
                f"rank range [0, {n})")):
                return done(findings)
        elif m.src == m.dst:
            if add(_finding(
                "comm.self_message",
                f"rank {m.src} sent itself a message (tag={m.tag!r}); "
                f"local data must not go through the wire",
                rank=m.src)):
                return done(findings)

    # -- reliable-protocol send/ack matching --------------------------------
    # Only tags that demonstrably ran the ack/retry protocol are matched:
    # a FaultyComm also carries plain logged traffic (setup-time exchanges,
    # coarse-grid gathers) that is never acknowledged by design.
    if trace.reliable and trace.faulty:
        skips.append(SkippedCheck(
            "comm.unreceived_send",
            "faults fired during this run: an exchange that ran out of "
            "retries legitimately leaves unacknowledged sends, so missing "
            "acks are not evidence of a schedule bug"))
    elif trace.reliable:
        sends: dict[tuple[int, int, str], int] = {}
        acks: dict[tuple[int, int, str], int] = {}
        protocol_tags: set[str] = set()
        for m in trace.messages:
            base = _base_tag(m.tag)
            if base is None:
                base = m.tag[: -len(ACK_SUFFIX)]
                protocol_tags.add(base)
                key = (m.dst, m.src, base)
                acks[key] = acks.get(key, 0) + 1
            elif base != m.tag:  # a retry marks its base tag as protocol-run
                protocol_tags.add(base)
            else:  # initial attempt (retries re-send the same seq)
                key = (m.src, m.dst, base)
                sends[key] = sends.get(key, 0) + 1
        for key in sorted(k for k in set(sends) | set(acks)
                          if k[2] in protocol_tags):
            s, a = sends.get(key, 0), acks.get(key, 0)
            src, dst, tag = key
            if a < s:
                if add(_finding(
                    "comm.unreceived_send",
                    f"{s - a} of {s} message(s) {src}->{dst} (tag={tag!r}) "
                    f"were never acknowledged by the receiver",
                    rank=src)):
                    return done(findings)
            elif a > s:
                if add(_finding(
                    "comm.recv_without_send",
                    f"rank {dst} acknowledged {a} message(s) {src}->{dst} "
                    f"(tag={tag!r}) but only {s} were sent",
                    rank=dst)):
                    return done(findings)

    # -- collective-order divergence ----------------------------------------
    seqs = trace.collectives
    if seqs:
        ref = seqs[0]
        for p, seq in enumerate(seqs[1:], start=1):
            if seq == ref:
                continue
            k = next(
                (i for i, (x, y) in enumerate(zip(ref, seq)) if x != y),
                min(len(ref), len(seq)),
            )
            a = ref[k] if k < len(ref) else "<none>"
            b = seq[k] if k < len(seq) else "<none>"
            if add(_finding(
                "comm.collective_order",
                f"rank {p} diverges from rank 0 at collective #{k}: "
                f"rank 0 enters {a!r}, rank {p} enters {b!r} — this "
                f"deadlocks a real MPI run",
                rank=p)):
                return done(findings)

    # -- persistent-pattern drift -------------------------------------------
    if persistent_patterns:
        for tag, patterns in persistent_patterns.items():
            stream = [
                (m.src, m.dst)
                for m in trace.messages
                if m.persistent and m.tag == tag
            ]
            ordered = [
                [(int(s), int(d)) for (s, d) in pat if s != d]
                for pat in patterns
            ]
            i = 0
            while i < len(stream):
                for pat in ordered:
                    if pat and stream[i: i + len(pat)] == pat:
                        i += len(pat)
                        break
                else:
                    if add(_finding(
                        "comm.persistent_drift",
                        f"persistent traffic (tag={tag!r}) at message #{i} "
                        f"({stream[i][0]}->{stream[i][1]}) does not replay "
                        f"any frozen exchange pattern; persistent requests "
                        f"must keep their creation-time topology")):
                        return done(findings)
                    i += 1
    return done(findings)


def check_comm_trace(
    trace,
    *,
    persistent_patterns: dict[str, list[list[tuple[int, int]]]] | None = None,
) -> list[SkippedCheck]:
    """Replay *trace*; raise the first violation, return the skips.

    Checks the trace made unjudgeable (faulty runs) are surfaced twice:
    as a ``RuntimeWarning`` naming each skipped invariant family, and as
    the returned :class:`SkippedCheck` list — callers that log or assert
    on coverage read the return value.
    """
    # Full scan (not max_findings=1): an early finding must not suppress
    # the skip records of checks that come later in the replay.
    findings, skips = scan_comm_trace(
        trace, persistent_patterns=persistent_patterns, with_skips=True,
    )
    for skip in skips:
        warnings.warn(
            f"comm-trace check {skip.check} skipped: {skip.reason}",
            RuntimeWarning, stacklevel=2)
    if findings:
        raise findings[0]
    return skips
