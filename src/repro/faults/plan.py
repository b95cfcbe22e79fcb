"""Deterministic fault plans for the simulated interconnect.

A :class:`FaultPlan` describes *what goes wrong* on the wire — message
drops, payload corruption (detected by the receiver's checksum), per-rank
slowdowns, and transient whole-rank failure windows — plus the
:class:`RetryPolicy` the reliable-delivery protocol uses to survive it.
Everything is driven by one seeded RNG consumed in delivery-attempt order,
so a given ``(plan, workload)`` pair injects exactly the same faults on
every run: the injection harness is a reproducible test fixture, not a
chaos monkey.

Plans serialize to/from JSON (``python -m repro solve --faults PLAN.json``)::

    {
      "seed": 7,
      "drop_prob": 0.05,
      "corrupt_prob": 0.01,
      "slow_ranks": {"2": 1.5},
      "rank_failures": [[1, 120, 160]],
      "retry": {"max_retries": 6, "timeout": 5e-5, "backoff": 2.0}
    }

``rank_failures`` windows are ``[rank, start, end)`` in units of the
:class:`~repro.faults.comm.FaultyComm` delivery-attempt clock: every
point-to-point delivery attempt (including retries) advances the clock by
one, so a window models a rank that is unreachable for a stretch of
protocol activity and then comes back.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["RetryPolicy", "FaultPlan", "FaultEvent"]

#: Fault kinds a plan can inject on a point-to-point delivery attempt.
FAULT_KINDS = ("drop", "corrupt", "rank_down")


@dataclass(frozen=True)
class RetryPolicy:
    """Reliable-delivery knobs: ack timeout, exponential backoff, retry cap.

    A failed attempt costs the sender ``timeout * backoff**attempt`` modeled
    seconds (see :meth:`repro.perf.network.NetworkModel.retry_penalty`)
    before the retransmission goes out; after ``max_retries`` retransmissions
    the delivery raises (:class:`~repro.faults.comm.CommFault`).
    """

    max_retries: int = 6
    timeout: float = 5e-5
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout < 0.0:
            raise ValueError("timeout must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of interconnect misbehavior.

    Attributes
    ----------
    seed:
        Seed of the RNG consumed once per delivery attempt.
    drop_prob:
        Probability a point-to-point message silently vanishes (no ack).
    corrupt_prob:
        Probability a delivered payload fails the receiver's checksum
        (nack → retransmission; the consumer never sees corrupted data).
    slow_ranks:
        ``rank -> slowdown factor``: every message touching the rank is
        charged ``factor`` times its modeled wire time.
    rank_failures:
        ``(rank, start, end)`` windows (attempt-clock units) during which
        the rank neither sends, receives, nor participates in collectives.
    retry:
        The :class:`RetryPolicy` the reliable protocol runs under.
    """

    seed: int = 0
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    slow_ranks: dict[int, float] = field(default_factory=dict)
    rank_failures: tuple[tuple[int, int, int], ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.corrupt_prob < 1.0:
            raise ValueError("corrupt_prob must be in [0, 1)")
        if self.drop_prob + self.corrupt_prob >= 1.0:
            raise ValueError("drop_prob + corrupt_prob must be < 1")
        object.__setattr__(
            self, "rank_failures",
            tuple(tuple(int(v) for v in w) for w in self.rank_failures),
        )
        object.__setattr__(
            self, "slow_ranks",
            {int(k): float(v) for k, v in self.slow_ranks.items()},
        )
        for rank, start, end in self.rank_failures:
            if start >= end:
                raise ValueError(f"empty failure window {(rank, start, end)}")
        for factor in self.slow_ranks.values():
            if factor < 1.0:
                raise ValueError("slow_ranks factors must be >= 1")

    # -- fault drawing ------------------------------------------------------
    def failed_rank(self, ranks, clock: int) -> int | None:
        """The first rank of *ranks* down at *clock*, or None."""
        for rank, start, end in self.rank_failures:
            if rank in ranks and start <= clock < end:
                return rank
        return None

    def draw(self, rng: np.random.Generator, src, dst, clock) -> np.ndarray:
        """Fault injected into each delivery attempt ``src[i] -> dst[i]`` at
        ``clock[i]``: an index into :data:`FAULT_KINDS`, or -1 for success.

        Rank-failure windows dominate (no RNG draw — a dead rank fails
        deterministically); every other attempt takes one uniform, in
        attempt order, that picks drop / corrupt / success, so RNG
        consumption is identical across kinds.
        """
        src, dst, clock = (np.asarray(a) for a in (src, dst, clock))
        down = np.zeros(clock.shape, dtype=bool)
        for rank, start, end in self.rank_failures:
            down |= (((src == rank) | (dst == rank))
                     & (start <= clock) & (clock < end))
        u = rng.random(int(np.count_nonzero(~down)))
        out = np.full(clock.shape, FAULT_KINDS.index("rank_down"), dtype=np.int64)
        out[~down] = np.where(u < self.drop_prob, 0, np.where(
            u < self.drop_prob + self.corrupt_prob, 1, -1))
        return out

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["rank_failures"] = [list(w) for w in self.rank_failures]
        return d

    def to_json(self, path=None, *, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        d = dict(d)
        retry = d.pop("retry", None)
        if isinstance(retry, dict):
            retry = RetryPolicy(**retry)
        return cls(retry=retry or RetryPolicy(), **d)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_json_file(cls, path) -> "FaultPlan":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass
class FaultEvent:
    """One observed fault / recovery action, as recorded in
    ``SolveResult.fault_events``.

    ``kind`` is one of the injected kinds (``drop``, ``corrupt``,
    ``rank_down``, ``collective_down``), a protocol outcome
    (``delivered_after_retry``), or a solver-level action
    (``checkpoint_restart``, ``nonfinite``, ``diverged``, ``stagnated``,
    ``breakdown``, ``degraded``).
    """

    kind: str
    src: int = -1
    dst: int = -1
    tag: str = ""
    seq: int = -1
    attempt: int = 0
    clock: int = -1
    phase: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)
