"""Deterministic rank-failure plans for the sharded service tier.

A :class:`ShardFaultPlan` describes *what goes wrong with the fleet* — not
the wire, which is :class:`~repro.faults.plan.FaultPlan`'s job, but whole
modeled service ranks of a
:class:`~repro.serve.shard.ShardedSolveService` crashing, flapping, and
responding slowly.  Windows are expressed on the **modeled clock** (virtual
seconds, the same clock the service scheduler runs on), so a plan composes
with any seeded workload: the pair ``(plan, workload)`` replays the exact
same kill-and-rejoin schedule on every run, which is what makes the chaos
benchmark (``benchmarks/bench_chaos.py``) and the CI smoke step
deterministic.

Three kinds of windows:

* ``crashes`` — ``[rank, start, end)``: the rank misses every heartbeat
  probe in the window.  Once the health tracker declares it ``down``
  (``down_after`` consecutive misses, ``down_after × heartbeat_interval``
  = 3 ms by default) it loses its queue, its in-flight batches and its
  hierarchy cache, and after ``end`` it re-enters through the recovery
  lifecycle (``rejoining`` → cache re-warm → ``up``).  A crash shorter
  than detection only makes the rank ``suspect``: it costs nothing, and
  the rank serves what reaches it as if it were up.
* ``flaps`` — ``[rank, start, end, period]``: the rank alternates dead /
  alive with the given period (down for the first half of each period)
  inside the window — the pathological neighbor that keeps tripping its
  circuit breaker.
* ``slow`` — ``[rank, start, end, miss_prob]``: the rank is *alive* but
  degraded; each heartbeat probe during the window is missed with
  probability ``miss_prob``, drawn from the plan's seeded RNG in
  tick-then-rank order.  A slow rank oscillates between ``up`` and
  ``suspect`` (and can be declared ``down`` if it misses enough probes in
  a row) without ever losing state.

``retry`` is the :class:`~repro.faults.plan.RetryPolicy` the *router*
runs failover under — the same policy type the reliable-delivery protocol
uses, so there is exactly one backoff knob in the library.  Failed-over
requests are charged ``NetworkModel.retry_penalty``-style backoff delays
on the modeled clock before their re-forward goes out.

Plans serialize to/from JSON
(``python -m repro serve-bench --ranks 4 --chaos PLAN.json``)::

    {
      "seed": 7,
      "crashes": [[1, 0.010, 0.025]],
      "flaps": [[2, 0.005, 0.015, 0.004]],
      "slow": [[3, 0.0, 0.020, 0.5]],
      "retry": {"max_retries": 6, "timeout": 5e-5, "backoff": 2.0}
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .plan import RetryPolicy

__all__ = ["ShardFaultPlan"]


def _merge_windows(windows: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort and coalesce overlapping/abutting ``(start, end)`` windows."""
    out: list[list[float]] = []
    for start, end in sorted(windows):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return tuple((s, e) for s, e in out)


@dataclass(frozen=True)
class ShardFaultPlan:
    """Seeded description of service-rank misbehavior on the modeled clock.

    Attributes
    ----------
    seed:
        Seed of the RNG that decides slow-window heartbeat misses
        (consumed in tick-then-rank order by the health tracker).
    crashes:
        ``(rank, start, end)`` windows (modeled seconds) during which the
        rank misses every heartbeat.  The loss starts at detection: once
        the rank is declared ``down`` it serves nothing, and everything it
        held — queued requests, in-flight batches, cached hierarchies — is
        lost.  A window shorter than detection costs nothing.
    flaps:
        ``(rank, start, end, period)`` windows: the rank alternates dead
        (first half of each period) and alive inside the window.
    slow:
        ``(rank, start, end, miss_prob)`` windows: the rank stays alive
        but misses each heartbeat probe with probability ``miss_prob``.
    retry:
        Router-level failover :class:`~repro.faults.plan.RetryPolicy`:
        backoff delays charged per re-forward attempt, and the attempt cap
        after which a request resolves to a structured ``failed`` result.
    """

    seed: int = 0
    crashes: tuple[tuple[int, float, float], ...] = ()
    flaps: tuple[tuple[int, float, float, float], ...] = ()
    slow: tuple[tuple[int, float, float, float], ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crashes",
            tuple((int(r), float(s), float(e)) for r, s, e in self.crashes))
        object.__setattr__(
            self, "flaps",
            tuple((int(r), float(s), float(e), float(p))
                  for r, s, e, p in self.flaps))
        object.__setattr__(
            self, "slow",
            tuple((int(r), float(s), float(e), float(m))
                  for r, s, e, m in self.slow))
        for rank, start, end in self.crashes:
            if rank < 0 or start < 0 or start >= end:
                raise ValueError(f"bad crash window {(rank, start, end)}")
        for rank, start, end, period in self.flaps:
            if rank < 0 or start < 0 or start >= end or period <= 0:
                raise ValueError(
                    f"bad flap window {(rank, start, end, period)}")
        for rank, start, end, miss in self.slow:
            if rank < 0 or start < 0 or start >= end or not 0 <= miss < 1:
                raise ValueError(
                    f"bad slow window {(rank, start, end, miss)}")

    # -- queries -------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (the service must then be
        bit-identical to running without a plan at all)."""
        return not (self.crashes or self.flaps or self.slow)

    def ranks(self) -> tuple[int, ...]:
        """Every rank the plan touches, sorted."""
        return tuple(sorted(
            {w[0] for w in self.crashes}
            | {w[0] for w in self.flaps}
            | {w[0] for w in self.slow}))

    def down_windows(self, rank: int) -> tuple[tuple[float, float], ...]:
        """Merged ``(start, end)`` windows during which *rank* is dead.

        Crash windows verbatim plus the down phase of every flap period
        (the first ``period / 2`` of each), coalesced and sorted.
        """
        windows = [(s, e) for r, s, e in self.crashes if r == rank]
        for r, start, end, period in self.flaps:
            if r != rank:
                continue
            t = start
            while t < end:
                windows.append((t, min(t + period / 2.0, end)))
                t += period
        return _merge_windows(windows)

    def is_down(self, rank: int, t: float) -> bool:
        """Whether *rank* is dead at modeled time *t*."""
        return any(s <= t < e for s, e in self.down_windows(rank))

    def miss_prob(self, rank: int, t: float) -> float:
        """Heartbeat miss probability of an *alive* rank at time *t*."""
        for r, start, end, miss in self.slow:
            if r == rank and start <= t < end:
                return miss
        return 0.0

    def end_time(self) -> float:
        """The last modeled instant any window is active (0.0 when empty)."""
        ends = ([e for _, _, e in self.crashes]
                + [e for _, _, e, _ in self.flaps]
                + [e for _, _, e, _ in self.slow])
        return max(ends, default=0.0)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["crashes"] = [list(w) for w in self.crashes]
        d["flaps"] = [list(w) for w in self.flaps]
        d["slow"] = [list(w) for w in self.slow]
        return d

    def to_json(self, path=None, *, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "ShardFaultPlan":
        d = dict(d)
        retry = d.pop("retry", None)
        if isinstance(retry, dict):
            retry = RetryPolicy(**retry)
        return cls(retry=retry or RetryPolicy(), **d)

    @classmethod
    def from_json(cls, text: str) -> "ShardFaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_json_file(cls, path) -> "ShardFaultPlan":
        with open(path) as f:
            return cls.from_dict(json.load(f))
