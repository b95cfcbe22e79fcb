"""Fault-injection harness and resilience primitives.

``repro.faults`` makes the simulated interconnect *misbehave on purpose*
and gives the solvers the machinery to survive it:

* :class:`FaultPlan` / :class:`RetryPolicy` — a seeded, JSON-serializable
  description of message drops, corruption, slow ranks, and transient
  rank-failure windows (:mod:`repro.faults.plan`);
* :class:`FaultyComm` — a drop-in :class:`~repro.dist.comm.SimComm` that
  injects the plan into every point-to-point delivery and collective, with
  sequence-numbered acks, exponential backoff, and bounded retries whose
  cost is charged to the network model (:mod:`repro.faults.comm`);
* :class:`ResidualGuard` — per-iteration NaN/Inf, divergence, and
  stagnation detection used by every solver (:mod:`repro.faults.guards`);
* :class:`ShardFaultPlan` — seeded crash/flap/slow windows for whole
  modeled *service ranks* on the sharded tier's virtual clock, driving the
  rank-failure lifecycle of
  :class:`~repro.serve.shard.ShardedSolveService`
  (:mod:`repro.faults.shard_plan`).

``FaultyComm`` (and the exception types) import the distributed stack, so
they are loaded lazily — ``from repro.faults import FaultPlan`` stays
cheap.
"""

from __future__ import annotations

from .guards import GuardLimits, ResidualGuard
from .plan import FaultEvent, FaultPlan, RetryPolicy
from .shard_plan import ShardFaultPlan

__all__ = [
    "FaultPlan", "RetryPolicy", "FaultEvent", "ShardFaultPlan",
    "GuardLimits", "ResidualGuard",
    "FaultyComm", "CommFault", "RetriesExhausted", "RankFailure", "ACK_BYTES",
]

_COMM_NAMES = ("FaultyComm", "CommFault", "RetriesExhausted", "RankFailure",
               "ACK_BYTES")


def __getattr__(name: str):
    if name in _COMM_NAMES:
        from . import comm as _comm

        return getattr(_comm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
