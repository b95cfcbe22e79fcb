"""Unified solve-result records shared by every solver in the library.

Historically ``AMGSolver``, the Krylov drivers, and ``DistAMGSolver`` each
carried their own result dataclass with the same four fields.  They are now
one type — :class:`SolveResult` — with thin subclasses kept so
``isinstance`` checks and type annotations stay meaningful:

* :class:`SolveResult` — node-level solves (``x`` is a numpy array);
* :class:`KrylovResult` — alias for Krylov drivers (same fields);
* :class:`DistSolveResult` — distributed solves (``x`` is a ``ParVector``);
* :class:`ServiceResult` — a request's outcome from the batching solve
  service (:mod:`repro.serve`): the solve fields plus service-side status,
  modeled wait/solve latencies, and the micro-batch it rode in.

Fields: ``x``, ``iterations``, ``residuals``, ``converged``, plus the
derived ``final_relres`` property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["SolveResult", "KrylovResult", "DistSolveResult", "ServiceResult",
           "SERVICE_STATUSES"]


@dataclass
class SolveResult:
    """Outcome of a linear solve.

    Attributes
    ----------
    x:
        The computed solution (numpy array for node-level solvers,
        ``ParVector`` for distributed ones).
    iterations:
        Iterations (cycles for standalone AMG) performed.
    residuals:
        Residual-norm history, starting with the initial residual.
    converged:
        Whether the stopping tolerance was met within ``maxiter``.
    degraded:
        True when the result was produced through the graceful-degradation
        ladder (e.g. AMG-preconditioned Krylov broke down and the facade
        fell back to diagonal-preconditioned CG), or when a distributed
        solve had to give up after exhausting its restart budget.
    degraded_reason:
        Short human-readable cause of the downgrade (``None`` if not
        degraded).
    fault_events:
        Every fault observed while producing this result: injected
        communication faults and retries (:class:`repro.faults.FaultEvent`
        records from a :class:`~repro.faults.comm.FaultyComm`) plus
        solver-level guard verdicts, breakdowns, checkpoint restarts, and
        downgrade records.  Empty for a clean solve.
    """

    x: Any
    iterations: int
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    degraded: bool = False
    degraded_reason: str | None = None
    fault_events: list[Any] = field(default_factory=list)

    @property
    def final_relres(self) -> float:
        """Final residual norm relative to the initial one."""
        return self.residuals[-1] / self.residuals[0] if self.residuals else np.inf


@dataclass
class KrylovResult(SolveResult):
    """Result of a Krylov solve (same fields as :class:`SolveResult`)."""


@dataclass
class DistSolveResult(SolveResult):
    """Result of a distributed solve; ``x`` is a ``repro.dist.ParVector``."""


#: Terminal states a service request can end in.  Every submitted request
#: resolves to exactly one of these — admission-control pushback, timeouts,
#: and exhausted failover retries are structured results, never unhandled
#: exceptions.  ``failed`` is reachable only through the sharded tier's
#: fault lifecycle: the request survived admission but every failover
#: attempt (rank deaths, retry budget) was exhausted before any rank could
#: serve it.
SERVICE_STATUSES = ("completed", "rejected", "timeout", "cancelled", "failed")


@dataclass
class ServiceResult(SolveResult):
    """Outcome of one request to the batching solve service.

    Extends :class:`SolveResult` (so ``degraded``/``fault_events`` from the
    underlying solve propagate per request) with service-side fields:

    Attributes
    ----------
    status:
        One of :data:`SERVICE_STATUSES`.  Only ``"completed"`` carries a
        solve; the other states have ``x is None`` and ``degraded=True``
        with the cause in ``degraded_reason``.
    request_id:
        The ticket id this result answers.
    priority:
        The request's admission priority class.
    wait_seconds:
        Modeled time the request sat queued (arrival to batch dispatch).
    solve_seconds:
        Modeled compute time of the micro-batch that served the request
        (shared by every batch member — the worker is occupied for the
        whole batch).
    batch_size:
        Number of requests coalesced into that micro-batch (0 when the
        request never reached a batch).
    cache_hit:
        Whether the batch reused a cached hierarchy (setup phase skipped).
    rank:
        Service rank that executed the request (always 0 for the
        single-rank :class:`~repro.serve.service.SolveService`).
    home_rank:
        The rank the request's routing key hashes to on the consistent-hash
        ring of :class:`~repro.serve.shard.ShardedSolveService` — where the
        request arrived.  ``rank != home_rank`` means the request was
        forwarded to a replica or a less-loaded rank.
    net_seconds:
        Modeled network time the sharded tier charged for this request:
        forwarding the request (and, on first contact, the operator) to the
        serving rank, returning the result to the home rank, plus — under a
        fault plan — failover re-forwards, retry-backoff stalls, and the
        hedge duplicate's forward hop.  Zero for requests served on their
        home rank and for the single-rank service.
    retries:
        Router-level re-submission attempts this request needed (each one
        charged a deterministic :class:`~repro.faults.plan.RetryPolicy`
        backoff delay on the modeled clock).  0 on the no-fault path.
    failovers:
        Rank deaths this request survived: how many times its queued or
        in-flight copy was evacuated from a dead rank and re-routed to a
        ring successor.  0 on the no-fault path.
    hedged:
        True when the sharded tier issued a hedge duplicate for this
        (interactive) request and the *duplicate* won — the result came
        from the hedge rank, not the primary.
    original_rank:
        The rank the request was first dispatched to, recorded only when
        failover moved it (``-1`` otherwise, meaning "never displaced"):
        together with ``retries``/``failovers`` it makes re-runs auditable
        — nothing is silently re-executed.
    """

    status: str = "completed"
    request_id: int = -1
    priority: str = "batch"
    wait_seconds: float = 0.0
    solve_seconds: float = 0.0
    batch_size: int = 0
    cache_hit: bool = False
    rank: int = 0
    home_rank: int = 0
    net_seconds: float = 0.0
    retries: int = 0
    failovers: int = 0
    hedged: bool = False
    original_rank: int = -1

    @property
    def ok(self) -> bool:
        """Completed and converged (the service-level success predicate)."""
        return self.status == "completed" and self.converged

    @property
    def forwarded(self) -> bool:
        """Whether the sharded tier served this request off its home rank."""
        return self.rank != self.home_rank

    @property
    def latency_seconds(self) -> float:
        """End-to-end modeled latency: network + queue wait + batch solve."""
        return self.wait_seconds + self.solve_seconds + self.net_seconds
