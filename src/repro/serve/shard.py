"""Sharded multi-rank solve service with consistent-hash routing.

:class:`ShardedSolveService` scales the single-rank
:class:`~repro.serve.service.SolveService` out to ``ServiceConfig.ranks``
modeled service ranks.  Each rank is a full, independent service — its own
admission queue, :class:`~repro.amg.cache.HierarchyCache`, machine model,
and :class:`~repro.serve.metrics.ServiceMetrics` — and a thin router in
front decides which rank serves each request.

**Routing.**  The routing key is the *pattern-tier* cache key
(:func:`~repro.amg.cache.pattern_fingerprint` of the operator plus the
config digest), hashed onto a consistent-hash ring (:class:`HashRing`,
SHA-256 virtual nodes).  Same-pattern traffic — time stepping, Newton
sequences, repeated operators — therefore lands on the same *home* rank,
where the hierarchy is already warm (exact hit or numeric refresh), which
is the whole point of sharding a setup-dominated workload.  Adding or
removing a rank moves only ~1/N of the key space, so an autoscaling tier
does not flush every cache.

**Replication and spill.**  ``ServiceConfig.replicas`` widens each key's
candidate set to the home rank plus the next ``replicas - 1`` distinct
ring successors.  The router scores candidates by queue depth, charging
non-home candidates ``spill_penalty`` extra (so a hot key spills off its
home only under real load), breaking ties toward ranks whose cache is
already warm for the key, then by candidate order.  Forwarding off the
home rank is not free: the request hop (right-hand side, plus the full
CSR operator the first time a given exact fingerprint reaches a rank) and
the result-return hop are charged through the
:class:`~repro.perf.network.NetworkModel` as modeled seconds and bytes —
a forwarded request *arrives later* at its serving rank, and the network
volume shows up in the metrics snapshot.

**Shedding and autoscale.**  With ``shed_depth`` set, a request whose
every candidate queue is at least that deep is rejected at the router
(status ``rejected``, reason ``shed: ...``) without consuming rank
capacity.  With ``autoscale=True`` the active rank count starts at
``min_ranks`` and grows/shrinks one rank at a time from mean
admission-queue depth, observed at arrival times on the deterministic
clock; ring membership follows, and every action is recorded in the
metrics.

**Fault tolerance.**  Passing a non-empty
:class:`~repro.faults.shard_plan.ShardFaultPlan` activates the rank-failure
lifecycle.  A :class:`~repro.serve.health.HealthTracker` probes every rank
at ``heartbeat_interval`` multiples of the modeled clock; consecutive
misses walk a rank ``up`` → ``suspect`` → ``down`` (circuit breaker opens).
A ``down`` rank leaves the ring and loses everything it held: its queued
requests are evacuated and its already-scheduled results whose modeled
finish lies past the death instant are *retracted* — both re-route to ring
successors under the plan's :class:`~repro.faults.plan.RetryPolicy`, each
attempt charged a deterministic backoff stall plus the re-forward (and,
when the successor never saw the operator, the re-ship) through the
network model.  A request that exhausts the retry budget — or finds the
ring empty — resolves to a structured ``failed`` result, never an
exception.  When the plan lets the rank breathe again it turns
``rejoining`` (breaker half-open): it re-enters cold, replays the
``rewarm_top_k`` hottest pattern fingerprints from surviving replicas
(charged as bulk state transfers), and only then closes the breaker and
rejoins the ring.  With ``hedge_delay`` set, an ``interactive`` request
still unresolved one hedge delay after arrival is duplicated to one
replica at the next heartbeat tick; the first copy to finish wins and the
loser is cancelled, freeing its queue slot.  Hedges fire at heartbeat
ticks, so ``hedge_delay`` without a non-empty plan is rejected.  Every
fault-path quantity lands in a ``faults`` section of the metrics snapshot
— emitted *only* when the lifecycle is active, so the no-fault snapshot
stays byte-for-byte what it was without a plan.

**One router.**  The fault-free fleet runs the lifecycle's own route,
forward, deliver and cancel code; its lifecycle state (redirects, hedges,
router-resolved failures) simply stays empty.  Only scheduling differs:
heartbeats tick, and a waiting ``result`` drives the whole fleet, only
under a plan.

Everything runs on the same virtual clock as the single-rank service:
identical seed + workload + config give bit-identical routing, results,
and metrics JSON.  With ``ranks=1`` (and shedding/autoscale off) the
service degenerates to exactly the single-rank scheduler — byte-identical
per-rank metrics — because every request is home-routed with zero network
cost and the workload is replayed through the same clairvoyant path.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass, replace

from ..amg.cache import fingerprint
from ..analysis.events import EventLog
from ..api import _as_rhs, _validate_operator, as_csr
from ..config import AMGConfig, single_node_config
from ..faults.shard_plan import ShardFaultPlan
from ..perf.network import FDRInfinibandModel, NetworkModel
from ..results import ServiceResult
from .health import DOWN, REJOINING, UP, HealthTracker
from .metrics import ShardMetrics
from .request import Ticket
from .service import ServiceConfig, SolveService
from .workload import Workload

__all__ = ["HashRing", "ShardTicket", "ShardedSolveService"]

#: Modeled wire size of a forwarded request or returned result carrying an
#: n-vector of float64 payload: the vector plus a small framing envelope.
_ENVELOPE_BYTES = 64


def _vector_bytes(n: int) -> int:
    return 8 * n + _ENVELOPE_BYTES


def _operator_bytes(n: int, nnz: int) -> int:
    """Wire size of a full CSR operator: data + indices (12 B/nnz) + indptr."""
    return 12 * nnz + 8 * (n + 1)


class HashRing:
    """Consistent-hash ring with SHA-256 virtual nodes.

    Each member rank owns ``vnodes`` points on a 64-bit ring; a key maps
    to the rank owning the first point clockwise from the key's own hash.
    With V virtual nodes per rank the load split is near-uniform, and
    adding or removing one rank reassigns only ~1/N of the key space —
    the property the ring-stability test pins down.
    """

    def __init__(self, ranks: tuple[int, ...] | list[int] = (), *,
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: Sorted (point, rank) pairs; ranks are small non-negative ints.
        self._points: list[tuple[int, int]] = []
        self._members: set[int] = set()
        for rank in ranks:
            self.add(rank)

    @staticmethod
    def _point(token: str) -> int:
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def add(self, rank: int) -> None:
        if rank in self._members:
            return
        self._members.add(rank)
        for v in range(self.vnodes):
            insort(self._points, (self._point(f"rank{rank}:{v}"), rank))

    def remove(self, rank: int) -> None:
        if rank not in self._members:
            return
        self._members.discard(rank)
        self._points = [(p, r) for p, r in self._points if r != rank]

    def lookup(self, key: str) -> int:
        """The rank owning *key* (its home rank)."""
        return self.successors(key, 1)[0]

    def successors(self, key: str, n: int) -> list[int]:
        """First *n* distinct ranks clockwise from *key*'s ring point.

        Element 0 is the key's home rank; the rest are its replica
        candidates, in deterministic ring order.
        """
        if not self._points:
            raise ValueError("ring has no members")
        n = min(n, len(self._members))
        start = bisect_left(self._points, (self._point(key), -1))
        out: list[int] = []
        for i in range(len(self._points)):
            rank = self._points[(start + i) % len(self._points)][1]
            if rank not in out:
                out.append(rank)
                if len(out) == n:
                    break
        return out


@dataclass(frozen=True)
class ShardTicket:
    """Sharded ticket: which rank holds the request, and whose key it is.

    ``rank`` is the serving rank the router dispatched to (−1 when the
    router resolved the request itself, e.g. load shedding); ``home_rank``
    is the ring owner of the request's routing key.  They differ exactly
    when the request was forwarded.
    """

    id: int
    rank: int
    home_rank: int


class ShardedSolveService:
    """N modeled service ranks behind one consistent-hash router.

    Usage::

        svc = ShardedSolveService(ServiceConfig(ranks=4, replicas=2))
        t = svc.submit(A, b)
        res = svc.result(t)             # res.rank / res.home_rank / net_seconds
        print(svc.metrics_json())       # sharded + per-rank report

    All ranks share one ``ServiceConfig`` and one AMG config, so a
    fingerprint computed on any rank is valid on every rank.

    There is one router.  Every dispatched copy of a request — the first
    forward, a failover re-forward, a hedge duplicate — goes through
    :meth:`_forward`, which writes its route record, and every ticket is
    redeemed through :meth:`_deliver`.  Without a fault plan the lifecycle
    state (redirects, hedges, router-resolved failures) stays empty; only
    scheduling tells the two apart.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 amg_config: AMGConfig | None = None,
                 network: NetworkModel | None = None,
                 fault_plan: ShardFaultPlan | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.amg_config = amg_config or single_node_config(
            nthreads=self.config.threads)
        self.network = network or FDRInfinibandModel()
        #: One full service per rank, each with its own cache and metrics.
        self.services = [
            SolveService(self.config, amg_config=self.amg_config)
            for _ in range(self.config.ranks)
        ]
        self.shard_metrics = ShardMetrics()
        #: Fleet-shared ticket-lifecycle event log: the router and every
        #: rank record into one sequence, so the happens-before checker
        #: (``repro.analysis.events``) sees cross-actor edges.  Empty
        #: unless ``REPRO_CHECK`` is at least ``cheap``.
        self.events = EventLog()
        for i, svc in enumerate(self.services):
            svc.events = self.events
            svc.event_actor = f"rank{i}"
        start = (self.config.min_ranks if self.config.autoscale
                 else self.config.ranks)
        #: Active rank ids, always a prefix ``range(k)`` of the fleet.
        self._active = list(range(start))
        self.ring = HashRing(self._active, vnodes=self.config.ring_vnodes)
        #: (rank, local id) -> route record of every dispatched copy:
        #: ``home``, ``rank``, ``origin`` (the ticket's own route key),
        #: ``n``, ``nnz``, ``key``, ``req``, ``net`` (network seconds
        #: charged so far), ``retries``, ``failovers``, ``local_arrival``
        #: (arrival at the serving rank); ``exact`` once the operator is
        #: fingerprinted for a forward.
        self._routes: dict[tuple[int, int], dict] = {}
        self._wrapped: dict[tuple[int, int], ServiceResult] = {}
        #: (rank, exact fingerprint) pairs whose operator already crossed
        #: the wire to that rank — later forwards ship only the vector.
        self._shipped: set[tuple[int, str]] = set()
        #: Results the router resolved itself, by route key: shed and
        #: no-routable-rank submits under ``(-1, shard-level id)``,
        #: exhausted failovers under their origin.
        self._router_results: dict[tuple[int, int], ServiceResult] = {}
        self._next_router_id = 0
        # -- fault lifecycle (active only under a non-empty fault plan) ----
        self._plan = fault_plan
        chaos = fault_plan is not None and not fault_plan.is_empty
        if chaos and self.config.autoscale:
            raise ValueError(
                "autoscale and a non-empty ShardFaultPlan cannot be "
                "combined: the autoscaler and the failure lifecycle would "
                "both edit ring membership")
        if self.config.hedge_delay is not None and not chaos:
            raise ValueError(
                "hedge_delay needs a non-empty ShardFaultPlan: hedges fire "
                "at the fault lifecycle's heartbeat ticks")
        #: Health tracker; ``None`` means the fault lifecycle is inactive:
        #: no heartbeats tick and the lifecycle maps below stay empty.
        self._tracker = HealthTracker(
            fault_plan, self.config.ranks,
            interval=self.config.heartbeat_interval,
            suspect_after=self.config.suspect_after,
            down_after=self.config.down_after) if chaos else None
        #: Origin route key -> latest (rank, local id) after failovers.
        self._redirects: dict[tuple[int, int], tuple[int, int]] = {}
        #: Pattern key -> routed-request count (re-warm heat ranking).
        self._pattern_traffic: dict[str, int] = {}
        #: Origin route key -> {"deadline", "fired", "dup"} hedge registry.
        self._pending_hedges: dict[tuple[int, int], dict] = {}

    # -- clocks and depth ---------------------------------------------------
    @property
    def now(self) -> float:
        """The fleet clock: the busiest rank's virtual time (makespan)."""
        return max(svc.now for svc in self.services)

    @property
    def active_ranks(self) -> list[int]:
        """Currently active rank ids (all of them unless autoscaling)."""
        return list(self._active)

    def queue_depths(self) -> list[int]:
        """Admission-queue depth of every rank (index = rank id)."""
        return [svc.queue_depth for svc in self.services]

    # -- submission ---------------------------------------------------------
    def submit(self, A, b, *, config: AMGConfig | None = None,
               method: str | None = None, tol: float | None = None,
               maxiter: int | None = None, priority: str | None = None,
               timeout: float | None = None,
               arrival: float | None = None) -> ShardTicket:
        """Route one solve to a rank; always returns a :class:`ShardTicket`.

        The router picks the home rank by consistent-hashing the request's
        pattern-tier key, widens to the replica candidate set, sheds if
        every candidate is overloaded, and otherwise dispatches to the
        best-scored candidate — charging modeled network time when that is
        not the home rank (the request *arrives later* there).  Malformed
        requests are delegated to a rank so they resolve to the same
        structured ``rejected`` result a single-rank service produces.
        """
        t = self.now if arrival is None else float(arrival)
        cfg = config or self.amg_config
        if self.config.autoscale:
            self._autoscale(t)
        members = self.ring.members
        try:
            A_csr = _validate_operator(as_csr(A))
            _as_rhs(b, A_csr.nrows)
        except (TypeError, ValueError) as exc:
            if not members:
                return self._router_fail(
                    f"rejected: invalid request: {exc} (no routable ranks)",
                    priority, status="rejected")
            # Un-routable request: any rank produces the canonical
            # structured rejection.  Charged nowhere on the network.
            rank = members[0]
            ticket = self.services[rank].submit(
                A, b, config=cfg, method=method, tol=tol, maxiter=maxiter,
                priority=priority, timeout=timeout, arrival=t)
            origin = (rank, ticket.id)
            self._routes[origin] = {
                "home": rank, "rank": rank, "origin": origin, "n": 0,
                "net": 0.0, "retries": 0, "failovers": 0,
                "local_arrival": t}
            self.events.record("router", "route", time=t, ticket=ticket.id,
                               rank=rank, detail="invalid")
            self.shard_metrics.record_route(forwarded=False)
            return ShardTicket(ticket.id, rank, rank)

        key = self.services[0].cache.pattern_key(A_csr, cfg)
        self._pattern_traffic[key] = self._pattern_traffic.get(key, 0) + 1
        if not members:
            return self._router_fail(
                "failed: no routable ranks (every service rank is down)",
                priority, status="failed")
        candidates = self.ring.successors(
            key, min(self.config.replicas, len(members)))
        home = candidates[0]
        if self.config.shed_depth is not None:
            depths = self.queue_depths()
            if all(depths[c] >= self.config.shed_depth for c in candidates):
                return self._shed(candidates, depths, priority)

        rpri = priority or self.config.default_priority
        rec = {"home": home, "n": A_csr.nrows, "nnz": A_csr.nnz, "key": key,
               "retries": 0, "failovers": 0,
               "req": dict(A=A_csr, b=b, config=cfg, method=method, tol=tol,
                           maxiter=maxiter, priority=rpri, timeout=timeout)}
        origin, nbytes, seconds, shipped = self._forward(
            rec, candidates, t, free=home)
        rank = origin[0]
        self.shard_metrics.record_route(
            forwarded=rank != home, forward_bytes=nbytes,
            forward_seconds=seconds, shipped=shipped)
        if (self.config.hedge_delay is not None and rpri == "interactive"
                and len(members) > 1):
            self._pending_hedges[origin] = {
                "deadline": t + self.config.hedge_delay,
                "fired": False, "dup": None}
        self.events.record("router", "route", time=t, ticket=origin[1],
                           rank=rank, detail=f"home=rank{home}")
        if rank != home:
            self.events.record("router", "forward", time=t,
                               ticket=origin[1], rank=rank,
                               detail=f"off-home from rank{home}")
        return ShardTicket(origin[1], rank, home)

    def _pick_rank(self, key: str, nnz: int, candidates: list[int]) -> int:
        """Best-scored candidate for a request of *nnz* work on *key*.

        Load is queued *work* (summed nnz), not request count, so one
        queued 3-D setup outweighs a handful of tiny 2-D solves; the
        spill penalty is denominated in this request's own cost, so a
        request leaves its (cache-warm) home only when home holds at
        least spill_penalty times this request's work more than a
        replica.  Ties break toward warm caches, then candidate order.
        """
        home = candidates[0]
        work = {c: self.services[c].queued_work for c in candidates}

        def score(c: int) -> tuple[int, int, int]:
            spill = 0 if c == home else self.config.spill_penalty * nnz
            warm = 0 if self.services[c].cache.has_pattern(key) else 1
            return (work[c] + spill, warm, candidates.index(c))

        return min(candidates, key=score)

    def _forward(self, rec: dict, candidates: list[int], depart: float, *,
                 net: float = 0.0, free: int | None = None,
                 **changes) -> tuple[tuple[int, int], int, float, bool]:
        """Dispatch one copy of *rec*'s request to the best of *candidates*.

        The hop leaving at *depart* is charged through the network model
        unless the pick is *free* (the home rank, on a first dispatch); the
        copy arrives at its rank after the hop.  Its route record is *rec*
        with the serving rank, ``net`` (*net* carried before this hop plus
        the hop), the arrival and *changes*; the first dispatch of a ticket
        is its ``origin``.  Returns ``(route key, hop bytes, hop seconds,
        operator shipped)``.
        """
        target = self._pick_rank(rec["key"], rec["nnz"], candidates)
        nbytes, seconds, shipped = ((0, 0.0, False) if target == free
                                    else self._ship_charge(target, rec))
        arrival = depart + seconds
        req = rec["req"]
        ticket = self.services[target].submit(
            req["A"], req["b"], config=req["config"], method=req["method"],
            tol=req["tol"], maxiter=req["maxiter"], priority=req["priority"],
            timeout=req["timeout"], arrival=arrival)
        route_key = (target, ticket.id)
        route = dict(rec, rank=target, net=net + seconds,
                     local_arrival=arrival, **changes)
        route.setdefault("origin", route_key)
        self._routes[route_key] = route
        return route_key, nbytes, seconds, shipped

    def _ship_charge(self, rank: int, rec: dict) -> tuple[int, float, bool]:
        """Wire cost of forwarding *rec*'s request to *rank*.

        Returns ``(bytes, modeled seconds, operator shipped)``: the
        right-hand-side vector always crosses; the full CSR operator rides
        along the first time this exact fingerprint reaches the rank.  The
        fingerprint is taken on the request's first forward, so requests
        served at home are never hashed here.
        """
        exact = rec.get("exact")
        if exact is None:
            exact = rec["exact"] = fingerprint(rec["req"]["A"],
                                               rec["req"]["config"])
        nbytes = _vector_bytes(rec["n"])
        shipped = False
        if (rank, exact) not in self._shipped:
            nbytes += _operator_bytes(rec["n"], rec["nnz"])
            self._shipped.add((rank, exact))
            shipped = True
        return nbytes, self.network.transfer_time(nbytes), shipped

    # -- results the router resolves itself ---------------------------------
    def _resolve_at_router(self, key: tuple[int, int], status: str,
                           reason: str, priority: str, **route) -> None:
        """Resolve request *key* without any rank serving it."""
        self._router_results[key] = ServiceResult(
            x=None, iterations=0, residuals=[], converged=False,
            degraded=True, degraded_reason=reason, status=status,
            request_id=key[1], priority=priority, rank=-1, **route)

    def _router_ticket(self, kind: str, detail: str, status: str,
                       reason: str, priority: str | None,
                       home: int) -> ShardTicket:
        """A ticket for a submit no rank takes, under a shard-level id."""
        sid = self._next_router_id
        self._next_router_id += 1
        self.events.record("router", kind, time=self.now, ticket=sid,
                           detail=detail)
        self._resolve_at_router(
            (-1, sid), status, reason,
            priority or self.config.default_priority, home_rank=home)
        return ShardTicket(sid, -1, home)

    def _router_fail(self, reason: str, priority: str | None, *,
                     status: str) -> ShardTicket:
        """Resolve a submit at the router when no rank can take it."""
        self.shard_metrics.routed += 1
        if status == "failed":
            self.shard_metrics.failed += 1
        return self._router_ticket("reject", status, status, reason,
                                   priority, -1)

    def _shed(self, candidates: list[int], depths: list[int],
              priority: str | None) -> ShardTicket:
        """Reject at the router: every candidate queue is too deep."""
        self.shard_metrics.record_shed()
        load = ", ".join(f"rank {c}: {depths[c]}" for c in candidates)
        return self._router_ticket(
            "shed", f"candidates={candidates}", "rejected",
            f"rejected: shed: every candidate rank at or above "
            f"shed_depth={self.config.shed_depth} ({load})",
            priority, candidates[0])

    def cancel(self, ticket: ShardTicket) -> bool:
        """Withdraw a pending request, wherever failover moved it.

        Under a fault plan the ticket's original rank may be dead and its
        request re-homed; the redirect map is followed so the *current*
        copy is cancelled and its queue slot freed.  A pending hedge
        duplicate is cancelled along with it.
        """
        origin = (ticket.rank, ticket.id)
        if (ticket.rank < 0 or origin in self._wrapped
                or origin in self._router_results):
            return False
        cur = self._redirects.get(origin, origin)
        entry = self._pending_hedges.pop(origin, None)
        if entry is not None and entry.get("dup") is not None:
            dup = entry["dup"]
            if self.services[dup[0]].cancel(Ticket(dup[1])):
                self.shard_metrics.record_hedge_cancelled()
        ok = self.services[cur[0]].cancel(Ticket(cur[1]))
        if ok:
            self.events.record("router", "cancel", time=self.now,
                               ticket=origin[1], rank=origin[0])
        return ok

    # -- autoscaling --------------------------------------------------------
    def _autoscale(self, t: float) -> None:
        """Grow/shrink the active rank prefix from mean queue depth.

        Observed at arrival times on the virtual clock, one action per
        observation.  A deactivated rank finishes what it already queued
        (it leaves the ring, so no new keys route to it); activation adds
        the next rank id, moving ~1/N of the key space onto it.
        """
        depths = self.queue_depths()
        mean = sum(depths[c] for c in self._active) / len(self._active)
        if (mean > self.config.scale_up_depth
                and len(self._active) < self.config.ranks):
            new = len(self._active)
            self._active.append(new)
            self.ring.add(new)
            self.shard_metrics.record_autoscale(t, "up", len(self._active))
        elif (mean < self.config.scale_down_depth
                and len(self._active) > self.config.min_ranks):
            gone = self._active.pop()
            self.ring.remove(gone)
            self.shard_metrics.record_autoscale(t, "down", len(self._active))

    # -- results ------------------------------------------------------------
    def result(self, ticket: ShardTicket, *,
               wait: bool = True) -> ServiceResult | None:
        """The request's :class:`~repro.results.ServiceResult`.

        With ``wait=True`` the caller drives the fleet until the ticket
        resolves: only the serving rank's worker without a fault plan (so
        requests still queued on other ranks can go on coalescing with
        later submits), the whole failure lifecycle under one.  The result
        is then delivered by :meth:`_deliver`, exactly once.
        """
        origin = (ticket.rank, ticket.id)
        if ticket.rank < 0:
            return self._router_results[origin]
        if origin in self._wrapped:
            return self._wrapped[origin]
        if wait:
            if self._tracker is None:
                self.services[ticket.rank].result(Ticket(ticket.id))
            else:
                self.run()
        return self._deliver(origin)

    def _deliver(self, origin: tuple[int, int]) -> ServiceResult | None:
        """Wrap the ticket *origin*'s result with its route, once.

        Follows the failover redirect to the request's current copy,
        settles a hedge race (the earliest modeled finish wins; a loser
        still queued is cancelled), and stamps the route's accounting:
        ``rank``, ``home_rank``, ``net_seconds`` (every hop charged so far
        plus, for a completed request served off its home rank, the
        result-return hop), ``retries``, ``failovers``, ``hedged`` and
        ``original_rank``.  A result the router resolved itself (exhausted
        retries) is delivered as it is.  ``None`` while still pending.
        """
        wrapped = self._router_results.get(origin)
        ret_bytes = 0
        ret_seconds = 0.0
        hedged = False
        if wrapped is None:
            cur = self._redirects.get(origin, origin)
            rec = self._routes[cur]
            res = self.services[cur[0]]._results.get(cur[1])
            if res is None:
                return None
            entry = self._pending_hedges.pop(origin, None)
            dup = entry.get("dup") if entry is not None else None
            if dup is not None:
                drec = self._routes[dup]
                dres = self.services[dup[0]]._results.get(dup[1])
                if dres is None:
                    if self.services[dup[0]].cancel(Ticket(dup[1])):
                        self.shard_metrics.record_hedge_cancelled()
                elif dres.status == "completed" and (
                        res.status != "completed"
                        or _finish(drec, dres) < _finish(rec, res)):
                    cur, rec, res = dup, drec, dres
                    hedged = True
                else:
                    self.shard_metrics.record_hedge_lost()
            if cur[0] != rec["home"] and res.status == "completed":
                ret_bytes = _vector_bytes(rec["n"])
                ret_seconds = self.network.transfer_time(ret_bytes)
            hedged = hedged or bool(rec.get("hedged"))
            displaced = rec["failovers"] > 0 or hedged
            wrapped = replace(
                res, request_id=origin[1], rank=cur[0],
                home_rank=rec["home"], net_seconds=rec["net"] + ret_seconds,
                retries=rec["retries"], failovers=rec["failovers"],
                hedged=hedged, original_rank=origin[0] if displaced else -1)
        self._wrapped[origin] = wrapped
        self.events.record("router", "deliver", time=self.now,
                           ticket=origin[1], rank=origin[0],
                           detail=wrapped.status)
        if hedged and wrapped.status == "completed":
            self.shard_metrics.record_hedge_won()
        self.shard_metrics.record_result(
            wrapped, return_bytes=ret_bytes, return_seconds=ret_seconds)
        return wrapped

    # -- driving the fleet --------------------------------------------------
    def step(self) -> bool:
        """One worker step on each rank; False when the whole fleet idles."""
        progress = False
        for svc in self.services:
            progress |= svc.step()
        return progress

    def run(self) -> None:
        """Drive every rank's worker loop until all queues drain.

        Under a fault plan this drives the full failure lifecycle first:
        heartbeat ticks (failover, re-warm, hedging) continue past the
        last arrival until every plan window has passed *and* every rank
        has walked back to ``up`` (bounded: after the plan's end every
        probe succeeds and each re-warm deadline is finite), so
        post-recovery work lands on the full fleet.
        """
        if self._tracker is None:
            while self.step():
                pass
            return
        end = self._plan.end_time()
        while (self._tracker.next_tick() <= end
               or any(rec.state != UP for rec in self._tracker.ranks)):
            self._advance_to(self._tracker.next_tick())
        for svc in self.services:
            svc.run()

    def drain_until(self, horizon: float) -> None:
        """Run all fleet work provably unaffected by arrivals past *horizon*."""
        for svc in self.services:
            svc.drain_until(horizon)

    # -- the fault lifecycle ------------------------------------------------
    def _advance_to(self, horizon: float) -> None:
        """Run the fleet up to *horizon*.

        Without a fault plan this is :meth:`drain_until`.  Under one, every
        heartbeat tick up to *horizon* is processed in turn, with the
        routable ranks drained up to each tick first; dead and rejoining
        ranks execute nothing.
        """
        if self._tracker is None:
            self.drain_until(horizon)
            return
        while self._tracker.next_tick() <= horizon:
            tau = self._tracker.next_tick()
            self._drain_alive(tau)
            events = self._tracker.tick(tau)
            self._apply_transitions(events, tau)
            self._fire_hedges(tau)
            self._settle_hedges(tau)
        self._drain_alive(horizon)

    def _drain_alive(self, horizon: float) -> None:
        """``drain_until(horizon)`` on every routable rank."""
        for rank, rec in enumerate(self._tracker.ranks):
            if rec.routable:
                self.services[rank].drain_until(horizon)

    def _apply_transitions(self, events: list[dict], tau: float) -> None:
        """React to health transitions: ring membership, failover, re-warm."""
        for ev in events:
            rank = ev["rank"]
            self.events.record("router", "health", time=tau, rank=rank,
                               detail=ev["state"])
            if ev["state"] == DOWN:
                self._on_rank_down(rank, tau)
            elif ev["state"] == REJOINING:
                self._start_rewarm(rank, tau)
            elif ev["state"] == UP and rank not in self.ring.members:
                # Re-warm done: breaker closes, the rank takes keys again.
                self.ring.add(rank)
                svc = self.services[rank]
                svc.now = max(svc.now, tau)

    def _on_rank_down(self, rank: int, tau: float) -> None:
        """A rank died: evacuate, retract, wipe its state, fail work over.

        The death instant is the start of the plan window that tripped the
        detector (the rank actually stopped there; the tracker only *sees*
        it ``down_after`` missed probes later).  Everything the rank held
        is displaced: queued requests are evacuated, and already-scheduled
        results whose modeled finish lies past the death instant are
        retracted — the clairvoyant worker had charged work the crash
        threw away.  Its hierarchy cache and shipped-operator marks are
        wiped, so a later re-forward must re-ship.
        """
        self.ring.remove(rank)
        svc = self.services[rank]
        death = max((s for s, e in self._plan.down_windows(rank)
                     if s <= tau), default=tau)
        displaced: list[tuple[tuple[int, int], str]] = []
        for old_key in sorted(k for k in self._routes if k[0] == rank):
            rec = self._routes[old_key]
            if rec["origin"] in self._wrapped:
                continue
            res = svc._results.get(old_key[1])
            if res is None or res.status != "completed":
                # Queued (evacuated below) or already terminal: keep.
                continue
            if _finish(rec, res) > death:
                svc.retract(old_key[1])
                displaced.append((old_key, "in_flight"))
        for req in svc.evacuate():
            displaced.append(((rank, req.id), "queued"))
        svc.cache.drop_all()
        self._shipped = {(r, f) for r, f in self._shipped if r != rank}
        svc.now = min(svc.now, death)
        for old_key, kind in displaced:
            rec = self._routes.pop(old_key)
            hedge_origin = rec.get("hedge_of")
            if hedge_origin is not None:
                # A hedge duplicate died with its rank: the primary still
                # stands, so the dup is simply cancelled, never failed over.
                entry = self._pending_hedges.get(hedge_origin)
                if entry is not None and entry.get("dup") == old_key:
                    entry["dup"] = None
                self.shard_metrics.record_hedge_cancelled()
                continue
            self.shard_metrics.record_displaced(kind)
            self._failover(
                rec, tau, cause=f"rank {rank} down at t={tau:.6g} ({kind})")

    def _failover(self, rec: dict, tau: float, cause: str) -> None:
        """Re-route one displaced request to a ring successor.

        Each attempt is charged the plan's retry-policy backoff stall plus
        the re-forward (and re-ship, if the target never saw the operator)
        through the network model; the redirect map keeps the original
        ticket redeemable.  Past the retry budget — or with an empty ring —
        the request resolves to a structured ``failed`` result (unless a
        live hedge duplicate can be promoted to take its place).
        """
        origin = rec["origin"]
        policy = self._plan.retry
        attempts = rec["retries"]
        members = self.ring.members
        if attempts >= policy.max_retries or not members:
            entry = self._pending_hedges.pop(origin, None)
            if entry is not None and entry.get("dup") is not None:
                # The hedge duplicate survives: promote it to primary.
                dup = entry["dup"]
                drec = self._routes[dup]
                drec.pop("hedge_of", None)
                drec["hedged"] = True
                drec["retries"] = rec["retries"]
                drec["failovers"] = rec["failovers"]
                self._redirects[origin] = dup
                self.events.record("router", "failover", time=tau,
                                   ticket=origin[1], rank=origin[0],
                                   detail=f"hedge promoted on rank{dup[0]}")
                return
            reason = ("no routable ranks" if not members else
                      f"retry budget exhausted after {attempts} retries")
            self._resolve_at_router(
                origin, "failed", f"failed: {cause}; {reason}",
                rec["req"]["priority"], home_rank=rec["home"],
                retries=rec["retries"], failovers=rec["failovers"],
                original_rank=origin[0])
            self.shard_metrics.record_failed()
            return
        backoff = self.network.retry_penalty(
            policy.timeout, attempts, policy.backoff)
        candidates = self.ring.successors(
            rec["key"], min(self.config.replicas, len(members)))
        new_key, nbytes, seconds, shipped = self._forward(
            rec, candidates, tau + backoff, net=rec["net"] + backoff,
            retries=attempts + 1, failovers=rec["failovers"] + 1)
        self._redirects[origin] = new_key
        self.events.record("router", "failover", time=tau,
                           ticket=origin[1], rank=origin[0],
                           detail=f"attempt {attempts + 1} to "
                                  f"rank{new_key[0]}")
        self.shard_metrics.record_failover(
            backoff_seconds=backoff, forward_bytes=nbytes,
            forward_seconds=seconds, shipped=shipped)

    def _start_rewarm(self, rank: int, tau: float) -> None:
        """A dead rank answered a probe: re-warm its cache before rejoin.

        The ``rewarm_top_k`` hottest pattern fingerprints (by routed
        traffic) that a surviving routable rank still holds are copied
        into the rejoining rank's cache — frozen hierarchies, so sharing
        the objects is safe — and the full operator bytes of every copied
        hierarchy level are charged to the interconnect as bulk state
        transfers.  The rank re-enters the ring only once the transfer
        completes (``rejoin_until``); with nothing to copy it rejoins cold
        at the next successful probe.
        """
        svc = self.services[rank]
        entries = 0
        total_bytes = 0
        seconds = 0.0
        if self.config.rewarm_top_k > 0:
            hot = sorted(self._pattern_traffic.items(),
                         key=lambda kv: (-kv[1], kv[0]))
            donors = [r for r in range(self.config.ranks)
                      if r != rank and self._tracker.ranks[r].routable]
            for pkey, _count in hot:
                if entries >= self.config.rewarm_top_k:
                    break
                for donor in donors:
                    found = self.services[donor].cache.peek_pattern(pkey)
                    if found is None:
                        continue
                    exact, hier = found
                    svc.cache.seed(exact, pkey, hier)
                    self._shipped.add((rank, exact))
                    nbytes = sum(_operator_bytes(n, nnz)
                                 for n, nnz in hier.level_sizes())
                    total_bytes += nbytes
                    seconds += self.network.state_transfer_time(nbytes)
                    entries += 1
                    break
        self._tracker.set_rejoin_until(rank, tau + seconds)
        self.events.record("router", "rewarm", time=tau, rank=rank,
                           detail=f"entries={entries}")
        self.shard_metrics.record_rewarm(
            entries=entries, nbytes=total_bytes, seconds=seconds)

    def _fire_hedges(self, tau: float) -> None:
        """Duplicate overdue interactive requests to one replica each.

        A registered request whose result is not in hand by its deadline
        (unresolved, or scheduled to finish only after this tick) gets one
        duplicate on the best-scored other ring member, charged a normal
        forward hop.  Firing happens at heartbeat ticks so the hedge
        schedule is a pure function of the (plan, workload) pair.
        """
        for origin in sorted(self._pending_hedges):
            entry = self._pending_hedges[origin]
            if entry["fired"] or entry["deadline"] > tau:
                continue
            if origin in self._router_results:
                continue
            cur = self._redirects.get(origin, origin)
            rec = self._routes.get(cur)
            if rec is None:
                continue
            res = self.services[cur[0]]._results.get(cur[1])
            if res is not None and (res.status != "completed"
                                    or _finish(rec, res) <= tau):
                del self._pending_hedges[origin]
                continue
            members = self.ring.members
            cands = [c for c in self.ring.successors(
                rec["key"], min(max(self.config.replicas, 2), len(members)))
                if c != cur[0]]
            if not cands:
                continue
            dup, nbytes, seconds, shipped = self._forward(
                rec, cands, tau, hedge_of=origin)
            entry.update(fired=True, dup=dup)
            self.events.record("router", "hedge", time=tau,
                               ticket=origin[1], rank=origin[0],
                               detail=f"dup on rank{dup[0]}")
            self.shard_metrics.record_hedge_issued(
                forward_bytes=nbytes, forward_seconds=seconds,
                shipped=shipped)

    def _settle_hedges(self, tau: float) -> None:
        """Cancel the losing copy of any hedge race decided by *tau*.

        The moment one copy's modeled finish has passed while the other is
        still queued, the queued loser is cancelled — its admission slot
        frees *now*, on the modeled clock, not at redemption time.  Races
        where both copies already ran are scored at redemption.
        """
        for origin in sorted(self._pending_hedges):
            entry = self._pending_hedges[origin]
            dup = entry.get("dup")
            if dup is None:
                continue
            cur = self._redirects.get(origin, origin)
            prec = self._routes.get(cur)
            pres = self.services[cur[0]]._results.get(cur[1])
            drec = self._routes.get(dup)
            dres = self.services[dup[0]]._results.get(dup[1])
            if (pres is not None and prec is not None and dres is None
                    and pres.status == "completed"
                    and _finish(prec, pres) <= tau):
                self.services[dup[0]].cancel(Ticket(dup[1]))
            elif (dres is not None and drec is not None and pres is None
                    and dres.status == "completed"
                    and _finish(drec, dres) <= tau):
                self.services[cur[0]].cancel(Ticket(cur[1]))

    def run_workload(self, workload: Workload) -> list[ServiceResult]:
        """Replay a generated workload through the router, in arrival order.

        Arrivals are interleaved with :meth:`_advance_to` (draining up to
        each arrival, and under a fault plan ticking the heartbeats in
        between, so deaths, failovers and rejoins land between submissions
        at their modeled times) so the router and autoscaler observe live
        queue depths — the same depths a long-running service would see.
        The clairvoyant batch guard makes this interleaving bit-identical
        to submitting everything up front; with ``ranks=1``, no fault plan
        and shedding/autoscale off the up-front path is taken directly,
        which keeps the single rank's metrics byte-identical to a plain
        ``SolveService`` run.
        """
        spec = workload.spec
        interleave = (self.config.ranks > 1
                      or self.config.shed_depth is not None
                      or self.config.autoscale
                      or self._tracker is not None)
        tickets = []
        for item in workload.items:
            if interleave:
                self._advance_to(item.arrival)
            tickets.append(self.submit(
                workload.matrices[item.matrix_index], item.b,
                method=spec.method, tol=spec.tol, maxiter=spec.maxiter,
                priority=item.priority, timeout=spec.timeout,
                arrival=item.arrival))
        self.run()
        return [self.result(t, wait=False) for t in tickets]

    # -- reporting ----------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Sharded report: aggregate + locality + per-rank snapshots, plus
        the ``faults`` section under a fault plan."""
        return self.shard_metrics.snapshot(
            per_rank=[svc.metrics_snapshot() for svc in self.services],
            virtual_seconds=self.now,
            active_ranks=len(self._active),
            replicas=self.config.replicas,
            health=self._tracker)

    def metrics_json(self) -> str:
        """Deterministic JSON of :meth:`metrics_snapshot`."""
        return json.dumps(self.metrics_snapshot(), indent=2, sort_keys=True)


def _finish(rec: dict, res: ServiceResult) -> float:
    """Modeled finish time of a routed copy: arrival at its serving rank
    plus the queue wait and the batch solve."""
    return rec["local_arrival"] + res.wait_seconds + res.solve_seconds
