"""The modeled network prices columns.

``NetworkModel.message_times`` is the one pricing formula; ``exchange_time``,
the node-aware plan builder and ``SimComm``'s modeled clock read it over
arrays.  The per-message code they replaced is kept here verbatim as the
oracle: the scalar ``message_time`` of both tiers, the per-message
``exchange_time`` loop, and the dict-loop ``build_node_plan`` with its
``_pattern_messages``.  Times compare with ``==`` (bits), patterns with
``list(pattern.items())`` (insertion order), and the log's column reads
with the values its built entries give.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dist.comm as comm_mod
from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    dist_fgmres,
)
from repro.dist.comm import MessageBatch, PersistentExchange, frozen_messages
from repro.faults.comm import FaultyComm
from repro.faults.plan import FaultPlan
from repro.perf import HaswellModel
from repro.perf.counters import phase
from repro.perf.network import FDRInfinibandModel, MessageColumns, MessageEvent
from repro.perf.trace import comm_to_trace
from repro.problems import laplace_3d_27pt
from repro.topo import NodeTopology, TwoTierNetworkModel, build_node_plan


# ---------------------------------------------------------------------------
# The per-message pricing the columns replaced (verbatim)
# ---------------------------------------------------------------------------


def ref_message_bw(net, nbytes):
    if nbytes >= net.rampup_bytes:
        return net.peak_bw
    frac = nbytes / net.rampup_bytes
    return net.small_msg_bw + frac * frac * (net.peak_bw - net.small_msg_bw)


def ref_intra_message_bw(net, nbytes):
    if nbytes >= net.intra_rampup_bytes:
        return net.intra_peak_bw
    frac = nbytes / net.intra_rampup_bytes
    return (net.intra_small_msg_bw
            + frac * frac * (net.intra_peak_bw - net.intra_small_msg_bw))


def ref_flat_message_time(net, msg):
    t = net.alpha + msg.nbytes / ref_message_bw(net, msg.nbytes)
    if not msg.persistent:
        t += net.exchange_setup
    return t


def ref_message_time(net, msg):
    if not isinstance(net, TwoTierNetworkModel):
        return ref_flat_message_time(net, msg)
    if not net.topology.on_node(msg.src, msg.dst):
        return ref_flat_message_time(net, msg)
    t = net.intra_alpha + msg.nbytes / ref_intra_message_bw(net, msg.nbytes)
    if not msg.persistent:
        t += net.intra_exchange_setup
    return t


def ref_exchange_time(net, messages, nranks):
    per_rank = [0.0] * nranks
    for m in messages:
        t = ref_message_time(net, m)
        per_rank[m.src] += t
        per_rank[m.dst] += t
    return max(per_rank) if per_rank else 0.0


def _pattern_messages(patterns, *, bytes_per_elem, persistent):
    return [
        MessageEvent(s, d, n * bytes_per_elem, persistent)
        for pat in patterns
        for (s, d), n in pat.items()
        if s != d
    ]


def ref_build_node_plan(needs, topology, *, net=None, bytes_per_elem=8,
                        persistent=True):
    if net is None:
        net = topology.network()
    on_node = {}
    off_node = {}
    scatter = {}
    gather_ids = {}
    inter_ids = {}

    for p, plan in enumerate(needs):
        vnode = topology.node_of(p)
        off_elems = 0
        for q, ids in plan:
            if q == p or len(ids) == 0:
                continue
            if topology.on_node(q, p):
                on_node[(int(q), p)] = len(ids)
            else:
                off_node[(int(q), p)] = len(ids)
                off_elems += len(ids)
                gather_ids.setdefault(int(q), []).append(ids)
                inter_ids.setdefault((topology.node_of(int(q)), vnode),
                                     []).append(ids)
        if off_elems and p != topology.leader(vnode):
            scatter[(topology.leader(vnode), p)] = off_elems

    gather = {}
    for q in sorted(gather_ids):
        leader = topology.leader_of(q)
        if q == leader:
            continue  # the leader's own entries are already staged
        gather[(q, leader)] = int(
            len(np.unique(np.concatenate(gather_ids[q]))))

    internode = {}
    for (u, v) in sorted(inter_ids):
        internode[(topology.leader(u), topology.leader(v))] = int(
            len(np.unique(np.concatenate(inter_ids[(u, v)]))))

    relay = {}
    for (_q, leader), n in gather.items():
        relay[leader] = relay.get(leader, 0) + n
    for (leader, _p), n in scatter.items():
        relay[leader] = relay.get(leader, 0) + n

    t_flat = ref_exchange_time(
        net, _pattern_messages([on_node, off_node],
                               bytes_per_elem=bytes_per_elem,
                               persistent=persistent),
        topology.nranks)
    t_aggregated = ref_exchange_time(
        net, _pattern_messages([on_node, gather, internode, scatter],
                               bytes_per_elem=bytes_per_elem,
                               persistent=persistent),
        topology.nranks)
    aggregated = bool(off_node) and t_aggregated < t_flat
    return dict(on_node=on_node, off_node=off_node, gather=gather,
                internode=internode, scatter=scatter, relay=relay,
                t_flat=t_flat, t_aggregated=t_aggregated,
                aggregated=aggregated)


def plan_fields(plan):
    """Every field of a plan, patterns as their item lists (order kept)."""
    if not isinstance(plan, dict):
        plan = {k: getattr(plan, k) for k in (
            "on_node", "off_node", "gather", "internode", "scatter", "relay",
            "t_flat", "t_aggregated", "aggregated")}
    return {k: list(v.items()) if isinstance(v, dict) else v
            for k, v in plan.items()}


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

BASES = [FDRInfinibandModel(), FDRInfinibandModel().scaled(64.0)]


@st.composite
def nets(draw, nranks):
    """A flat net, or a two-tier net over ``ppn`` in 1..nranks+1 (ragged
    last node when ``ppn`` does not divide ``nranks``)."""
    base = draw(st.sampled_from(BASES))
    if nranks == 0 or draw(st.booleans()):
        return base
    ppn = draw(st.integers(1, nranks + 1))
    return NodeTopology(nranks, ppn).network(base)


def sizes_near_knees():
    knees = sorted({int(b.rampup_bytes) for b in BASES}
                   | {int(TwoTierNetworkModel.intra_rampup_bytes)})
    special = [0, 1] + [k + d for k in knees for d in (-1, 0, 1)] + [
        4 * knees[-1]]
    return st.one_of(st.sampled_from(special), st.integers(0, 300_000))


@st.composite
def messages(draw, nranks, max_size=40):
    if nranks == 0:
        return []
    rank = st.integers(0, nranks - 1)
    return draw(st.lists(
        st.builds(MessageEvent, rank, rank, sizes_near_knees(),
                  st.booleans()),
        max_size=max_size))


# ---------------------------------------------------------------------------
# message_times / exchange_time against the per-message loop
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exchange_time_is_the_per_message_loop(data):
    nranks = data.draw(st.integers(0, 12))
    net = data.draw(nets(nranks))
    msgs = data.draw(messages(nranks))
    want = ref_exchange_time(net, msgs, nranks)
    got = net.exchange_time(MessageColumns.of(msgs), nranks)
    assert got.hex() == want.hex()
    assert net.exchange_time(msgs, nranks).hex() == want.hex()
    cols = MessageColumns.of(msgs)
    times = net.message_times(cols.src, cols.dst, cols.nbytes,
                              cols.persistent)
    assert [t.hex() for t in times.tolist()] == [
        ref_message_time(net, m).hex() for m in msgs]
    assert [net.message_time(m).hex() for m in msgs] == [
        ref_message_time(net, m).hex() for m in msgs]


def test_exchange_time_of_nothing_is_zero():
    net = FDRInfinibandModel()
    for nranks in (0, 1, 4):
        assert net.exchange_time(MessageColumns.of([]), nranks) == 0.0
    one = NodeTopology(1, 1).network()
    self_send = [MessageEvent(0, 0, 100, True)]
    assert (one.exchange_time(self_send, 1)
            == ref_exchange_time(one, self_send, 1)
            == 2 * ref_message_time(one, self_send[0]))


def test_ppn1_prices_like_the_flat_base():
    base = FDRInfinibandModel().scaled(64.0)
    two = NodeTopology(6, 1).network(base)
    cols = MessageColumns.of([MessageEvent(s, (s + 1) % 6, 1000 * s, s % 2 == 0)
                              for s in range(6)])
    args = (cols.src, cols.dst, cols.nbytes, cols.persistent)
    assert two.message_times(*args).tolist() == base.message_times(*args).tolist()


# ---------------------------------------------------------------------------
# The node-aware plan against the dict-loop builder
# ---------------------------------------------------------------------------


@st.composite
def halo_needs(draw):
    """Per rank, distinct owners (the rank itself allowed) with global ids
    drawn from a small universe: empty runs, duplicates and entries shared
    between receivers all occur."""
    nranks = draw(st.integers(1, 12))
    ppn = draw(st.integers(1, nranks + 1))
    needs = []
    for _p in range(nranks):
        owners = draw(st.lists(st.integers(0, nranks - 1), unique=True,
                               max_size=nranks))
        needs.append([
            (q, np.array(draw(st.lists(st.integers(0, 40), max_size=12)),
                         dtype=np.int64))
            for q in owners])
    return NodeTopology(nranks, ppn), needs


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(halo_needs(), st.booleans(), st.sampled_from(["default", 0, 1]))
def test_node_plan_is_the_dict_loop_builder(drawn, persistent, which):
    topo, needs = drawn
    net = None if which == "default" else (
        topo.network(BASES[which]) if which else BASES[1])
    kw = dict(net=net, bytes_per_elem=8, persistent=persistent)
    got = plan_fields(build_node_plan(needs, topo, **kw))
    want = plan_fields(ref_build_node_plan(needs, topo, **kw))
    assert got == want
    assert got["t_flat"].hex() == want["t_flat"].hex()
    assert got["t_aggregated"].hex() == want["t_aggregated"].hex()


def test_node_plan_takes_each_owner_once():
    needs = [[(1, np.array([3])), (1, np.array([4]))], []]
    with pytest.raises(ValueError, match="each owner once"):
        build_node_plan(needs, NodeTopology(2, 1))


def test_node_plan_of_no_needs():
    topo = NodeTopology(5, 2)
    for needs in ([[] for _ in range(5)],
                  [[(p, np.zeros(0, np.int64))] for p in range(5)]):
        assert (plan_fields(build_node_plan(needs, topo))
                == plan_fields(ref_build_node_plan(needs, topo)))


# ---------------------------------------------------------------------------
# SimComm's modeled clock reads columns equal to the built entries
# ---------------------------------------------------------------------------

PHASES = ["Interp", "RAP", "Solve"]
TAGS = ["halo", "interp", "halo.gather", ""]


@st.composite
def log_ops(draw, nranks):
    rank = st.integers(0, nranks - 1)
    one = st.tuples(st.just("msg"), rank, rank, sizes_near_knees(),
                    st.booleans(), st.sampled_from(TAGS),
                    st.sampled_from(PHASES))
    batch = st.tuples(
        st.sampled_from(["batch", "later", "persistent"]),
        st.dictionaries(st.tuples(rank, rank), st.integers(0, 3000),
                        max_size=6),
        st.sampled_from(TAGS), st.sampled_from(PHASES))
    return draw(st.lists(st.one_of(one, batch, st.just(("read",)),
                                   st.just(("price",)),
                                   st.just(("allreduce",))),
                         max_size=30))


def ref_comm_time(comm, net, phase=None):
    msgs = [m.event for m in comm.messages
            if phase is None or m.phase == phase]
    t = ref_exchange_time(net, msgs, comm.nranks)
    for c in comm.collectives:
        if phase is None or c.phase == phase:
            t += net.allreduce_time(c.nranks, c.nbytes)
    return t


def ref_comm_volume(comm, phase=None, tag=None):
    return float(sum(m.event.nbytes for m in comm.messages
                     if (phase is None or m.phase == phase)
                     and (tag is None or m.event.tag == tag)))


def ref_message_count(comm, tag=None):
    return sum(1 for m in comm.messages if tag is None or m.event.tag == tag)


def clock_reads(comm, net):
    """Every column read of the modeled clock, by phase and tag."""
    out = {"time": comm.comm_time(net).hex(),
           "volume": comm.comm_volume(), "count": comm.message_count()}
    for ph in PHASES + ["none"]:
        out["time", ph] = comm.comm_time(net, phase=ph).hex()
        out["volume", ph] = comm.comm_volume(phase=ph)
        for tag in TAGS + ["none"]:
            out["volume", ph, tag] = comm.comm_volume(phase=ph, tag=tag)
    for tag in TAGS + ["none"]:
        out["volume", tag] = comm.comm_volume(tag=tag)
        out["count", tag] = comm.message_count(tag=tag)
    return out


def entry_reads(comm, net):
    """The same reads from the built entries, by the loops they replaced."""
    out = {"time": ref_comm_time(comm, net).hex(),
           "volume": ref_comm_volume(comm), "count": ref_message_count(comm)}
    for ph in PHASES + ["none"]:
        out["time", ph] = ref_comm_time(comm, net, ph).hex()
        out["volume", ph] = ref_comm_volume(comm, ph)
        for tag in TAGS + ["none"]:
            out["volume", ph, tag] = ref_comm_volume(comm, ph, tag)
    for tag in TAGS + ["none"]:
        out["volume", tag] = ref_comm_volume(comm, tag=tag)
        out["count", tag] = ref_message_count(comm, tag)
    return out


def replay(comm, ops, net):
    for op in ops:
        kind = op[0]
        if kind == "msg":
            _, s, d, n, pers, tag, ph = op
            with phase(ph):
                comm.log_message(s, d, n, persistent=pers, tag=tag)
        elif kind in ("batch", "later", "persistent"):
            _, pattern, tag, ph = op
            if kind == "batch":
                batch = frozen_messages(pattern, 8.0, tag=tag)
            elif kind == "later":
                batch = MessageBatch.later(
                    sum(s != d for s, d in pattern),
                    lambda pattern=pattern, tag=tag: frozen_messages(
                        pattern, 8.0, persistent=True, tag=tag))
            with phase(ph):
                if kind == "persistent":
                    PersistentExchange(comm, pattern, tag=tag).start(width=2)
                else:
                    comm.log_batch(batch)
        elif kind == "read":
            list(comm.messages)  # builds the prefix logged so far
        elif kind == "price":
            comm.comm_time(net)  # caches the columns logged so far
        else:
            with phase(PHASES[0]):
                comm.allreduce(np.ones(comm.nranks))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_clock_columns_equal_the_entries(data):
    nranks = data.draw(st.integers(1, 8))
    net = data.draw(nets(nranks))
    first, then = data.draw(log_ops(nranks)), data.draw(log_ops(nranks))
    comm = SimComm(nranks)
    replay(comm, first, net)
    got = clock_reads(comm, net)
    assert got == entry_reads(comm, net)
    # A built prefix followed by new segments, read as columns again.
    replay(comm, then, net)
    got = clock_reads(comm, net)
    assert got == entry_reads(comm, net)


def test_single_message_segments_between_batches():
    net = NodeTopology(4, 2).network()
    comm = SimComm(4)
    with phase("RAP"):
        comm.log_message(0, 3, 100, tag="interp")
        comm.log_batch(frozen_messages({(0, 1): 5, (2, 3): 7, (1, 1): 9}, 8.0,
                                       tag="halo"))
        comm.log_message(3, 0, 0, persistent=True, tag="interp")
        comm.log_message(2, 2, 64, tag="self")
    assert clock_reads(comm, net) == entry_reads(comm, net)
    comm.clear_logs()
    assert comm.comm_time(net) == 0.0 and comm.message_count() == 0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_slow_rank_surcharge_is_the_per_message_loop(data):
    nranks = data.draw(st.integers(1, 6))
    net = data.draw(nets(nranks))
    slow = data.draw(st.dictionaries(st.integers(0, nranks - 1),
                                     st.sampled_from([1.0, 1.5, 2.0, 3.25]),
                                     min_size=1))
    comm = FaultyComm(nranks, FaultPlan(slow_ranks=slow))
    replay(comm, data.draw(log_ops(nranks)), net)
    got = [comm.comm_time(net).hex()] + [
        comm.comm_time(net, phase=ph).hex() for ph in PHASES]

    def ref(ph):
        t = ref_comm_time(comm, net, ph)
        for m in comm.messages:
            if ph is not None and m.phase != ph:
                continue
            factor = max(slow.get(m.event.src, 1.0), slow.get(m.event.dst, 1.0))
            if factor > 1.0:
                t += (factor - 1.0) * ref_message_time(net, m.event)
        return t

    assert got == [ref(None).hex()] + [ref(ph).hex() for ph in PHASES]


def test_slow_rank_surcharge_adds_in_message_order():
    # Hundreds of surcharged messages: a pairwise or blocked sum of the
    # surcharges would round differently from the loop's running t.
    rng = np.random.default_rng(5)
    net = NodeTopology(6, 2).network(BASES[1])
    slow = {1: 1.7, 4: 2.9}
    comm = FaultyComm(6, FaultPlan(slow_ranks=slow))
    for s, d, n in zip(rng.integers(0, 6, 600), rng.integers(0, 6, 600),
                       rng.integers(0, 200_000, 600)):
        comm.log_message(int(s), int(d), int(n), persistent=bool(n % 2))
    t = ref_comm_time(comm, net)
    for m in comm.messages:
        factor = max(slow.get(m.event.src, 1.0), slow.get(m.event.dst, 1.0))
        if factor > 1.0:
            t += (factor - 1.0) * ref_message_time(net, m.event)
    assert comm.comm_time(net).hex() == t.hex()


def test_trace_durations_are_the_per_message_times():
    net = NodeTopology(4, 2).network()
    comm = SimComm(4)
    with phase("Solve"):
        comm.log_batch(frozen_messages({(0, 1): 5, (0, 3): 7000, (2, 1): 1},
                                       8.0, tag="halo"))
        comm.log_message(3, 2, 70_000, persistent=True)
    events = [e for e in comm_to_trace(comm, HaswellModel(), net)
              if e.get("pid") == 1 and e["ph"] == "X"]
    t = 0.0
    for e, m in zip(events, comm.messages, strict=True):
        dur = ref_message_time(net, m.event) * 1e6
        assert (e["ts"], e["dur"]) == (round(t, 3), round(max(dur, 0.001), 3))
        t += dur


# ---------------------------------------------------------------------------
# Reading the clock builds no entry, and neither does a node plan
# ---------------------------------------------------------------------------


def _count_constructions(monkeypatch):
    counts = {"MessageEvent": 0, "_LoggedMessage": 0}
    for name, cls in (("MessageEvent", MessageEvent),
                      ("_LoggedMessage", comm_mod._LoggedMessage)):
        init = cls.__init__

        def counted(self, *a, _name=name, _init=init, **kw):
            counts[_name] += 1
            _init(self, *a, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_clock_reads_and_node_plans_build_no_entries(monkeypatch):
    import repro.topo as topo_pkg

    counts = _count_constructions(monkeypatch)
    plan_builds = []
    from_runs = topo_pkg.plan_from_runs

    def spied(*a, **kw):
        before = dict(counts)
        plan = from_runs(*a, **kw)
        plan_builds.append(counts == before)
        return plan

    monkeypatch.setattr(topo_pkg, "plan_from_runs", spied)
    A = laplace_3d_27pt(16)
    part = RowPartition.uniform(A.nrows, 32)
    comm = SimComm(32)
    Ap = ParCSRMatrix.from_global(A, part)
    topo = NodeTopology(32, 4)
    net = topo.network()
    s = DistAMGSolver(comm, multi_node_config("ei"), topology=topo, net=net)
    s.setup(Ap)
    b = ParVector.from_global(
        np.random.default_rng(0).standard_normal(A.nrows), part)
    res = dist_fgmres(comm, Ap, b, precondition=s.precondition, tol=1e-7)
    assert res.converged
    assert plan_builds and all(plan_builds)
    assert counts == {"MessageEvent": 0, "_LoggedMessage": 0}
    t = comm.comm_time(net)
    volume = comm.comm_volume(tag="halo")
    n = comm.message_count(tag="halo") + comm.message_count()
    assert t > 0 and volume > 0 and n > 0
    assert counts == {"MessageEvent": 0, "_LoggedMessage": 0}
    # The entries, once read, agree with what the columns priced.
    assert t == ref_comm_time(comm, net)
