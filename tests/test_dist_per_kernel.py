"""The distributed solve pays per kernel, not per rank.

Three pieces of bookkeeping used to cost one Python step per rank on every
kernel: ``SimComm.record_on_ranks`` extended every rank's log, a
``ParVector`` built its per-rank views on construction, and the reductions
took one BLAS dot per rank.  Now a table's rows are queued once and handed
out to the rank logs when they are read, the views are built on first
access, and :meth:`RowPartition.dots` takes one ``np.vecdot`` per run of
equal-size ranks.  The logs are segment logs: a table, a message batch or
one message is appended as one segment and its entries are built on the
first read.  The oracles here are the per-rank code: the old
``record_on_ranks`` loop and a list-backed message log that builds each
entry at its send (:class:`LoopComm`; :class:`LoopFaultyComm` also sends an
exchange through the literal per-round loop of the reliable protocol), and
the per-rank ``a @ b`` list.
Streams compare with ``==``, floats by their bits.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import on_rank, random_csr, reliable_rounds
from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    build_halo,
    dist_fgmres,
    dist_pcg,
    dist_residual_norm,
    dist_spmv,
)
from repro.dist.solver import par_dot
from repro.faults.comm import CommFault, FaultyComm
from repro.faults.plan import FaultPlan, RetryPolicy
import repro.perf.counters as counters_mod
from repro.dist.comm import (
    MessageBatch,
    NodeAwareExchange,
    PersistentExchange,
    _LoggedMessage,
)
from repro.perf.counters import (
    VAL_BYTES,
    RecordTable,
    count,
    current_level,
    current_phase,
    make_record,
    phase,
)
from repro.perf.network import MessageEvent
from repro.problems import laplace_3d_27pt


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def streams(comm) -> list[list]:
    return [list(log.records) for log in comm.rank_logs]


# ---------------------------------------------------------------------------
# (a) One BLAS call per run of equal ranks, bit for bit
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 1e308]


@st.composite
def partitions(draw) -> RowPartition:
    kind = draw(st.sampled_from(["uniform", "sizes", "one"]))
    if kind == "uniform":  # ragged: sizes differ by one where n % p != 0
        return RowPartition.uniform(draw(st.integers(0, 70)),
                                    draw(st.integers(1, 9)))
    if kind == "sizes":  # empty ranks anywhere
        return RowPartition.from_sizes(
            draw(st.lists(st.integers(0, 9), min_size=1, max_size=10)))
    return RowPartition.from_sizes([draw(st.integers(0, 40))])


@st.composite
def vector_pairs(draw):
    part = draw(partitions())
    values = st.one_of(st.sampled_from(SPECIAL),
                       st.floats(-1e3, 1e3, allow_nan=False))
    x, y = (np.array(draw(st.lists(values, min_size=part.n, max_size=part.n)),
                     dtype=np.float64) for _ in range(2))
    return part, x, y


def ref_dots(part, x, y) -> list[float]:
    xv, yv = ParVector(x, part), ParVector(y, part)
    return [a @ b for a, b in zip(xv.parts, yv.parts)]


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_rank_dots_are_the_per_rank_dots(case):
    part, x, y = case
    got = part.dots(x, y)
    assert got.shape == (part.nranks,)
    assert bits(got) == bits(ref_dots(part, x, y))
    assert bits(part.dots(x, x)) == bits(ref_dots(part, x, x))


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_par_dot_is_the_per_rank_allreduce(case):
    part, x, y = case
    comm, ref = SimComm(part.nranks), SimComm(part.nranks)
    xv, yv = ParVector(x, part), ParVector(y, part)
    got = par_dot(comm, xv, yv)
    ref.record_on_ranks(part.vector_records("blas1.dot", 2, 2))
    want = ref.allreduce([float(a @ b) for a, b in zip(xv.parts, yv.parts)])
    assert bits([got]) == bits([want])
    assert comm.collectives == ref.collectives
    assert streams(comm) == streams(ref)


@pytest.mark.parametrize("sizes", [[128] * 32, [17] * 32, [1000] * 8, [3] * 4,
                                   [5, 5, 0, 0, 4, 5, 5, 5]])
def test_benchmark_shapes_are_bit_equal(sizes):
    part = RowPartition.from_sizes(sizes)
    x, y = np.random.default_rng(len(sizes)).standard_normal((2, part.n))
    assert bits(part.dots(x, y)) == bits(ref_dots(part, x, y))


def matrix_on(part: RowPartition) -> ParCSRMatrix:
    return ParCSRMatrix.from_global(random_csr(part.n, part.n, 0.3, seed=part.n),
                                    part)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(vector_pairs(), st.booleans())
def test_residual_norm_is_the_per_rank_allreduce(case, fused):
    part, x, b = case
    if part.n == 0:
        return
    A = matrix_on(part)
    comm, ref = SimComm(part.nranks), SimComm(part.nranks)
    xv, bv = ParVector(x, part), ParVector(b, part)
    r, norm = dist_residual_norm(comm, A, xv, bv, build_halo(comm, A),
                                 fused=fused)
    # The per-rank body it replaced.
    Ax = dist_spmv(ref, A, xv, build_halo(ref, A), kernel="spmv.residual")
    r_ref = ParVector(bv.array - Ax.array, part)
    if fused:
        ref.record_on_ranks(part.vector_records("residual_norm_fused", 3, 2, 1))
    else:
        ref.record_on_ranks(part.vector_records("residual_sub", 1, 2, 1))
        ref.record_on_ranks(part.vector_records("blas1.norm2", 2, 1))
    total = ref.allreduce([float(p @ p) for p in r_ref.parts])
    assert bits(r.array) == bits(r_ref.array)
    assert bits([norm]) == bits([float(np.sqrt(total))])
    assert comm.messages == ref.messages
    assert comm.collectives == ref.collectives
    assert streams(comm) == streams(ref)


# ---------------------------------------------------------------------------
# (b) Segment logs against the per-rank loop and a list, under any
#     interleaving
# ---------------------------------------------------------------------------


class _PerRankLoop:
    """The reference logs: ``record_on_ranks`` as the per-rank loop it
    replaced, and the message log as a list that every send appends one
    built entry to."""

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.messages = []

    def record_on_ranks(self, table):
        for log, recs in zip(self.rank_logs,
                             table.live(current_phase(), current_level())):
            log.records.extend(recs)

    def log_message(self, src, dst, nbytes, *, persistent=False, tag=""):
        self.messages.append(_LoggedMessage(
            MessageEvent(src, dst, int(nbytes), persistent, tag),
            current_phase()))


class LoopComm(_PerRankLoop, SimComm):
    def send_exchange(self, sends) -> None:
        for src, dst, nbytes, persistent, tag in sends:
            self.log_message(src, dst, nbytes, persistent=persistent, tag=tag)


class LoopFaultyComm(_PerRankLoop, FaultyComm):
    def send_exchange(self, sends) -> None:
        reliable_rounds(self, sends)


NRANKS = 4


def _table(name: str, rows: int, width: int = 2) -> RecordTable:
    """*rows* rows (row *p* holds ``p % width + 1`` records; the last is
    empty when there are several)."""
    return RecordTable(
        [make_record(f"{name}.{p}.{i}", flops=p + i) for i in range(p % width + 1)]
        if p < rows - 1 or rows == 1 else []
        for p in range(rows))


TABLES = [_table("full", NRANKS), _table("wide", NRANKS, 3),
          _table("one", 1), _table("two", 2), RecordTable([]),
          _table("long", NRANKS + 2)]

#: ``(persistent, rounds)`` of the frozen exchanges a program starts; the
#: self-sends and the empty round log nothing.
EXCHANGES = [
    (True, [("halo", {(0, 1): 3, (1, 0): 2, (2, 2): 5, (3, 1): 1})]),
    (True, [("halo.gather", {(1, 0): 4, (3, 2): 1}), ("halo.inter", {}),
            ("halo.inter", {(0, 2): 7, (2, 0): 7}),
            ("halo.scatter", {(0, 1): 2, (2, 3): 2, (2, 2): 1})]),
    (False, [("halo", {(3, 0): 6, (0, 3): 5})]),
]
WIDTHS = [1, 3]
#: One set-up kernel's sends: a self-send, per-message tags, float bytes.
BATCH = (np.array([0, 1, 2, 2, 3]), np.array([1, 1, 0, 3, 2]),
         np.array([16.0, 8.0, 24.5, 0.0, 99.9]), ["a", "b", "c", "d", "e"])

PHASES = [None, "SpMV", "GS"]
leaf_ops = st.one_of(
    st.tuples(st.just("rec"), st.integers(0, len(TABLES) - 1),
              st.sampled_from(PHASES)),
    st.tuples(st.just("read")),
    st.tuples(st.just("lens")),
    st.tuples(st.just("rank_read"), st.integers(0, NRANKS - 1),
              st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("start"), st.integers(0, len(EXCHANGES) - 1),
              st.sampled_from(WIDTHS), st.sampled_from(PHASES)),
    st.tuples(st.just("batch"), st.sampled_from(PHASES), st.booleans(),
              st.booleans()),
    st.tuples(st.just("send"), st.integers(0, NRANKS - 1),
              st.integers(0, NRANKS - 1), st.floats(0, 100),
              st.sampled_from(PHASES)),
    st.tuples(st.just("msg_read"), st.sampled_from(["len", "index", "slice",
                                                    "iter", "eq"]),
              st.integers(-12, 12), st.integers(-12, 12)),
)
on_rank_body = st.lists(st.one_of(
    st.tuples(st.just("count"), st.integers(0, 3)),
    st.tuples(st.just("rec"), st.integers(0, len(TABLES) - 1),
              st.sampled_from([None, "SpMV"]))), max_size=5)
programs = st.lists(st.one_of(
    leaf_ops, st.tuples(st.just("on_rank"), st.integers(0, NRANKS - 1),
                        on_rank_body)), max_size=25)


def run_program(comm, program) -> list:
    """Run *program* on *comm*; every read's result, then every rank's
    stream and the message log at the end."""
    seen = []
    reference = isinstance(comm, _PerRankLoop)
    exchanges = [
        PersistentExchange(comm, rounds[0][1], tag=rounds[0][0])
        if persistent and len(rounds) == 1
        else NodeAwareExchange(comm, rounds, persistent=persistent)
        for persistent, rounds in EXCHANGES]

    def under(ph, fn, *args):
        if ph is None:
            return fn(*args)
        with phase(ph):
            return fn(*args)

    def rec(t):
        comm.record_on_ranks(TABLES[t])

    def start(i, width):
        persistent, rounds = EXCHANGES[i]
        try:
            if not reference:
                exchanges[i].start(width=width)
                return
            comm.send_exchange([(src, dst, n * width * VAL_BYTES, persistent, tag)
                                for tag, pattern in rounds
                                for (src, dst), n in pattern.items() if src != dst])
        except CommFault as e:
            seen.append((type(e), e.src, e.dst, e.tag, e.seq))

    def batch(persistent, one_tag):
        src, dst, nbytes, tags = BATCH
        tags = "one" if one_tag else tags
        if not reference:
            comm.log_batch(MessageBatch(src, dst, nbytes, tags,
                                         persistent=persistent))
            return
        for i, (s, d, b) in enumerate(zip(src.tolist(), dst.tolist(),
                                          nbytes.tolist())):
            if s != d:
                comm.log_message(s, d, b, persistent=persistent,
                                 tag=tags if one_tag else tags[i])

    def msg_read(kind, i, j):
        msgs = comm.messages
        if kind == "len":
            return len(msgs)
        if kind == "index":
            return msgs[i % len(msgs)] if len(msgs) else None
        if kind == "slice":
            return msgs[i:j]
        if kind == "eq":
            return msgs == list(msgs)
        got = list(msgs)
        assert all(a is b for a, b in zip(got, msgs))  # a read aliases
        return got

    for op in program:
        if op[0] == "rec":
            under(op[2], rec, op[1])
        elif op[0] == "read":
            seen.append(streams(comm))
        elif op[0] == "lens":
            seen.append(([len(log.records) for log in comm.rank_logs],
                         [len(log) for log in comm.rank_logs]))
        elif op[0] == "rank_read":
            records = comm.rank_logs[op[1]].records
            seen.append((records[op[2]:op[3]],
                         records[op[2]] if -len(records) <= op[2] < len(records)
                         else None))
        elif op[0] == "clear":
            comm.clear_logs()
        elif op[0] == "start":
            under(op[3], start, op[1], op[2])
        elif op[0] == "batch":
            under(op[1], batch, op[2], op[3])
        elif op[0] == "send":
            under(op[4], comm.log_message, op[1], op[2], op[3])
        elif op[0] == "msg_read":
            seen.append(msg_read(*op[1:]))
        else:
            with on_rank(comm, op[1]):
                for inner in op[2]:
                    if inner[0] == "count":
                        count(f"direct.{inner[1]}", bytes_read=inner[1])
                    else:
                        under(inner[2], rec, inner[1])
    seen.append(streams(comm))
    seen.append(list(comm.messages))
    seen.append((getattr(comm, "events", None), getattr(comm, "clock", None)))
    return seen


@settings(max_examples=300, deadline=None)
@given(programs)
def test_queued_logs_are_the_per_rank_loop(program):
    assert run_program(SimComm(NRANKS), program) == run_program(
        LoopComm(NRANKS), program)


#: Drops, corruptions and a rank down from clock 20 to 30, on a budget of
#: two retries: exchanges deliver after retries and abort.
LOSSY = FaultPlan(seed=1, drop_prob=0.3, corrupt_prob=0.1,
                  rank_failures=((2, 20, 30),), retry=RetryPolicy(max_retries=2))


@settings(max_examples=100, deadline=None)
@given(programs, st.sampled_from([FaultPlan(seed=1), LOSSY]))
def test_queued_logs_are_the_per_rank_loop_on_a_faulty_comm(program, plan):
    assert run_program(FaultyComm(NRANKS, plan), program) == (
        run_program(LoopFaultyComm(NRANKS, plan), program))


def test_short_tables_queue_without_a_hand_out(monkeypatch):
    calls = {"flush": 0, "KernelRecord": 0}

    def counted(name, fn):
        def wrapped(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapped

    comm = SimComm(NRANKS)
    one, full, long = _table("one", 1), _table("full", NRANKS), _table(
        "long", NRANKS + 2)
    monkeypatch.setattr(SimComm, "_flush", counted("flush", SimComm._flush))
    monkeypatch.setattr(counters_mod, "KernelRecord",
                        counted("KernelRecord", counters_mod.KernelRecord))
    for _ in range(10):  # the coarse solve's one-row table, per V-cycle
        comm.record_on_ranks(one)
        comm.record_on_ranks(full)
    log = comm.rank_logs[3]  # held across the appends below
    comm.record_on_ranks(long)
    lens = [10 + 10 + 1, 20 + 2, 10 + 1, 2]
    assert [len(log) for log in comm.rank_logs] == lens
    assert [len(log.records) for log in comm.rank_logs] == lens
    # len() reads the pending count: nothing handed out, nothing built.
    assert calls == {"flush": 0, "KernelRecord": 0}
    assert [r.kernel for r in log.records] == ["long.3.0", "long.3.1"]
    # One hand-out, on the first read; each table's records are built once
    # for its (phase, level), rows past the rank count included.
    assert calls == {"flush": 1, "KernelRecord": 1 + 4 + 7}
    assert [len(log.records) for log in comm.rank_logs] == lens
    assert [list(log.records) for log in comm.rank_logs] == [
        list(log.records) for log in comm.rank_logs]
    assert calls == {"flush": 1, "KernelRecord": 12}  # nothing more


@pytest.mark.parametrize("rows", [1, 2, NRANKS, NRANKS + 2])
def test_read_after_append_with_long_and_short_tables(rows):
    """Each kind of read right after an append, on both logs, for tables
    shorter and longer than the rank count."""
    table = _table("t", rows)
    for read in (len, lambda r: r[-1:], lambda r: r[0] if len(r) else None,
                 list, lambda r: r == list(r)):
        comm, ref = SimComm(NRANKS), LoopComm(NRANKS)
        for c in (comm, ref):
            c.record_on_ranks(TABLES[2])
        for _ in range(2):
            got = []
            for c in (comm, ref):
                with phase("GS"):
                    c.record_on_ranks(table)
                got.append([read(log.records) for log in c.rank_logs])
            assert got[0] == got[1]
        assert streams(comm) == streams(ref)


# ---------------------------------------------------------------------------
# (c) ParVector views on demand
# ---------------------------------------------------------------------------


class TestParVectorViews:
    part = RowPartition.from_sizes([3, 0, 2, 4])

    def test_parts_alias_the_array_after_in_place_updates(self):
        v = ParVector(np.arange(9.0), self.part)
        v.array += 1.0  # before the views exist
        assert [p.tolist() for p in v.parts] == [[1, 2, 3], [], [4, 5], [6, 7, 8, 9]]
        v.array *= 2.0  # after
        assert v.parts[3].tolist() == [12, 14, 16, 18]
        v.parts[2][0] = -1.0
        assert v.array[3] == -1.0
        assert all(np.shares_memory(p, v.array) for p in v.parts if len(p))

    def test_setter_validates_and_replaces_the_views(self):
        v = ParVector(np.zeros(9), self.part)
        old = v.parts
        with pytest.raises(ValueError, match="size mismatch"):
            v.parts = [np.zeros(3), np.zeros(1), np.zeros(2), np.zeros(3)]
        with pytest.raises(ValueError, match="size mismatch"):
            ParVector([np.zeros(3)], self.part)
        with pytest.raises(ValueError, match="size mismatch"):
            ParVector(np.zeros(8), self.part)
        v.parts = [np.ones(3), np.ones(0), np.full(2, 2.0), np.full(4, 3.0)]
        assert v.array.tolist() == [1, 1, 1, 2, 2, 3, 3, 3, 3]
        assert v.parts is not old and v.parts[2].tolist() == [2, 2]
        assert not np.shares_memory(old[0], v.array)

    def test_blocks_keep_their_columns(self):
        v = ParVector.zeros(self.part, 3)
        assert [p.shape for p in v.parts] == [(3, 3), (0, 3), (2, 3), (4, 3)]
        v.parts[3][:, 1] = 5.0
        assert v.array[5:, 1].tolist() == [5, 5, 5, 5]
        w = ParVector([np.ones((3, 2)), np.ones((0, 2)), np.ones((2, 2)),
                       np.ones((4, 2))], self.part)
        assert w.array.shape == (9, 2)


# ---------------------------------------------------------------------------
# One Krylov halo per (communicator, operator)
# ---------------------------------------------------------------------------

#: sha256 of the message log, collectives and rank logs of
#: :func:`fifty_solves`, taken on the code that built a fresh Krylov halo
#: for every solve.
FIFTY_SOLVES_AT_PARENT = "fb9bfafdb4c4f5e0"


def fifty_solves():
    A = laplace_3d_27pt(6)
    part = RowPartition.uniform(A.nrows, 4)
    comm = SimComm(4)
    Ap = ParCSRMatrix.from_global(A, part)
    s = DistAMGSolver(comm, multi_node_config("ei"))
    s.setup(Ap)
    registered = (len(comm.persistent_requests), comm.persistent_created)
    b = ParVector.from_global(
        np.random.default_rng(5).standard_normal(A.nrows), part)
    for i in range(50):
        solve = dist_fgmres if i % 2 else dist_pcg
        res = solve(comm, Ap, b, precondition=s.precondition, tol=1e-8)
        assert res.converged
    return comm, Ap, registered


def test_fifty_solves_register_one_krylov_exchange():
    comm, Ap, (requests, created) = fifty_solves()
    pattern = build_halo(SimComm(4), Ap).pattern
    assert len(comm.persistent_requests) == requests + 1
    assert comm.persistent_created == created + len(pattern)
    assert comm.persistent_requests[-1].pattern == pattern
    digest = hashlib.sha256(repr(
        ([(m.event, m.phase) for m in comm.messages], comm.collectives,
         streams(comm))).encode()).hexdigest()[:16]
    assert digest == FIFTY_SOLVES_AT_PARENT
