"""Vector halo exchange (§4.1, Fig. 3b) with optional persistent requests.

A :class:`HaloExchange` is built once per matrix from the ranks' ``colmap``
arrays: rank *p* must receive the vector entries at global indices
``colmap_p`` from their owners, and symmetrically send its owned entries
that appear in other ranks' colmaps.  Colmaps are sorted, so the entries a
rank reads from one owner are one run of its colmap and the whole pattern
falls out of the runs of the stacked colmap.  ``persistent=True`` freezes the
pattern into a :class:`repro.dist.comm.PersistentExchange` (§4.4); otherwise
every exchange logs the non-persistent per-message setup cost.

Everything an exchange does is frozen with the pattern: the wire messages
are one :class:`~repro.dist.comm.MessageBatch` per width appended as one
segment, the ``halo.pack_unpack`` / ``halo.stage`` records are per-rank
:class:`~repro.perf.counters.RecordTable` columns, and the data movement is
one fancy index over the vector's backing array (:meth:`HaloExchange.gather`
returns the rank-concatenated buffer, ``__call__`` per-rank views of it).

Node-aware aggregation: given a :class:`repro.topo.NodeTopology` the
exchange additionally builds the 3-step wire schedule of Bienz et al.
(arXiv:1904.05838) — intra-node gather to the node leader, one inter-node
message per communicating node pair (entry-deduplicated across the
destination node's ranks), intra-node scatter — and adopts it when its
modeled time under the two-tier network model beats the flat schedule
(coarse levels with many sub-rampup messages win; fine levels fall back).
The *logical* pattern and the unpack path are untouched, so the gathered
``x_ext`` buffers — and every downstream solve iterate — are bit-identical
with or without a topology; only the logged wire messages (and the
leaders' staging traffic) change.  A trivial topology (``ppn=1``) or a
losing plan keeps the flat schedule byte-identically.

On a fault-injecting communicator (one exposing ``reliable_send``, i.e.
:class:`repro.faults.comm.FaultyComm`) every halo message instead goes
through the reliable protocol: sequence-numbered, acked, retransmitted with
exponential backoff when the fault plan drops or corrupts it, and raising
:class:`repro.faults.comm.CommFault` when the retry budget is exhausted.
The reliable protocol always runs the flat logical pattern — aggregation
through a leader would turn one lost link into a whole node's retry storm,
so node-aware plans are bypassed under fault injection — and it decides per
message, so it is the one arm that still logs message by message.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import VAL_BYTES, RecordTable
from ..sparse.ops import run_starts
from .comm import NodeAwareExchange, PersistentExchange, SimComm
from .parcsr import ParCSRMatrix, ParVector

__all__ = ["HaloExchange", "build_halo"]


class HaloExchange:
    """Frozen halo-exchange pattern for one ParCSR matrix."""

    def __init__(self, comm: SimComm, A: ParCSRMatrix, *, persistent: bool,
                 topology=None, net=None) -> None:
        self.comm = comm
        self.persistent = persistent
        col_part = A.col_part
        self.col_part = col_part
        # Colmaps are sorted, so the entries rank p receives from owner q are
        # one run of p's colmap: the (owner, receiver) pairs are the runs of
        # the stacked colmap, receiver-major.
        colmap = A.colmap
        owners = col_part.owner_of(colmap)
        pair = A.ext_ranks() * comm.nranks + owners
        first = run_starts(pair)
        runs = (owners[first], pair[first] // comm.nranks, first,
                np.r_[first[1:], len(pair)][:len(first)])
        self._runs = tuple(r.tolist() for r in runs)
        self.pattern = {(q, p): b - a for q, p, a, b in zip(*self._runs)}
        self.total_elems = len(colmap)
        # The gather, frozen with the pattern: rank p's external entries
        # (its owners' pieces, in owner order) are
        # ``x.array[_gather[_ext_ptr[p]:_ext_ptr[p + 1]]]``.  The
        # pack/unpack and leader-staging traffic records are pure functions
        # of (rank, width) and are cached per width (see ``_records``).
        self._gather = colmap
        self._ext_ptr = A.ext_ptr.tolist()
        self._recs: dict[int, tuple[RecordTable, RecordTable]] = {}

        # Node-aware 3-step aggregation (repro.topo): adopted only when the
        # modeled two-tier time beats the flat schedule; ppn=1 and losing
        # plans keep the flat path byte-identically.
        self.topology = None
        self.node_plan = None
        self._node_exchange: NodeAwareExchange | None = None
        if topology is not None and not topology.trivial and comm.nranks > 1:
            from ..topo import plan_from_runs

            if topology.nranks != comm.nranks:
                raise ValueError(
                    f"topology covers {topology.nranks} ranks, "
                    f"communicator has {comm.nranks}")
            self.topology = topology
            self.node_plan = plan_from_runs(
                *runs, colmap, topology, net=net, bytes_per_elem=VAL_BYTES,
                persistent=persistent)
            if self.node_plan.aggregated:
                self._node_exchange = NodeAwareExchange(
                    comm, self.node_plan.wire_rounds(),
                    bytes_per_elem=VAL_BYTES, persistent=persistent)

        self._persistent_req = (
            PersistentExchange(comm, self.pattern, bytes_per_elem=VAL_BYTES,
                               tag="halo")
            if persistent and self._node_exchange is None
            else None
        )
        # The wire schedule one exchange logs; a flat non-persistent halo
        # is a one-round schedule paying the per-exchange setup cost.
        self._wire = (
            self._node_exchange or self._persistent_req
            or NodeAwareExchange(comm, [("halo", self.pattern)],
                                 bytes_per_elem=VAL_BYTES, persistent=False))

    @property
    def recv_plan(self) -> list[list[tuple[int, np.ndarray]]]:
        """For each receiving rank: its owners and the owner-local indices
        of the entries it reads from each (the unpack side's view)."""
        out: list[list[tuple[int, np.ndarray]]] = [
            [] for _ in range(self.comm.nranks)]
        for q, p, a, b in zip(*self._runs):
            out[p].append((q, self.col_part.to_local(self._gather[a:b], q)))
        return out

    @property
    def node_aware(self) -> bool:
        """Whether this exchange sends the 3-step aggregated schedule."""
        return self._node_exchange is not None

    def _records(self, width: int) -> tuple[RecordTable, RecordTable]:
        """``(pack, stage)`` record tables of a *width*-column exchange:
        one ``halo.pack_unpack`` record per rank, one ``halo.stage`` record
        per relaying node leader (empty on the flat schedule)."""
        recs = self._recs.get(width)
        if recs is None:
            nranks = self.comm.nranks
            relay = self.node_plan.relay if self.node_aware else {}
            leaders = np.zeros(nranks, dtype=bool)
            leaders[list(relay)] = True

            def copies(kernel, elems, present=None):
                elems = np.asarray(elems) * (width * VAL_BYTES)
                return RecordTable.per_rank(kernel, nranks, bytes_read=elems,
                                            bytes_written=elems,
                                            present=present)

            recs = self._recs[width] = (
                RecordTable.later(np.ones(nranks), lambda: copies(
                    "halo.pack_unpack", np.diff(self._ext_ptr))),
                RecordTable.later(leaders, lambda: copies(
                    "halo.stage", [relay.get(p, 0) for p in range(nranks)],
                    leaders)))
        return recs

    def gather(self, x: ParVector) -> np.ndarray:
        """One exchange of *x*: every rank's external entries, concatenated
        in rank order (rank *p*'s start at the cumulated ``colmap`` lengths
        — the columns of :meth:`ParCSRMatrix.stacked`'s ``offd``).

        Multi-column payloads (``x.array`` of shape ``(n, k)``) exchange all
        *k* columns in **one** message per neighbor pair — the message count
        is unchanged and the logged bytes scale by *k*, which is exactly how
        a blocked halo exchange amortizes latency.
        """
        width = x.array.shape[1] if x.array.ndim == 2 else 1
        pack_recs, stage_recs = self._records(width)
        reliable = getattr(self.comm, "reliable_send", None)
        if reliable is not None:
            for (src, dst), n in self.pattern.items():
                if src != dst:
                    reliable(src, dst, n * width * VAL_BYTES, tag="halo",
                             persistent=self.persistent)
        else:
            self._wire.start(width=width)
            if self._node_exchange is not None:
                # Leaders relay the aggregated off-node traffic: the
                # gathered entries are staged into per-destination buffers
                # before the inter-node send / after the inter-node receive.
                self.comm.record_on_ranks(stage_recs)
        ext = x.array[self._gather]
        # Sender-side pack + receiver-side unpack traffic.
        self.comm.record_on_ranks(pack_recs)
        return ext

    def __call__(self, x: ParVector) -> list[np.ndarray]:
        """:meth:`gather`, split per rank: the returned array of rank *p* is
        indexed by the compressed offd column index (aligned with
        ``colmap``), as in Fig. 3(b)."""
        ext = self.gather(x)
        return [ext[a:b] for a, b in zip(self._ext_ptr, self._ext_ptr[1:])]


def build_halo(comm: SimComm, A: ParCSRMatrix, *, persistent: bool = True,
               topology=None, net=None) -> HaloExchange:
    return HaloExchange(comm, A, persistent=persistent, topology=topology,
                        net=net)
