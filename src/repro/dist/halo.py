"""Vector halo exchange (§4.1, Fig. 3b) with optional persistent requests.

A :class:`HaloExchange` is built once per matrix from the ranks' ``colmap``
arrays: rank *p* must receive the vector entries at global indices
``colmap_p`` from their owners, and symmetrically send its owned entries
that appear in other ranks' colmaps.  ``persistent=True`` freezes the
pattern into a :class:`repro.dist.comm.PersistentExchange` (§4.4); otherwise
every exchange logs the non-persistent per-message setup cost.

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
so node-aware plans are bypassed under fault injection.  On a plain
``SimComm`` this module's behavior is unchanged.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import VAL_BYTES, KernelRecord, count_record, make_record
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
        # For each receiving rank: the owners and per-owner index lists.
        self.recv_plan: list[list[tuple[int, np.ndarray]]] = []
        needs: list[list[tuple[int, np.ndarray]]] = []
        pattern: dict[tuple[int, int], int] = {}
        for p, blk in enumerate(A.blocks):
            owners = col_part.owner_of(blk.colmap)
            plan = []
            need = []
            for q in np.unique(owners):
                ids = blk.colmap[owners == q]
                plan.append((int(q), col_part.to_local(ids, int(q))))
                need.append((int(q), ids))
                pattern[(int(q), p)] = len(ids)
            self.recv_plan.append(plan)
            needs.append(need)
        self.pattern = pattern
        self.total_elems = sum(pattern.values())
        # Per-rank external-entry counts are frozen with the pattern; the
        # pack/unpack and leader-staging traffic records are pure functions
        # of (rank, width) and are cached per width (see ``_records``).
        self._ext_n = [sum(len(ids) for _, ids in plan)
                       for plan in self.recv_plan]
        self._recs: dict[int, tuple[list[KernelRecord],
                                    list[tuple[int, KernelRecord]]]] = {}

        # Node-aware 3-step aggregation (repro.topo): adopted only when the
        # modeled two-tier time beats the flat schedule; ppn=1 and losing
        # plans keep the flat path byte-identically.
        self.topology = None
        self.node_plan = None
        self._node_exchange: NodeAwareExchange | None = None
        if topology is not None and not topology.trivial and comm.nranks > 1:
            from ..topo import build_node_plan

            if topology.nranks != comm.nranks:
                raise ValueError(
                    f"topology covers {topology.nranks} ranks, "
                    f"communicator has {comm.nranks}")
            self.topology = topology
            self.node_plan = build_node_plan(
                needs, topology, net=net, bytes_per_elem=VAL_BYTES,
                persistent=persistent)
            if self.node_plan.aggregated:
                self._node_exchange = NodeAwareExchange(
                    comm, self.node_plan.wire_rounds(),
                    bytes_per_elem=VAL_BYTES, persistent=persistent)

        self._persistent_req = (
            PersistentExchange(comm, pattern, bytes_per_elem=VAL_BYTES, tag="halo")
            if persistent and self._node_exchange is None
            else None
        )

    @property
    def node_aware(self) -> bool:
        """Whether this exchange sends the 3-step aggregated schedule."""
        return self._node_exchange is not None

    def _records(self, width: int):
        """``(pack, stage)`` record tables of a *width*-column exchange:
        one ``halo.pack_unpack`` record per rank, one ``halo.stage`` record
        per relaying node leader (empty on the flat schedule)."""
        recs = self._recs.get(width)
        if recs is None:
            def copy_rec(kernel, elems):
                return make_record(kernel,
                                   bytes_read=elems * width * VAL_BYTES,
                                   bytes_written=elems * width * VAL_BYTES)

            pack = [copy_rec("halo.pack_unpack", n) for n in self._ext_n]
            stage = ([(leader, copy_rec("halo.stage", elems))
                      for leader, elems in self.node_plan.relay.items()]
                     if self._node_exchange is not None else [])
            recs = self._recs[width] = (pack, stage)
        return recs

    def __call__(self, x: ParVector) -> list[np.ndarray]:
        """Gather each rank's external entries; returns ``x_ext`` per rank.

        The returned array of rank *p* is indexed by the compressed offd
        column index (aligned with ``colmap``), as in Fig. 3(b).

        Multi-column payloads (parts of shape ``(n_p, k)``) exchange all *k*
        columns in **one** message per neighbor pair — the message count is
        unchanged and the logged bytes scale by *k*, which is exactly how a
        blocked halo exchange amortizes latency.
        """
        multi = x.parts[0].ndim == 2
        width = x.parts[0].shape[1] if multi else 1
        dtype = x.parts[0].dtype
        pack_recs, stage_recs = self._records(width)
        reliable = getattr(self.comm, "reliable_send", None)
        if reliable is not None:
            for (src, dst), n in self.pattern.items():
                if src != dst:
                    reliable(src, dst, n * width * VAL_BYTES, tag="halo",
                             persistent=self.persistent)
        elif self._node_exchange is not None:
            self._node_exchange.start(width=width)
            # Leaders relay the aggregated off-node traffic: the gathered
            # entries are staged into per-destination buffers before the
            # inter-node send / after the inter-node receive.
            for leader, rec in stage_recs:
                with self.comm.on_rank(leader):
                    count_record(rec)
        elif self._persistent_req is not None:
            self._persistent_req.start(width=width)
        else:
            for (src, dst), n in self.pattern.items():
                self.comm.log_message(src, dst, n * width * VAL_BYTES, tag="halo")
        ext = []
        for p in range(self.comm.nranks):
            pieces = [x.parts[q][ids] for q, ids in self.recv_plan[p]]
            if pieces:
                ext.append(np.concatenate(pieces))
            else:
                # Allocate with the payload dtype: a bare np.empty defaults
                # to float64 and would silently upcast mixed-precision
                # parts in downstream concatenations.
                ext.append(np.empty((0, width), dtype=dtype) if multi
                           else np.empty(0, dtype=dtype))
            # Sender-side pack + receiver-side unpack traffic.
            with self.comm.on_rank(p):
                count_record(pack_recs[p])
        return ext


def build_halo(comm: SimComm, A: ParCSRMatrix, *, persistent: bool = True,
               topology=None, net=None) -> HaloExchange:
    return HaloExchange(comm, A, persistent=persistent, topology=topology,
                        net=net)
