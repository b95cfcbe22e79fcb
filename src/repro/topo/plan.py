"""Multi-step node-aware aggregation plan (Bienz et al., arXiv:1904.05838).

Given the logical halo pattern — which vector entries every rank needs
from every owner — and a :class:`~repro.topo.NodeTopology`, this module
builds the **3-step** wire schedule that trades the many small inter-node
messages of the flat exchange for one message per communicating *node*
pair:

1. **intra-node gather** — every non-leader rank sends the entries it owns
   that any off-node rank needs to its node leader, once (deduplicated
   across destination nodes: an entry needed by three remote nodes crosses
   the node's memory bus once);
2. **inter-node** — each leader sends one message per destination node,
   carrying the union of entries any rank on that node needs (deduplicated
   across the destination node's ranks — the communication the flat
   exchange pays up to ``ppn``x redundantly);
3. **intra-node scatter** — the destination leader forwards each local
   rank its slice.

Messages between ranks that share a node never aggregate; they stay
direct on the cheap tier.  The plan records both candidate wire schedules
and their modeled times under a
:class:`~repro.topo.network.TwoTierNetworkModel`, and ``aggregated`` says
which one won: coarse levels with many sub-``rampup`` messages aggregate,
fine levels whose large surfaces already ride the bandwidth curve fall
back to the flat exchange (the per-level policy of the ISSUE).  The
*logical* pattern — who ultimately consumes what — is untouched either
way, which is what keeps solve numerics bit-identical.

The plan is built from the pattern's runs as arrays
(:func:`plan_from_runs`; :func:`build_node_plan` flattens per-rank lists
into them): node ids split the runs on- and off-node, one sort of
``(group, gid)`` keys counts the distinct entries each gather / inter-node
message carries, and both candidate schedules are priced as columns by
:meth:`~repro.perf.network.NetworkModel.exchange_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.network import MessageColumns
from ..sparse.ops import run_starts
from .topology import NodeTopology

__all__ = [
    "GATHER_TAG",
    "NODE_TAG",
    "SCATTER_TAG",
    "NodeAwarePlan",
    "build_node_plan",
    "plan_from_runs",
]

Pattern = dict[tuple[int, int], int]

#: Wire-round tags of the 3-step schedule (the on-node direct round keeps
#: the exchange's own tag).
GATHER_TAG = "halo.gather"
NODE_TAG = "halo.node"
SCATTER_TAG = "halo.scatter"


@dataclass
class NodeAwarePlan:
    """The two candidate wire schedules of one halo exchange."""

    topology: NodeTopology
    #: Logical pairs between same-node ranks (always sent direct).
    on_node: Pattern
    #: Logical pairs crossing nodes (the flat schedule's wire form).
    off_node: Pattern
    #: Step 1: rank -> own-node leader, deduplicated entry counts.
    gather: Pattern
    #: Step 2: leader -> leader, one pair per communicating node pair.
    internode: Pattern
    #: Step 3: destination leader -> consuming rank.
    scatter: Pattern
    #: Elements each leader stages while relaying (gather in + scatter
    #: out) — the extra on-node copy traffic aggregation costs.
    relay: dict[int, int] = field(default_factory=dict)
    #: Whether the 3-step schedule beat the flat one under the model.
    aggregated: bool = False
    #: Modeled seconds of one flat / one aggregated exchange (width 1).
    t_flat: float = 0.0
    t_aggregated: float = 0.0

    def wire_rounds(self, tag: str = "halo") -> list[tuple[str, Pattern]]:
        """The rounds actually sent, in issue order (empty rounds elided)."""
        if not self.aggregated:
            rounds = [(tag, {**self.on_node, **self.off_node})]
        else:
            rounds = [(tag, self.on_node), (GATHER_TAG, self.gather),
                      (NODE_TAG, self.internode), (SCATTER_TAG, self.scatter)]
        return [(t, p) for t, p in rounds if p]

    # -- summary numbers the bench reports --------------------------------
    @property
    def off_node_messages(self) -> int:
        return len(self.off_node)

    @property
    def internode_messages(self) -> int:
        return len(self.internode) if self.aggregated else len(self.off_node)

    @property
    def off_node_elems(self) -> int:
        return sum(self.off_node.values())

    @property
    def internode_elems(self) -> int:
        return (sum(self.internode.values()) if self.aggregated
                else sum(self.off_node.values()))


def _pattern(src: np.ndarray, dst: np.ndarray, n: np.ndarray) -> Pattern:
    """``{(src[i], dst[i]): n[i]}`` in array order."""
    return dict(zip(zip(src.tolist(), dst.tolist()), n.tolist()))


def _distinct_per_group(group: np.ndarray, size: np.ndarray,
                        start: np.ndarray, gids: np.ndarray):
    """Distinct gids over the runs ``gids[start[r]:start[r] + size[r]]``
    labelled ``group[r]`` (non-negative), per group: the groups ascending
    and their counts, by one sort of ``(group, gid)`` keys and its
    run-starts."""
    ends = np.cumsum(size)
    pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        start - (ends - size), size)
    ids = gids[pos]
    ids = ids - ids.min(initial=0)
    span = ids.max(initial=0) + 1
    key = np.repeat(group, size) * span + ids
    key.sort()
    groups = key[run_starts(key)] // span
    first = run_starts(groups)
    return groups[first], np.diff(np.r_[first, len(groups)])


def plan_from_runs(owner, receiver, start, end, gids: np.ndarray,
                   topology: NodeTopology, *, net=None,
                   bytes_per_elem: int = 8,
                   persistent: bool = True) -> NodeAwarePlan:
    """Build (and price) the 3-step plan of the runs of a halo pattern.

    Run *r* is ``gids[start[r]:end[r]]``, the global ids ``receiver[r]``
    reads from ``owner[r]``, in the order the patterns keep; a receiver's
    owners are distinct.  Self-reads and empty runs send nothing.  ``net``
    prices the candidate schedules (default: the topology's default
    two-tier model).
    """
    if net is None:
        net = topology.network()
    owner = np.asarray(owner, dtype=np.int64)
    receiver = np.asarray(receiver, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    size = np.asarray(end, dtype=np.int64) - start
    gids = np.asarray(gids, dtype=np.int64)
    u, v = topology.node_of(owner), topology.node_of(receiver)
    sends = (owner != receiver) & (size > 0)
    on, off = sends & (u == v), sends & (u != v)
    on_node = (owner[on], receiver[on], size[on])
    off_node = (owner[off], receiver[off], size[off])

    # Step 1: every off-node owner but a leader gathers to its leader.
    q, n = _distinct_per_group(owner[off], size[off], start[off], gids)
    lead = topology.leader_of(q)
    gather = (q[q != lead], lead[q != lead], n[q != lead])
    # Step 2: one message per (owner node, receiver node) pair.
    nnodes = topology.nnodes
    pair, n = _distinct_per_group(u[off] * nnodes + v[off], size[off],
                                  start[off], gids)
    internode = (topology.leader(pair // nnodes),
                 topology.leader(pair % nnodes), n)
    # Step 3: the receiver's leader forwards every off-node entry it reads.
    elems = np.bincount(receiver[off], weights=size[off])
    p = np.flatnonzero(elems)
    lead = topology.leader_of(p)
    scatter = (lead[p != lead], p[p != lead],
               elems[p[p != lead]].astype(np.int64))

    # Leaders stage what they gather in and scatter out, keyed in order of
    # first appearance (gather round, then scatter round).
    leaders = np.concatenate([gather[1], scatter[0]])
    staged = np.bincount(leaders, weights=np.concatenate([gather[2],
                                                          scatter[2]]))
    leaders = leaders[np.sort(np.unique(leaders, return_index=True)[1])]

    plan = NodeAwarePlan(
        topology=topology, on_node=_pattern(*on_node),
        off_node=_pattern(*off_node), gather=_pattern(*gather),
        internode=_pattern(*internode), scatter=_pattern(*scatter),
        relay=dict(zip(leaders.tolist(),
                       staged[leaders].astype(np.int64).tolist())))

    def exchange_time(*rounds) -> float:
        src, dst, n = (np.concatenate(c) for c in zip(*rounds))
        return net.exchange_time(
            MessageColumns(src, dst, n * bytes_per_elem, persistent, None),
            topology.nranks)

    plan.t_flat = exchange_time(on_node, off_node)
    plan.t_aggregated = exchange_time(on_node, gather, internode, scatter)
    # Strict inequality: ppn=1 (3-step degenerates to the flat schedule)
    # and tie cases keep the standard exchange, byte-identically.
    plan.aggregated = bool(plan.off_node) and plan.t_aggregated < plan.t_flat
    return plan


def build_node_plan(
    needs: list[list[tuple[int, np.ndarray]]],
    topology: NodeTopology,
    *,
    net=None,
    bytes_per_elem: int = 8,
    persistent: bool = True,
) -> NodeAwarePlan:
    """Build (and price) the 3-step plan for one logical halo pattern.

    ``needs[p]`` lists ``(owner_rank, global_ids)`` pairs, distinct owners
    per rank: the vector entries rank *p* reads from each owner.  The pairs
    are flattened into the runs :func:`plan_from_runs` takes.
    """
    if any(len({q for q, _ in plan}) != len(plan) for plan in needs):
        raise ValueError("needs[p] must list each owner once")
    runs = [(q, p, np.asarray(ids, dtype=np.int64).ravel())
            for p, plan in enumerate(needs) for q, ids in plan]
    owner, receiver, ids = zip(*runs) if runs else ((), (), ())
    size = np.array([len(i) for i in ids], dtype=np.int64)
    end = np.cumsum(size)
    return plan_from_runs(
        owner, receiver, end - size, end,
        np.concatenate(ids or [np.zeros(0, np.int64)]), topology, net=net,
        bytes_per_elem=bytes_per_elem, persistent=persistent)
