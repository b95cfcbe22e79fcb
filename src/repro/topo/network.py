"""Two-tier network model: cheap intra-node links, expensive inter-node.

Extends the flat latency/bandwidth model of
:class:`~repro.perf.network.NetworkModel` with a second parameter set for
messages between ranks that share a :class:`~repro.topo.NodeTopology`
node: shared-memory transports have sub-microsecond latency and several
times the sustained bandwidth of the NIC, and their software setup cost is
a fraction of the network rendezvous.  Every priced message carries its
``(src, dst)`` pair, so the tier is chosen per message
(:meth:`TwoTierNetworkModel.message_times` prices both tiers over the
columns and keeps the intra-node time where the pair shares a node); the
inherited (inter-node) fields keep their meaning, which makes a two-tier
model with ``ppn=1`` price every message exactly like its flat base.

``allreduce_time`` becomes hierarchical (the shape every MPI library uses
on fat nodes): an intra-node reduction to the node leader over the cheap
links, recursive doubling across node leaders over the expensive links,
then an intra-node broadcast — ``2*ceil(log2 ppn)`` cheap rounds plus
``ceil(log2 nnodes)`` expensive ones, instead of ``ceil(log2 P)``
expensive rounds flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..perf.network import NetworkModel, _tier_times
from .topology import NodeTopology

__all__ = ["TwoTierNetworkModel"]

#: Default intra-node (shared-memory) link parameters: ~0.3 us latency,
#: 12 GB/s sustained with a knee at 64 KB, and a cheap per-exchange setup.
INTRA_ALPHA = 0.3e-6
INTRA_PEAK_BW = 12e9
INTRA_SMALL_MSG_BW = 4e9
INTRA_RAMPUP_BYTES = 65536.0
INTRA_EXCHANGE_SETUP = 1e-6


@dataclass
class TwoTierNetworkModel(NetworkModel):
    """A :class:`NetworkModel` whose inherited fields price the inter-node
    tier, augmented with an intra-node tier chosen by the topology."""

    topology: NodeTopology = None  # type: ignore[assignment]
    intra_alpha: float = INTRA_ALPHA
    intra_peak_bw: float = INTRA_PEAK_BW
    intra_small_msg_bw: float = INTRA_SMALL_MSG_BW
    intra_rampup_bytes: float = INTRA_RAMPUP_BYTES
    intra_exchange_setup: float = INTRA_EXCHANGE_SETUP

    def __post_init__(self) -> None:
        if self.topology is None:
            raise ValueError("TwoTierNetworkModel requires a NodeTopology")

    @classmethod
    def from_base(cls, base: NetworkModel,
                  topology: NodeTopology) -> "TwoTierNetworkModel":
        """Two-tier model whose inter-node tier is *base* verbatim."""
        if topology is None:
            raise ValueError("TwoTierNetworkModel requires a NodeTopology")
        return cls(
            name=f"{base.name} + {topology.ppn} ranks/node",
            alpha=base.alpha,
            peak_bw=base.peak_bw,
            small_msg_bw=base.small_msg_bw,
            rampup_bytes=base.rampup_bytes,
            exchange_setup=base.exchange_setup,
            persistent_create=base.persistent_create,
            topology=topology,
        )

    # -- tiers -------------------------------------------------------------
    def message_times(self, src, dst, nbytes, persistent) -> np.ndarray:
        """The inherited (inter-node) times, with the intra-node tier's
        where ``node_of(src) == node_of(dst)``."""
        nbytes = np.asarray(nbytes)
        node_of = self.topology.node_of
        return np.where(
            node_of(np.asarray(src)) == node_of(np.asarray(dst)),
            _tier_times(nbytes, persistent, self.intra_alpha,
                        self.intra_small_msg_bw, self.intra_peak_bw,
                        self.intra_rampup_bytes, self.intra_exchange_setup),
            super().message_times(src, dst, nbytes, persistent))

    # -- collectives -------------------------------------------------------
    def allreduce_time(self, nranks: int, nbytes: float = 8.0) -> float:
        """Hierarchical allreduce: intra-node reduce, recursive doubling
        across node leaders, intra-node broadcast."""
        if nranks <= 1:
            return 0.0
        ppn = min(self.topology.ppn, nranks)
        nnodes = -(-nranks // self.topology.ppn)
        intra_rounds = 2 * math.ceil(math.log2(ppn)) if ppn > 1 else 0
        inter_rounds = math.ceil(math.log2(nnodes)) if nnodes > 1 else 0
        t = intra_rounds * (self.intra_alpha
                            + nbytes / self.intra_small_msg_bw
                            + self.intra_exchange_setup * 0.25)
        t += inter_rounds * (self.alpha + nbytes / self.small_msg_bw
                             + self.exchange_setup * 0.25)
        return t

    # -- scaling -----------------------------------------------------------
    def scaled(self, factor: float) -> "TwoTierNetworkModel":
        """Scale the fixed costs of *both* tiers (see the base method)."""
        base = super().scaled(factor)
        return replace(
            base,
            intra_alpha=self.intra_alpha / factor,
            intra_exchange_setup=self.intra_exchange_setup / factor,
            intra_rampup_bytes=max(self.intra_rampup_bytes / factor, 1024),
        )
