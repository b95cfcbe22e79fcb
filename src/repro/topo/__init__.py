"""Node-aware topology model (ROADMAP: communication-reducing AMG).

``repro.topo`` models the machine's node structure — which simulated MPI
ranks share a node — and everything that follows from it:

* :class:`NodeTopology` — ranks grouped into modeled nodes (``ppn``
  consecutive ranks per node, first rank as the node's leader);
* :class:`TwoTierNetworkModel` — the flat latency/bandwidth model of
  :mod:`repro.perf.network` split into a cheap intra-node and an expensive
  inter-node tier, with a hierarchical allreduce;
* :class:`NodeAwarePlan` / :func:`build_node_plan` /
  :func:`plan_from_runs` — the 3-step
  aggregated wire schedule of Bienz et al. (arXiv:1904.05838) that
  :mod:`repro.dist.halo` executes: intra-node gather to the leader, one
  inter-node message per node pair, intra-node scatter, with a per-level
  modeled-time policy that falls back to the flat exchange.

The subsystem is strictly a *model* layer: it owns no communicator and
moves no data.  :mod:`repro.dist` imports it (never the reverse), and the
entire pipeline is byte-identical when no topology is supplied.
"""

from .plan import (
    GATHER_TAG,
    NODE_TAG,
    SCATTER_TAG,
    NodeAwarePlan,
    build_node_plan,
    plan_from_runs,
)
from .network import TwoTierNetworkModel
from .topology import NodeTopology

__all__ = [
    "GATHER_TAG",
    "NODE_TAG",
    "SCATTER_TAG",
    "NodeAwarePlan",
    "NodeTopology",
    "TwoTierNetworkModel",
    "build_node_plan",
    "plan_from_runs",
]
