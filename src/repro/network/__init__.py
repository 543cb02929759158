"""Interconnection-network substrate (paper §4.1-4.2).

Provides the multiprocessor's communication fabric:

* :class:`Topology` — immutable graph of processing nodes with integer ids,
  array-based adjacency for vectorised balancer code, and a 2-D embedding
  (the paper's ``M2`` mapping) so the load surface is a 3-D manifold.
* :mod:`builders <repro.network.builders>` — mesh, torus, hypercube, ring,
  star, complete, tree and random topologies (the paper's §2 cites results
  on mesh/torus/hypercube; all are first-class here).
* :class:`LinkAttributes` / :func:`link_costs` — the per-link bandwidth,
  length and fault-probability matrices ``BW``, ``D``, ``F`` of §4.2 and
  the derived cost ``e_ij = d/(bw·(1−f)^(c1·d/bw))``.
* :class:`FaultModel` — per-round transient link faults plus permanent
  link kills ("the probability of occurrence of a fault in a time unit").
* :mod:`routing <repro.network.routing>` — BFS distance rows and exact
  eccentricity extremes for set-up; the all-pairs hop matrix for
  analysis only.
"""

from repro.network.topology import CSRAdjacency, Topology
from repro.network.builders import (
    complete,
    hypercube,
    kary_ncube,
    mesh,
    random_connected,
    ring,
    star,
    torus,
    tree,
)
from repro.network.links import LinkAttributes, link_costs
from repro.network.faults import FaultModel
from repro.network.routing import hop_distances

__all__ = [
    "CSRAdjacency",
    "Topology",
    "mesh",
    "torus",
    "hypercube",
    "ring",
    "star",
    "complete",
    "tree",
    "kary_ncube",
    "random_connected",
    "LinkAttributes",
    "link_costs",
    "FaultModel",
    "hop_distances",
]
