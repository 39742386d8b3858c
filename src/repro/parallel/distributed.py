"""Distributed-memory communication model (§VIII-F).

The paper reports that exchanging neighborhood *sketches* between compute nodes
instead of full CSR neighborhoods reduces communication time by up to ~4×,
simply because the sketches are smaller and never need to be split across
nodes.  Lacking a cluster, we model exactly that quantity: for a given graph,
partitioning, and sketch parametrization, compute the bytes each scheme must
move for the cross-partition neighborhood intersections and report the ratio.

The model assumes the point-to-point scheme the paper currently employs: for a
cut edge ``(u, v)`` owned by different nodes, one endpoint's neighborhood
representation is shipped to the other endpoint's node.  A representation is
shipped **once per (vertex, remote partition) pair** — a node that owns several
neighbors of ``u`` receives ``u``'s neighborhood or sketch a single time and
reuses it for every local cut edge, in both the exact and the sketched scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph, WORD_BITS
from ..graph.partition import partition_vertices

__all__ = ["CommunicationVolume", "communication_volume"]


@dataclass(frozen=True)
class CommunicationVolume:
    """Bytes moved across the network by the exact and sketched executions."""

    num_partitions: int
    cut_edges: int
    shipments: int
    csr_bytes: float
    sketch_bytes: float

    @property
    def reduction_factor(self) -> float:
        """How many times less data the sketched execution moves (the paper reports up to ~4×)."""
        return self.csr_bytes / self.sketch_bytes if self.sketch_bytes > 0 else float("inf")


def communication_volume(
    graph: CSRGraph,
    num_partitions: int = 4,
    sketch_bits_per_vertex: int = 1024,
    owners: np.ndarray | None = None,
    seed: int = 0,
) -> CommunicationVolume:
    """Communication volume of the exact vs the sketched distributed execution.

    For every cut edge the smaller-degree endpoint's representation is shipped
    to the other endpoint's partition: the full sorted neighborhood (``d_v``
    words) for the exact execution, the fixed-size sketch
    (``sketch_bits_per_vertex``) for ProbGraph.  Shipments are deduplicated to
    one per ``(vertex, destination partition)`` pair — several cut edges from
    ``u`` into one partition move ``u``'s representation only once — so the
    reported volumes follow the paper's point-to-point model instead of
    double-charging hub vertices.
    """
    if owners is None:
        owners = partition_vertices(graph, num_partitions, seed)
    owners = np.asarray(owners, dtype=np.int64)
    if owners.shape[0] != graph.num_vertices:
        raise ValueError("owners must assign every vertex")
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return CommunicationVolume(num_partitions, 0, 0, 0.0, 0.0)
    cut = owners[edges[:, 0]] != owners[edges[:, 1]]
    cut_edges = edges[cut]
    degs = graph.degrees.astype(np.float64)
    if cut_edges.shape[0] == 0:
        return CommunicationVolume(num_partitions, 0, 0, 0.0, 0.0)
    # Ship the lower-degree endpoint's representation (the cheaper direction),
    # then deduplicate to one shipment per (vertex, destination partition).
    du = degs[cut_edges[:, 0]]
    dv = degs[cut_edges[:, 1]]
    ship_u = du <= dv
    shipped = np.where(ship_u, cut_edges[:, 0], cut_edges[:, 1])
    destination = owners[np.where(ship_u, cut_edges[:, 1], cut_edges[:, 0])]
    shipments = np.unique(np.stack([shipped, destination], axis=1), axis=0)
    csr_bytes = float(np.sum(degs[shipments[:, 0]]) * WORD_BITS / 8.0)
    sketch_bytes = float(shipments.shape[0] * sketch_bits_per_vertex / 8.0)
    return CommunicationVolume(
        num_partitions, int(cut_edges.shape[0]), int(shipments.shape[0]), csr_bytes, sketch_bytes
    )
