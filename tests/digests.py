"""SHA-256 digests of graphs, the form in which the tests pin sampled outputs.

Graphs store their edges in arrival order, sorted by the later endpoint.  The
digests were taken while they were stored in (u, v) order, so the edges are
hashed in that order: a digest pins the edge set, whatever the stored order.
"""

import hashlib

import numpy as np

GRAPH_FIELDS = ("labels", "edges", "births", "features")


def uv_order(edges: np.ndarray) -> np.ndarray:
    """The (E, 2) edge pairs sorted by (u, v)."""
    return edges[np.lexsort(edges.T[::-1])]


def graph_digest(graphs, fields=GRAPH_FIELDS) -> str:
    """SHA-256 of the named arrays of each graph in turn, integers as little-endian
    int64 and floats as float64 bytes, with the edges in (u, v) order."""
    h = hashlib.sha256()
    for g in graphs:
        for name in fields:
            a = getattr(g, name)
            if name == "edges":
                a = uv_order(a)
            h.update(a.astype("<i8" if a.dtype.kind == "i" else "<f8").tobytes())
    return h.hexdigest()
