"""Tail-regularity and upper-regularity diagnostics for graph sequences.

The tail criterion works on degree-sorted vertex prefixes: a family has
uniformly regular tails when, for each edge-mass tolerance, a single prefix
length ``M sqrt(|E|)`` absorbs all but that tolerance of the degree mass in
every member.  The competing density-rescaled (upper regularity) statistic
probes the opposite behavior; sparse families cannot satisfy both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import TAG_GENERIC, substream
from .graphon_core import GraphonError
from .sampling import SampledGraph

__all__ = [
    "TailProfile",
    "TailRegularityResult",
    "graph_tail_profile",
    "sequence_tail_regularity",
    "default_m_grid",
    "graph_degree_stats",
    "upper_regularity_statistic",
    "er_power_graph",
    "clique_plus_isolated",
    "perfect_matching",
    "cycle_graph",
]


@dataclass(frozen=True)
class TailProfile:
    """Top-degree prefix shares ``sum_{i <= ceil(M sqrt(|E|))} deg(i) / |E|``.

    The share is nondecreasing in M and reaches exactly 2 once the prefix
    covers every non-isolated vertex (each edge counted at both endpoints);
    the complement ``2 - share`` is the dropped edge-endpoint fraction.
    """

    m_values: np.ndarray
    shares: np.ndarray
    num_edges: int

    def dropped_fraction(self) -> np.ndarray:
        return 2.0 - self.shares


def _sorted_degrees(g: SampledGraph) -> np.ndarray:
    degs = g.degree_sequence()
    order = np.lexsort((g.labels, -degs))
    return degs[order]


def graph_tail_profile(g: SampledGraph, m_values) -> TailProfile:
    """Prefix degree shares of the degree-sorted vertex list at each M.

    Ties in the degree sort are broken by vertex label ascending.
    """
    e = g.num_edges
    if e < 1:
        raise GraphonError("tail profiles need at least one edge")
    m_values = np.atleast_1d(np.asarray(m_values, dtype=float))
    if np.any(m_values <= 0):
        raise GraphonError("prefix scale M must be positive")
    degs = _sorted_degrees(g)
    cum = np.concatenate([[0], np.cumsum(degs)])
    ks = np.minimum(np.ceil(m_values * math.sqrt(e)).astype(int), degs.size)
    shares = cum[ks] / e
    return TailProfile(m_values, shares, e)


def default_m_grid(ratio: float = 1.25, lo: float = 0.1, hi: float = 100.0) -> np.ndarray:
    """Geometric search grid for the uniform prefix scale."""
    out = [lo]
    while out[-1] * ratio <= hi * (1 + 1e-9):
        out.append(out[-1] * ratio)
    return np.array(out)


@dataclass(frozen=True)
class TailRegularityResult:
    ok: bool
    m: float | None
    witness_index: int | None
    witness_profile: TailProfile | None


def sequence_tail_regularity(graphs, eps: float, m_grid=None) -> TailRegularityResult:
    """Smallest grid M whose top prefix absorbs the degree mass of every graph.

    A graph passes at M when dropping all vertices outside its top
    ``ceil(M sqrt(|E|))`` covers all but ``eps |E|`` edge endpoints.  When no
    grid point works, the graph requiring the largest M is returned as the
    failure witness together with its profile.
    """
    if not (0 < eps < 2):
        raise GraphonError("eps must lie in (0, 2)")
    graphs = list(graphs)
    if not graphs:
        raise GraphonError("need at least one graph")
    grid = default_m_grid() if m_grid is None else np.asarray(m_grid, dtype=float)
    profiles = [graph_tail_profile(g, grid) for g in graphs]
    dropped = np.stack([p.dropped_fraction() for p in profiles])  # (graphs, grid)
    ok_at = np.all(dropped <= eps, axis=0)
    if ok_at.any():
        j = int(np.argmax(ok_at))
        return TailRegularityResult(True, float(grid[j]), None, None)
    worst = int(np.argmax(dropped[:, -1]))
    return TailRegularityResult(False, None, worst, profiles[worst])


def required_m(g: SampledGraph, eps: float, m_grid=None) -> float:
    """Smallest grid M at which a single graph passes the tail criterion."""
    res = sequence_tail_regularity([g], eps, m_grid)
    if not res.ok:
        return math.inf
    return res.m


def graph_degree_stats(g: SampledGraph, lambda_values) -> tuple[float, np.ndarray]:
    """Average degree and the tail counts ``|{deg > lam sqrt(2|E|)}| / sqrt(2|E|)``."""
    e = g.num_edges
    if e < 1:
        raise GraphonError("degree stats need at least one edge")
    lams = np.atleast_1d(np.asarray(lambda_values, dtype=float))
    degs = g.degree_sequence()
    scale = math.sqrt(2.0 * e)
    counts = np.array([(degs > lam * scale).sum() for lam in lams], dtype=float) / scale
    return 2.0 * e / g.num_vertices, counts


def upper_regularity_statistic(g: SampledGraph, partition_classes: int, k_value: float) -> float:
    """L1 mass of large entries of the class-averaged rescaled canonical graphon.

    The rescaled canonical graphon divides the adjacency kernel by its L1
    norm (unit total mass); vertices are split, in label order, into
    ``partition_classes`` classes of near-equal size.  The statistic sums
    the measure-weighted averaged values that reach ``k_value``; uniformly
    upper regular families keep it small for every partition.
    """
    n = g.num_vertices
    e = g.num_edges
    if e < 1:
        raise GraphonError("upper-regularity statistic needs at least one edge")
    if partition_classes < 1 or partition_classes > n:
        raise GraphonError("class count must lie in [1, |V|]")
    sizes = np.full(partition_classes, n // partition_classes)
    sizes[: n % partition_classes] += 1
    class_of = np.empty(n, dtype=np.int64)
    class_of[np.argsort(g.labels, kind="stable")] = np.repeat(np.arange(partition_classes), sizes)
    ends = class_of[g.edge_rows()]
    counts = np.bincount(ends[:, 0] * partition_classes + ends[:, 1], minlength=partition_classes ** 2)
    counts = counts.reshape(partition_classes, partition_classes)
    counts = (counts + counts.T).astype(float)
    norm = 2.0 * e / (n * n)  # L1 norm of the canonical graphon
    cell_sizes = sizes.astype(float)
    avg = counts / np.outer(cell_sizes, cell_sizes) / norm
    cell_mass = np.outer(cell_sizes / n, cell_sizes / n)
    return float((avg * cell_mass)[avg >= k_value].sum())


# ---------------------------------------------------------------------------
# Example graph families
# ---------------------------------------------------------------------------


def _decode_upper_triangle(linear: np.ndarray, n: int) -> np.ndarray:
    """Row-major upper-triangle linear indices to (i, j) pairs with i < j."""
    linear = linear.astype(np.int64)
    b = 2 * n - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * linear)) / 2.0).astype(np.int64)
    # float guard: fix rows off by one
    starts = i * (b - i) // 2
    too_big = starts > linear
    i[too_big] -= 1
    starts = i * (b - i) // 2
    j = linear - starts + i + 1
    return np.stack([i, j], axis=1)


def er_power_graph(n: int, alpha: float, seed: int) -> SampledGraph:
    """Erdos-Renyi graph with edge probability ``n^(alpha-1)``.

    Sampled by geometric gap skipping over the upper triangle, so the cost
    is proportional to the edge count.
    """
    p = float(n) ** (alpha - 1.0)
    total = n * (n - 1) // 2
    rng = substream(seed, TAG_GENERIC, 23)
    picks: list[np.ndarray] = []
    position = -1
    expect = int(total * p)
    while True:
        gaps = rng.geometric(p, size=max(1024, int(0.2 * expect) + 16))
        offsets = position + np.cumsum(gaps)
        inside = offsets < total
        picks.append(offsets[inside])
        if not inside.all():
            break
        position = int(offsets[-1])
    linear = np.concatenate(picks)
    pairs = _decode_upper_triangle(linear, n) + 1
    return SampledGraph(np.arange(1, n + 1, dtype=np.int64), pairs)


def clique_plus_isolated(n: int, alpha: float) -> SampledGraph:
    """``floor(n^((1+alpha)/2))`` vertices forming a clique, the rest isolated."""
    m = int(math.floor(float(n) ** ((1.0 + alpha) / 2.0)))
    edges = np.column_stack(np.triu_indices(m, 1)) + 1
    return SampledGraph(np.arange(1, n + 1, dtype=np.int64), edges)


def perfect_matching(pairs: int) -> SampledGraph:
    edges = 2 * np.arange(pairs, dtype=np.int64)[:, None] + np.array([1, 2])
    return SampledGraph(np.arange(1, 2 * pairs + 1, dtype=np.int64), edges)


def cycle_graph(n: int) -> SampledGraph:
    labels = np.arange(1, n + 1, dtype=np.int64)
    return SampledGraph(labels, np.sort(np.column_stack((labels, labels % n + 1)), axis=1))
