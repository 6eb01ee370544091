"""Tail-regularity and upper-regularity diagnostics for graph sequences.

The tail criterion works on degree-sorted vertex prefixes: a family has
uniformly regular tails when, for each edge-mass tolerance, a single prefix
length ``M sqrt(|E|)`` absorbs all but that tolerance of the degree mass in
every member.  The competing density-rescaled (upper regularity) statistic
probes the opposite behavior; sparse families cannot satisfy both.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._rng import TAG_GENERIC, substream
from .graphon_core import CostLimitError, GraphonError
from .sampling import SampledGraph, _graph_on_rows

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

logger = logging.getLogger(__name__)

# expected edges of one example-family graph: about 25 bytes an edge at the peak, so 0.5 GB
MAX_FAMILY_EDGES = 2 * 10 ** 7


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


def graph_tail_profile(g: SampledGraph, m_values) -> TailProfile:
    """Prefix degree shares of the degree-sorted vertex list at each M."""
    e = g.num_edges
    if e < 1:
        raise GraphonError("tail profiles need at least one edge")
    m_values = np.atleast_1d(np.asarray(m_values, dtype=float))
    if np.any(m_values <= 0):
        raise GraphonError("prefix scale M must be positive")
    degs = np.sort(g.degree_sequence())[::-1]
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
    counts = g.group_edge_counts(class_of, partition_classes).astype(float)
    norm = 2.0 * e / (n * n)  # L1 norm of the canonical graphon
    cell_sizes = sizes.astype(float)
    avg = counts / np.outer(cell_sizes, cell_sizes) / norm
    cell_mass = np.outer(cell_sizes / n, cell_sizes / n)
    return float((avg * cell_mass)[avg >= k_value].sum())


# ---------------------------------------------------------------------------
# Example graph families
# ---------------------------------------------------------------------------


def _check_family_edges(expected: float, what: str) -> None:
    if expected > MAX_FAMILY_EDGES:
        raise CostLimitError(f"{what} expects about {expected:.3g} edges, above the {MAX_FAMILY_EDGES:.3g} "
                             "edge limit", expected)


def _count(value, what: str) -> int:
    """``value`` as a non-negative int: the families build their graphs without the
    :class:`SampledGraph` checks, so a size is checked before anything is drawn."""
    try:
        count = operator.index(value)
    except TypeError:
        raise GraphonError(f"{what} must be an integer, got {value!r}") from None
    if count < 0:
        raise GraphonError(f"{what} must be non-negative")
    if count >= 1 << 63:  # labels are int64, and the families take the count's float
        raise GraphonError(f"{what} must be below 2^63")
    return count


def _exponent(alpha) -> float:
    """``alpha`` as a finite float, checked as :func:`_count` checks a size."""
    try:
        value = float(alpha)
    except (TypeError, ValueError):
        raise GraphonError(f"alpha must be a finite number, got {alpha!r}") from None
    if not math.isfinite(value):
        raise GraphonError(f"alpha must be a finite number, got {value}")
    return value


def _gap_buffer(expect: int) -> int:
    """Gaps drawn per buffer: at least eight standard deviations above the expected edge count."""
    return expect + 8 * math.isqrt(expect) + 16


def _decode_upper_triangle(linear: np.ndarray, n: int) -> np.ndarray:
    """Strictly increasing row-major upper-triangle linear indices of n vertices
    to the canonical rows, in one (E, 2) array, of the pairs they index walked
    backwards in arrival order: index L is pair ``n (n - 1) / 2 - 1 - L`` of
    that order, the row-major pair (i, j) with its rows mirrored to
    ``(n - 1 - j, n - 1 - i)``.

    Row i starts at index ``i (2n - 1 - i) / 2``, so one search of the n row
    starts in the increasing indices counts each row's picks, and both
    columns are repeats of per-row integers: no square root per edge.  The
    rows are written back to front, so no sort is needed.  The decode uses
    up ``linear``, an int64 array: it becomes the first column, negated, in
    place, and once copied it is freed if the caller holds no other
    reference to it or to its base, so the peak is three words an edge
    rather than four.
    """
    i = np.arange(n, dtype=np.int64)
    start = i * (2 * n - 1 - i) // 2
    counts = np.diff(np.searchsorted(linear, start), append=linear.size)
    linear -= np.repeat(start - i + n - 2, counts)
    rows = np.empty((linear.size, 2), dtype=np.int64)
    np.negative(linear, out=rows[::-1, 0])
    del linear
    rows[::-1, 1] = np.repeat(n - 1 - i, counts)
    return rows


def er_power_graph(n: int, alpha: float, seed: int) -> SampledGraph:
    """Erdos-Renyi graph with edge probability ``n^(alpha-1)``.

    Sampled by geometric gap skipping over the upper triangle (Batagelj and
    Brandes 2005), so the cost is proportional to the edge count: the gaps
    are drawn into one buffer sized well above the expected edge count, and
    into another of the same size only in the rare case it falls short.
    The decode walks the picked pairs backwards in arrival order: upper-
    triangle index L is arrival-order pair ``n (n - 1) / 2 - 1 - L``, so the
    graph is the row-major gap draw's with label i renamed ``n + 1 - i``,
    with the same degrees.  It writes the canonical rows back to front, so
    nothing is sorted, and uses up the buffer; the graph is built on those
    rows without the constructor's checks.  It holds 16 bytes an edge, and
    the call's traced peak is about 25 bytes an edge, three words while the
    rows are filled.  ``n = 0`` gives the empty graph; an expected edge
    count above ``MAX_FAMILY_EDGES`` raises :class:`CostLimitError` before
    anything is drawn.
    """
    n, alpha = _count(n, "vertex count"), _exponent(alpha)
    if n == 0:
        return _graph_on_rows(np.zeros((0, 2), dtype=np.int64), 0)
    p = float(n) ** (alpha - 1.0)
    if not 0.0 < p <= 1.0:
        raise GraphonError(f"edge probability n^(alpha-1) = {p} must lie in (0, 1]; got alpha={alpha} for n={n}")
    total = n * (n - 1) // 2
    _check_family_edges(total * p, f"er_power_graph with n={n}, alpha={alpha}")
    rng = substream(seed, TAG_GENERIC, 23)
    size = _gap_buffer(int(total * p))
    # geometric draws one value at a time, so the gaps do not depend on the buffer size
    pieces, position = [], -1
    while True:
        offsets = rng.geometric(p, size=size)
        np.cumsum(offsets, out=offsets)
        offsets += position
        cut = int(np.searchsorted(offsets, total))  # the offsets strictly increase
        pieces.append(offsets[:cut])
        if cut < size:
            break
        position = int(offsets[-1])
    logger.debug("er_power_graph: n=%d p=%.6g, %d gaps drawn in %d buffers, %d edges kept",
                 n, p, size * len(pieces), len(pieces), sum(map(len, pieces)))
    del offsets  # the decode holds the last reference to the gap buffer, and uses it up
    rows = _decode_upper_triangle(pieces.pop() if len(pieces) == 1 else np.concatenate(pieces), n)
    return _graph_on_rows(rows, n)


def clique_plus_isolated(n: int, alpha: float) -> SampledGraph:
    """``floor(n^((1+alpha)/2))`` vertices forming a clique, the rest isolated;
    ``-1 < alpha <= 1``, so the clique has at most n vertices.

    A clique of more than ``MAX_FAMILY_EDGES`` edges raises
    :class:`CostLimitError` before anything is allocated."""
    n, alpha = _count(n, "vertex count"), _exponent(alpha)
    if not -1.0 < alpha <= 1.0:
        raise GraphonError(f"alpha must lie in (-1, 1] for a clique of at most n vertices, got alpha={alpha}")
    m = int(math.floor(float(n) ** ((1.0 + alpha) / 2.0)))
    _check_family_edges(m * (m - 1) / 2, f"clique_plus_isolated with n={n}, alpha={alpha}")
    return _graph_on_rows(_decode_upper_triangle(np.arange(m * (m - 1) // 2), m), n)


def perfect_matching(pairs: int) -> SampledGraph:
    pairs = _count(pairs, "pair count")
    return _graph_on_rows(2 * np.arange(pairs, dtype=np.int64)[:, None] + np.array([0, 1]), 2 * pairs)


def cycle_graph(n: int) -> SampledGraph:
    n = _count(n, "vertex count")
    if 0 < n < 3:
        raise GraphonError(f"a cycle needs at least 3 vertices, got {n}")
    if n == 0:
        return _graph_on_rows(np.zeros((0, 2), dtype=np.int64), 0)
    u = np.arange(n - 1)  # canonical rows (0, 1), (1, 2), ..., (n - 3, n - 2), (0, n - 1), (n - 2, n - 1)
    return _graph_on_rows(np.column_stack((np.insert(u, n - 2, 0), np.insert(u + 1, n - 2, n - 1))), n)
