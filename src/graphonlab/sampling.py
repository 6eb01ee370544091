"""Random graph models driven by a graphon.

The main generator grows a graph process: vertices arrive by a Poisson
point process on time x feature space and every unordered pair is joined
independently with the kernel probability of the endpoint features.  All
randomness flows through addressed substreams (see ``_rng``), which makes
traces bit-reproducible and extendable in the horizon without
re-randomizing history.  Sampling goes by windows: unit time windows for
the process, blocks of ``_ARRIVAL_BLOCK`` (256) arrivals for the sequential and
dense models.  A sampler first draws every window's vertices into one
feature array; one edge loop (:func:`_arrival_edges`) then draws each
window's edges, to all earlier vertices and among its own, as for the
whole window, and cuts rows past the horizon or the step count, so a longer
run only appends draws.  Caron-Fox kernels ``1 - exp(-f(x) f(y))`` take an
exact Poisson path.  For other kernels layout ``window-v1`` defines one
uniform coin per pair, in row-major order on each window's stream; the
sampler reads only the coins a decision needs (pairs with 0 < W < 1) and
skips the rest with PCG64 ``advance``, so the layout and every trace are
those of the full coin draw.

A trace (:class:`ProcessTrace`) is the graph on labels 1..N in birth
order, with its provenance: a :class:`SampledGraph` whose ``births`` (N,)
and ``features`` (N, d) are always set and whose edges, label pairs
``u < v``, are its rows plus one, plus the graphon, horizon, seed,
``keep_isolated`` and sampler layout that drew it.  Every graph function
accepts a trace as its final graph.  The graph at time ``s`` is the label
prefix ``1..k`` with ``k = searchsorted(births, s, "right")``: it keeps the
edges with ``v <= k``, and an edge is created at ``births[v - 1]``.
:func:`trace_from_json` rejects a ``keep_isolated`` that is not a JSON
boolean, a seed that is not a non-negative integer, a horizon that is not
a number, labels other than the integers 1..N, a negative or infinite
horizon, births that decrease or leave ``[0, horizon]``, edges with
``u >= v``, unknown endpoints or duplicates, and feature rows of unequal
width.

A graph stores one edge array, the edges' 0-based rows in ``labels``
(``edge_rows()``), in *arrival order*: ``u < v``, sorted by the later
endpoint ``v`` and then by ``u``, the order in which every sampler draws
them.  The rows are C-contiguous ``int32``, 8 bytes an edge, so a graph
has fewer than 2^31 vertices; labels, degrees and every edge key
``v * n + u`` are ``int64``.  The label pairs ``edges``,
``labels[edge_rows()]`` (``int64``), are built from the rows on each
access, and no computation of the package reads them.  Every graph has
one finishing step, :func:`_set_fields`: it sets the rows, the labels
and the degrees, and makes every array read-only.
The validating constructors serve outside input (trace files, users'
graphs) and sort it once; the package's own graphs skip them.  Every
sampler builds its graph by one arrival builder, :func:`_arrivals`: the
edge loop returns 0-based rows already in arrival order, and
:func:`_graph_on_rows` gives the graph on labels 1..n with those rows,
on which the graph families of ``regularity`` are built too.  One step,
:func:`_as_trace`, attaches a run's provenance to its graph.  In a graph
in birth order the edges among the first k vertices are a prefix of the
rows, so snapshots, trace prefixes (:func:`trace_prefix`) and sequential
checkpoints are one cut, :func:`_prefix`, whose arrays are views of the
graph's.  Other subgraphs are cut by one restriction to a vertex mask,
which carries the rows over.  Trace files write the edges in (u, v)
order, as they always have.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from ._rng import (
    TAG_CONTROL,
    TAG_SEQ_EDGE,
    TAG_SEQ_FEATURE,
    TAG_WINDOW,
    TAG_WINDOW_EDGES,
    TAG_WRANDOM,
    Streams,
    substream,
)
from .graphon_core import (
    CaronFoxGraphon,
    Graphon,
    GraphonError,
    StepGraphon,
    evaluate,
    graphon_to_spec,
    json_field,
    load_graphon_spec,
    read_json_file,
)

__all__ = [
    "VertexRecord",
    "ProcessTrace",
    "SampledGraph",
    "ArrivalSchedule",
    "sample_graphon_process",
    "snapshot_at",
    "trace_prefix",
    "sample_sequential",
    "sample_dense_wrandom",
    "xi_box_counts",
    "trace_to_json",
    "trace_from_json",
    "save_trace_file",
    "load_trace_file",
]

logger = logging.getLogger(__name__)

# Random-stream layouts written into trace JSON (see ``_rng``).
_SAMPLER_LAYOUT = "window-v1"
_CONTROL_LAYOUT = "control-v1"
# Arrivals per window of the sequential and dense samplers; part of the layout.
_ARRIVAL_BLOCK = 256
# Most kernel values per chunk of rows (a single row may exceed it) and the longest
# partial coin draw; coins are read in row order, so chunks leave the streams unchanged.
_MAX_COINS = 1 << 20
# Row entries per degree count: bincount casts int32 rows to intp, so it is fed a slice at a time.
_DEGREE_SLICE = 1 << 16


@dataclass(frozen=True)
class VertexRecord:
    """One sampled vertex: appearance-order label, birth time, feature."""

    label: int
    birth: float
    feature: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """A simple undirected labeled graph with optional sampling metadata.

    The constructor, for input from outside the package, rejects repeated
    labels, self-loops, endpoints that are not labels, duplicate edges, and
    ``births`` or ``features`` that are not one entry or one row per label,
    in that order.  It copies every array it is given, so the caller may
    reuse them, and stores the edges once, as their int32 rows in ``labels``
    (``edge_rows()``), ``u`` before ``v`` in label order and in arrival
    order: sorted by ``v``, then by ``u``, in that order.  ``edges``, the
    constructor's second argument, is not stored: as an attribute it is the
    read-only label pairs ``labels[edge_rows()]``, built on each access, so
    ``dataclasses.fields`` and ``repr`` do not list it.  On consecutive
    labels ``b..b+n-1`` label ``b + i`` is row ``i``: construction is
    O(|V| + |E|) when the edges are already in that canonical order and
    sorts the edge keys once otherwise.  Any other
    label set takes the general path, which sorts the labels, searches every
    endpoint and sorts the edge keys.  Graphs the package builds skip these
    checks: the samplers and the graph families of ``regularity`` make
    canonical rows on labels 1..n, and snapshots and subgraphs are cut from
    a built graph, prefixes as views of its arrays.  Every array of every
    graph is read-only, and graphs compare by identity.
    """

    labels: np.ndarray
    edges: InitVar[np.ndarray]  # not stored: the property below derives it from the rows
    births: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self, edges):
        labels = np.array(self.labels, dtype=np.int64)  # a copy: the caller may reuse its array
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = labels.size
        # O(n): strictly increasing labels spanning n - 1 are exactly b, b+1, ..., b+n-1
        consecutive = n > 0 and int(labels[-1]) - int(labels[0]) == n - 1 and bool(np.all(labels[1:] > labels[:-1]))
        rows = (_consecutive_rows if consecutive else _searched_rows)(labels, edges)
        births = None if self.births is None else np.array(self.births, dtype=float)  # copies, as labels
        features = None if self.features is None else np.array(self.features, dtype=float)
        if births is not None and births.shape != (n,):
            raise GraphonError(f"births must be one per vertex, got shape {births.shape} for {n} labels")
        if features is not None and (features.ndim != 2 or features.shape[0] != n):
            raise GraphonError(f"features must be one row per vertex, got shape {features.shape} for {n} labels")
        _set_fields(self, labels, rows, births, features)

    # -- derived statistics ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def num_edges(self) -> int:
        return int(self._rows.shape[0])

    @property
    def edge_density(self) -> float:
        """rho(G) = 2 |E| / |V|^2 (0 for the empty graph)."""
        n = self.num_vertices
        return 2.0 * self.num_edges / (n * n) if n else 0.0

    def edge_rows(self) -> np.ndarray:
        """Edges as ``(E, 2)`` int32 row positions in ``labels``, in arrival order; read-only, set on construction."""
        return self._rows

    def degree_sequence(self) -> np.ndarray:
        """Degrees aligned with ``labels``; read-only, counted on construction."""
        return self._degrees

    def group_edge_counts(self, groups: np.ndarray, k: int) -> np.ndarray:
        """``(k, k)`` counts of ordered adjacent vertex pairs ``(i, j)`` by the
        groups of ``i`` and ``j``; ``groups`` holds a group in ``0..k-1`` per
        vertex, aligned with ``labels``.  Diagonal entries count edges twice."""
        ends = np.asarray(groups).take(self.edge_rows())  # take: fancy indexing by int32 rows costs about twice as much
        counts = np.bincount(ends[:, 0] * k + ends[:, 1], minlength=k * k).reshape(k, k)
        return counts + counts.T

    def edge_list(self):
        return [tuple(e) for e in self.edges.tolist()]

    def induced(self, keep_labels) -> "SampledGraph":
        """Subgraph induced on the vertices whose labels are in ``keep_labels``."""
        return self._restrict(np.isin(self.labels, np.fromiter(keep_labels, dtype=np.int64)))

    def drop_isolated(self) -> "SampledGraph":
        return self._restrict(self.degree_sequence() > 0)

    def _restrict(self, keep: np.ndarray) -> "SampledGraph":
        """Subgraph induced on the vertices whose rows are set in the mask ``keep``;
        label order is kept, so the kept edges stay sorted and only their rows shift."""
        ends = keep.take(self._rows)  # take: fancy indexing by int32 rows costs about twice as much
        kept = ends[:, 0] & ends[:, 1]  # several times faster than all(axis=1)
        return _set_fields(object.__new__(SampledGraph), self.labels[keep],
                           (np.cumsum(keep, dtype=np.int32) - 1).take(np.compress(kept, self._rows, axis=0)),
                           *(None if a is None else a[keep] for a in (self.births, self.features)))


def _edges(g: SampledGraph) -> np.ndarray:
    """The edges as label pairs ``labels[edge_rows()]``, built on each access and read-only."""
    edges = g.labels[g._rows]
    edges.setflags(write=False)
    return edges


SampledGraph.edges = property(_edges)  # set after the class: a property in its body would be the InitVar's default


def _searched_rows(labels: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The canonical rows in ``labels`` of ``edges``, for any label set: one sort of
    the labels, a binary search of every endpoint and :func:`_canonical` on their ranks."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    if np.any(ordered[1:] == ordered[:-1]):
        raise GraphonError("vertex labels must be unique")
    _reject_self_loops(edges)
    n = labels.size
    # searched column by column: a column of sorted edges is sorted, which searchsorted exploits
    ranks = np.minimum(np.searchsorted(ordered, edges.T).T, n - 1)
    unknown = np.flatnonzero((ordered[ranks] != edges).any(axis=1)) if n else np.arange(len(edges))
    if unknown.size:
        raise _unknown_vertex(edges[unknown[0]])
    ranks = _canonical(ranks, n)  # rebound, so a sort frees the unsorted ranks before the rows are made
    return order[ranks]


def _consecutive_rows(labels: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The canonical rows of ``edges`` for labels ``b, b+1, ..., b+n-1``, where
    label ``b + i`` is row ``i``: no endpoint is searched, and edges already in
    canonical order are not sorted, so their cost is O(|V| + |E|)."""
    n, base = labels.size, int(labels[0])
    _reject_self_loops(edges)
    rows = edges - base
    # a row outside [0, n) is at least n as an unsigned integer, negative rows included;
    # reductions along the length-2 axis are slow, so the flat mask is searched instead
    outside = rows.view(np.uint64) >= n
    if outside.any():
        raise _unknown_vertex(edges[np.argmax(outside) // 2])
    del outside  # freed before the sort's outputs
    return _canonical(rows, n)


def _canonical(rows: np.ndarray, n: int) -> np.ndarray:
    """Row pairs of ``n`` rows in canonical (arrival) order: oriented ``u < v`` with
    strictly increasing keys ``v * n + u``.  Pairs already so are returned as they
    are; any others are sorted by key once, and a repeated key is a duplicate edge.
    The keys are int64 whatever the rows' dtype: in int32 they overflow past n = 46,341."""
    lo, hi = rows[:, 0], rows[:, 1]
    n = np.int64(n)
    if np.all(lo < hi):
        key = hi * n + lo
        if np.all(key[1:] > key[:-1]):
            return rows
    key = np.sort(np.maximum(lo, hi) * n + np.minimum(lo, hi))
    if np.any(key[1:] == key[:-1]):
        raise GraphonError("duplicate edges are not allowed")
    out = np.empty((key.size, 2), dtype=np.int32)
    np.divmod(key, n, out=(out[:, 1], out[:, 0]))  # no quotient and remainder temporaries to stack
    return out


def _reject_self_loops(edges: np.ndarray) -> None:
    if np.any(edges[:, 0] == edges[:, 1]):
        raise GraphonError("self-loops are not allowed")


def _unknown_vertex(edge: np.ndarray) -> GraphonError:
    u, v = edge.tolist()
    return GraphonError(f"edge ({u}, {v}) references an unknown vertex")


def _set_fields(g: SampledGraph, labels, rows, births, features) -> SampledGraph:
    """Fill ``g`` from arrays that pass the :class:`SampledGraph` checks:
    unique labels and canonical ``rows``, the edges' row positions in them.
    This is the one finishing step of every graph.  It refuses 2^31 or more
    labels, makes the rows C-contiguous int32 (copying rows of another
    dtype or layout), counts the degrees ``_DEGREE_SLICE`` row entries at a
    time, so the int64 copy ``bincount`` makes of its input is never the
    whole array, and makes every array read-only; the arrays become the
    graph's own."""
    if labels.size >= 1 << 31:
        raise GraphonError(f"a graph holds fewer than 2^31 vertices, got {labels.size}")
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    flat = rows.reshape(-1)
    degrees = np.bincount(flat[:_DEGREE_SLICE], minlength=labels.size)
    for lo in range(_DEGREE_SLICE, flat.size, _DEGREE_SLICE):
        degrees += np.bincount(flat[lo:lo + _DEGREE_SLICE], minlength=labels.size)
    for name, value in (("labels", labels), ("_rows", rows), ("_degrees", degrees), ("births", births),
                        ("features", features)):
        if value is not None:
            value.setflags(write=False)
        object.__setattr__(g, name, value)
    return g


def _graph_on_rows(rows: np.ndarray, n: int, births=None, features=None) -> SampledGraph:
    """The graph on labels 1..n whose edges have the 0-based rows ``rows``, which
    must be canonical: ``u < v < n`` with strictly increasing keys ``v * n + u``,
    the order in which the samplers draw them.  The samplers and the graph
    families of ``regularity`` make their rows so and check their parameters;
    nothing here checks or sorts the rows or the vertex arrays."""
    return _set_fields(object.__new__(SampledGraph), np.arange(1, n + 1, dtype=np.int64), rows, births, features)


def _prefix(g: SampledGraph, k: int) -> SampledGraph:
    """The subgraph of ``g``, which has births and features, on its first ``k``
    vertices.  Its edges, those with ``v < k``, are a prefix of the canonical
    rows, so every array is a read-only view of ``g``'s and only the degrees
    are counted anew."""
    rows = g._rows[:np.searchsorted(g._rows[:, 1], k)]
    return _set_fields(object.__new__(SampledGraph), g.labels[:k], rows, g.births[:k], g.features[:k])


@dataclass(frozen=True, init=False, eq=False)
class ProcessTrace(SampledGraph):
    """Full projective history of one graphon process run: the graph on
    labels 1..N in birth order, with its provenance.

    Vertex ``i`` was born at ``births[i - 1]`` with feature row
    ``features[i - 1]``; it stores its edges as 0-based rows in arrival
    order, so the edges among vertices ``1..k`` are a prefix of them and
    ``edge_creation_times()`` is nondecreasing, and ``edges`` gives them as
    label pairs ``u < v``, the rows plus one (see the module docstring).
    The constructor, for traces read from files or
    given by users, takes the provenance and the arrays positionally,
    checks a finite horizon, births in ``[0, horizon]`` and ``u < v``, and
    then builds the graph on labels 1..N as :class:`SampledGraph` does,
    which checks one feature row per vertex and copies the arrays.  The
    samplers and :func:`trace_prefix` skip these checks.  ``graphon`` is the
    kernel the edges were drawn from and ``features`` the points it reads;
    ``sampler`` names the random-stream layout that drew the trace (see
    ``_rng``), None when unknown.
    """

    graphon: object
    horizon: float
    seed: int
    keep_isolated: bool
    sampler: str | None

    def __init__(self, graphon, horizon, seed, keep_isolated, births, features, edges, sampler=None):
        births = np.asarray(births, dtype=float).reshape(-1)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = births.size
        if not 0 <= horizon < math.inf:
            raise GraphonError(f"horizon must be finite and non-negative, got {horizon}")
        if n and not (np.all(np.diff(births) >= 0) and 0.0 <= births[0] and births[-1] <= horizon):
            raise GraphonError(f"births must be nondecreasing within [0, {horizon}]")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise GraphonError("trace edges must be label pairs (u, v) with u < v")
        self.__dict__.update(graphon=graphon, horizon=horizon, seed=seed, keep_isolated=keep_isolated,
                             sampler=sampler)
        super().__init__(np.arange(1, n + 1), edges, births, features)

    @property
    def vertices(self) -> tuple[VertexRecord, ...]:
        """Per-vertex records, built from the arrays on each access."""
        births, features = self.births.tolist(), self.features.tolist()
        return tuple(VertexRecord(i + 1, births[i], tuple(features[i])) for i in range(len(births)))

    def edge_creation_times(self) -> np.ndarray:
        return self.births.take(self._rows[:, 1])


# ---------------------------------------------------------------------------
# Graphon process sampling
# ---------------------------------------------------------------------------


def _check_probability_kernel(w) -> None:
    if not isinstance(w, Graphon):
        raise GraphonError(f"not a graphon: {type(w).__name__}")
    if isinstance(w, StepGraphon) and not w.is_probability_kernel():
        raise GraphonError("sampling requires a [0,1]-valued kernel")


def _draw_features(w, count: int, rng: np.random.Generator) -> np.ndarray:
    """iid features from the normalized region measure, as (count, dim) array."""
    return np.asarray(w.sample_features(count, rng), dtype=float).reshape(count, w.feature_dim)


def _arrivals(w, births: np.ndarray, features: np.ndarray, starts, n: int, streams: Streams) -> SampledGraph:
    """The graph of the first ``n`` arrivals on labels 1..n, with their births and
    features, and the edges :func:`_arrival_edges` draws among them; the one
    builder of every sampler's graph.  ``births`` and ``features`` hold at least
    ``n`` rows and become the graph's."""
    return _graph_on_rows(_arrival_edges(w, features, starts, n, streams), n, births[:n], features[:n])


def _as_trace(g: SampledGraph, graphon, horizon: float, seed: int, keep_isolated: bool, sampler) -> ProcessTrace:
    """``g``, a graph on labels 1..N in birth order with births and features, as
    the trace of the run that drew it; nothing is checked or copied."""
    trace = object.__new__(ProcessTrace)
    trace.__dict__.update(vars(g), graphon=graphon, horizon=horizon, seed=seed, keep_isolated=keep_isolated,
                          sampler=sampler)
    return trace


def _arrival_edges(w, features: np.ndarray, starts, n: int, streams: Streams) -> np.ndarray:
    """0-based int32 rows ``(u, v)``, ``u < v < n``, of the edges among arrivals drawn window by window.

    Window ``i`` is rows ``starts[i]:starts[i + 1]`` of ``features``, drawn
    as for the whole window; rows from ``n`` on are cut, so only the last
    window may hold such rows.  Its edges to all earlier rows and among its
    own rows come from the generator ``streams[i]``, built when first used, and
    each pair is present independently with probability
    ``evaluate(w, x_u, x_v)``.  Caron-Fox kernels are exactly the event
    Poisson(f(x) f(y)) >= 1, so they draw Poisson multi-edges with
    endpoints proportional to f and keep the distinct pairs.

    Every other kernel follows layout ``window-v1``: one uniform coin per
    pair, row by row (``v`` coins for row ``v``), the pair present when its
    coin is below W.  Rows are taken in chunks of the whole arrival array,
    at most ``_MAX_COINS`` kernel values each.  A pair with W = 0 or W = 1
    is decided without its coin, and a step kernel evaluates only its
    *live* rows, those in a block whose row of values is not all zero.  The
    coins the other pairs need are read from a :class:`_CoinTape`, which
    skips the rest, so every edge is the one the full coin draw gives.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if isinstance(w, CaronFoxGraphon):
        x = features[:, 0]
        f = np.where((x >= 0) & (x <= w.truncation.x_max), w.f(x), 0.0)  # zero outside the truncation
        pairs = [np.zeros((0, 2), dtype=np.int64)]
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            pairs.append(_poisson_window_pairs(f[:lo], f[lo:hi], streams[i]))
        logger.debug("arrival edges: Poisson path, %d stream states derived, %d generators built",
                     len(streams), len(streams.built))
        pairs = np.concatenate(pairs, dtype=np.int32)
        return pairs[:np.searchsorted(pairs[:, 1], n)]
    x = features[:n]
    if isinstance(w, StepGraphon):
        values = np.zeros((w.n_blocks + 1,) * 2)
        values[:-1, :-1] = w.values  # block -1, beyond the support, reads 0
        block = w.block_of(x[:, 0])
        rows = np.flatnonzero(values.any(axis=1)[block])

        def kernel(r, c):
            return values[block[r, None], block[None, c]]
    else:
        rows = np.arange(x.shape[0])

        def kernel(r, c):
            if x.shape[1] == 1:
                return evaluate(w, x[r, 0, None], x[None, c, 0])
            return evaluate(w, x[r, None, :], x[None, c, :])
    tape = _CoinTape(starts, streams)
    pairs, evaluated = [np.zeros((0, 2), dtype=np.int64)], 0
    j0 = 0
    while j0 < rows.size:
        # the largest chunk whose (rows x earlier live rows) values fit in _MAX_COINS
        j1 = min(rows.size, j0 + max(1, (math.isqrt(j0 * j0 + 4 * _MAX_COINS) - j0) // 2))
        r, c = rows[j0:j1], rows[:j1]
        p = kernel(r, c)
        evaluated += p.size
        later = ~np.tri(j1 - j0, k=-1, dtype=bool)  # the chunk's own rows on and above the diagonal
        hits = p >= 1.0  # coins lie in [0, 1): W = 1 always joins, W = 0 never
        need = p > 0.0
        need &= p < 1.0
        for mask in (hits, need):
            mask[:, j0:][later] = False
        if need.any():
            hits[need] = tape.read(r, c, need) < p[need]
        i, k = np.divmod(np.flatnonzero(hits), j1)
        pairs.append(np.column_stack((c[k], r[i])))
        j0 = j1
    logger.debug("arrival edges: %d kernel values, %d coins drawn, %d skipped, "
                 "%d stream states derived, %d generators built",
                 evaluated, tape.drawn, tape.skipped, len(streams), len(streams.built))
    return np.concatenate(pairs, dtype=np.int32)


class _CoinTape:
    """The coins of layout ``window-v1``, read only where a decision needs them.

    Window ``i`` starting at row ``a`` draws coin ``(u, v)``, ``u < v``,
    as number ``v (v - 1) / 2 - a (a - 1) / 2 + u`` of ``streams[i]``.  The
    tape builds a window's generator when one of its coins is first needed
    and passes over unneeded coins with ``bit_generator.advance``, which is
    exact for PCG64: ``random()`` takes one 64-bit output per double.  Reads
    come in row order.  A read that needs every coin of its rows draws each
    window's coins in one go.  Any other read finds its needed coins with
    one ``np.nonzero`` and draws them in pieces shorter than ``_MAX_COINS``,
    skipping the gaps between them: a new piece starts at every window, at
    every ``_MAX_COINS`` boundary counted from the window's first needed
    coin, and at every needed coin that lies more than its row's coin count
    past the previous one.
    """

    def __init__(self, starts: np.ndarray, streams: Streams):
        self.starts, self.streams = starts, streams
        self.consumed = {}  # window -> coins read or skipped
        self.drawn = self.skipped = 0

    def read(self, rows: np.ndarray, cols: np.ndarray, need: np.ndarray) -> np.ndarray:
        """Coins of the pairs ``(cols[k], rows[i])`` with ``need[i, k]``, in row-major order.

        ``rows`` ascend past the rows of earlier reads; ``cols`` are rows below them.
        """
        windows = np.searchsorted(self.starts, rows, "right") - 1
        lo = self.starts[windows]
        row_offsets = (rows * (rows - 1) - lo * (lo - 1)) // 2  # of each row's coin 0 in its window
        if np.count_nonzero(need) == rows.sum():
            # every coin of every row, so no row is missing: each window's coins form one stretch, drawn whole
            tail = np.r_[np.flatnonzero(np.diff(windows)), rows.size - 1]  # each window's last row
            head = np.r_[0, tail[:-1] + 1]
            stretches = zip(windows[head].tolist(), row_offsets[head].tolist(), (row_offsets + rows)[tail].tolist())
            return np.concatenate([self._draw(i, start, stop) for i, start, stop in stretches if start < stop])
        ii, kk = np.nonzero(need)
        window, row = windows[ii], rows[ii]
        offsets = row_offsets[ii] + cols[kk]
        new_window = window[1:] != window[:-1]
        first = np.zeros(ii.size, dtype=np.intp)  # index of the window's first needed coin
        first[1:][new_window] = np.flatnonzero(new_window) + 1
        piece = (offsets - offsets[np.maximum.accumulate(first)]) // _MAX_COINS
        # a piece ends at a window change, a _MAX_COINS boundary or a gap over a row's coin count
        cut = new_window | (piece[1:] != piece[:-1]) | (np.diff(offsets) > row[1:])
        bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), ii.size]
        coins = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            start, stop = int(offsets[s]), int(offsets[e - 1]) + 1
            drawn = self._draw(int(window[s]), start, stop)
            coins.append(drawn if stop - start == e - s else drawn[offsets[s:e] - start])
        return np.concatenate(coins)

    def _draw(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Coins ``lo:hi`` of window ``i``'s stream; the coins before ``lo`` not yet read are skipped."""
        rng, pos = self.streams[i], self.consumed.get(i, 0)
        if lo > pos:
            rng.bit_generator.advance(lo - pos)
        self.consumed[i] = hi
        self.skipped += lo - pos
        self.drawn += hi - lo
        return rng.random(hi - lo)


def _poisson_window_pairs(f_prior: np.ndarray, f_new: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """0-based distinct pairs of a Caron-Fox window from f of its earlier and new vertices (see :func:`_arrival_edges`).

    Cross pairs: Poisson(F_new F_prior) multi-edges with endpoints drawn
    proportional to f, so pair (u, v) gets Poisson(f_u f_v).  Within the
    window: Poisson(F_new^2 / 2) ordered pairs, so an unordered pair gets
    Poisson(f_u f_v / 2) from each order; self pairs are dropped.  F sums f,
    which is zero outside the truncation like the kernel.
    """
    p = f_prior.size
    total_prior, total_new = f_prior.sum(), f_new.sum()
    cross = int(rng.poisson(total_new * total_prior))
    u = _proportional_draw(f_prior, total_prior, cross, rng)
    v = p + _proportional_draw(f_new, total_new, cross, rng)
    within = int(rng.poisson(total_new ** 2 / 2.0))
    a = p + _proportional_draw(f_new, total_new, within, rng)
    b = p + _proportional_draw(f_new, total_new, within, rng)
    distinct = a != b
    u = np.concatenate([u, np.minimum(a, b)[distinct]])
    v = np.concatenate([v, np.maximum(a, b)[distinct]])
    size = p + f_new.size
    v, u = np.divmod(np.unique(v * size + u), size)  # int64 keys: they pass 2^31 past 46,341 vertices
    return np.column_stack((u, v))


def _proportional_draw(weights: np.ndarray, total: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` iid indices with probability proportional to ``weights``, which sum to ``total``.

    The steps of ``rng.choice(weights.size, count, p=weights / total)``,
    so the same indices and the same generator state after the call:
    the normalized cumulative sum, rescaled to end at 1, searched to the
    right by ``count`` uniforms.  ``choice``'s checks of ``p`` are left out
    because they hold by construction: the weights are finite and
    non-negative, and a positive count, a Poisson draw of mean proportional
    to ``total``, implies ``total > 0``.
    """
    if count == 0:  # the weights may all be zero then
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64, copy=False)


def sample_graphon_process(w, horizon: float, seed: int, keep_isolated: bool = False) -> ProcessTrace:
    """Sample one graphon-process trace up to the horizon.

    Vertices arrive as a Poisson process with intensity (time) x (region
    measure); every unordered pair is connected independently with the
    kernel probability of its features.  ``keep_isolated`` controls the
    default snapshot view only -- the trace always records every vertex of
    the truncated region, so both process variants are recoverable.
    Rejected: infinite-mass ambient space with ``keep_isolated=True`` (the
    process would have infinitely many isolated vertices at every time).

    Unit window ``k`` draws its vertices from ``(TAG_WINDOW, k)`` and its
    edges from ``(TAG_WINDOW_EDGES, k)``, both as for the whole window, then
    cut to ``births <= horizon``.
    """
    if not 0 <= horizon < math.inf:
        raise GraphonError(f"horizon must be finite and non-negative, got {horizon}")
    _check_probability_kernel(w)
    if keep_isolated and isinstance(w, StepGraphon) and w.ambient_infinite:
        raise GraphonError(
            "keep_isolated=True on an infinite-mass ambient space: the process has "
            "infinitely many isolated vertices; truncate to the explicit blocks first"
        )
    mass = w.region_mass()

    windows, births, feats = [], [np.zeros(0)], [np.zeros((0, w.feature_dim))]  # the nonempty unit windows
    for k, rng in enumerate(Streams(seed, (TAG_WINDOW,), range(int(math.ceil(horizon)) if mass > 0 else 0))):
        count = int(rng.poisson(mass))
        if count == 0:
            continue  # its edge stream is never built
        window_births = rng.uniform(float(k), float(k + 1), size=count)
        window_feats = _draw_features(w, count, rng)
        order = np.argsort(window_births, kind="stable")
        windows.append(k)
        births.append(window_births[order])
        feats.append(window_feats[order])
    starts = np.cumsum([b.size for b in births])  # births[0] is empty
    births, feats = np.concatenate(births), np.concatenate(feats)
    n = int(np.searchsorted(births, horizon, side="right"))
    g = _arrivals(w, births, feats, starts, n, Streams(seed, (TAG_WINDOW_EDGES,), windows))
    if np.any(g.births[1:] == g.births[:-1]):
        logger.info("birth-time tie broken by draw order (seed=%s horizon=%s)", seed, horizon)
    return _as_trace(g, w, float(horizon), int(seed), bool(keep_isolated), _SAMPLER_LAYOUT)


def _sample_control_process(kernel: StepGraphon, horizon: float, seed: int) -> ProcessTrace:
    """A process whose kernel reads birth times: Poisson(1) arrivals per unit
    window, each pair joined with probability ``kernel(t_u, t_v)``.

    Layout ``control-v1``: unit window ``k`` draws its births, then the coins of
    its edges as in ``window-v1``, from the one stream ``(TAG_CONTROL, k)``.  The
    trace records ``kernel`` as its graphon, its births as its features, and
    keeps its isolated vertices.
    """
    streams = Streams(seed, (TAG_CONTROL,), range(int(math.ceil(horizon))))
    windows = [np.sort(rng.uniform(float(k), float(k + 1), size=int(rng.poisson(1.0))))
               for k, rng in enumerate(streams)]
    births = np.concatenate([np.zeros(0), *windows])
    n = int(np.searchsorted(births, horizon, side="right"))
    g = _arrivals(kernel, births, births[:, None], np.cumsum([0] + [b.size for b in windows]), n, streams)
    return _as_trace(g, kernel, float(horizon), int(seed), True, _CONTROL_LAYOUT)


def snapshot_at(trace: ProcessTrace, s: float, keep_isolated: bool | None = None) -> SampledGraph:
    """Induced subgraph on vertices born at time ``s`` or earlier.

    That is the label prefix ``1..k`` with ``k = searchsorted(births, s,
    "right")`` and the edges ``(u, v)`` with ``v <= k``, a prefix of the
    trace's rows, cut as views of the trace's arrays.  With
    ``keep_isolated=False`` (the trace default unless overridden) vertices
    of degree zero in the snapshot are removed, giving the finite-graph
    view of the process.  A time outside ``[0, horizon]``, NaN included,
    raises :class:`GraphonError`.
    """
    if not 0 <= s <= trace.horizon:
        raise GraphonError(f"snapshot time {s} outside the sampled horizon [0, {trace.horizon}]")
    keep = trace.keep_isolated if keep_isolated is None else keep_isolated
    g = _prefix(trace, int(np.searchsorted(trace.births, s, side="right")))
    return g if keep else g.drop_isolated()


def trace_prefix(trace: ProcessTrace, s: float) -> ProcessTrace:
    """The trace cut to the horizon ``s``: the vertices born by ``s`` and the edges among them.

    A run to ``s`` draws exactly this cut of a run to any longer horizon,
    so for a trace of :func:`sample_graphon_process` the result equals
    ``sample_graphon_process(trace.graphon, s, trace.seed,
    trace.keep_isolated)`` in every field.  The cut is the snapshot at ``s``
    with its isolated vertices, taken from the trace's checked arrays
    without validating them again; ``s`` outside ``[0, horizon]``, NaN
    included, raises :class:`GraphonError`.
    """
    return _as_trace(snapshot_at(trace, s, keep_isolated=True), trace.graphon, float(s), trace.seed,
                     trace.keep_isolated, trace.sampler)


# ---------------------------------------------------------------------------
# Sequential arrival model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSchedule:
    """Growing prefixes ``S_n = [0, s_n]`` of the feature half line.

    Families: ``linear`` (``s_n = c n``), ``exponential`` (``s_n = c 2^n``,
    capped at the float maximum) and ``constant`` (``s_n = c``).
    """

    family: str
    c: float = 1.0

    def bound(self, n):
        """``s_n`` for a step ``n`` (a float) or an array of steps (an array)."""
        n = np.asarray(n, dtype=float)
        if self.family == "linear":
            s = self.c * n
        elif self.family == "exponential":
            with np.errstate(over="ignore"):  # a large c overflows; the cap brings it back
                s = np.minimum(self.c * 2.0 ** np.minimum(n, 1020.0), np.finfo(float).max)
        elif self.family == "constant":
            s = np.full(n.shape, self.c)
        else:
            raise GraphonError(f"unknown schedule family {self.family!r}")
        return s if s.ndim else float(s)


def sample_sequential(w, schedule: ArrivalSchedule, steps: int, seed: int,
                      checkpoints: Sequence[int] | None = None) -> list[SampledGraph]:
    """One-vertex-per-step arrivals with features from renormalized prefixes.

    At step ``n`` the new feature is uniform on ``S_n`` (intersected with
    the finite block support unless the ambient space is infinite), and
    edges to all earlier vertices are drawn independently from the kernel.
    Returns the graph at every checkpoint (default: every step); each graph
    is an induced subgraph of the next, cut from the final graph as a label
    prefix like :func:`snapshot_at`, so every checkpoint's arrays are views
    of the final graph's and they hold one edge array between them.

    Block ``b`` of ``_ARRIVAL_BLOCK`` steps draws its features from
    ``(TAG_SEQ_FEATURE, b)`` and its edges from ``(TAG_SEQ_EDGE, b)``, as
    for the whole block, so a run with fewer steps is a prefix of a longer
    one.
    """
    _check_probability_kernel(w)
    if w.feature_dim != 1:
        raise GraphonError("sequential arrivals need a scalar feature space")
    if steps < 1:
        raise GraphonError("steps must be at least 1")
    marks = sorted(set(int(c) for c in (checkpoints if checkpoints is not None else range(1, steps + 1))))
    if any(c < 1 or c > steps for c in marks):
        raise GraphonError("checkpoints must lie in [1, steps]")

    if isinstance(w, StepGraphon):
        support_cap = math.inf if w.ambient_infinite else w.total_mass
    else:
        support_cap = math.inf  # scalar analytic families live on all of R_+
    blocks = -(-steps // _ARRIVAL_BLOCK)
    s_n = np.minimum(schedule.bound(np.arange(1, blocks * _ARRIVAL_BLOCK + 1)), support_cap)
    empty = np.flatnonzero(~(s_n[:steps] > 0))
    if empty.size:
        raise GraphonError(f"schedule gives a zero-mass prefix at step {empty[0] + 1}")
    x = np.concatenate([rng.uniform(0.0, bound) for rng, bound
                        in zip(Streams(seed, (TAG_SEQ_FEATURE,), range(blocks)), s_n.reshape(blocks, _ARRIVAL_BLOCK))])
    full = _arrivals(w, np.arange(1, steps + 1, dtype=float), x[:, None], range(0, x.size + 1, _ARRIVAL_BLOCK),
                     steps, Streams(seed, (TAG_SEQ_EDGE,), range(blocks)))
    return [_prefix(full, c) for c in marks]


# ---------------------------------------------------------------------------
# Dense W-random graphs
# ---------------------------------------------------------------------------


def sample_dense_wrandom(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Classical W-random graph: n iid features from the normalized measure.

    Features come from ``(TAG_WRANDOM, 0)``; block ``b`` of ``_ARRIVAL_BLOCK``
    vertices draws its edges from ``(TAG_WRANDOM, 1, b)``, one vertex after
    another, so a smaller ``n`` gives an induced subgraph of a larger one.
    """
    if not isinstance(w, StepGraphon):
        raise GraphonError("dense W-random sampling needs a step graphon")
    if w.ambient_infinite:
        raise GraphonError("space has infinite total mass; truncate to the explicit blocks first")
    _check_probability_kernel(w)
    if n < 0:
        raise GraphonError("vertex count must be non-negative")
    feats = substream(seed, TAG_WRANDOM, 0).uniform(0.0, w.total_mass, size=(n, 1))
    return _arrivals(w, np.arange(1, n + 1, dtype=float), feats, range(0, n + _ARRIVAL_BLOCK, _ARRIVAL_BLOCK), n,
                     Streams(seed, (TAG_WRANDOM, 1), range(-(-n // _ARRIVAL_BLOCK))))


# ---------------------------------------------------------------------------
# Edge birth-pair measure
# ---------------------------------------------------------------------------


def xi_box_counts(trace: ProcessTrace, h: float) -> np.ndarray:
    """Symmetric box counts of the edge birth-pair point measure on ``[0, horizon]``.

    Entry ``(i, j)`` counts ordered endpoint-birth pairs ``(t_u, t_v)`` with
    ``t_u`` in the i-th and ``t_v`` in the j-th interval of width ``h``, the
    last interval ending at or past the trace's horizon; every edge
    contributes both orders, so the matrix sums to ``2 |E|``.  The counts of
    the path up to an earlier time ``s`` are those of ``trace_prefix(trace, s)``.
    """
    if not (0 < h <= trace.horizon):
        raise GraphonError("grid width must satisfy 0 < h <= horizon")
    nbins = int(math.ceil(trace.horizon / h - 1e-12))
    return trace.group_edge_counts(np.minimum((trace.births / h).astype(np.int64), nbins - 1), nbins)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def trace_to_json(trace: ProcessTrace) -> dict:
    """JSON form of a trace; ``"sampler"`` is written when the stream layout is known.
    The edges are written as label pairs sorted by (u, v), the order files have always had."""
    payload = {
        "spec": graphon_to_spec(trace.graphon),
        "horizon": trace.horizon,
        "seed": trace.seed,
        "keep_isolated": trace.keep_isolated,
    }
    if trace.sampler is not None:
        payload["sampler"] = trace.sampler
    payload["vertices"] = [{"label": label, "birth": birth, "feature": feature} for label, (birth, feature)
                           in enumerate(zip(trace.births.tolist(), trace.features.tolist()), start=1)]
    edges = trace.edges
    payload["edges"] = edges[np.lexsort(edges.T[::-1])].tolist()
    return payload


def trace_from_json(payload: dict) -> ProcessTrace:
    """Trace from its JSON form; malformed payloads raise :class:`GraphonError`.

    Files written before the stream layout was recorded have no
    ``"sampler"`` key; they load with ``sampler=None``.  Nothing is coerced
    (:func:`~graphonlab.graphon_core.json_field`): ``keep_isolated`` must be
    a JSON boolean, ``seed`` a non-negative integer, ``horizon``, births and
    features numbers, vertex labels and edge endpoints integers and
    ``sampler`` a string.
    """
    try:
        graphon = load_graphon_spec(payload["spec"])
        records = payload["vertices"]
        if json_field([v["label"] for v in records], "label", "integer", 1) != list(range(1, len(records) + 1)):
            raise GraphonError(f"vertex labels must be 1..{len(records)} in birth order")
        seed = json_field(payload["seed"], "seed", "integer", what="a non-negative integer")
        if seed < 0:
            raise GraphonError(f"seed must be a non-negative integer, got {seed}")
        # feature rows of unequal width make np.array raise ValueError
        features = json_field([v["feature"] for v in records], "feature", "number", 2)
        features = np.array(features or np.zeros((0, graphon.feature_dim)), dtype=float)
        return ProcessTrace(graphon, float(json_field(payload["horizon"], "horizon", "number")), seed,
                            json_field(payload.get("keep_isolated", False), "keep_isolated", "boolean"),
                            json_field([v["birth"] for v in records], "birth", "number", 1), features,
                            json_field(payload["edges"], "edge endpoint", "integer", 2),
                            json_field(payload["sampler"], "sampler", "string") if "sampler" in payload else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphonError(f"malformed trace payload: {exc}") from exc


def save_trace_file(trace: ProcessTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_json(trace), fh)
        fh.write("\n")


def load_trace_file(path) -> ProcessTrace:
    return trace_from_json(read_json_file(path))
