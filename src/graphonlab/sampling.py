"""Random graph models driven by a graphon.

The main generator grows a graph process: vertices arrive by a Poisson
point process on time x feature space and every unordered pair is joined
independently with the kernel probability of the endpoint features.  All
randomness flows through addressed substreams (see ``_rng``), which makes
traces bit-reproducible and extendable in the horizon without
re-randomizing history: vertices are drawn per unit time window and edge
coins per arrival-rank row, so a longer horizon only appends draws.

A trace is stored as arrays: ``births`` (N,), ``features`` (N, d) and
sorted label pairs ``edges`` (E, 2) with ``u < v``.  Labels are implicit,
1..N in birth order, so the graph at time ``s`` is the label prefix
``1..k`` with ``k = searchsorted(births, s, "right")``: it keeps the edges
with ``v <= k``, and an edge is created at ``births[v - 1]``.
:func:`trace_from_json` rejects labels other than 1..N, births that
decrease or leave ``[0, horizon]``, edges with ``u >= v``, unknown
endpoints or duplicates, and feature rows of unequal width.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import (
    TAG_EDGE_ROW,
    TAG_SEQ_EDGE,
    TAG_SEQ_FEATURE,
    TAG_WINDOW,
    TAG_WRANDOM,
    substream,
)
from .graphon_core import (
    AnalyticGraphon,
    GraphonError,
    MixedMembershipGraphon,
    StepGraphon,
    evaluate,
    graphon_to_spec,
    load_graphon_spec,
)

__all__ = [
    "VertexRecord",
    "ProcessTrace",
    "SampledGraph",
    "ArrivalSchedule",
    "sample_graphon_process",
    "snapshot_at",
    "sample_sequential",
    "sample_dense_wrandom",
    "xi_box_counts",
    "trace_to_json",
    "trace_from_json",
    "save_trace_file",
    "load_trace_file",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class VertexRecord:
    """One sampled vertex: appearance-order label, birth time, feature."""

    label: int
    birth: float
    feature: tuple[float, ...]


@dataclass(frozen=True)
class SampledGraph:
    """A simple undirected labeled graph with optional sampling metadata."""

    labels: np.ndarray
    edges: np.ndarray
    births: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if labels.size != np.unique(labels).size:
            raise GraphonError("vertex labels must be unique")
        if edges.size:
            if np.any(edges[:, 0] == edges[:, 1]):
                raise GraphonError("self-loops are not allowed")
            rows = _label_rows(labels, edges)
            unknown = np.flatnonzero((rows < 0).any(axis=1))
            if unknown.size:
                u, v = edges[unknown[0]].tolist()
                raise GraphonError(f"edge ({u}, {v}) references an unknown vertex")
            # one integer key per edge, lexicographic in the label order of (min, max)
            n = labels.size
            rank = np.argsort(np.argsort(labels, kind="stable"))[rows]
            key = np.sort(np.minimum(rank[:, 0], rank[:, 1]) * n + np.maximum(rank[:, 0], rank[:, 1]))
            if np.any(key[1:] == key[:-1]):
                raise GraphonError("duplicate edges are not allowed")
            edges = np.sort(labels)[np.column_stack(np.divmod(key, n))]
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)

    # -- derived statistics ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def edge_density(self) -> float:
        """rho(G) = 2 |E| / |V|^2 (0 for the empty graph)."""
        n = self.num_vertices
        return 2.0 * self.num_edges / (n * n) if n else 0.0

    def edge_rows(self) -> np.ndarray:
        """Edges as ``(E, 2)`` row positions in ``labels`` instead of labels."""
        return _label_rows(self.labels, self.edges)

    def degree_sequence(self) -> np.ndarray:
        """Degrees aligned with ``labels``."""
        return np.bincount(self.edge_rows().ravel(), minlength=self.num_vertices)

    def edge_list(self):
        return [tuple(e) for e in self.edges.tolist()]

    def induced(self, keep_labels) -> "SampledGraph":
        """Subgraph induced on the vertices whose labels are in ``keep_labels``."""
        return self._restrict(np.isin(self.labels, np.fromiter(keep_labels, dtype=np.int64)))

    def drop_isolated(self) -> "SampledGraph":
        return self._restrict(self.degree_sequence() > 0)

    def _restrict(self, keep: np.ndarray) -> "SampledGraph":
        """Subgraph induced on the vertices whose rows are set in the mask ``keep``."""
        return SampledGraph(
            self.labels[keep],
            self.edges[keep[self.edge_rows()].all(axis=1)],
            self.births[keep] if self.births is not None else None,
            self.features[keep] if self.features is not None else None,
        )


@dataclass(frozen=True)
class ProcessTrace:
    """Full projective history of one graphon process run.

    Vertex ``i`` was born at ``births[i - 1]`` with feature row
    ``features[i - 1]``; ``edges`` are sorted label pairs ``u < v`` (see
    the module docstring).  The arrays are validated, sorted and made
    read-only on construction.
    """

    graphon: object
    horizon: float
    seed: int
    keep_isolated: bool
    births: np.ndarray
    features: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        births = np.array(self.births, dtype=float).reshape(-1)
        features = np.array(self.features, dtype=float)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        n = births.size
        if n and not (np.all(np.diff(births) >= 0) and 0.0 <= births[0] and births[-1] <= self.horizon):
            raise GraphonError(f"births must be nondecreasing within [0, {self.horizon}]")
        if features.ndim != 2 or features.shape[0] != n:
            raise GraphonError(f"features must be one row per vertex, got shape {features.shape} for {n} births")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise GraphonError("trace edges must be label pairs (u, v) with u < v")
        edges = SampledGraph(np.arange(1, n + 1), edges).edges  # rejects unknown labels and duplicates; sorts
        for name, arr in (("births", births), ("features", features), ("edges", edges)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vertices(self) -> int:
        return int(self.births.size)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def vertices(self) -> tuple[VertexRecord, ...]:
        """Per-vertex records, built from the arrays on each access."""
        births, features = self.births.tolist(), self.features.tolist()
        return tuple(VertexRecord(i + 1, births[i], tuple(features[i])) for i in range(len(births)))

    def edge_creation_times(self) -> np.ndarray:
        return self.births[self.edges[:, 1] - 1]


def _label_rows(labels: np.ndarray, query) -> np.ndarray:
    """Row of each label of ``query`` in ``labels`` (same shape); -1 where absent."""
    query = np.asarray(query, dtype=np.int64)
    if labels.size == 0:
        return np.full(query.shape, -1, dtype=np.intp)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    # searched column by column: the first column of sorted edges is sorted, which searchsorted exploits
    ranks = np.minimum(np.searchsorted(ordered, query.T).T, labels.size - 1)
    return np.where(ordered[ranks] == query, order[ranks], -1)


def _arrival_edges(hits: np.ndarray, v: int) -> np.ndarray:
    """Edges ``(u, v)`` joining arrival ``v`` to the 0-based earlier rows ``hits``."""
    return np.column_stack((hits + 1, np.full(hits.size, v, dtype=np.int64)))


# ---------------------------------------------------------------------------
# Graphon process sampling
# ---------------------------------------------------------------------------


def _sampling_region(w) -> float:
    """Mass of the materialized sampling region (explicit blocks / truncation)."""
    if isinstance(w, StepGraphon):
        return w.total_mass
    if isinstance(w, AnalyticGraphon):
        return w.region_mass()
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def _check_probability_kernel(w) -> None:
    if isinstance(w, StepGraphon) and not w.is_probability_kernel():
        raise GraphonError("sampling requires a [0,1]-valued kernel")


def _feature_dim(w) -> int:
    return w.feature_dim if isinstance(w, AnalyticGraphon) else 1


def _draw_features(w, count: int, rng: np.random.Generator) -> np.ndarray:
    """iid features from the normalized region measure, as (count, dim) array."""
    if count == 0:
        return np.zeros((0, _feature_dim(w)))
    if isinstance(w, StepGraphon):
        return rng.uniform(0.0, w.total_mass, size=(count, 1))
    return np.asarray(w.sample_features(count, rng), dtype=float).reshape(count, -1)


def _pair_probabilities(w, prior: np.ndarray, new_feature: np.ndarray) -> np.ndarray:
    if prior.shape[1] == 1:
        return np.atleast_1d(evaluate(w, prior[:, 0], new_feature[0]))
    return np.atleast_1d(evaluate(w, prior, new_feature[None, :]))


def sample_graphon_process(w, horizon: float, seed: int, keep_isolated: bool = False) -> ProcessTrace:
    """Sample one graphon-process trace up to the horizon.

    Vertices arrive as a Poisson process with intensity (time) x (region
    measure); every unordered pair is connected independently with the
    kernel probability of its features.  ``keep_isolated`` controls the
    default snapshot view only -- the trace always records every vertex of
    the truncated region, so both process variants are recoverable.
    Rejected: infinite-mass ambient space with ``keep_isolated=True`` (the
    process would have infinitely many isolated vertices at every time).
    """
    if horizon < 0:
        raise GraphonError("horizon must be non-negative")
    _check_probability_kernel(w)
    if keep_isolated and isinstance(w, StepGraphon) and w.ambient_infinite:
        raise GraphonError(
            "keep_isolated=True on an infinite-mass ambient space: the process has "
            "infinitely many isolated vertices; truncate to the explicit blocks first"
        )
    mass = _sampling_region(w)

    births = [np.zeros(0)]
    feats = [np.zeros((0, _feature_dim(w)))]
    if mass > 0:
        for k in range(int(math.ceil(horizon))):
            rng = substream(seed, TAG_WINDOW, k)
            count = int(rng.poisson(mass))
            window_births = rng.uniform(float(k), float(k + 1), size=count)
            window_feats = _draw_features(w, count, rng)
            keep = window_births <= horizon
            births.append(window_births[keep])
            feats.append(window_feats[keep])
    order = np.argsort(np.concatenate(births), kind="stable")
    births = np.concatenate(births)[order]
    features = np.concatenate(feats)[order]
    if np.any(births[1:] == births[:-1]):
        logger.info("birth-time tie broken by draw order (seed=%s horizon=%s)", seed, horizon)

    edges = [np.zeros((0, 2), dtype=np.int64)]
    for v in range(2, births.size + 1):
        rng = substream(seed, TAG_EDGE_ROW, v)
        coins = rng.random(v - 1)
        probs = _pair_probabilities(w, features[: v - 1], features[v - 1])
        edges.append(_arrival_edges(np.flatnonzero(coins < probs), v))
    return ProcessTrace(w, float(horizon), int(seed), bool(keep_isolated), births, features, np.concatenate(edges))


def snapshot_at(trace: ProcessTrace, s: float, keep_isolated: bool | None = None) -> SampledGraph:
    """Induced subgraph on vertices born at time ``s`` or earlier.

    That is the label prefix ``1..k`` with ``k = searchsorted(births, s,
    "right")`` and the edges ``(u, v)`` with ``v <= k``.  With
    ``keep_isolated=False`` (the trace default unless overridden) vertices
    of degree zero in the snapshot are removed, giving the finite-graph
    view of the process.
    """
    if s < 0 or s > trace.horizon:
        raise GraphonError(f"snapshot time {s} outside the sampled horizon [0, {trace.horizon}]")
    keep = trace.keep_isolated if keep_isolated is None else keep_isolated
    k = int(np.searchsorted(trace.births, s, side="right"))
    g = SampledGraph(
        np.arange(1, k + 1, dtype=np.int64),
        trace.edges[trace.edges[:, 1] <= k],
        births=trace.births[:k],
        features=trace.features[:k],
    )
    return g if keep else g.drop_isolated()


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

    def bound(self, n: int) -> float:
        if self.family == "linear":
            return self.c * n
        if self.family == "exponential":
            return self.c * float(2.0 ** min(n, 1020))
        if self.family == "constant":
            return self.c
        raise GraphonError(f"unknown schedule family {self.family!r}")


def sample_sequential(w, schedule: ArrivalSchedule, steps: int, seed: int,
                      checkpoints: Sequence[int] | None = None) -> list[SampledGraph]:
    """One-vertex-per-step arrivals with features from renormalized prefixes.

    At step ``n`` the new feature is uniform on ``S_n`` (intersected with
    the finite block support unless the ambient space is infinite), and
    edges to all earlier vertices are drawn independently from the kernel.
    Returns the graph at every checkpoint (default: every step); each graph
    is an induced subgraph of the next.
    """
    if isinstance(w, MixedMembershipGraphon):
        raise GraphonError("sequential arrivals need a scalar feature space")
    _check_probability_kernel(w)
    if steps < 1:
        raise GraphonError("steps must be at least 1")
    marks = sorted(set(int(c) for c in (checkpoints if checkpoints is not None else range(1, steps + 1))))
    if any(c < 1 or c > steps for c in marks):
        raise GraphonError("checkpoints must lie in [1, steps]")

    if isinstance(w, StepGraphon):
        support_cap = math.inf if w.ambient_infinite else w.total_mass
    else:
        support_cap = math.inf  # scalar analytic families live on all of R_+
    features = np.zeros((steps, 1))
    graphs: list[SampledGraph] = []
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for n in range(1, steps + 1):
        s_n = min(schedule.bound(n), support_cap)
        if not (s_n > 0):
            raise GraphonError(f"schedule gives a zero-mass prefix at step {n}")
        rng = substream(seed, TAG_SEQ_FEATURE, n)
        x = rng.uniform(0.0, s_n)
        features[n - 1, 0] = x
        if n > 1:
            probs = np.atleast_1d(evaluate(w, features[: n - 1, 0], x))
            if np.any(probs > 0):
                coins = substream(seed, TAG_SEQ_EDGE, n).random(n - 1)
                edges.append(_arrival_edges(np.flatnonzero(coins < probs), n))
        if n in marks:
            graphs.append(
                SampledGraph(
                    np.arange(1, n + 1, dtype=np.int64),
                    np.concatenate(edges),
                    births=np.arange(1, n + 1, dtype=float),
                    features=features[:n].copy(),
                )
            )
    return graphs


# ---------------------------------------------------------------------------
# Dense W-random graphs
# ---------------------------------------------------------------------------


def sample_dense_wrandom(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Classical W-random graph: n iid features from the normalized measure."""
    if not isinstance(w, StepGraphon):
        raise GraphonError("dense W-random sampling needs a step graphon")
    if w.ambient_infinite:
        raise GraphonError("space has infinite total mass; truncate to the explicit blocks first")
    _check_probability_kernel(w)
    if n < 0:
        raise GraphonError("vertex count must be non-negative")
    rng = substream(seed, TAG_WRANDOM, 0)
    feats = rng.uniform(0.0, w.total_mass, size=n)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for v in range(2, n + 1):
        coins = substream(seed, TAG_WRANDOM, v).random(v - 1)
        probs = np.atleast_1d(evaluate(w, feats[: v - 1], feats[v - 1]))
        edges.append(_arrival_edges(np.flatnonzero(coins < probs), v))
    return SampledGraph(
        np.arange(1, n + 1, dtype=np.int64),
        np.concatenate(edges),
        births=np.arange(1, n + 1, dtype=float),
        features=feats.reshape(-1, 1),
    )


# ---------------------------------------------------------------------------
# Edge birth-pair measure
# ---------------------------------------------------------------------------


def xi_box_counts(trace: ProcessTrace, h: float, horizon: float | None = None) -> np.ndarray:
    """Symmetric box counts of the edge birth-pair point measure.

    Entry ``(i, j)`` counts ordered endpoint-birth pairs ``(t_u, t_v)`` with
    ``t_u`` in the i-th and ``t_v`` in the j-th interval of width ``h``;
    every edge contributes both orders, so the matrix sums to ``2 |E|``
    whenever the grid covers the horizon.
    """
    horizon = trace.horizon if horizon is None else float(horizon)
    if not (0 < h <= horizon):
        raise GraphonError("grid width must satisfy 0 < h <= horizon")
    nbins = int(math.ceil(horizon / h - 1e-12))
    box = np.minimum((trace.births / h).astype(np.int64), nbins - 1)[trace.edges - 1]
    counts = np.bincount(box[:, 0] * nbins + box[:, 1], minlength=nbins * nbins).reshape(nbins, nbins)
    return counts + counts.T


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def trace_to_json(trace: ProcessTrace) -> dict:
    return {
        "spec": graphon_to_spec(trace.graphon),
        "horizon": trace.horizon,
        "seed": trace.seed,
        "keep_isolated": trace.keep_isolated,
        "vertices": [
            {"label": v.label, "birth": v.birth, "feature": list(v.feature)} for v in trace.vertices
        ],
        "edges": [[int(u), int(v)] for u, v in trace.edges.tolist()],
    }


def trace_from_json(payload: dict) -> ProcessTrace:
    """Trace from its JSON form; malformed payloads raise :class:`GraphonError`."""
    try:
        graphon = load_graphon_spec(payload["spec"])
        records = payload["vertices"]
        if [int(v["label"]) for v in records] != list(range(1, len(records) + 1)):
            raise GraphonError(f"vertex labels must be 1..{len(records)} in birth order")
        # feature rows of unequal width make np.array raise ValueError
        features = np.array([v["feature"] for v in records] or np.zeros((0, _feature_dim(graphon))), dtype=float)
        edges = np.array(payload["edges"], dtype=np.int64).reshape(-1, 2)
        return ProcessTrace(
            graphon,
            float(payload["horizon"]),
            int(payload["seed"]),
            bool(payload.get("keep_isolated", False)),
            [float(v["birth"]) for v in records],
            features,
            edges,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphonError(f"malformed trace payload: {exc}") from exc


def save_trace_file(trace: ProcessTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_json(trace), fh)
        fh.write("\n")


def load_trace_file(path) -> ProcessTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_json(json.load(fh))
