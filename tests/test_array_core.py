"""The array-based graph and trace core against the set- and dict-based
implementations it replaced, which are kept here verbatim as oracles."""

import math

import numpy as np
import pytest

from graphonlab.graphon_core import CaronFoxGraphon, MixedMembershipGraphon, StepGraphon
from graphonlab.regularity import (
    clique_plus_isolated,
    cycle_graph,
    er_power_graph,
    perfect_matching,
    upper_regularity_statistic,
)
from graphonlab.sampling import SampledGraph, sample_graphon_process, snapshot_at, xi_box_counts

# ---------------------------------------------------------------------------
# Oracles: the replaced implementations
# ---------------------------------------------------------------------------


def oracle_degree_map(g):
    deg = dict.fromkeys(g.labels.tolist(), 0)
    for u, v in g.edges.tolist():
        deg[u] += 1
        deg[v] += 1
    return deg


def oracle_degree_sequence(g):
    deg = oracle_degree_map(g)
    return np.array([deg[lab] for lab in g.labels.tolist()], dtype=np.int64)


def oracle_induced(g, keep_labels):
    keep = set(int(k) for k in keep_labels)
    mask = np.array([lab in keep for lab in g.labels.tolist()], dtype=bool)
    if g.edges.size:
        emask = np.array([(u in keep and v in keep) for u, v in g.edges.tolist()], dtype=bool)
        edges = g.edges[emask]
    else:
        edges = g.edges
    return SampledGraph(
        g.labels[mask],
        edges,
        g.births[mask] if g.births is not None else None,
        g.features[mask] if g.features is not None else None,
    )


def oracle_drop_isolated(g):
    deg = oracle_degree_map(g)
    return oracle_induced(g, [lab for lab, d in deg.items() if d > 0])


def oracle_edge_creation_times(trace):
    birth = {v.label: v.birth for v in trace.vertices}
    return np.array([max(birth[u], birth[v]) for u, v in trace.edges.tolist()])


def oracle_snapshot_at(trace, s, keep_isolated=None):
    keep = trace.keep_isolated if keep_isolated is None else keep_isolated
    recs = [v for v in trace.vertices if v.birth <= s]
    labels = np.array([v.label for v in recs], dtype=np.int64)
    label_set = set(labels.tolist())
    edges = np.array(
        [e for e in trace.edges.tolist() if e[0] in label_set and e[1] in label_set],
        dtype=np.int64,
    ).reshape(-1, 2)
    width = max((len(v.feature) for v in recs), default=1)
    g = SampledGraph(
        labels,
        edges,
        births=np.array([v.birth for v in recs]),
        features=np.array([list(v.feature) + [0.0] * (width - len(v.feature)) for v in recs])
        if recs
        else np.zeros((0, width)),
    )
    return g if keep else oracle_drop_isolated(g)


def oracle_xi_box_counts(trace, h, horizon=None):
    horizon = trace.horizon if horizon is None else float(horizon)
    nbins = int(math.ceil(horizon / h - 1e-12))
    birth = {v.label: v.birth for v in trace.vertices}
    counts = np.zeros((nbins, nbins), dtype=np.int64)
    for u, v in trace.edges.tolist():
        bi = min(int(birth[u] / h), nbins - 1)
        bj = min(int(birth[v] / h), nbins - 1)
        counts[bi, bj] += 1
        counts[bj, bi] += 1
    return counts


def oracle_upper_regularity_statistic(g, partition_classes, k_value):
    n = g.num_vertices
    e = g.num_edges
    labels = np.sort(g.labels)
    pos = {lab: i for i, lab in enumerate(labels.tolist())}
    sizes = np.full(partition_classes, n // partition_classes)
    sizes[: n % partition_classes] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    class_of = np.empty(n, dtype=int)
    for c in range(partition_classes):
        class_of[bounds[c]:bounds[c + 1]] = c
    counts = np.zeros((partition_classes, partition_classes))
    for u, v in g.edge_list():
        cu, cv = class_of[pos[u]], class_of[pos[v]]
        counts[cu, cv] += 1
        counts[cv, cu] += 1
    norm = 2.0 * e / (n * n)
    cell_sizes = sizes.astype(float)
    avg = counts / np.outer(cell_sizes, cell_sizes) / norm
    cell_mass = np.outer(cell_sizes / n, cell_sizes / n)
    return float((avg * cell_mass)[avg >= k_value].sum())


def oracle_family_edges(name, n):
    if name == "clique_plus_isolated":
        m = int(math.floor(float(n) ** ((1.0 + 0.5) / 2.0)))
        return np.array([(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)], dtype=np.int64)
    if name == "perfect_matching":
        return np.array([(2 * i + 1, 2 * i + 2) for i in range(n)], dtype=np.int64)
    edges = np.array([(i, i % n + 1) for i in range(1, n + 1)], dtype=np.int64)
    return np.sort(edges, axis=1)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

_COMP = StepGraphon([1.0], [[0.5]])
_COMP2 = StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])
GRAPHONS = {
    "step": (StepGraphon([0.5, 1.0, 1.5], [[0.9, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.4]]), 9.0),
    "caron_fox": (CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=20.0), 8.0),
    "mixed": (MixedMembershipGraphon([[_COMP, _COMP2], [_COMP2, _COMP]], x_max=1.5), 30.0),
}


@pytest.fixture(scope="module", params=sorted(GRAPHONS))
def trace(request):
    w, horizon = GRAPHONS[request.param]
    t = sample_graphon_process(w, horizon, seed=5)
    assert t.num_edges > 10
    return t


def assert_same_graph(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.edges, want.edges)
    if want.births is None:
        assert got.births is None and got.features is None
    elif want.num_vertices:
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.features, want.features)
    else:
        # an empty snapshot keeps the trace's feature width; the old code said 1
        assert got.births.shape == (0,) and got.features.shape[0] == 0


def snapshot_times(trace):
    return [0.0, float(trace.births[trace.num_vertices // 2]), trace.horizon]


def unsorted_graph():
    return SampledGraph(np.array([9, 3, 12, 5, 1, 7]), np.array([[3, 9], [12, 1], [5, 3], [7, 12], [1, 9]]))


def example_graphs():
    yield unsorted_graph()
    yield er_power_graph(300, 0.5, seed=1)
    yield clique_plus_isolated(200, 0.5)
    yield cycle_graph(17)
    w, horizon = GRAPHONS["step"]
    yield snapshot_at(sample_graphon_process(w, horizon, seed=2), horizon)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


class TestTraceOracles:
    @pytest.mark.parametrize("keep_isolated", [False, True])
    def test_snapshot_at(self, trace, keep_isolated):
        for s in snapshot_times(trace):
            assert_same_graph(snapshot_at(trace, s, keep_isolated), oracle_snapshot_at(trace, s, keep_isolated))

    def test_edge_creation_times(self, trace):
        assert np.array_equal(trace.edge_creation_times(), oracle_edge_creation_times(trace))

    @pytest.mark.parametrize("bins", [2, 3, 7])
    def test_xi_box_counts(self, trace, bins):
        h = trace.horizon / bins
        assert np.array_equal(xi_box_counts(trace, h), oracle_xi_box_counts(trace, h))
        # a shorter grid folds later births into its last box
        assert np.array_equal(xi_box_counts(trace, h, trace.horizon - h / 2),
                              oracle_xi_box_counts(trace, h, trace.horizon - h / 2))

    def test_vertex_view(self, trace):
        recs = trace.vertices
        assert [v.label for v in recs] == list(range(1, trace.num_vertices + 1))
        assert np.array_equal([v.birth for v in recs], trace.births)
        assert np.array_equal([v.feature for v in recs], trace.features)


class TestGraphOracles:
    @pytest.mark.parametrize("g", list(example_graphs()), ids=lambda g: f"n{g.num_vertices}")
    def test_degrees_induced_and_drop_isolated(self, g):
        assert np.array_equal(g.degree_sequence(), oracle_degree_sequence(g))
        assert_same_graph(g.drop_isolated(), oracle_drop_isolated(g))
        keep = g.labels[::2].tolist() + [10_000]
        assert_same_graph(g.induced(keep), oracle_induced(g, keep))

    @pytest.mark.parametrize("g", list(example_graphs()), ids=lambda g: f"n{g.num_vertices}")
    def test_upper_regularity_statistic(self, g):
        n = g.num_vertices
        for classes in sorted({1, 2, 3, n // 2, n}):
            for k_value in (0.0, 1.0, 4.0):
                assert upper_regularity_statistic(g, classes, k_value) == \
                    oracle_upper_regularity_statistic(g, classes, k_value)

    @pytest.mark.parametrize("name, build, n", [
        ("clique_plus_isolated", lambda n: clique_plus_isolated(n, 0.5), 400),
        ("perfect_matching", perfect_matching, 9),
        ("cycle_graph", cycle_graph, 11),
    ])
    def test_graph_families(self, name, build, n):
        assert np.array_equal(build(n).edges, SampledGraph(build(n).labels, oracle_family_edges(name, n)).edges)
