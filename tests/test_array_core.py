"""The array-based graph and trace core against the set- and dict-based
implementations it replaced, which are kept here verbatim as oracles."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from graphonlab import sampling
from graphonlab.experiments import _sample_inhomogeneous_control, default_config, experiment_names, run_experiment
from graphonlab.graphon_core import (
    CaronFoxGraphon,
    GraphonError,
    InfiniteBlockGraphon,
    MixedMembershipGraphon,
    RegionIndicatorGraphon,
    StepGraphon,
)
from graphonlab.homomorphisms import count_embeddings, motif
from graphonlab.metrics import graph_graphon_distance_estimate
from graphonlab.regularity import (
    clique_plus_isolated,
    cycle_graph,
    er_power_graph,
    graph_degree_stats,
    graph_tail_profile,
    perfect_matching,
    upper_regularity_statistic,
)
from graphonlab.sampling import (
    ArrivalSchedule,
    ProcessTrace,
    SampledGraph,
    sample_dense_wrandom,
    sample_graphon_process,
    sample_sequential,
    snapshot_at,
    trace_from_json,
    trace_prefix,
    trace_to_json,
    xi_box_counts,
)

# ---------------------------------------------------------------------------
# Oracles: the replaced implementations
# ---------------------------------------------------------------------------


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


def oracle_edge_rows(g):
    return _label_rows(g.labels, g.edges)


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


def oracle_xi_box_counts(trace, h, s=None):
    """Box counts of the edges among vertices born by ``s`` (default: the horizon), on ``[0, s]``."""
    s = trace.horizon if s is None else float(s)
    nbins = int(math.ceil(s / h - 1e-12))
    birth = {v.label: v.birth for v in trace.vertices}
    counts = np.zeros((nbins, nbins), dtype=np.int64)
    for u, v in trace.edges.tolist():
        if max(birth[u], birth[v]) > s:
            continue
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
        # the path up to an earlier time is the trace cut there
        s = trace.horizon - h / 2
        assert np.array_equal(xi_box_counts(trace_prefix(trace, s), h), oracle_xi_box_counts(trace, h, s))

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


class TestEdgeRows:
    """``edge_rows()`` is stored on construction and carried through
    snapshots and subgraphs; the replaced lookup recomputes it from labels."""

    @staticmethod
    def assert_rows(g):
        rows = g.edge_rows()
        assert rows.shape == g.edges.shape
        assert np.array_equal(rows, oracle_edge_rows(g))
        assert not rows.flags.writeable

    @pytest.mark.parametrize("g", list(example_graphs()), ids=lambda g: f"n{g.num_vertices}")
    def test_graphs_and_subgraphs(self, g):
        self.assert_rows(g)
        self.assert_rows(g.drop_isolated())
        self.assert_rows(g.induced(g.labels[::2].tolist() + [10_000]))
        self.assert_rows(g.induced(g.labels[1::3].tolist()).drop_isolated())
        self.assert_rows(g.induced([]))

    @pytest.mark.parametrize("keep_isolated", [False, True])
    def test_snapshots(self, trace, keep_isolated):
        for s in snapshot_times(trace):
            self.assert_rows(snapshot_at(trace, s, keep_isolated))

    def test_sequential_checkpoints(self):
        w = StepGraphon([1.0, 2.0], [[0.6, 0.2], [0.2, 0.4]])
        graphs = sample_sequential(w, ArrivalSchedule("linear", 1.0), 300, seed=3, checkpoints=[1, 40, 257, 300])
        assert graphs[-1].num_edges > 100
        for g in graphs:
            self.assert_rows(g)
            self.assert_rows(g.drop_isolated())

    def test_read_only(self):
        g = unsorted_graph()
        with pytest.raises(ValueError):
            g.edge_rows()[0, 0] = 0
        assert np.array_equal(g.edge_rows(), oracle_edge_rows(g))

    def test_degree_sequence_does_not_copy_rows(self):
        # numpy's bincount copies a read-only input, as a trace's rows are: the degrees are counted
        # on construction, while the rows are writable, and every later call returns them
        trace = sample_graphon_process(StepGraphon([1.0], [[0.5]]), 450.0, seed=3)
        assert trace.num_edges > 40_000
        graphs = [er_power_graph(6000, 0.5, seed=2), trace]
        graphs += [g.drop_isolated() for g in graphs]
        # a cut takes the trace's other fields: its degrees must be its own
        graphs += [trace_prefix(trace, 200.0), trace_prefix(trace, 0.0), snapshot_at(trace, 200.0)]
        for g in graphs:
            tracemalloc.start()
            try:
                degrees = g.degree_sequence()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            ranks = np.searchsorted(g.labels, g.edges)
            assert np.array_equal(degrees, np.bincount(ranks.ravel(), minlength=g.num_vertices))
            assert peak < 1024
            assert not degrees.flags.writeable

    @pytest.mark.parametrize("labels, edges, message", [
        ([4, 2, 4], [], "vertex labels must be unique"),
        ([1, 2, 2, 4], [], "vertex labels must be unique"),
        ([1, 2, 1], [[1, 1]], "vertex labels must be unique"),
        ([1, 2, 3], [[2, 3], [3, 3]], "self-loops are not allowed"),
        ([], [[1, 1]], "self-loops are not allowed"),
        ([5, 1, 3], [[1, 3], [3, 4], [9, 5]], r"edge \(3, 4\) references an unknown vertex"),
        ([5, 1, 3], [[1, 3], [0, 1]], r"edge \(0, 1\) references an unknown vertex"),
        ([5, 1, 3], [[1, 3], [5, 6]], r"edge \(5, 6\) references an unknown vertex"),
        ([], [[1, 2], [3, 4]], r"edge \(1, 2\) references an unknown vertex"),
        ([5, 1, 3], [[1, 5], [3, 1], [5, 1]], "duplicate edges are not allowed"),
        ([5, 1, 3], [[3, 4], [1, 5], [5, 1]], r"edge \(3, 4\) references an unknown vertex"),
    ], ids=["duplicate_labels", "duplicate_labels_spanning_n", "duplicate_labels_first", "self_loop",
            "self_loop_first", "unknown", "unknown_below", "unknown_above", "edge_on_empty_labels", "duplicate_both_orders", "unknown_first"])
    def test_rejects(self, labels, edges, message):
        with pytest.raises(GraphonError, match=f"^{message}$"):
            SampledGraph(np.array(labels, dtype=np.int64), np.array(edges, dtype=np.int64))


class TestConsecutiveLabels:
    """Labels ``b..b+n-1`` are read as rows without a search, and canonical
    edges are not sorted; the searched path for any other label set, kept for
    them, is the oracle."""

    @staticmethod
    def edge_forms(n, base, form, rng):
        """Random edges on labels ``base..base+n-1`` as one input form."""
        pairs = np.column_stack(np.triu_indices(n, 1)).astype(np.int64)
        edges = base + pairs[rng.random(len(pairs)) < 0.3]
        if form == "reversed":
            flip = rng.random(len(edges)) < 0.5
            edges[flip] = edges[flip, ::-1]
        elif form == "shuffled":
            edges = rng.permutation(edges)
        elif form == "none":
            edges = edges[:0]
        return edges

    @staticmethod
    def shuffled(labels):
        """The labels out of order; from 4 labels on the ends stay, so their span is n - 1."""
        return np.concatenate([labels[:1], labels[-2:0:-1], labels[-1:]]) if labels.size >= 4 else labels[::-1]

    @pytest.mark.parametrize("form", ["sorted", "reversed", "shuffled", "none"])
    def test_equals_searched_path(self, form):
        rng = np.random.default_rng(len(form))
        for n in (0, 1, 2, 9, 40):
            for base in (1, -7, 0, 10**12):
                labels = base + np.arange(n, dtype=np.int64)
                edges = self.edge_forms(n, base, form, rng)
                g = SampledGraph(labels, edges)
                # the same labels shuffled, and the same graph on labels with gaps
                s = SampledGraph(self.shuffled(labels), edges)
                gapped = SampledGraph(base + 3 * (labels - base), base + 3 * (edges - base))
                assert np.array_equal(s.edges, g.edges)
                assert np.array_equal(s.labels[s.edge_rows()], g.labels[g.edge_rows()])
                assert np.array_equal(s.degree_sequence()[np.argsort(s.labels)], g.degree_sequence())
                assert np.array_equal(gapped.edges, base + 3 * (g.edges - base))
                assert np.array_equal(gapped.edge_rows(), g.edge_rows())
                assert np.array_equal(gapped.degree_sequence(), g.degree_sequence())

    @pytest.mark.parametrize("bad", [
        [[3, 3]],
        [[0, 2], [2, 7]],
        [[2, 7], [0, 2]],
        [[1, -(2**62)]],
        [[1, 2**62]],
        [[2, 3], [7, 7], [0, 9]],
        [[5, 6], [5, 6]],
        [[1, 2], [1, 2]],
        [[1, 2], [2, 1]],
        [[4, 5], [2, 3], [5, 4]],
    ], ids=["self_loop", "below_first", "above_first", "far_below", "far_above", "self_loop_first",
            "duplicate_sorted", "duplicate", "duplicate_reversed", "duplicate_unsorted"])
    def test_rejects_as_searched_path(self, bad):
        labels = np.arange(1, 7, dtype=np.int64)
        edges = np.concatenate([[[1, 3], [4, 6]], bad]).astype(np.int64)
        messages = []
        for ls in (labels, labels[::-1]):
            with pytest.raises(GraphonError) as err:
                SampledGraph(ls, edges)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        if "unknown" in messages[0]:
            first = next(e for e in edges.tolist() if not set(e) <= set(labels.tolist()))
            assert messages[0] == f"edge ({first[0]}, {first[1]}) references an unknown vertex"

    def test_leaves_the_callers_edges_alone(self):
        # canonical edges, which skip the key sort, and edges that need it
        for edges in (perfect_matching(50).edges.copy(), np.array([[4, 9], [1, 2], [2, 3]], dtype=np.int64)):
            given = edges.copy()
            n = int(edges.max())
            g = SampledGraph(np.arange(1, n + 1), edges)
            t = ProcessTrace(StepGraphon([1.0], [[0.5]]), 1.0, 0, True, np.zeros(n), np.zeros((n, 1)), edges)
            for out in (g.edges, g.edge_rows(), t.edges):
                assert not np.shares_memory(out, edges)
            assert edges.flags.writeable and np.array_equal(edges, given)
            # the degrees are counted before the private rows are made read-only (see
            # test_degree_sequence_does_not_copy_rows); then no array can be written
            assert not g._rows.flags.writeable
        lab = np.arange(1, 4)
        g = SampledGraph(lab, [[1, 2], [2, 3]])
        lab[:] = [7, 8, 9]
        assert g.labels.tolist() == [1, 2, 3] and g.edge_list() == [(1, 2), (2, 3)]

    def test_consecutive_labels_need_no_sort_or_search(self, monkeypatch):
        # a later change must not bring back the O(|E| log |V|) construction for the package's graphs
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in ("argsort", "searchsorted", "sort"):
                    return attr

                def counted(*args, **kwargs):
                    calls.append(name)
                    return attr(*args, **kwargs)
                return counted

        monkeypatch.setattr(sampling, "np", CountingNumpy())
        er_power_graph(3000, 0.5, seed=4)
        perfect_matching(500)
        assert calls == []
        SampledGraph(np.arange(1, 4), np.array([[2, 3], [1, 2]]))  # consecutive labels, unsorted edges
        assert calls == ["sort"]
        SampledGraph(np.array([3, 1, 2]), np.array([[1, 2], [2, 3]]))
        assert set(calls) == {"argsort", "searchsorted", "sort"}


class TestConstructionPaths:
    """Every graph ends in one finishing step, which makes its arrays read-only;
    the package's own graphs never pass through the validating constructors."""

    @staticmethod
    def package_graphs():
        """One graph or trace from every path of the package that builds one."""
        for name in ("step", "caron_fox", "mixed"):
            trace = sample_graphon_process(*GRAPHONS[name], seed=2)
            yield from (trace, trace_prefix(trace, trace.horizon / 2), snapshot_at(trace, trace.horizon / 2),
                        snapshot_at(trace, trace.horizon / 2, keep_isolated=True), trace.induced([1, 3, 5]),
                        trace.drop_isolated())
        yield _sample_inhomogeneous_control(9.5, 1, 0.9, 0.1)
        yield from (er_power_graph(300, 0.5, seed=1), clique_plus_isolated(200, 0.5), perfect_matching(30),
                    cycle_graph(17))
        yield sample_dense_wrandom(GRAPHONS["step"][0], 300, seed=1)
        yield from sample_sequential(StepGraphon([1.0, 2.0], [[0.6, 0.2], [0.2, 0.4]]),
                                     ArrivalSchedule("linear", 1.0), 300, seed=3, checkpoints=[1, 257, 300])

    def test_every_array_is_read_only(self):
        g = SampledGraph(np.array([9, 3, 12, 5]), np.array([[3, 9], [12, 5], [5, 3]]), np.arange(4.0), np.ones((4, 2)))
        trace = sample_graphon_process(*GRAPHONS["step"], seed=2)
        given = [g, g.induced([3, 5, 9]), g.drop_isolated(), trace_from_json(trace_to_json(trace))]
        for built in given + list(self.package_graphs()):
            arrays = {name: a for name, a in vars(built).items() if isinstance(a, np.ndarray)}
            assert {"labels", "_rows", "_degrees"} <= arrays.keys() and "edges" not in arrays
            arrays["edges"] = built.edges  # derived from the rows on each access, and read-only too
            assert ("births" in arrays) == ("features" in arrays) == (built.births is not None)
            for name, a in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
                assert not a.flags.writeable, name
            # the write that was once accepted and left edge_rows() and degree_sequence() stale
            if built.num_edges:
                with pytest.raises(ValueError, match="read-only"):
                    built.edges[0] = [1, 3]

    def test_package_graphs_run_no_validating_constructor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a validating constructor ran")

        monkeypatch.setattr(SampledGraph, "__post_init__", refuse)
        monkeypatch.setattr(ProcessTrace, "__init__", refuse)
        with pytest.raises(AssertionError, match="validating constructor"):
            SampledGraph(np.arange(1, 3), [[1, 2]])
        with pytest.raises(AssertionError, match="validating constructor"):
            ProcessTrace(StepGraphon([1.0], [[0.5]]), 1.0, 0, True, [0.5], [[0.5]], [])
        assert sum(g.num_edges for g in self.package_graphs()) > 1000

    def test_package_code_never_builds_edges(self, monkeypatch):
        """A graph stores its rows only, and every computation of the package reads them: the
        label pairs ``edges`` are built only by the two writers of label pairs."""
        derive = SampledGraph.edges.fget

        def guarded(g):
            caller = sys._getframe(1).f_code.co_name
            if caller not in ("edge_list", "trace_to_json"):
                raise AssertionError(f"{caller} built edges")
            return derive(g)

        monkeypatch.setattr(SampledGraph, "edges", property(guarded))
        with pytest.raises(AssertionError, match="test_package_code_never_builds_edges built edges"):
            cycle_graph(5).edges
        graphs = list(self.package_graphs())
        w, horizon = GRAPHONS["step"]
        trace = sample_graphon_process(w, horizon, seed=2)
        assert sorted(trace.edge_list()) == [tuple(e) for e in trace_to_json(trace)["edges"]]
        xi_box_counts(trace, 1.0)
        trace.edge_creation_times()
        graph_graphon_distance_estimate(trace, w)
        for g in graphs:
            g.group_edge_counts(np.arange(g.num_vertices) % 3, 3)
            count_embeddings(motif("triangle"), g)
            if g.num_edges:
                graph_tail_profile(g, [0.5, 2.0])
                graph_degree_stats(g, [0.5])
        assert all(run_experiment(default_config(name, seed=0)).passed for name in experiment_names())

    @pytest.mark.parametrize("births, features, message", [
        (np.zeros(2), None, r"births must be one per vertex, got shape \(2,\) for 3 labels"),
        (np.zeros((3, 1)), None, r"births must be one per vertex, got shape \(3, 1\) for 3 labels"),
        (None, np.zeros((5, 1)), r"features must be one row per vertex, got shape \(5, 1\) for 3 labels"),
        (None, np.zeros(3), r"features must be one row per vertex, got shape \(3,\) for 3 labels"),
    ], ids=["short_births", "births_2d", "long_features", "features_1d"])
    def test_rejects_vertex_arrays_of_another_size(self, births, features, message):
        with pytest.raises(GraphonError, match=f"^{message}$"):
            SampledGraph(np.arange(1, 4), [[1, 2]], births=births, features=features)

    def test_copies_the_callers_vertex_arrays(self):
        births, features = np.arange(3.0), np.ones((3, 2))
        g = SampledGraph(np.arange(1, 4), [[1, 2]], births, features)
        births[:] = 7.0
        features[:] = 7.0
        assert g.births.tolist() == [0.0, 1.0, 2.0] and g.features.tolist() == [[1.0, 1.0]] * 3

    def test_graphs_compare_by_identity(self):
        g, h = cycle_graph(5), cycle_graph(5)
        assert g == g and g != h
        assert g in [h, g] and h not in [g]
        assert len({g, h, g}) == 2
        trace = sample_graphon_process(*GRAPHONS["step"], seed=1)
        cut = trace_prefix(trace, trace.horizon)
        assert trace == trace and cut != trace and len({trace, cut}) == 2


class TestArrivalOrder:
    """Every graph stores its edges in arrival order, the order the samplers draw
    them in: rows ``u < v`` with strictly increasing keys ``v n + u``.  So the
    edges among the first k vertices are a prefix, and a cut is a slice."""

    @staticmethod
    def assert_arrival_order(g):
        ranks = np.searchsorted(np.sort(g.labels), g.edges)  # the rows, when the labels ascend
        key = ranks[:, 1] * g.num_vertices + ranks[:, 0]
        assert np.all(ranks[:, 0] < ranks[:, 1]) and np.all(key[1:] > key[:-1])

    @staticmethod
    def graphs_by_path():
        """Graphs from every path that builds one, each named for its path."""
        blocks = InfiniteBlockGraphon([(0.0, 1.0), (1.5, 3.0)], [[0.8, 0.3], [0.3, 0.6]])
        processes = {"step": GRAPHONS["step"], "caron_fox": (GRAPHONS["caron_fox"][0], 24.0),
                     "mixed": GRAPHONS["mixed"], "region_indicator": (RegionIndicatorGraphon(0.5, x_max=4.0), 12.0),
                     "infinite_block": (blocks, 6.0)}
        for name, (w, horizon) in processes.items():
            trace = sample_graphon_process(w, horizon, seed=2)
            yield name, trace
            yield f"{name}_prefix", trace_prefix(trace, horizon / 2)
            yield f"{name}_snapshot", snapshot_at(trace, horizon / 2)
            yield f"{name}_induced", trace.induced(trace.drop_isolated().labels[1:])
            yield f"{name}_drop_isolated", trace.drop_isolated()
        yield "control", _sample_inhomogeneous_control(9.5, 1, 0.9, 0.1)
        step = StepGraphon([1.0, 2.0], [[0.6, 0.2], [0.2, 0.4]])
        for name, w, c in (("sequential", step, 1.0), ("sequential_caron_fox", GRAPHONS["caron_fox"][0], 0.5)):
            for g in sample_sequential(w, ArrivalSchedule("linear", c), 300, seed=3, checkpoints=[40, 257, 300]):
                yield f"{name}_{g.num_vertices}", g
        yield "dense", sample_dense_wrandom(GRAPHONS["step"][0], 300, seed=1)
        yield from (("er_power_graph", er_power_graph(300, 0.5, seed=1)), ("clique", clique_plus_isolated(200, 0.5)),
                    ("matching", perfect_matching(30)), ("cycle", cycle_graph(17)))
        cycle = cycle_graph(40)
        edges = np.random.default_rng(0).permutation(cycle.edges)
        yield "constructor_shuffled", SampledGraph(cycle.labels, edges)
        labels = np.random.default_rng(1).permutation(cycle.labels) + 100
        yield "constructor_shuffled_labels", SampledGraph(labels, labels[edges - 1])

    def test_every_path_stores_arrival_order(self):
        for name, g in self.graphs_by_path():
            assert g.num_edges > 2, name
            self.assert_arrival_order(g)

    def test_cycle_rows(self):
        assert cycle_graph(5).edge_list() == [(1, 2), (2, 3), (3, 4), (1, 5), (4, 5)]

    def test_edge_creation_times_ascend(self, trace):
        times = trace.edge_creation_times()
        assert times.size and np.all(np.diff(times) >= 0)

    def test_prefix_cuts_are_views(self, trace):
        s = float(trace.births[trace.num_vertices // 2])
        step = StepGraphon([1.0, 2.0], [[0.6, 0.2], [0.2, 0.4]])
        *checkpoints, full = sample_sequential(step, ArrivalSchedule("linear", 1.0), 300, seed=3,
                                               checkpoints=[40, 257, 300])
        cuts = [(trace_prefix(trace, s), trace), (snapshot_at(trace, s, keep_isolated=True), trace)]
        for cut, whole in cuts + [(g, full) for g in checkpoints]:
            assert cut.num_edges > 0
            assert np.shares_memory(cut.edge_rows(), whole.edge_rows())
            assert np.shares_memory(cut.births, whole.births) and np.shares_memory(cut.features, whole.features)

    def test_every_step_checkpoints_hold_one_edge_array(self):
        # 500 every-step checkpoints peaked at 77.3 MiB of traced allocation while each held
        # its own copy of its prefix's edges
        w = StepGraphon([1.0], [[0.6]], ambient_infinite=True)

        def run():
            return sample_sequential(w, ArrivalSchedule("linear", 0.01), 500, seed=0)

        run()  # first calls allocate module state that later calls reuse
        tracemalloc.start()
        try:
            graphs = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graphs[-1].num_edges > 10_000
        assert peak <= 8 * 2 ** 20
        assert all(np.shares_memory(g.edge_rows(), graphs[-1].edge_rows()) for g in graphs if g.num_edges)
