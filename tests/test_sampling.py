"""Graphon process generation: determinism, projectivity, count laws."""

import hashlib
import json
import math

import numpy as np
import pytest

from graphonlab.graphon_core import (
    CaronFoxGraphon,
    GraphonError,
    MixedMembershipGraphon,
    StepGraphon,
    constant_graphon,
)
from graphonlab.sampling import (
    ArrivalSchedule,
    SampledGraph,
    load_trace_file,
    sample_dense_wrandom,
    sample_graphon_process,
    sample_sequential,
    save_trace_file,
    snapshot_at,
    trace_from_json,
    trace_to_json,
    xi_box_counts,
)

ONES = constant_graphon(1.0)
ZERO_KERNEL = StepGraphon([1.0], [[0.0]])


def trace_fingerprint(trace):
    return (
        tuple((v.label, v.birth, v.feature) for v in trace.vertices),
        tuple(map(tuple, trace.edges.tolist())),
    )


class TestSampledGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphonError, match="self-loop"):
            SampledGraph(np.array([1, 2]), np.array([[1, 1]]))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphonError, match="duplicate"):
            SampledGraph(np.array([1, 2]), np.array([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("labels, edges, match", [
        ([1, 2], [[1, 3]], "unknown"),
        ([1, 2, 1], [[1, 2]], "unique"),
        ([1, 2, 3], [[2, 3], [1, 2], [2, 3]], "duplicate"),
    ], ids=["unknown_endpoint", "duplicate_labels", "exact_duplicate_edge"])
    def test_rejects_malformed(self, labels, edges, match):
        with pytest.raises(GraphonError, match=match):
            SampledGraph(np.array(labels), np.array(edges))

    def test_density_definition(self):
        g = SampledGraph(np.array([1, 2, 3]), np.array([[1, 2]]))
        assert g.edge_density == pytest.approx(2.0 / 9.0)

    def test_drop_isolated(self):
        g = SampledGraph(np.array([1, 2, 3]), np.array([[1, 2]]))
        assert set(g.drop_isolated().labels.tolist()) == {1, 2}


class TestGraphonProcess:
    def test_determinism(self):
        a = sample_graphon_process(ONES, 12.0, seed=7)
        b = sample_graphon_process(ONES, 12.0, seed=7)
        assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_different_seeds_differ(self):
        a = sample_graphon_process(ONES, 12.0, seed=7)
        b = sample_graphon_process(ONES, 12.0, seed=8)
        assert trace_fingerprint(a) != trace_fingerprint(b)

    def test_horizon_extension_preserves_history(self):
        short = sample_graphon_process(ONES, 6.5, seed=3)
        long = sample_graphon_process(ONES, 13.0, seed=3)
        early = [v for v in long.vertices if v.birth <= 6.5]
        assert [(v.birth, v.feature) for v in short.vertices] == [
            (v.birth, v.feature) for v in early
        ]
        short_edges = set(map(tuple, short.edges.tolist()))
        long_snapshot = snapshot_at(long, 6.5, keep_isolated=True)
        assert short_edges == set(map(tuple, long_snapshot.edges.tolist()))

    def test_zero_kernel_gives_isolated_poisson_cloud(self):
        counts = []
        for seed in range(120):
            trace = sample_graphon_process(ZERO_KERNEL, 9.0, seed=seed, keep_isolated=True)
            assert trace.num_edges == 0
            counts.append(trace.num_vertices)
        mean = np.mean(counts)
        # Poisson(9) mean within 4 sigma of the sample mean
        assert abs(mean - 9.0) <= 4 * math.sqrt(9.0 / len(counts))

    def test_probability_one_kernel_is_complete(self):
        trace = sample_graphon_process(ONES, 30.0, seed=5)
        g = snapshot_at(trace, 30.0, keep_isolated=True)
        n = g.num_vertices
        assert g.num_edges == n * (n - 1) // 2

    def test_edge_count_law(self):
        # 2|E|/T^2 concentrates on ||W||_1 = 1 (Monte Carlo oracle).
        # Per-replica sd of N(N-1)/T^2 is sqrt(4 T^3 + 2 T^2)/T^2 ~ 0.37.
        t = 30.0
        reps = 200
        ratios = [
            2 * sample_graphon_process(ONES, t, seed=s).num_edges / t**2 for s in range(reps)
        ]
        sigma = math.sqrt(4 * t**3 + 2 * t**2) / t**2 / math.sqrt(reps)
        assert abs(np.mean(ratios) - 1.0) < 3 * sigma

    def test_window_counts_independent_means(self):
        # disjoint unit windows have Poisson(m) counts; check the mean at 4 sigma
        per_window = []
        for seed in range(100):
            trace = sample_graphon_process(ZERO_KERNEL, 5.0, seed=seed, keep_isolated=True)
            births = np.array([v.birth for v in trace.vertices])
            per_window.extend(np.histogram(births, bins=np.arange(6.0))[0].tolist())
        mean = np.mean(per_window)
        assert abs(mean - 1.0) <= 4 / math.sqrt(len(per_window))

    def test_infinite_ambient_with_isolated_rejected(self):
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        with pytest.raises(GraphonError, match="infinite"):
            sample_graphon_process(w, 5.0, seed=0, keep_isolated=True)

    def test_sampling_needs_probability_kernel(self):
        w = StepGraphon([1.0], [[1.5]])
        with pytest.raises(GraphonError, match="0,1"):
            sample_graphon_process(w, 5.0, seed=0)

    def test_analytic_family_sampling(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=5.0)
        trace = sample_graphon_process(w, 8.0, seed=11, keep_isolated=True)
        mean_expected = 8.0 * 5.0
        assert trace.num_vertices > 0
        assert abs(trace.num_vertices - mean_expected) < 5 * math.sqrt(mean_expected)
        for v in trace.vertices:
            assert 0.0 <= v.feature[0] <= 5.0

    def test_edges_join_born_vertices(self):
        w = StepGraphon([1.0, 1.0], [[0.8, 0.3], [0.3, 0.2]])
        trace = sample_graphon_process(w, 12.0, seed=6)
        birth = {v.label: v.birth for v in trace.vertices}
        for u, v in trace.edges.tolist():
            assert birth[u] <= 12.0 and birth[v] <= 12.0
            assert u != v

    def test_mixed_membership_features_flattened(self):
        comp = StepGraphon([1.0], [[0.5]])
        w = MixedMembershipGraphon([[comp, comp], [comp, comp]], x_max=1.0)
        trace = sample_graphon_process(w, 5.0, seed=2, keep_isolated=True)
        v = trace.vertices[0]
        assert len(v.feature) == 3  # two simplex weights plus the scalar feature
        assert v.feature[0] + v.feature[1] == pytest.approx(1.0)


class TestSnapshots:
    def test_snapshot_zero_is_empty(self):
        trace = sample_graphon_process(ONES, 10.0, seed=1)
        g = snapshot_at(trace, 0.0, keep_isolated=True)
        assert g.num_vertices == 0

    def test_snapshot_at_horizon_is_full(self):
        trace = sample_graphon_process(ONES, 10.0, seed=1, keep_isolated=True)
        g = snapshot_at(trace, 10.0)
        assert g.num_vertices == trace.num_vertices
        assert g.num_edges == trace.num_edges

    def test_future_rejected(self):
        trace = sample_graphon_process(ONES, 10.0, seed=1)
        with pytest.raises(GraphonError, match="horizon"):
            snapshot_at(trace, 10.5)

    def test_projectivity(self):
        w = StepGraphon([1.0, 1.0], [[0.9, 0.4], [0.4, 0.1]])
        trace = sample_graphon_process(w, 15.0, seed=9)
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1, s2 = np.sort(rng.uniform(0, 15.0, size=2))
            g1 = snapshot_at(trace, s1, keep_isolated=True)
            g2 = snapshot_at(trace, s2, keep_isolated=True)
            assert set(g1.labels.tolist()) <= set(g2.labels.tolist())
            induced = g2.induced(g1.labels.tolist())
            assert set(map(tuple, induced.edges.tolist())) == set(map(tuple, g1.edges.tolist()))

    def test_isolated_vertices_dropped_by_default(self):
        w = StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
        trace = sample_graphon_process(w, 15.0, seed=4, keep_isolated=False)
        g = snapshot_at(trace, 15.0)
        degrees = g.degree_sequence()
        assert g.num_vertices == 0 or degrees.min() >= 1
        g_full = snapshot_at(trace, 15.0, keep_isolated=True)
        assert g_full.num_vertices >= g.num_vertices


class TestSequentialModel:
    def test_zero_kernel_edgeless(self):
        graphs = sample_sequential(ZERO_KERNEL, ArrivalSchedule("linear", 1.0), 20, seed=0)
        assert all(g.num_edges == 0 for g in graphs)
        assert [g.num_vertices for g in graphs] == list(range(1, 21))

    def test_projective_prefixes(self):
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        graphs = sample_sequential(w, ArrivalSchedule("linear", 1.0), 30, seed=5)
        for g1, g2 in zip(graphs, graphs[1:]):
            induced = g2.induced(g1.labels.tolist())
            assert set(map(tuple, induced.edges.tolist())) == set(map(tuple, g1.edges.tolist()))

    def test_support_hit_probability(self):
        # vertex n lands in [0,1] with probability 1/n under S_n = [0, n]
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        n_probe, reps = 5, 4000
        hits = 0
        for seed in range(reps):
            graphs = sample_sequential(w, ArrivalSchedule("linear", 1.0), n_probe, seed=seed,
                                       checkpoints=[n_probe])
            if graphs[0].features[n_probe - 1, 0] <= 1.0:
                hits += 1
        p = 1.0 / n_probe
        sigma = math.sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) <= 3.5 * sigma

    def test_exponential_schedule_starves(self):
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        sizes = []
        for seed in range(40):
            graphs = sample_sequential(w, ArrivalSchedule("exponential", 1.0), 60, seed=seed,
                                       checkpoints=[30, 60])
            sizes.append(graphs[1].num_edges - graphs[0].num_edges)
        # beyond step ~30 the support is essentially never hit again
        assert np.mean(sizes) < 0.2

    def test_determinism(self):
        w = StepGraphon([1.0], [[0.7]], ambient_infinite=True)
        a = sample_sequential(w, ArrivalSchedule("linear", 2.0), 25, seed=3)
        b = sample_sequential(w, ArrivalSchedule("linear", 2.0), 25, seed=3)
        assert np.array_equal(a[-1].edges, b[-1].edges)
        assert np.array_equal(a[-1].features, b[-1].features)

    def test_bad_schedule_rejected(self):
        with pytest.raises(GraphonError, match="zero-mass"):
            sample_sequential(ONES, ArrivalSchedule("constant", 0.0), 5, seed=0)


class TestDenseWRandom:
    def test_all_ones_gives_complete_graph(self):
        g = sample_dense_wrandom(ONES, 5, seed=0)
        assert g.num_edges == 10

    def test_zero_kernel_gives_empty(self):
        g = sample_dense_wrandom(ZERO_KERNEL, 5, seed=0)
        assert g.num_vertices == 5 and g.num_edges == 0

    def test_binomial_edge_count(self):
        w = constant_graphon(0.5)
        counts = [sample_dense_wrandom(w, 100, seed=s).num_edges for s in range(200)]
        mean = np.mean(counts)
        sigma = math.sqrt(4950 * 0.25 / len(counts))
        assert abs(mean - 2475.0) <= 3 * sigma

    def test_infinite_ambient_rejected(self):
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        with pytest.raises(GraphonError, match="truncate"):
            sample_dense_wrandom(w, 5, seed=0)


class TestXiBoxCounts:
    def test_edgeless_zero_matrix(self):
        trace = sample_graphon_process(ZERO_KERNEL, 10.0, seed=0, keep_isolated=True)
        counts = xi_box_counts(trace, 2.0)
        assert counts.shape == (5, 5)
        assert counts.sum() == 0

    def test_single_edge_placement(self):
        from graphonlab.sampling import ProcessTrace

        trace = ProcessTrace(ONES, 2.0, 0, True, [0.2, 1.7], [[0.1], [0.4]], np.array([[1, 2]]))
        counts = xi_box_counts(trace, 1.0)
        assert counts[0, 1] == 1 and counts[1, 0] == 1
        assert counts.sum() == 2

    def test_sum_identity(self):
        for seed in range(10):
            trace = sample_graphon_process(ONES, 12.0, seed=seed)
            counts = xi_box_counts(trace, 3.0)
            assert counts.sum() == 2 * trace.num_edges
            assert np.array_equal(counts, counts.T)

    def test_single_box_matches_edge_law(self):
        t = 20.0
        totals = [xi_box_counts(sample_graphon_process(ONES, t, seed=s), t).sum() for s in range(60)]
        assert abs(np.mean(totals) - t * t) / (t * t) < 0.05

    def test_bad_grid_rejected(self):
        trace = sample_graphon_process(ONES, 5.0, seed=1)
        with pytest.raises(GraphonError):
            xi_box_counts(trace, 6.0)


def _small_payload():
    w = StepGraphon([1.0, 1.0], [[0.9, 0.4], [0.4, 0.1]])
    payload = json.loads(json.dumps(trace_to_json(sample_graphon_process(w, 4.0, seed=3))))
    assert len(payload["vertices"]) >= 4 and len(payload["edges"]) >= 2
    return payload


def _relabel(p):
    p["vertices"][0]["label"] = 0


def _swap_births(p):
    first, second = p["vertices"][0], p["vertices"][1]
    first["birth"], second["birth"] = second["birth"], first["birth"]


def _birth_past_horizon(p):
    p["vertices"][-1]["birth"] = p["horizon"] + 0.5


def _reversed_edge(p):
    p["edges"][0] = p["edges"][0][::-1]


def _unknown_label(p):
    p["edges"][-1] = [1, len(p["vertices"]) + 1]


def _duplicate_edge(p):
    p["edges"].append(p["edges"][0])


def _ragged_features(p):
    p["vertices"][1]["feature"] = p["vertices"][1]["feature"] + [0.5]


class TestTraceSerialization:
    def test_roundtrip(self):
        trace = sample_graphon_process(ONES, 8.0, seed=2)
        payload = json.loads(json.dumps(trace_to_json(trace)))
        again = trace_from_json(payload)
        assert trace_fingerprint(again) == trace_fingerprint(trace)
        assert again.horizon == trace.horizon and again.seed == trace.seed

    def test_file_bytes_unchanged(self, tmp_path):
        # SHA-256 digests of files written by the record-based trace layout
        comp = StepGraphon([1.0], [[0.5]])
        comp2 = StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])
        cases = [
            (StepGraphon([0.5, 1.0, 1.5], [[0.9, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.4]]), 9.0, 4,
             "edf812170884cb6ff660c463501a9fa848ba30f7ab51014f1e08cd8556e449c0"),
            (MixedMembershipGraphon([[comp, comp2], [comp2, comp]], x_max=1.5), 30.0, 11,
             "eb7fe92a3965cca99501cf32ab1b64419c62b98634e27051592363433556dd4a"),
        ]
        for w, horizon, seed, digest in cases:
            path = tmp_path / "trace.json"
            save_trace_file(sample_graphon_process(w, horizon, seed), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            again = tmp_path / "again.json"
            save_trace_file(load_trace_file(path), again)
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("corrupt, match", [
        (_relabel, "labels must be 1"),
        (_swap_births, "nondecreasing"),
        (_birth_past_horizon, "nondecreasing within"),
        (_reversed_edge, "u < v"),
        (_unknown_label, "unknown vertex"),
        (_duplicate_edge, "duplicate"),
        (_ragged_features, "malformed"),
    ], ids=["labels", "decreasing_births", "birth_past_horizon", "reversed_edge", "unknown_label",
            "duplicate_edge", "ragged_features"])
    def test_rejects_malformed_payload(self, corrupt, match):
        payload = _small_payload()
        trace_from_json(payload)
        corrupt(payload)
        with pytest.raises(GraphonError, match=match):
            trace_from_json(payload)
