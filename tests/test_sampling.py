"""Graphon process generation: determinism, projectivity, count laws."""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from graphonlab.experiments import _sample_inhomogeneous_control
from graphonlab.graphon_core import (
    CaronFoxGraphon,
    GraphonError,
    MixedMembershipGraphon,
    StepGraphon,
    constant_graphon,
    evaluate,
    graphon_to_spec,
)
from graphonlab.regularity import er_power_graph
from graphonlab.sampling import (
    ArrivalSchedule,
    _proportional_draw,
    SampledGraph,
    load_trace_file,
    sample_dense_wrandom,
    sample_graphon_process,
    sample_sequential,
    save_trace_file,
    snapshot_at,
    trace_prefix,
    trace_from_json,
    trace_to_json,
    xi_box_counts,
)

from digests import graph_digest

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

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_horizon_must_be_finite_and_non_negative(self, horizon):
        with pytest.raises(GraphonError, match="horizon must be finite and non-negative"):
            sample_graphon_process(ONES, horizon, seed=0)

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
        for cut in (snapshot_at, trace_prefix):
            for s in (-0.5, 10.5, math.nan):
                with pytest.raises(GraphonError, match="horizon"):
                    cut(trace, s)

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

    def test_non_scalar_features_and_non_graphons_rejected(self):
        comp = StepGraphon([1.0], [[0.5]])
        with pytest.raises(GraphonError, match="scalar feature space"):
            sample_sequential(MixedMembershipGraphon([[comp]], x_max=1.0), ArrivalSchedule("linear", 1.0), 5, seed=0)
        for sample in (lambda w: sample_sequential(w, ArrivalSchedule("linear", 1.0), 5, seed=0),
                       lambda w: sample_graphon_process(w, 3.0, seed=0)):
            with pytest.raises(GraphonError, match="^not a graphon"):
                sample({"type": "step"})


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


def _edge_without_vertices(p):
    p.update(vertices=[], edges=[[1, 2]])


def _empty_with_horizon(horizon):
    # json reads the tokens NaN and Infinity as these floats
    def corrupt(p):
        p.update(vertices=[], edges=[], horizon=horizon)
    return corrupt


def _with(key, value):
    # a hand-edited field, which the loader must reject rather than coerce
    def corrupt(p):
        (p["vertices"][0] if key == "label" else p)[key] = value
    return corrupt


def _edit(*path, value):
    # one hand-edited entry of an array or of the payload, which the loader must reject rather than coerce
    def corrupt(p):
        for key in path[:-1]:
            p = p[key]
        p[path[-1]] = value
    return corrupt


class TestTraceSerialization:
    def test_roundtrip(self):
        trace = sample_graphon_process(ONES, 8.0, seed=2)
        payload = json.loads(json.dumps(trace_to_json(trace)))
        again = trace_from_json(payload)
        assert trace_fingerprint(again) == trace_fingerprint(trace)
        assert again.horizon == trace.horizon and again.seed == trace.seed

    def test_file_bytes_unchanged(self, tmp_path):
        # SHA-256 digests of files written under the window-v1 stream layout; they pin the
        # sampler's random streams by design and change whenever that layout does
        comp = StepGraphon([1.0], [[0.5]])
        comp2 = StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])
        cases = [
            (StepGraphon([0.5, 1.0, 1.5], [[0.9, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.4]]), 9.0, 4,
             "a8940f1de3a06cd1ccdda28e3ba981cb3ccc92349c3445572df3299c360b5c65"),
            (MixedMembershipGraphon([[comp, comp2], [comp2, comp]], x_max=1.5), 30.0, 11,
             "2095a8bf3aeb9d96b0e4c9fbfed2bf56ebf38463074df22fdb1558d7f719bc40"),
        ]
        for w, horizon, seed, digest in cases:
            path = tmp_path / "trace.json"
            save_trace_file(sample_graphon_process(w, horizon, seed), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            again = tmp_path / "again.json"
            save_trace_file(load_trace_file(path), again)
            assert again.read_bytes() == path.read_bytes()

    def test_other_sampler_bytes_unchanged(self, tmp_path):
        # SHA-256 digests of the sequential, dense and control samplers, taken before their edge
        # loop decided 0/1 pairs without coins; graphs hash their arrays' little-endian bytes
        # (labels, edges, births, features).  The control's births and edges are hashed the same
        # way, as they were while its trace recorded a constant graphon; its trace file, which
        # records the control-v1 layout and its kernel, was re-recorded when it did
        ambient_one = StepGraphon([1.0], [[1.0]], ambient_infinite=True)  # the sequential_dichotomy kernel
        for family, expected in (
            ("linear", "d9d9d441ca460ff2f9ef21ca4fd7582ca7c025e5f27338a2db55643ab63517d2"),
            ("exponential", "a40b211420f9185581f11d436dab3dcc286218a9e52e66a76e8e6955309d873d"),
        ):
            graphs = sample_sequential(ambient_one, ArrivalSchedule(family, 1.0), 600, 5, checkpoints=[100, 600])
            assert graph_digest(graphs) == expected, family
        dense = sample_dense_wrandom(StepGraphon([1.0, 2.0], [[0.9, 0.3], [0.3, 0.1]]), 600, 2)
        assert graph_digest([dense]) == "c56bdf84653169d01febfee21ef34805ca356bcddefa98d1dfcb24498bb701b7"
        control = _sample_inhomogeneous_control(40.0, 3, 0.9, 0.1)
        assert graph_digest([control], ("births", "edges")) == (
            "3031ae86eb4b2ff2eef139fdc6374fdf159ade670f25ea55d666aab7827276f8")
        path = tmp_path / "control.json"
        save_trace_file(control, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9d2c624d30e0bf467678ec01a2fd2d20b1ca7d7f7e2037adfa5385033e6922b8")

    def test_control_round_trip_records_its_kernel(self):
        # the control trace names the process that drew it: the two-block kernel on births,
        # the births as the points that kernel reads, and a layout of its own
        t, p_early, p_late = 9.5, 0.9, 0.1
        trace = _sample_inhomogeneous_control(t, 2, p_early, p_late)
        payload = trace_to_json(trace)
        assert payload["spec"] == {"type": "step", "masses": [t / 2, t / 2 + 1.0],
                                   "values": [[p_early, p_late], [p_late, p_late]], "ambient_infinite": False}
        assert payload["sampler"] == "control-v1"
        again = trace_from_json(json.loads(json.dumps(payload)))
        assert graphon_to_spec(again.graphon) == payload["spec"]
        assert np.array_equal(again.features[:, 0], trace.births)
        assert np.array_equal(again.edges, trace.edges) and np.array_equal(again.births, trace.births)
        assert (again.horizon, again.seed, again.keep_isolated, again.sampler) == (t, 2, True, "control-v1")
        # the recorded kernel at the recorded features is the control's edge probability
        x = again.features[:, 0]
        early = x < t / 2
        assert np.array_equal(evaluate(again.graphon, x[:, None], x[None, :]),
                              np.where(early[:, None] & early[None, :], p_early, p_late))

    def test_er_power_graph_bytes_unchanged(self):
        # SHA-256 digests of the edges' little-endian bytes: at n = 2000 taken while every graph
        # sorted its labels, searched its endpoints and sorted its edge keys, at the benchmark's
        # sizes (0.50M, 0.83M and 1.41M edges) while the graph went through the validating constructor.
        # The decode walks the pairs in arrival order, which renames label i of the row-major draw
        # to n + 1 - i; the digests hash the edges renamed back, in the (u, v) order they were taken in
        for n, seed, expected in (
            (2000, 0, "5700c736da2e16cf1cc0210377e0ced7bd7b56fe8f613763c327136ca97b875f"),
            (2000, 1, "0f58bfad1aa1ee8113b92e452cfd148554774504d52f65dd0c6bc591ef87600e"),
            (10_000, 0, "2c7be9b1d184764083ff139681db557dd31a9fd5c34d5e3d6d2e03774acea6d6"),
            (14_000, 1, "f63082a7b2646dfe08435f9d7de36ade565ab52a0d27db1c4efba454d30c34e8"),
            (20_000, 2, "a0363c16d5e2e9ce92534d51cef6d1147b9c27e13128ca87c22518d460cdd6f6"),
        ):
            edges = er_power_graph(n, 0.5, seed).edges
            back = SimpleNamespace(edges=(n + 1 - edges[:, ::-1])[::-1])
            assert graph_digest([back], ("edges",)) == expected, (n, seed)

    def test_caron_fox_trace_bytes_unchanged(self):
        # SHA-256 digests of the edges, births and features, taken while each window's
        # endpoints were drawn with Generator.choice
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=199.0)
        for seed, expected in (
            (0, "c06b24c5d12a8bf8935df2d3ef1b3152494d96060e29f0bb2952348f7be57090"),
            (1, "29b302be304925dd2711a1f9e80e8812cea1cbe67cb9c9bbbfce51757c639ce4"),
        ):
            trace = sample_graphon_process(w, 25.0, seed)
            assert graph_digest([trace], ("edges", "births", "features")) == expected, seed

    @pytest.mark.parametrize("weights, count", [
        (np.array([0.0, 2.5, 0.0, 0.0, 1e-3, 7.0, 0.0]), 50),
        (np.array([3.0]), 4),
        (np.array([1.0, 0.0]), 0),
        (np.random.default_rng(5).pareto(1.5, 3000), 1000),
    ], ids=["zeros", "one_weight", "no_draws", "heavy_tail"])
    def test_proportional_draw_equals_choice(self, weights, count):
        # the same indices and the same generator state after the call, so the next draw agrees too
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        got = _proportional_draw(weights, weights.sum(), count, ours)
        if count:
            expected = theirs.choice(weights.size, size=count, p=weights / weights.sum())
        else:
            expected = np.zeros(0, dtype=np.int64)
        assert got.dtype == expected.dtype == np.int64
        assert np.array_equal(got, expected)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("corrupt, match", [
        (_relabel, "labels must be 1"),
        (_swap_births, "nondecreasing"),
        (_birth_past_horizon, "nondecreasing within"),
        (_reversed_edge, "u < v"),
        (_unknown_label, "unknown vertex"),
        (_duplicate_edge, "duplicate"),
        (_ragged_features, "malformed"),
        (_edge_without_vertices, r"edge \(1, 2\) references an unknown vertex"),
        (_empty_with_horizon(math.nan), "horizon must be finite and non-negative"),
        (_empty_with_horizon(-3.0), "horizon must be finite and non-negative"),
        (_empty_with_horizon(math.inf), "horizon must be finite and non-negative"),
        (_with("keep_isolated", "false"), ": keep_isolated must be true or false, got 'false'$"),
        (_with("seed", 2.7), ": seed must be a non-negative integer, got 2.7$"),
        (_with("seed", True), ": seed must be a non-negative integer, got True$"),
        (_with("seed", -3), ": seed must be a non-negative integer, got -3$"),
        (_with("label", 1.5), ": label must be an integer, got 1.5$"),
        (_with("horizon", "3"), ": horizon must be a number, got '3'$"),
    ], ids=["labels", "decreasing_births", "birth_past_horizon", "reversed_edge", "unknown_label",
            "duplicate_edge", "ragged_features", "edge_without_vertices", "nan_horizon", "negative_horizon",
            "infinite_horizon", "keep_isolated_string", "seed_fraction", "seed_bool", "seed_negative",
            "label_fraction", "horizon_string"])
    def test_rejects_malformed_payload(self, corrupt, match):
        payload = _small_payload()
        trace_from_json(payload)
        corrupt(payload)
        with pytest.raises(GraphonError, match=match):
            trace_from_json(payload)

    @pytest.mark.parametrize("corrupt, match", [
        (_edit("edges", 0, 0, value=2.7), ": edge endpoint must be an integer, got 2.7$"),
        (_edit("edges", 0, 0, value=True), ": edge endpoint must be an integer, got True$"),
        (_edit("vertices", 2, "birth", value="0.5"), ": birth must be a number, got '0.5'$"),
        (_edit("vertices", 1, "feature", value=["0.5"]), ": feature must be a number, got '0.5'$"),
        (_edit("sampler", value=5), ": sampler must be a string, got 5$"),
    ], ids=["endpoint_fraction", "endpoint_bool", "birth_string", "feature_string", "sampler_number"])
    def test_rejects_mistyped_arrays(self, corrupt, match):
        """Edge endpoints, births, features and the layout name are checked, not cast."""
        payload = _small_payload()
        corrupt(payload)
        with pytest.raises(GraphonError, match="^malformed trace payload" + match):
            trace_from_json(payload)
