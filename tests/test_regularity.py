"""Tail profiles, the uniform-tail search, and degree statistics."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from graphonlab import regularity
from graphonlab.graphon_core import CostLimitError, GraphonError
from graphonlab.regularity import (
    _decode_upper_triangle,
    clique_plus_isolated,
    cycle_graph,
    default_m_grid,
    er_power_graph,
    graph_degree_stats,
    graph_tail_profile,
    perfect_matching,
    required_m,
    sequence_tail_regularity,
    upper_regularity_statistic,
)
from graphonlab.sampling import SampledGraph


def float_decode_upper_triangle(linear, n):
    """Oracle: the decode by a float square root per index, with a guard for rows off by one."""
    pairs = np.empty((linear.size, 2), dtype=np.int64)
    i = pairs[:, 0]
    b = 2 * n - 1
    i[:] = np.floor((b - np.sqrt(b * b - 8.0 * linear)) / 2.0)
    i[i * (b - i) // 2 > linear] -= 1
    pairs[:, 1] = linear - i * (b - i) // 2 + i + 2
    i += 1
    return pairs


def mirrored(pairs, top):
    """``pairs`` with each end x renamed ``top - x``, in reverse order: the ER decode's
    mirroring of the row-major pairs undone (``top`` is n - 1 on rows, n + 1 on labels)."""
    return (top - pairs[:, ::-1])[::-1]


def complete_graph(n):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SampledGraph(np.arange(1, n + 1), np.array(edges))


def star_graph(leaves):
    edges = [(1, i) for i in range(2, leaves + 2)]
    return SampledGraph(np.arange(1, leaves + 2), np.array(edges))


def assert_constructed_alike(g):
    """A family graph, built on its canonical rows without the constructor's checks,
    equals the validating constructor's graph on its labels and edges: the same
    values, dtypes, shapes, writeable flags and layout in every array."""
    want = SampledGraph(g.labels, g.edges)
    assert np.array_equal(g.edge_rows(), want.edge_rows())
    assert np.array_equal(g.degree_sequence(), want.degree_sequence())
    for name in ("labels", "edges", "_rows", "_degrees"):
        got, expected = getattr(g, name), getattr(want, name)
        assert got.dtype == expected.dtype == np.int64 and got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
        assert got.flags.writeable == expected.flags.writeable, name
        assert got.flags.c_contiguous and expected.flags.c_contiguous, name
    assert g.births is None and g.features is None


class TestTailProfile:
    def test_clique_saturates_at_sqrt2(self):
        g = complete_graph(40)
        prof = graph_tail_profile(g, [1.5])
        assert prof.shares[0] == pytest.approx(2.0)

    def test_star_hub_carries_everything(self):
        k = 16
        g = star_graph(k)
        m = 1.0 / math.sqrt(2 * k)
        prof = graph_tail_profile(g, [m])
        # prefix of one vertex (the hub) has degree k = |E|
        assert prof.shares[0] == pytest.approx(1.0)

    def test_matching_prefix_share_vanishes(self):
        for m in (64, 256):
            g = perfect_matching(m)
            prof = graph_tail_profile(g, [1.0])
            assert prof.shares[0] == pytest.approx(math.ceil(math.sqrt(m)) / m)

    def test_share_nondecreasing_reaches_two(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = er_power_graph(200, 0.8, seed=seed)
            ms = np.sort(rng.uniform(0.05, 50.0, size=12))
            prof = graph_tail_profile(g, ms)
            assert np.all(np.diff(prof.shares) >= -1e-12)
            assert prof.shares.max() <= 2.0 + 1e-12
            big = graph_tail_profile(g, [100.0])
            assert big.shares[0] == pytest.approx(2.0)

    def test_isolated_vertices_do_not_change_profile(self):
        g = complete_graph(12)
        padded = SampledGraph(np.arange(1, 30), g.edges)
        ms = [0.3, 1.0, 2.0]
        assert np.allclose(graph_tail_profile(g, ms).shares, graph_tail_profile(padded, ms).shares)

    def test_shares_equal_the_label_tie_break_order(self):
        """The shares read only the sorted degree values, so the old (-degree, label) order gives them too."""
        relabelled = SampledGraph(np.array([7, 3, 9, 1, 4]), np.array([[7, 3], [7, 9], [1, 4], [3, 9]]))
        ms = np.array([0.1, 0.5, 1.0, 3.0])
        for g in [er_power_graph(300, 0.6, seed=s) for s in range(3)] + [star_graph(9), relabelled]:
            degs = g.degree_sequence()
            cum = np.concatenate([[0], np.cumsum(degs[np.lexsort((g.labels, -degs))])])
            ks = np.minimum(np.ceil(ms * math.sqrt(g.num_edges)).astype(int), degs.size)
            assert np.array_equal(graph_tail_profile(g, ms).shares, cum[ks] / g.num_edges)

    def test_empty_graph_rejected(self):
        g = SampledGraph(np.array([1]), np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(GraphonError, match="edge"):
            graph_tail_profile(g, [1.0])


class TestSequenceTailRegularity:
    def test_cliques_bounded_m(self):
        graphs = [complete_graph(n) for n in (20, 60, 120)]
        res = sequence_tail_regularity(graphs, eps=0.1)
        assert res.ok
        assert res.m >= math.sqrt(2) * 0.99
        # same grid point regardless of clique size
        solo = sequence_tail_regularity([complete_graph(200)], eps=0.1)
        assert solo.m == res.m

    def test_monotone_in_eps(self):
        graphs = [er_power_graph(300, 0.6, seed=s) for s in range(3)]
        m_loose = sequence_tail_regularity(graphs, eps=1.0).m
        m_tight = sequence_tail_regularity(graphs, eps=0.2).m
        assert m_tight >= m_loose

    def test_er_required_m_grows(self):
        m_small = required_m(er_power_graph(1000, 0.5, seed=1), eps=0.1)
        m_large = required_m(er_power_graph(10_000, 0.5, seed=1), eps=0.1)
        assert m_large >= 1.5 * m_small

    def test_failure_witness(self):
        graphs = [perfect_matching(4000), complete_graph(30)]
        res = sequence_tail_regularity(graphs, eps=0.1, m_grid=default_m_grid(hi=2.0))
        assert not res.ok
        assert res.witness_index == 0
        assert res.witness_profile is not None

    def test_matchings_need_growing_m(self):
        # bounded average degree with growing |E|: required M grows ~ sqrt(m)
        m1 = required_m(perfect_matching(256), eps=0.5)
        m2 = required_m(perfect_matching(1024), eps=0.5)
        assert m2 >= 1.4 * m1

    def test_eps_range_validated(self):
        with pytest.raises(GraphonError):
            sequence_tail_regularity([complete_graph(4)], eps=2.5)


class TestDegreeStats:
    def test_clique_normalized_count(self):
        m = 50
        g = complete_graph(m)
        avg, counts = graph_degree_stats(g, [0.5])
        assert avg == pytest.approx(m - 1)
        assert counts[0] == pytest.approx(m / math.sqrt(m * (m - 1)), abs=1e-12)

    def test_threshold_excludes(self):
        g = star_graph(9)  # hub degree 9, leaves degree 1, |E| = 9
        scale = math.sqrt(18.0)
        _, counts = graph_degree_stats(g, [1.0, 3.0])
        assert counts[0] == pytest.approx(1 / scale)  # only the hub exceeds sqrt(2|E|)
        assert counts[1] == 0.0


class TestUpperRegularityStatistic:
    def test_clique_single_class(self):
        g = complete_graph(25)
        assert upper_regularity_statistic(g, 1, 1.0) == pytest.approx(1.0)
        assert upper_regularity_statistic(g, 1, 1.0 + 1e-9) == 0.0

    def test_er_mass_spreads_thin(self):
        g = er_power_graph(2000, 0.5, seed=3)
        assert upper_regularity_statistic(g, 10, 4.0) == pytest.approx(0.0)

    def test_dense_clique_block_concentrates(self):
        # clique on sqrt-size block: the rescaled kernel piles up mass
        g = clique_plus_isolated(400, 0.5)
        stat = upper_regularity_statistic(g, 20, 4.0)
        assert stat > 0.5

    def test_class_count_validated(self):
        g = complete_graph(5)
        with pytest.raises(GraphonError):
            upper_regularity_statistic(g, 6, 1.0)


class TestGraphFamilies:
    def test_er_edge_count_scale(self):
        n = 2000
        g = er_power_graph(n, 0.5, seed=0)
        expect = 0.5 * n * (n - 1) * n ** (-0.5)
        assert abs(g.num_edges - expect) <= 5 * math.sqrt(expect)

    def test_er_determinism(self):
        a = er_power_graph(500, 0.5, seed=9)
        b = er_power_graph(500, 0.5, seed=9)
        assert np.array_equal(a.edges, b.edges)

    def test_er_decode_valid_pairs(self):
        g = er_power_graph(300, 0.7, seed=2)
        assert g.edges[:, 0].min() >= 1
        assert g.edges[:, 1].max() <= 300
        assert np.all(g.edges[:, 0] < g.edges[:, 1])

    def test_er_decode_matches_triangle_indices(self):
        for n in (2, 3, 7, 64):
            linear = np.arange(n * (n - 1) // 2)
            assert np.array_equal(mirrored(_decode_upper_triangle(linear, n), n - 1),
                                  np.column_stack(np.triu_indices(n, 1)))
        # a large triangle, both ends included, in strictly increasing indices as er_power_graph draws
        # them: row i is the last row whose start i (2n - i - 1) / 2 <= index
        n = 50_000
        total = n * (n - 1) // 2
        linear = np.unique(np.concatenate([np.arange(2000), np.random.default_rng(0).integers(0, total, 5000),
                                           np.arange(total - 2000, total)]))
        starts = np.arange(n - 1) * (2 * n - np.arange(n - 1) - 1) // 2
        i = np.searchsorted(starts, linear, side="right") - 1
        expected = np.column_stack((i, linear - starts[i] + i + 1)) + 1
        # the decode uses up its input
        assert np.array_equal(mirrored(_decode_upper_triangle(linear.copy(), n), n - 1), expected - 1)
        assert np.array_equal(float_decode_upper_triangle(linear, n), expected)

    def test_er_decode_matches_float_oracle(self):
        for n, alpha in ((1, 0.5), (2, 1.0), (17, 0.9), (400, 1.0), (5000, 0.5)):
            for seed in range(3):
                g = er_power_graph(n, alpha, seed)
                back = mirrored(g.edges, n + 1)  # the row-major pairs the gaps picked
                linear = (back[:, 0] - 1) * (2 * n - back[:, 0]) // 2 + back[:, 1] - back[:, 0] - 1
                assert np.array_equal(float_decode_upper_triangle(linear, n), back)
                assert np.array_equal(_decode_upper_triangle(linear, n), g.edges - 1)

    def test_er_short_gap_buffers_draw_the_same_edges(self, monkeypatch, caplog):
        # geometric draws one value at a time: buffers that fall short, many times over, change nothing
        expected = [er_power_graph(n, 0.5, seed=4).edges for n in (2, 30, 1000)]
        monkeypatch.setattr(regularity, "_gap_buffer", lambda expect: 7)
        with caplog.at_level(logging.DEBUG, logger="graphonlab.regularity"):
            got = [er_power_graph(n, 0.5, seed=4) for n in (2, 30, 1000)]
        for a, b in zip(got, expected):
            assert np.array_equal(a.edges, b)
            assert_constructed_alike(a)
        edges = expected[-1].shape[0]
        buffers = edges // 7 + 1
        assert caplog.records[-1].getMessage() == (
            f"er_power_graph: n=1000 p={1000 ** -0.5:.6g}, {7 * buffers} gaps drawn in {buffers} buffers, "
            f"{edges} edges kept")

    def test_family_cost_is_checked_before_anything_is_allocated(self):
        for build, expected in ((lambda: er_power_graph(1_000_000, 1.0, seed=0), 1_000_000 * 999_999 / 2),
                                (lambda: er_power_graph(10 ** 9, 0.5, seed=0), (10 ** 9 - 1) / 2 * 10 ** 4.5),
                                (lambda: clique_plus_isolated(10 ** 6, 1.0), 1_000_000 * 999_999 / 2)):
            tracemalloc.start()
            try:
                with pytest.raises(CostLimitError, match="edge limit") as info:
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(info.value, GraphonError)
            assert info.value.cost_estimate == pytest.approx(expected)
            assert peak < 1 << 20

    def test_family_cost_limit_is_inclusive(self, monkeypatch):
        # alpha = 1: the clique spans every vertex and the ER graph is complete, both C(n, 2) edges
        monkeypatch.setattr(regularity, "MAX_FAMILY_EDGES", 45)
        assert clique_plus_isolated(10, 1.0).num_edges == er_power_graph(10, 1.0, seed=0).num_edges == 45
        for build in (lambda: clique_plus_isolated(11, 1.0), lambda: er_power_graph(11, 1.0, seed=0)):
            with pytest.raises(CostLimitError, match="above the 45 edge limit"):
                build()

    def test_er_memory_is_the_constructors(self):
        # the picks and linear indices are freed before the graph is built, so the call costs no more
        # than constructing the graph from its edges
        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        g = er_power_graph(6000, 0.5, seed=2)
        floor = peak(lambda: SampledGraph(g.labels, g.edges)) + g.edges.nbytes
        assert peak(lambda: er_power_graph(6000, 0.5, seed=2)) <= 1.15 * floor

    def test_er_peak_is_its_output(self):
        # the gap buffer is freed before the edges are built; the first call also loads
        # numpy.random for the stream, which is not the graph's memory
        er_power_graph(6000, 0.5, seed=2)
        tracemalloc.start()
        try:
            g = er_power_graph(6000, 0.5, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(a.nbytes for a in (g.labels, g.edges, g._rows, g._degrees))

    def test_er_holds_one_edge_array_and_peaks_at_three_words_an_edge(self):
        # the graph holds its rows, labels and degrees: 16 bytes an edge and 16 a vertex.  The decode
        # uses up the gap buffer, so the call peaks near three words an edge, while the rows are filled
        # (24.9 bytes an edge; 33.2 when edges and rows were both stored and the buffer outlived the
        # decode).  The first call also loads numpy.random for the stream, which is not the graph's memory.
        er_power_graph(50, 0.5, seed=0)
        tracemalloc.start()
        try:
            g = er_power_graph(4000, 0.5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray)) == \
            16 * g.num_edges + 16 * g.num_vertices
        assert peak < 28 * g.num_edges

    @pytest.mark.parametrize("build, sizes", [
        (lambda n: er_power_graph(n, 0.5, seed=3), (0, 1, 2, 3, 40, 3400)),  # 3400: about 10^5 edges
        (lambda n: er_power_graph(n, 1.0, seed=3), (0, 1, 2, 3, 40)),
        (lambda n: clique_plus_isolated(n, 0.5), (0, 1, 2, 3, 40, 3400)),
        (lambda n: clique_plus_isolated(n, 1.0), (0, 1, 2, 3, 40)),
        (lambda n: clique_plus_isolated(n, -0.5), (0, 1, 2, 3, 40)),
        (perfect_matching, (0, 1, 2, 3, 40, 100_000)),
        (cycle_graph, (0, 3, 4, 40, 100_000)),
    ], ids=["er", "er_complete", "clique", "clique_complete", "clique_negative_alpha", "matching", "cycle"])
    def test_families_build_the_constructors_graph(self, build, sizes):
        for n in sizes:
            assert_constructed_alike(build(n))

    @pytest.mark.parametrize("build, message", [
        (lambda: clique_plus_isolated(10, 2.0), "alpha=2.0"),
        (lambda: clique_plus_isolated(10, 1.0 + 1e-12), "alpha must lie in"),
        (lambda: clique_plus_isolated(10, -1.0), "alpha must lie in"),
        (lambda: clique_plus_isolated(-5, 0.5), "^vertex count must be non-negative$"),
        (lambda: clique_plus_isolated(10, math.nan), "^alpha must be a finite number, got nan$"),
        (lambda: clique_plus_isolated(3.5, 0.5), "^vertex count must be an integer, got 3.5$"),
        (lambda: er_power_graph(3.5, 0.5, seed=0), "^vertex count must be an integer, got 3.5$"),
        (lambda: er_power_graph(np.float64(4.0), 0.5, seed=0), "^vertex count must be an integer"),
        (lambda: er_power_graph(10 ** 400, 0.5, seed=0), "^vertex count must be below 2\\^63$"),
        (lambda: clique_plus_isolated(1 << 63, 0.5), "^vertex count must be below 2\\^63$"),
        (lambda: er_power_graph(1, math.inf, seed=0), "^alpha must be a finite number, got inf$"),
        (lambda: er_power_graph(10, math.nan, seed=0), "^alpha must be a finite number, got nan$"),
        (lambda: er_power_graph(10, "x", seed=0), "^alpha must be a finite number, got 'x'$"),
        (lambda: perfect_matching(2.5), "^pair count must be an integer, got 2.5$"),
        (lambda: perfect_matching(-2), "^pair count must be non-negative$"),
        (lambda: cycle_graph(5.0), "^vertex count must be an integer, got 5.0$"),
    ], ids=["clique_alpha_above_one", "clique_alpha_just_above_one", "clique_alpha_minus_one",
            "clique_negative_n", "clique_alpha_nan", "clique_fractional_n", "er_fractional_n", "er_float_n",
            "er_huge_n", "clique_huge_n", "er_alpha_inf", "er_alpha_nan", "er_alpha_text", "matching_fractional",
            "matching_negative", "cycle_float_n"])
    def test_family_parameters_checked_first(self, build, message):
        # nothing is drawn or allocated for a bad parameter, and the message names it
        tracemalloc.start()
        try:
            with pytest.raises(GraphonError, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_er_empty_and_invalid_sizes(self):
        g = er_power_graph(0, 0.5, seed=0)
        assert g.num_vertices == 0 and g.edges.shape == (0, 2)
        with pytest.raises(GraphonError, match="non-negative"):
            er_power_graph(-1, 0.5, seed=0)
        # n^(alpha-1) > 1 is not a probability; n = 1 has no pairs and takes any alpha
        with pytest.raises(GraphonError, match="alpha=1.5"):
            er_power_graph(5, 1.5, seed=0)
        assert er_power_graph(1, 1.5, seed=0).num_vertices == 1

    def test_clique_family_shape(self):
        g = clique_plus_isolated(1000, 0.5)
        m = int(1000 ** 0.75)
        assert g.num_vertices == 1000
        assert g.num_edges == m * (m - 1) // 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert set(g.degree_sequence().tolist()) == {2}

    def test_cycle_needs_three_vertices(self):
        for n in (1, 2):
            with pytest.raises(GraphonError, match="^a cycle needs at least 3 vertices"):
                cycle_graph(n)
        assert cycle_graph(0).num_vertices == 0 and cycle_graph(0).num_edges == 0
        with pytest.raises(GraphonError, match="^vertex count must be non-negative$"):
            cycle_graph(-1)
        assert cycle_graph(3).edge_list() == [(1, 2), (1, 3), (2, 3)]
