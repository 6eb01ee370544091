"""Motif counts and rescaled densities against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from graphonlab.graphon_core import (
    CaronFoxGraphon,
    CostLimitError,
    GraphonError,
    InfiniteBlockGraphon,
    RegionIndicatorGraphon,
    StepGraphon,
    constant_graphon,
    flatten_to_line,
    l1_norm,
)
from graphonlab import homomorphisms
from graphonlab.homomorphisms import (
    MAX_CONTRACTION_WORK,
    MotifGraph,
    StarMoment,
    _elimination_plan,
    _exact_dtype,
    _set_partitions,
    count_embeddings,
    h_analytic,
    motif,
    rescaled_density,
    star_moment,
)
from graphonlab.regularity import cycle_graph
from graphonlab.sampling import SampledGraph, sample_dense_wrandom, sample_graphon_process, snapshot_at


def brute_force_counts(f: MotifGraph, g: SampledGraph) -> tuple[int, int]:
    """Check every map V(F) -> V(G) directly."""
    labels = g.labels.tolist()
    adj = {lab: set() for lab in labels}
    for u, v in g.edge_list():
        adj[u].add(v)
        adj[v].add(u)
    inj = hom = 0
    for images in itertools.product(labels, repeat=f.num_vertices):
        if all(images[v] in adj[images[u]] for u, v in f.edges):
            hom += 1
            if len(set(images)) == f.num_vertices:
                inj += 1
    return inj, hom


# The backtracker below is the library's former count_embeddings, verbatim.


def search_order(f: MotifGraph) -> list[int]:
    """Vertex order where each vertex after the first touches a placed one."""
    adj = f.adjacency_lists()
    deg = f.degrees()
    order = [max(range(f.num_vertices), key=lambda v: deg[v])]
    placed = set(order)
    while len(order) < f.num_vertices:
        nxt = max(
            (v for v in range(f.num_vertices) if v not in placed and any(u in placed for u in adj[v])),
            key=lambda v: deg[v],
        )
        order.append(nxt)
        placed.add(nxt)
    return order


def backtrack_counts(f: MotifGraph, g) -> tuple[int, int]:
    """The backtracking counter that count_embeddings replaced, kept as its oracle.

    Exact ``(inj, hom)`` counts of adjacency-preserving labeled maps.

    Backtracks in an order where every motif vertex is anchored to an
    already-placed neighbor, so candidates are intersections of adjacency
    sets; the injective pass additionally prunes candidates by degree.
    """
    labels = [int(x) for x in g.labels.tolist()]
    neighbors: dict[int, set[int]] = {lab: set() for lab in labels}
    for u, v in g.edge_list():
        neighbors[u].add(v)
        neighbors[v].add(u)
    order = search_order(f)
    adj = f.adjacency_lists()
    f_deg = f.degrees()
    placed_nbrs: list[list[int]] = []
    for rank, v in enumerate(order):
        before = order[:rank]
        placed_nbrs.append([before.index(u) for u in adj[v] if u in before])

    def run(injective: bool) -> int:
        total = 0
        images: list[int] = []
        used: set[int] = set()

        def recurse(rank: int):
            nonlocal total
            if rank == len(order):
                total += 1
                return
            anchors = placed_nbrs[rank]
            if anchors:
                cands = neighbors[images[anchors[0]]]
                for a in anchors[1:]:
                    cands = cands & neighbors[images[a]]
            else:
                cands = neighbors.keys()
            want = f_deg[order[rank]]
            for c in cands:
                if injective:
                    if c in used or len(neighbors[c]) < want:
                        continue
                    used.add(c)
                images.append(c)
                recurse(rank + 1)
                images.pop()
                if injective:
                    used.discard(c)

        recurse(0)
        return total

    return run(True), run(False)


def brute_force_h_step(f: MotifGraph, w: StepGraphon) -> float:
    """Independent nested summation over block assignments."""
    n = w.n_blocks
    total = 0.0
    for phi in itertools.product(range(n), repeat=f.num_vertices):
        term = 1.0
        for u, v in f.edges:
            term *= w.values[phi[u], phi[v]]
        for v in range(f.num_vertices):
            term *= w.masses[phi[v]]
        total += term
    return total / l1_norm(w) ** (f.num_vertices / 2.0)


def complete_graph(n):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SampledGraph(np.arange(1, n + 1), np.array(edges))


class TestMotifGraph:
    def test_library_shapes(self):
        assert motif("edge").num_vertices == 2
        assert motif("path3").edges == ((0, 1), (1, 2))
        assert motif("triangle").max_degree == 2
        assert motif("c4").num_vertices == 4
        assert motif("k4").edges == tuple(itertools.combinations(range(4), 2))
        assert motif("star_4").max_degree == 4

    def test_rejects_disconnected(self):
        with pytest.raises(GraphonError, match="connected"):
            MotifGraph(4, ((0, 1), (2, 3)))

    def test_rejects_isolated(self):
        with pytest.raises(GraphonError, match="isolated"):
            MotifGraph(3, ((0, 1),))

    def test_unknown_name(self):
        with pytest.raises(GraphonError, match="unknown motif"):
            motif("pentagon")


class TestCountEmbeddings:
    def test_edge_counts_are_degree_sums(self):
        g = complete_graph(5)
        inj, hom = count_embeddings(motif("edge"), g)
        assert inj == hom == 2 * g.num_edges

    def test_triangles_in_k4(self):
        inj, hom = count_embeddings(motif("triangle"), complete_graph(4))
        assert inj == 24
        assert (inj, hom) == brute_force_counts(motif("triangle"), complete_graph(4))

    def test_path3_in_cycle(self):
        g = cycle_graph(6)
        inj, hom = count_embeddings(motif("path3"), g)
        assert hom == 24  # 4n; brute force cross-check below
        assert (inj, hom) == brute_force_counts(motif("path3"), g)

    def test_random_graphs_match_brute_force(self):
        for seed in range(6):
            g = sample_dense_wrandom(constant_graphon(0.5), 6, seed=seed)
            for name in ("edge", "path3", "triangle", "c4"):
                assert count_embeddings(motif(name), g) == brute_force_counts(motif(name), g)

    def test_inj_at_most_hom(self):
        for seed in range(6):
            g = sample_dense_wrandom(constant_graphon(0.6), 7, seed=seed)
            for name in ("path3", "triangle", "star_3"):
                inj, hom = count_embeddings(motif(name), g)
                assert inj <= hom


LIBRARY = ("edge", "path3", "triangle", "c4", "k4") + tuple(f"star_{k}" for k in range(1, 7))


def random_motif(rng, k):
    """A random connected motif on k vertices: a random tree plus extra edges."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, k)}
    edges |= {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.3}
    perm = rng.permutation(k)
    return MotifGraph(k, tuple((int(perm[u]), int(perm[v])) for u, v in edges))


def relabeled(g, rng, isolated=0):
    """g with labels scattered over a wide range, plus isolated vertices."""
    labels = rng.choice(10 ** 6, size=g.num_vertices + isolated, replace=False) + 7
    pos = np.searchsorted(g.labels, g.edges)
    return SampledGraph(labels, labels[pos])


class TestCountAgainstBacktracker:
    def test_library_motifs(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            g = relabeled(sample_dense_wrandom(constant_graphon(0.5), 9, seed=seed), rng, isolated=seed)
            for name in LIBRARY:
                assert count_embeddings(motif(name), g) == backtrack_counts(motif(name), g)

    def test_random_motifs_up_to_eight_vertices(self):
        assert len(_set_partitions(8)) == 4140
        rng = np.random.default_rng(1)
        for trial in range(36):
            k = 2 + trial % 7
            f = random_motif(rng, k)
            g = relabeled(sample_dense_wrandom(constant_graphon(0.5), 7, seed=trial), rng, isolated=trial % 3)
            assert count_embeddings(f, g) == backtrack_counts(f, g)

    def test_isolated_vertices_and_sparse_labels(self):
        g = SampledGraph([3, 40, 41, 500, 9000, 12], [(3, 40), (40, 41), (3, 41), (41, 9000), (12, 3)])
        for name in ("edge", "path3", "triangle", "c4", "star_3"):
            assert count_embeddings(motif(name), g) == backtrack_counts(motif(name), g)

    def test_zero_edges(self):
        for labels in ([], [5], [2, 9, 11]):
            g = SampledGraph(np.array(labels, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
            for name in ("edge", "triangle", "star_2", "k4"):
                assert count_embeddings(motif(name), g) == backtrack_counts(motif(name), g) == (0, 0)

    def test_dense_motifs_snapshot(self):
        # the benchmark's dense_motifs graphon, cut at its 600th edge (63 vertices)
        # rather than its 1600th, so that the backtracker takes under a second
        w = StepGraphon([1.5, 1.5], [[0.4, 0.25], [0.25, 0.4]])
        trace = sample_graphon_process(w, 60.0, 0)
        g = snapshot_at(trace, float(np.sort(trace.edge_creation_times())[599]))
        assert any(step[0] == "condition" for step in _elimination_plan(4, motif("k4").edges).steps)
        for name in ("triangle", "path3", "c4", "star_3", "k4"):
            assert count_embeddings(motif(name), g) == backtrack_counts(motif(name), g)


class TestCountExactness:
    def test_star_on_a_hub_is_exact_past_int64(self):
        d = 2000
        hub = SampledGraph(np.arange(d + 3), [(0, i) for i in range(1, d + 1)] + [(d + 1, d + 2)])
        degrees = [d] + [1] * d + [1, 1]
        assert sum(x ** 6 for x in degrees) > 2 ** 63
        for k in range(1, 7):
            inj, hom = count_embeddings(motif(f"star_{k}"), hub)
            assert type(inj) is int and type(hom) is int
            assert hom == sum(x ** k for x in degrees)
            assert inj == sum(math.perm(x, k) for x in degrees)

    def test_int64_contraction_matches_backtracker(self):
        # 500^6 > 2^53, so the 6-cycle itself is contracted in int64
        rng = np.random.default_rng(3)
        n = 500
        ring = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
        chords = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(150)}
        g = SampledGraph(np.arange(n), sorted(ring | chords))
        assert _exact_dtype(n, int(g.degree_sequence().max()), 6, allow_object=False) is np.int64
        c6 = MotifGraph(6, tuple((i, (i + 1) % 6) for i in range(6)))
        assert count_embeddings(c6, g) == backtrack_counts(c6, g)

    def test_cyclic_motif_over_the_limit_raises(self):
        g = cycle_graph(10_000)
        assert float(g.num_vertices) ** 3 > MAX_CONTRACTION_WORK
        with pytest.raises(CostLimitError):
            count_embeddings(motif("triangle"), g)
        assert count_embeddings(motif("path3"), g) == (20_000, 40_000)

    def test_cyclic_count_that_could_overflow_int64_raises(self):
        # on K_300, C8 is cheap to contract, but 300^8 > 2^53 and its partial
        # sums are bounded only by 300 * 299^7 > 2^63
        n = 300
        g = SampledGraph(np.arange(n), list(itertools.combinations(range(n), 2)))
        c8 = MotifGraph(8, tuple((i, (i + 1) % 8) for i in range(8)))
        with pytest.raises(CostLimitError, match="int64"):
            count_embeddings(c8, g)


class TestRescaledDensity:
    def test_edge_density_is_one(self):
        for seed in range(20):
            g = sample_dense_wrandom(constant_graphon(0.4), 9, seed=seed)
            if g.num_edges == 0:
                continue
            h, h_inj = rescaled_density(motif("edge"), g)
            assert h == 1.0
            assert h_inj == 1.0

    def test_path3_on_large_cycle(self):
        n = 10_000
        h, _ = rescaled_density(motif("path3"), cycle_graph(n))
        assert h == pytest.approx(4 * n / (2 * n) ** 1.5, abs=1e-9)
        assert h == pytest.approx(math.sqrt(2.0 / n), abs=1e-9)

    def test_triangle_in_k4(self):
        h, h_inj = rescaled_density(motif("triangle"), complete_graph(4))
        assert h_inj == pytest.approx(24 / 12**1.5, abs=1e-12)

    def test_empty_graph_rejected(self):
        g = SampledGraph(np.array([1, 2]), np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(GraphonError, match="edge-less"):
            rescaled_density(motif("edge"), g)


class TestHAnalytic:
    def test_all_ones_block(self):
        for name in ("edge", "path3", "triangle", "c4"):
            assert h_analytic(motif(name), constant_graphon(1.0)).value == pytest.approx(1.0)

    def test_one_block_closed_form(self):
        # W = c on a mass-1 block: h(K3) = c^3 / c^(3/2) = c^(3/2)
        res = h_analytic(motif("triangle"), constant_graphon(0.25))
        assert res.value == pytest.approx(0.125, abs=1e-12)

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            vals = rng.uniform(0, 1, size=(n, n))
            vals = np.triu(vals) + np.triu(vals, 1).T
            w = StepGraphon(rng.uniform(0.3, 1.5, size=n), vals)
            for name in ("edge", "path3", "triangle", "c4", "star_3", "k4"):
                got = h_analytic(motif(name), w).value
                assert got == pytest.approx(brute_force_h_step(motif(name), w), abs=1e-12)

    def test_block_sum_over_the_limit_raises(self, monkeypatch):
        monkeypatch.setattr(homomorphisms, "MAX_CONTRACTION_WORK", 100)
        w = StepGraphon(np.ones(5), np.full((5, 5), 0.5))
        assert h_analytic(motif("path3"), w).value == pytest.approx(0.5 ** 2 * 5 ** 3 / (0.5 * 25) ** 1.5)
        with pytest.raises(CostLimitError):
            h_analytic(motif("triangle"), w)

    def test_edge_motif_is_one_for_any_nonneg(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            vals = rng.uniform(0, 1, size=(n, n))
            vals = np.triu(vals) + np.triu(vals, 1).T
            w = StepGraphon(rng.uniform(0.2, 2.0, size=n), vals)
            if l1_norm(w) == 0:
                continue
            assert h_analytic(motif("edge"), w).value == pytest.approx(1.0, abs=1e-9)

    def test_divergent_region_indicator_star(self):
        w = RegionIndicatorGraphon(0.5, x_max=50.0)
        res = h_analytic(motif("star_2"), w)
        assert not res.finite
        assert math.isinf(res.value)

    def test_monte_carlo_matches_discretized(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=6.0)
        mc = h_analytic(motif("triangle"), w, mc_samples=200_000, seed=1)
        from graphonlab.graphon_core import discretize

        step, _ = discretize(w, 6.0 / 64)
        exact = h_analytic(motif("triangle"), step).value
        assert mc.finite
        assert abs(mc.value - exact) <= 5 * mc.stderr + 0.02

    @pytest.mark.parametrize("count", [0, 1, 0.5, -5, 2.5, math.nan, math.inf])
    def test_monte_carlo_count_checked_before_any_draw(self, count, monkeypatch):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=6.0)
        monkeypatch.setattr(homomorphisms, "substream", lambda *a: pytest.fail("drew samples"))
        with pytest.raises(GraphonError, match="mc_samples must be an integer of at least 2"):
            h_analytic(motif("triangle"), w, mc_samples=count)

    def test_monte_carlo_feature_array_is_capped(self, monkeypatch):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=6.0)
        monkeypatch.setattr(homomorphisms, "substream", lambda *a: pytest.fail("drew samples"))
        with pytest.raises(CostLimitError, match="Monte Carlo") as err:
            h_analytic(motif("triangle"), w, mc_samples=10 ** 12)
        assert err.value.cost_estimate == 3 * 10 ** 12 > homomorphisms.MAX_MC_FEATURE_FLOATS

    def test_mixed_membership_mc_matches_flatten(self):
        from graphonlab.graphon_core import MixedMembershipGraphon, flatten_to_line

        a = StepGraphon([1.0], [[0.8]])
        b = StepGraphon([1.0], [[0.2]])
        w = MixedMembershipGraphon([[a, b], [b, a]], x_max=1.0)
        mc = h_analytic(motif("triangle"), w, mc_samples=120_000, seed=3)
        exact = h_analytic(motif("triangle"), flatten_to_line(w, weight_cells=64)).value
        assert abs(mc.value - exact) <= 5 * mc.stderr + 0.01

    def test_truncation_monotone(self):
        vals = []
        for x_max in (2.0, 4.0, 8.0):
            w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=x_max)
            from graphonlab.graphon_core import discretize

            step, _ = discretize(w, x_max / 64)
            # unnormalized numerator grows with the truncation window
            vals.append(h_analytic(motif("triangle"), step).value * l1_norm(step) ** 1.5)
        assert vals[0] <= vals[1] <= vals[2] + 1e-12


class TestStarMoment:
    def test_all_ones(self):
        res = star_moment(constant_graphon(1.0), 3)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(1.0)

    def test_two_block_oracle(self):
        w = StepGraphon([1.0, 2.0], [[0.5, 0.2], [0.2, 0.1]])
        res = star_moment(w, 2)
        # degrees 0.9 and 0.4: 1*0.81 + 2*0.16 = 1.13
        assert res.value == pytest.approx(1.13, abs=1e-12)

    def test_region_indicator_dichotomy(self):
        w = RegionIndicatorGraphon(0.5, x_max=50.0)
        assert star_moment(w, 1).verdict == "finite"
        assert star_moment(w, 2).verdict == "infinite"
        assert star_moment(w, 3).verdict == "infinite"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_step_moment_is_the_block_sum(self, k):
        rng = np.random.default_rng(k)
        vals = rng.uniform(0.0, 1.0, size=(5, 5))
        blocks = InfiniteBlockGraphon([(0.0, 1.0), (2.0, 4.0)], [[0.9, 0.3], [0.3, 0.2]])
        for w, step in ((StepGraphon([], []),) * 2, (blocks, flatten_to_line(blocks)),
                        (StepGraphon(rng.uniform(0.2, 2.0, size=5), np.triu(vals) + np.triu(vals, 1).T),) * 2):
            # the replaced step branch, which the block family took through flatten_to_line
            assert star_moment(w, k) == StarMoment("finite", float((step.masses * step.block_degrees() ** k).sum()))

    def test_non_graphon_rejected(self):
        with pytest.raises(GraphonError, match="^not a graphon"):
            star_moment([[1.0]], 2)

    def test_caron_fox_always_finite(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0)
        for k in (1, 2, 4):
            assert star_moment(w, k).verdict == "finite"
