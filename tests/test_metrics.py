"""Cut norms, couplings and invariant distances: oracles and metric axioms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab.graphon_core import (
    CostLimitError,
    GraphonError,
    StepGraphon,
    constant_graphon,
    l1_norm,
    stretch,
    zero_graphon,
)
from graphonlab.metrics import (
    build_coupling,
    canonical_graphons,
    common_refinement,
    cut_distance,
    cut_norm,
    graph_graphon_distance_estimate,
    invariant_l1_distance,
    stretched_cut_distance,
    weak_regularity_partition,
)
from graphonlab import metrics
from graphonlab.metrics import _subset_bits
from graphonlab.sampling import SampledGraph, sample_graphon_process


def brute_force_cut_norm(w: StepGraphon) -> float:
    """Independent oracle: enumerate all 2^n x 2^n block subset pairs."""
    n = w.n_blocks
    m = w.values * np.outer(w.masses, w.masses)
    best = 0.0
    for u_bits in itertools.product([0, 1], repeat=n):
        u = [i for i in range(n) if u_bits[i]]
        for v_bits in itertools.product([0, 1], repeat=n):
            v = [j for j in range(n) if v_bits[j]]
            best = max(best, abs(m[np.ix_(u, v)].sum()))
    return best


def lexicographic_enumeration(a1, a2, q2, kind):
    """Oracle for the pruned exact search: score every block permutation in
    lexicographic order, in chunks, keeping the first strict minimum."""
    n = a1.shape[0]
    if n == 0:
        return 0.0, ()
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    bits = _subset_bits(n)
    best, best_perm = math.inf, perms[0]
    chunk_size = max(1, (1 << 22) // max(1, bits.shape[0] * n))
    for start in range(0, perms.shape[0], chunk_size):
        chunk = perms[start:start + chunk_size]
        diff = a1[None, :, :] - a2[chunk[:, :, None], chunk[:, None, :]]
        if kind == "l1":
            vals = np.abs(diff).sum(axis=(1, 2)) * q2
        else:
            s = np.einsum("sn,pnm->psm", bits, diff)
            pos = np.clip(s, 0.0, None).sum(axis=2).max(axis=1)
            neg = np.clip(-s, 0.0, None).sum(axis=2).max(axis=1)
            vals = np.maximum(pos, neg) * q2
        i = int(vals.argmin())
        if vals[i] < best:
            best, best_perm = float(vals[i]), chunk[i]
            if best <= 1e-15:
                break
    return best, tuple(int(p) for p in best_perm)


def cycles_adjacency(n, lengths):
    adj = np.zeros((n, n))
    start = 0
    for k in lengths:
        for i in range(k):
            u, v = start + i, start + (i + 1) % k
            adj[u, v] = adj[v, u] = 1.0
        start += k
    return adj


def random_step(rng, n, signed=True, equal_mass=False):
    masses = np.ones(n) if equal_mass else rng.integers(1, 5, size=n).astype(float) * 0.25
    vals = rng.uniform(-1.0 if signed else 0.0, 1.0, size=(n, n))
    vals = np.triu(vals) + np.triu(vals, 1).T
    return StepGraphon(masses, vals)


def complete_graph(n):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SampledGraph(np.arange(1, n + 1), np.array(edges))


class TestCutNorm:
    def test_nonnegative_kernel_equals_l1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = random_step(rng, 4, signed=False)
            assert cut_norm(w).value == pytest.approx(l1_norm(w), abs=1e-12)

    def test_sign_pattern(self):
        w = StepGraphon([1.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]])
        res = cut_norm(w)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert len(res.u_blocks) == 1 and res.u_blocks == res.v_blocks

    def test_zero(self):
        assert cut_norm(zero_graphon()).value == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            w = random_step(rng, int(rng.integers(1, 7)))
            assert cut_norm(w).value == pytest.approx(brute_force_cut_norm(w), abs=1e-12)

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = random_step(rng, 5)
            res = cut_norm(w)
            m = w.values * np.outer(w.masses, w.masses)
            achieved = abs(m[np.ix_(list(res.u_blocks), list(res.v_blocks))].sum())
            assert achieved == pytest.approx(res.value, abs=1e-12)

    def test_heuristic_is_lower_bound(self):
        rng = np.random.default_rng(9)
        for seed in range(15):
            w = random_step(rng, 6)
            h = cut_norm(w, mode="heuristic", seed=seed)
            assert h.mode == "heuristic_lower"
            assert h.value <= cut_norm(w).value + 1e-12

    def test_exact_mode_block_cap(self):
        w = random_step(np.random.default_rng(1), 27)
        with pytest.raises(CostLimitError):
            cut_norm(w)

    def test_dominated_by_l1(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            w = random_step(rng, int(rng.integers(1, 7)))
            assert cut_norm(w).value <= l1_norm(w) + 1e-12


class TestBuildCoupling:
    def test_forced_marginals(self):
        c = build_coupling([1.0, 1.0], [2.0])
        assert np.allclose(c.matrix, [[1.0], [1.0]])

    def test_identity_overlap(self):
        c = build_coupling([1.0, 1.0], [1.0, 1.0])
        assert np.allclose(c.matrix, [[1.0, 0.0], [0.0, 1.0]])

    def test_interval_overlap_by_hand(self):
        c = build_coupling([1.5, 0.5], [1.0, 1.0])
        assert np.allclose(c.matrix, [[1.0, 0.5], [0.0, 0.5]])

    def test_mass_mismatch_rejected(self):
        with pytest.raises(GraphonError, match="zero blocks"):
            build_coupling([1.0], [2.0])

    def test_random_marginals_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m1 = rng.uniform(0.1, 2.0, size=rng.integers(1, 6))
            m2 = rng.uniform(0.1, 2.0, size=rng.integers(1, 6))
            m2 *= m1.sum() / m2.sum()
            c = build_coupling(m1, m2)
            assert np.allclose(c.matrix.sum(axis=1), m1, atol=1e-10)
            assert np.allclose(c.matrix.sum(axis=0), m2, atol=1e-10)
            assert c.matrix.min() >= 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=7), st.integers(1, 7))
    def test_marginals_property(self, masses, pieces):
        m1 = np.asarray(masses)
        # second decomposition: same total split into equal pieces
        m2 = np.full(pieces, m1.sum() / pieces)
        c = build_coupling(m1, m2)
        assert np.allclose(c.matrix.sum(axis=1), m1, atol=1e-10)
        assert np.allclose(c.matrix.sum(axis=0), m2, atol=1e-10)


class TestCommonRefinement:
    def test_exact_multiples_no_distortion(self):
        w = StepGraphon([1.0, 2.0], [[0.5, 0.1], [0.1, 0.3]])
        r1, r2, bound = common_refinement(w, w, 0.5)
        assert bound == 0.0
        assert r1.n_blocks == 6
        assert np.all(r1.masses == 0.5)
        assert l1_norm(r1) == pytest.approx(l1_norm(w), abs=1e-12)

    def test_rounding_distortion_formula(self):
        w = StepGraphon([1.02], [[1.0]])
        r1, _, bound = common_refinement(w, w, 0.5)
        assert r1.n_blocks == 2
        assert np.all(r1.masses == 0.5)
        # eps sums both sides' relative total-mass distortion: 0.02/1.0 each
        assert bound == pytest.approx(3.0 * 0.04 * l1_norm(w), abs=1e-12)

    def test_quantum_too_large(self):
        w = StepGraphon([0.2, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GraphonError, match="smallest block"):
            common_refinement(w, w, 0.5)

    def test_padding_equalizes(self):
        w1 = StepGraphon([1.0], [[1.0]])
        w2 = StepGraphon([2.0], [[1.0]])
        r1, r2, _ = common_refinement(w1, w2, 1.0)
        assert r1.n_blocks == r2.n_blocks == 2
        assert r1.values[1, 1] == 0.0  # zero padding


class TestCutDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        for mode in ("exact", "anneal"):
            w = random_step(rng, 4, equal_mass=True)
            rep = cut_distance(w, w, mode=mode, budget=500)
            assert rep.value <= 1e-12

    def test_shuffled_copy_distance_zero(self):
        rng = np.random.default_rng(2)
        w = random_step(rng, 7, equal_mass=True)
        perm = rng.permutation(7)
        shuffled = StepGraphon(w.masses[perm], w.values[np.ix_(perm, perm)])
        rep = cut_distance(w, shuffled)
        assert rep.mode == "exact"
        assert rep.value <= 1e-12
        # witness inverts the shuffle
        assert np.array_equal(w.values, shuffled.values[np.ix_(rep.witness, rep.witness)])

    def test_corner_blocks(self):
        a = StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
        b = StepGraphon([1.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])
        c = StepGraphon([1.0, 1.0], [[0.5, 0.0], [0.0, 0.0]])
        assert cut_distance(a, b).value <= 1e-15
        rep = cut_distance(a, c)
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        l1 = invariant_l1_distance(a, c)
        assert l1.value == pytest.approx(0.5, abs=1e-12)

    def test_empty_vs_nonempty(self):
        w = StepGraphon([1.0, 1.0], [[0.8, 0.2], [0.2, 0.4]])
        rep = cut_distance(zero_graphon(), w)
        # distance to the zero graphon is the cut norm (= L1 here, W >= 0)
        assert rep.value == pytest.approx(l1_norm(w), abs=1e-12)
        assert cut_distance(zero_graphon(), zero_graphon()).value == 0.0

    def test_exact_requires_small_refinement(self):
        rng = np.random.default_rng(3)
        w1 = random_step(rng, 12, equal_mass=True)
        w2 = random_step(rng, 12, equal_mass=True)
        with pytest.raises(CostLimitError):
            cut_distance(w1, w2, mode="exact")

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w1 = random_step(rng, 4, equal_mass=True)
            w2 = random_step(rng, 4, equal_mass=True)
            d12 = cut_distance(w1, w2).value
            d21 = cut_distance(w2, w1).value
            assert d12 == pytest.approx(d21, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ws = [random_step(rng, 4, equal_mass=True) for _ in range(3)]
            d01 = cut_distance(ws[0], ws[1]).value
            d12 = cut_distance(ws[1], ws[2]).value
            d02 = cut_distance(ws[0], ws[2]).value
            assert d02 <= d01 + d12 + 1e-9

    def test_trivial_extension_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            w1 = random_step(rng, 3, equal_mass=True)
            w2 = random_step(rng, 3, equal_mass=True)
            base = cut_distance(w1, w2).value
            extended = cut_distance(w1.append_zero_blocks([1.0, 1.0]), w2).value
            assert extended == pytest.approx(base, abs=1e-12)

    def test_restriction_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w1 = random_step(rng, 5, equal_mass=True)
            w2 = random_step(rng, 5, equal_mass=True)
            full = cut_distance(w1, w2).value
            for k in range(1, 6):
                dk = cut_distance(w1.restrict_blocks(range(k)), w2.restrict_blocks(range(k))).value
                tail1 = l1_norm(w1) - l1_norm(w1.restrict_blocks(range(k)))
                tail2 = l1_norm(w2) - l1_norm(w2.restrict_blocks(range(k)))
                # restriction distances converge within the certified envelope
                assert abs(dk - full) <= tail1 + tail2 + 1e-9
            dk_full = cut_distance(w1.restrict_blocks(range(5)), w2.restrict_blocks(range(5))).value
            assert dk_full == pytest.approx(full, abs=1e-12)

    def test_prop15_style_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            w1 = random_step(rng, 4, equal_mass=True)
            w2 = random_step(rng, 4, equal_mass=True)
            delta = rng.uniform(-0.2, 0.2, size=(4, 4))
            delta = np.triu(delta) + np.triu(delta, 1).T
            w1p = StepGraphon(w1.masses, w1.values + delta)
            lhs = cut_distance(w1, w2).value
            rhs = cut_distance(w1p, w2).value + l1_norm(StepGraphon(w1.masses, delta))
            assert lhs <= rhs + 1e-9

    def test_mass_inflation_bound(self):
        rng = np.random.default_rng(9)
        for eps in (0.01, 0.05):
            for _ in range(5):
                w = random_step(rng, 4, signed=False)
                inflated = StepGraphon(w.masses * (1 + eps), w.values)
                rep = cut_distance(w, inflated)
                assert rep.value <= 3 * eps * l1_norm(w) + 1e-12

    def test_matches_permutation_brute_force(self):
        # independent oracle: minimize the brute-force cut norm over all
        # permutations built with itertools, no shared code path
        rng = np.random.default_rng(20)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            w1 = random_step(rng, n, equal_mass=True)
            w2 = random_step(rng, n, equal_mass=True)
            best = math.inf
            for perm in itertools.permutations(range(n)):
                shuffled = StepGraphon(w2.masses, w2.values[np.ix_(perm, perm)])
                diff = StepGraphon(w1.masses, w1.values - shuffled.values)
                best = min(best, brute_force_cut_norm(diff))
            assert cut_distance(w1, w2).value == pytest.approx(best, abs=1e-12)

    def test_anneal_matches_exact_on_small(self):
        rng = np.random.default_rng(10)
        w1 = random_step(rng, 5, equal_mass=True)
        w2 = random_step(rng, 5, equal_mass=True)
        exact = cut_distance(w1, w2).value
        annealed = cut_distance(w1, w2, mode="anneal", budget=4000, seed=0)
        assert annealed.mode == "upper_bound"
        assert annealed.value >= exact - 1e-12
        assert annealed.value <= exact + 0.05

    def test_report_mode_contract(self):
        # exact label only with zero quantization error; values never negative
        rng = np.random.default_rng(22)
        for _ in range(10):
            w1 = random_step(rng, 3, equal_mass=True)
            w2 = random_step(rng, 3, equal_mass=True)
            rep = cut_distance(w1, w2)
            assert rep.value >= 0.0
            if rep.mode == "exact":
                assert rep.quantization_error == 0.0
        odd = StepGraphon([1.02, 0.52], [[1.0, 0.3], [0.3, 0.2]])
        other = StepGraphon([0.98, 0.47], [[0.5, 0.1], [0.1, 0.9]])
        rep = cut_distance(odd, other, quantum=0.5)
        assert rep.mode == "upper_bound"
        assert rep.quantization_error > 0.0

    def test_anneal_finds_zero_on_shuffle(self):
        rng = np.random.default_rng(11)
        w = random_step(rng, 12, equal_mass=True)
        perm = rng.permutation(12)
        shuffled = StepGraphon(w.masses[perm], w.values[np.ix_(perm, perm)])
        rep = cut_distance(w, shuffled, mode="anneal", budget=60_000, seed=2)
        assert rep.value <= 1e-9


class TestPrunedPermutationSearch:
    """The degree-bound pruned search returns the oracle's value and witness."""

    @staticmethod
    def pairs(family, n, rng):
        def sym(m):
            return np.triu(m) + np.triu(m, 1).T

        def shuffled(a):
            perm = rng.permutation(n)
            return a[np.ix_(perm, perm)]

        count = 3 if n <= 6 else 1
        if family == "random":
            out = [(sym(rng.uniform(-1.0, 1.0, (n, n))), sym(rng.uniform(-1.0, 1.0, (n, n)))) for _ in range(count)]
            # a shuffled refinement of a coarser kernel: many zero-distance
            # witnesses whose row sums differ by rounding only
            coarse = sym(rng.random((max(1, n // 2),) * 2))
            refined = coarse[np.ix_(*(np.sort(rng.integers(0, coarse.shape[0], n)),) * 2)]
            return out + [(refined, shuffled(refined))]
        if family == "binary":
            return [(sym(rng.integers(0, 2, (n, n)).astype(float)), sym(rng.integers(0, 2, (n, n)).astype(float)))
                    for _ in range(count)]
        # regular graphs: every permutation has the same degree bound
        base = cycles_adjacency(n, [n]) if n >= 3 else np.ones((n, n)) - np.eye(n)
        out = [(base, shuffled(base))]
        if n >= 6:
            out.append((base, cycles_adjacency(n, [n // 2, n - n // 2])))
        return out

    @pytest.mark.parametrize("family", ["random", "binary", "regular"])
    @pytest.mark.parametrize("n", range(9))
    def test_matches_lexicographic_oracle(self, n, family):
        rng = np.random.default_rng(100 + 10 * n + len(family))
        masses = np.full(n, 0.5)
        for a1, a2 in self.pairs(family, n, rng):
            w1, w2 = StepGraphon(masses, a1), StepGraphon(masses, a2)
            for kind, fn in (("cut", cut_distance), ("l1", invariant_l1_distance)):
                rep = fn(w1, w2)
                value, witness = lexicographic_enumeration(a1, a2, 0.25, kind)
                assert rep.mode == "exact"
                assert rep.value == value
                assert rep.witness == witness
                assert (rep.budget_spent > 0) == (n > 0)
                assert rep.budget_spent <= math.factorial(n)

    def test_random_pair_prunes(self):
        rng = np.random.default_rng(30)
        w1 = random_step(rng, 8, equal_mass=True)
        w2 = random_step(rng, 8, equal_mass=True)
        rep = cut_distance(w1, w2)
        assert rep.mode == "exact"
        assert 0 < rep.budget_spent < math.factorial(8)


class TestInvariantL1Distance:
    def test_self_and_shuffle(self):
        rng = np.random.default_rng(12)
        w = random_step(rng, 6, equal_mass=True)
        perm = rng.permutation(6)
        shuffled = StepGraphon(w.masses[perm], w.values[np.ix_(perm, perm)])
        assert invariant_l1_distance(w, w).value <= 1e-12
        assert invariant_l1_distance(w, shuffled).value <= 1e-12

    def test_dominates_cut_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w1 = random_step(rng, 4, equal_mass=True)
            w2 = random_step(rng, 4, equal_mass=True)
            assert cut_distance(w1, w2).value <= invariant_l1_distance(w1, w2).value + 1e-9


class TestCanonicalGraphons:
    def test_k2(self):
        g = complete_graph(2)
        canonical, stretched = canonical_graphons(g)
        assert np.allclose(canonical.masses, [0.5, 0.5])
        assert np.array_equal(canonical.values, [[0, 1], [1, 0]])
        assert np.allclose(stretched.masses, 1 / math.sqrt(2))
        assert l1_norm(stretched) == pytest.approx(1.0, abs=1e-12)

    def test_triangle(self):
        _, stretched = canonical_graphons(complete_graph(3))
        assert np.allclose(stretched.masses, 1 / math.sqrt(6))
        assert l1_norm(stretched) == pytest.approx(1.0, abs=1e-12)

    def test_empty_graph(self):
        g = SampledGraph(np.array([], dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        canonical, stretched = canonical_graphons(g)
        assert canonical.n_blocks == 0 and stretched.n_blocks == 0


class TestStretchedCutDistance:
    def test_isolated_vertices_do_not_matter(self):
        g = complete_graph(4)
        padded = SampledGraph(np.arange(1, 9), g.edges)
        rep = stretched_cut_distance(g, padded)
        assert rep.value <= 1e-12

    def test_zero_graphon_vs_empty_graph(self):
        g = SampledGraph(np.array([5], dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        rep = stretched_cut_distance(zero_graphon(), g)
        assert rep.value == 0.0

    def test_k4_vs_constant_block_delegates(self):
        g = complete_graph(4)
        w = constant_graphon(1.0)
        q = 1 / math.sqrt(12)
        rep = stretched_cut_distance(g, w, quantum=q)
        _, stretched_g = canonical_graphons(g)
        from graphonlab.metrics import cut_distance as cd

        direct = cd(stretched_g, stretch(w), quantum=q)
        assert rep.value == pytest.approx(direct.value, abs=1e-12)


class TestDistanceEstimate:
    def test_complete_graph_estimate_shrinks(self):
        w = constant_graphon(1.0)
        estimates = []
        for t in (10.0, 40.0):
            trace = sample_graphon_process(w, t, seed=2)
            estimates.append(graph_graphon_distance_estimate(trace, w))
        assert estimates[1] < estimates[0]
        assert estimates[1] < 0.05  # only mass-quantization residue remains

    def test_empty_trace_gives_distance_to_zero(self):
        w = constant_graphon(1.0)
        trace = sample_graphon_process(w, 0.0, seed=0)
        assert graph_graphon_distance_estimate(trace, w) == pytest.approx(l1_norm(stretch(w)))

    def test_er_half_small_at_t40(self):
        w = constant_graphon(0.5)
        values = [
            graph_graphon_distance_estimate(sample_graphon_process(w, 40.0, seed=s), w)
            for s in range(20)
        ]
        assert float(np.median(values)) < 0.1

    def test_degree_sort_alignment(self):
        w = StepGraphon([1.0, 1.0], [[0.9, 0.1], [0.1, 0.1]])
        trace = sample_graphon_process(w, 40.0, seed=4)
        est = graph_graphon_distance_estimate(trace, w, alignment="degree_sort")
        assert 0.0 <= est < 0.5

    def test_block_mismatch_rejected(self):
        w = constant_graphon(0.5)
        trace = sample_graphon_process(w, 20.0, seed=1)
        other = StepGraphon([0.4, 0.6], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(GraphonError, match="mismatch"):
            graph_graphon_distance_estimate(trace, other)


class TestCutUpperBound:
    """Above ``EXACT_CUTNORM_MAX_BLOCKS`` a reported upper bound must not
    come from a search that can fall short of the cut norm."""

    @staticmethod
    def kernels():
        rng = np.random.default_rng(17)
        for n in range(1, 11):
            for _ in range(3):
                w = random_step(rng, n)
                yield w.values * np.outer(w.masses, w.masses)

    def test_exact_at_or_below_limit(self):
        for m in self.kernels():
            assert metrics._cut_upper_bound(m) == metrics._exact_cut_value(m)

    def test_upper_bound_above_limit(self, monkeypatch):
        monkeypatch.setattr(metrics, "EXACT_CUTNORM_MAX_BLOCKS", 0)
        for m in self.kernels():
            exact = metrics._exact_cut_value(m)
            bound = metrics._cut_upper_bound(m)
            assert bound >= exact - 1e-12 * np.abs(m).sum()
            assert bound <= np.abs(m).sum()

    def test_callers_report_upper_bounds(self, monkeypatch):
        rng = np.random.default_rng(3)
        lo = random_step(rng, 3, signed=False)
        hi = StepGraphon(2.0 * lo.masses, random_step(rng, 3, signed=False).values)
        a, b = random_step(rng, 4, signed=False, equal_mass=True), random_step(rng, 4, signed=False, equal_mass=True)
        w = StepGraphon([1.0, 1.0], [[0.9, 0.1], [0.1, 0.1]])
        trace = sample_graphon_process(w, 30.0, seed=4)
        exact = (metrics._proportional_coupling_value(lo, hi, 2.0, "cut"), cut_distance(a, b).value,
                 graph_graphon_distance_estimate(trace, w))
        monkeypatch.setattr(metrics, "EXACT_CUTNORM_MAX_BLOCKS", 1)
        bounds = (metrics._proportional_coupling_value(lo, hi, 2.0, "cut"),
                  cut_distance(a, b, mode="anneal", budget=200).value,
                  graph_graphon_distance_estimate(trace, w))
        for value, bound in zip(exact, bounds):
            assert bound > value


class TestWeakRegularity:
    def test_constant_graphon(self):
        _, residual = weak_regularity_partition(constant_graphon(0.7, mass=3.0), k=1)
        assert residual <= 1e-12

    def test_recovers_two_blocks(self):
        w = StepGraphon([1.0, 1.0], [[0.9, 0.1], [0.1, 0.9]])
        partition, residual = weak_regularity_partition(w, k=2)
        assert residual <= 1e-12
        assert partition.n_cells == 2

    def test_complete_bipartite(self):
        # canonical graphon of K_{2,2}: values constant on the side products
        adj = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float)
        w = StepGraphon(np.full(4, 0.25), adj)
        partition, residual = weak_regularity_partition(w, k=2)
        assert residual <= 1e-12

    def test_residual_nonincreasing_in_k(self):
        rng = np.random.default_rng(14)
        w = random_step(rng, 8, signed=False, equal_mass=True)
        residuals = [weak_regularity_partition(w, k=k, seed=2)[1] for k in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
