"""Cut norms, couplings and invariant distances: oracles and metric axioms."""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab.graphon_core import (
    CostLimitError,
    GraphonError,
    Partition,
    StepGraphon,
    average_over_partition,
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
from graphonlab.regularity import cycle_graph
from graphonlab.sampling import SampledGraph, sample_graphon_process, snapshot_at


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


def _subset_chunks(n: int, chunk_rows: int = 1 << 14):
    """0/1 membership rows of the subsets of ``n`` blocks, by increasing bitmask."""
    total = 1 << n
    cols = np.arange(n, dtype=np.uint64)[None, :]
    for start in range(0, total, chunk_rows):
        idx = np.arange(start, min(start + chunk_rows, total), dtype=np.uint64)
        yield ((idx[:, None] >> cols) & 1).astype(float)


def _exact_cut(m: np.ndarray) -> tuple[float, int, float]:
    """max over block subsets U, V of |sum_{U x V} m|, by enumerating U and
    clip-summing the subset sums on both sides (the kernel's former method).

    Returns the maximum, the bitmask of the first maximizing ``U`` and the
    sign of its rectangle sum (``V`` is then the columns of that sign).
    """
    best, best_u, best_sign = 0.0, 0, 1.0
    start = 0
    for chunk in _subset_chunks(m.shape[0]):
        s = chunk @ m
        pos = np.clip(s, 0.0, None).sum(axis=1)
        neg = np.clip(-s, 0.0, None).sum(axis=1)
        for vals, sign in ((pos, 1.0), (neg, -1.0)):
            i = int(vals.argmax())
            if vals[i] > best:
                best, best_u, best_sign = float(vals[i]), start + i, sign
        start += chunk.shape[0]
    return best, best_u, best_sign


def cut_rounding_bound(m: np.ndarray) -> float:
    """Bound on how far ``_cut_values(m)`` and ``_exact_cut(m)`` may differ, and
    on how far either is from the exact maximum: ``4 n eps sum|m|``.

    To first order in the unit roundoff ``u = eps / 2``, a floating sum of
    ``N`` terms is off by at most ``(N - 1) u`` times the sum of their absolute
    values.  A subset sum ``s_j(U)`` adds at most ``n`` entries of column ``j``
    (the kernel's split adds its two halves, still ``n - 1`` additions), so
    ``sum_j |error of s_j| <= n u sum|m|``.  Summing ``n`` clamped ``s_j`` adds
    ``(n - 1) u sum|m|``: the positive side is within ``2n u sum|m|`` on both
    methods, and so is the oracle's negative side.  The kernel's negative side
    subtracts the row sum of ``U`` (``n``-term row sums, then at most ``n`` of
    them: ``2n u sum|m|``) and rounds once more: within ``(4n + 2) u sum|m|``.
    The maximum is 1-Lipschitz, so the two maxima differ by at most
    ``(6n + 2) u sum|m| = (3n + 1) eps sum|m|``; ``4 n eps`` covers that and
    the second-order terms.
    """
    return 4 * m.shape[-1] * np.finfo(float).eps * float(np.abs(m).sum())


def rectangle_value(m: np.ndarray, mask: int, sign: float) -> float:
    """Rectangle sum of a cut witness: ``sign`` times the sum of ``m`` over the
    rows in ``mask`` and the columns whose sum there has that sign, with
    exactly rounded sums (``math.fsum``)."""
    rows = [i for i in range(m.shape[0]) if (mask >> i) & 1]
    cols = [sign * math.fsum(m[rows, j]) for j in range(m.shape[1])]
    return math.fsum(c for c in cols if c > 0)


def lexicographic_enumeration(a1, a2, q2, kind):
    """Oracle for the pruned exact search: score every block permutation in
    lexicographic order, in chunks, keeping the first strict minimum.

    Cut values come from ``metrics._cut_values``, whose value for a matrix
    does not depend on the rest of its stack (``TestCutValues``), so the
    search is checked for pruning and tie-breaking with exact equality; the
    kernel's arithmetic is checked against ``_exact_cut`` there."""
    n = a1.shape[0]
    if n == 0:
        return 0.0, ()
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    best, best_perm = math.inf, perms[0]
    chunk_size = max(1, (1 << 22) // max(1, (1 << n) * n))
    for start in range(0, perms.shape[0], chunk_size):
        chunk = perms[start:start + chunk_size]
        diff = a1[None, :, :] - a2[chunk[:, :, None], chunk[:, None, :]]
        if kind == "l1":
            vals = np.abs(diff).sum(axis=(1, 2)) * q2
        else:
            vals = metrics._cut_values(diff * q2)[0]
        i = int(vals.argmin())
        if vals[i] < best:
            best, best_perm = float(vals[i]), chunk[i]
            if best <= 1e-15:
                break
    return best, tuple(int(p) for p in best_perm)


def dense_adjacency(g):
    """Dense 0/1 adjacency matrix of a graph, rows in ``labels`` order."""
    rows = g.edge_rows()
    adj = np.zeros((g.num_vertices, g.num_vertices))
    adj[rows[:, 0], rows[:, 1]] = 1.0
    adj[rows[:, 1], rows[:, 0]] = 1.0
    return adj


def masked_overlap_difference(h, b):
    """Difference kernel under the interval-overlap (identity) coupling."""
    total = max(h.total_mass, b.total_mass)
    edges = np.unique(np.concatenate([h.boundaries, b.boundaries, [total]]))
    widths = np.diff(edges)
    keep = widths > 1e-15
    widths = widths[keep]
    mids = edges[:-1][keep] + widths / 2
    hi = h.block_of(mids)
    bi = b.block_of(mids)
    if h.n_blocks:
        hv = np.where((hi[:, None] >= 0) & (hi[None, :] >= 0),
                      h.values[np.ix_(np.maximum(hi, 0), np.maximum(hi, 0))], 0.0)
    else:
        hv = np.zeros((mids.size, mids.size))
    if b.n_blocks:
        bv = np.where((bi[:, None] >= 0) & (bi[None, :] >= 0),
                      b.values[np.ix_(np.maximum(bi, 0), np.maximum(bi, 0))], 0.0)
    else:
        bv = np.zeros((mids.size, mids.size))
    return StepGraphon(widths, hv - bv)


def dense_distance_estimate(trace, w, alignment="feature_oracle"):
    """Oracle: the replaced estimate, which averages a per-vertex stretched
    canonical graphon (dense n x n adjacency) over the grouping."""
    if not isinstance(w, StepGraphon):
        raise GraphonError("distance estimate needs a step graphon reference")
    g = snapshot_at(trace, trace.horizon, keep_isolated=False)
    b = stretch(w)
    if g.num_edges == 0:
        return l1_norm(b)
    ell = 1.0 / math.sqrt(2.0 * g.num_edges)

    n = g.num_vertices
    if alignment == "feature_oracle":
        groups = w.block_of(g.features[:, 0])
        if np.any(groups < 0):
            raise GraphonError("feature oracle: some features fall outside the graphon's blocks "
                               "(block structure mismatch)")
        if isinstance(trace.graphon, StepGraphon) and trace.graphon.n_blocks != w.n_blocks:
            raise GraphonError(
                f"block-count mismatch: trace sampled from {trace.graphon.n_blocks} blocks, reference has {w.n_blocks}"
            )
    elif alignment == "degree_sort":
        order = np.argsort(-g.degree_sequence(), kind="stable")
        block_order = np.argsort(-w.block_degrees(), kind="stable")
        cum = np.cumsum(w.masses[block_order]) / w.total_mass
        cuts = np.round(cum * n).astype(int)
        groups = np.empty(n, dtype=int)
        groups[order] = block_order[np.searchsorted(cuts, np.arange(n), side="right")]
    else:
        raise GraphonError(f"unknown alignment {alignment!r}")

    order = np.argsort(groups, kind="stable")
    adj = dense_adjacency(g)[np.ix_(order, order)]
    sorted_groups = groups[order]
    a = StepGraphon(np.full(n, ell), adj, ambient_infinite=True)
    cells = [np.flatnonzero(sorted_groups == blk).tolist() for blk in range(w.n_blocks)]
    partition = Partition.from_cells(a, [c for c in cells if c])
    h = average_over_partition(a, partition)
    return float(metrics._cut_values(metrics._block_integral_matrix(masked_overlap_difference(h, b)))[0])


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

    def test_evaluations_counted_and_logged(self, caplog):
        w = random_step(np.random.default_rng(4), 6)
        with caplog.at_level(logging.DEBUG, logger="graphonlab.metrics"):
            exact = cut_norm(w)
            heuristic = cut_norm(w, mode="heuristic", starts=5)
        assert exact.evaluations == 2 ** 6
        assert 5 <= heuristic.evaluations <= 5 * 64  # at least one and at most 64 sweeps per start
        assert [r.getMessage() for r in caplog.records] == [
            "cut_norm exact: 6 blocks, 64 evaluations",
            f"cut_norm heuristic: 6 blocks, {heuristic.evaluations} evaluations",
        ]

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

    @pytest.mark.parametrize("kind", ["cut", "l1"])
    def test_anneal_draws_one_uniform_per_swap(self, monkeypatch, kind):
        # every swap of two distinct blocks draws its acceptance uniform, taken or not, so ties
        # and last-bit changes of the objective leave a restart's later draws where they were;
        # against a constant matrix every swap ties, which drew no uniform under retired tag 8
        uniforms = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def random(self):
                uniforms.append(1)
                return self._rng.random()

            def __getattr__(self, name):
                return getattr(self._rng, name)

        draw = metrics.substream
        monkeypatch.setattr(metrics, "substream", lambda *key: Counting(draw(*key)))
        a1 = np.random.default_rng(3).uniform(size=(6, 6))
        value, _, spent = metrics._anneal_permutations(a1 + a1.T, np.full((6, 6), 0.5), 1.0, kind, 0, 400)
        assert value > 0 and spent > 100
        assert len(uniforms) == spent - metrics.ANNEAL_RESTARTS  # one per evaluated swap

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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="`exact` labels the permutation minimum of the common refinement at the quantum "
                              "used, an upper bound on the cut distance that splitting blocks can lower")
    def test_values_labelled_exact_agree(self):
        # two blocks give 0.1225 and quantum 1/8 gives 0.10953125, both labelled exact
        a = StepGraphon([0.5, 0.5], [[0.86, 0.73], [0.73, 0.29]])
        b = StepGraphon([0.5, 0.5], [[0.78, 0.25], [0.25, 0.96]])
        exact = [rep.value for rep in (cut_distance(a, b), cut_distance(a, b, quantum=1 / 8)) if rep.mode == "exact"]
        assert all(abs(value - exact[0]) <= 1e-12 for value in exact)


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


class TestDistanceEstimateAgainstDense:
    """The count-based estimate against the dense per-vertex construction."""

    TWO = StepGraphon([1.0, 1.0], [[0.9, 0.1], [0.1, 0.3]])
    # the third block connects to nothing, so its vertices are isolated and
    # under the feature oracle its group is always empty
    DEAD = StepGraphon([1.0, 0.5, 0.5], [[0.6, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.0]])
    # under degree_sort the 1e-3 block rounds to no vertex at these sizes
    TINY = StepGraphon([1.0, 1.0, 1e-3], [[0.7, 0.2, 0.1], [0.2, 0.4, 0.0], [0.1, 0.0, 0.0]])

    @pytest.mark.parametrize("alignment", ["feature_oracle", "degree_sort"])
    @pytest.mark.parametrize("name", ["TWO", "DEAD", "TINY", "constant"])
    def test_matches_dense(self, alignment, name):
        w = constant_graphon(0.5, mass=2.0) if name == "constant" else getattr(self, name)
        for seed in range(6):
            trace = sample_graphon_process(w, 25.0, seed=seed)
            got = graph_graphon_distance_estimate(trace, w, alignment)
            assert abs(got - dense_distance_estimate(trace, w, alignment)) <= 1e-12

    def test_references_have_empty_groups(self):
        for seed in range(6):
            g = snapshot_at(sample_graphon_process(self.DEAD, 25.0, seed=seed), 25.0, keep_isolated=False)
            assert not np.any(self.DEAD.block_of(g.features[:, 0]) == 2)
            g = snapshot_at(sample_graphon_process(self.TINY, 25.0, seed=seed), 25.0, keep_isolated=False)
            cuts = np.round(np.cumsum(self.TINY.masses) / self.TINY.total_mass * g.num_vertices)
            assert cuts[1] == cuts[2]  # the lowest-degree block gets no vertex under degree_sort

    @pytest.mark.parametrize("alignment", ["feature_oracle", "degree_sort"])
    def test_empty_trace(self, alignment):
        trace = sample_graphon_process(self.TWO, 0.0, seed=0)
        assert trace.num_edges == 0
        got = graph_graphon_distance_estimate(trace, self.TWO, alignment)
        assert got == dense_distance_estimate(trace, self.TWO, alignment)

    def test_memory_linear_in_edges(self):
        w = StepGraphon([100.0, 100.0], [[0.002, 0.0005], [0.0005, 0.002]])
        trace = sample_graphon_process(w, 30.0, seed=0)
        assert snapshot_at(trace, trace.horizon, keep_isolated=False).num_vertices >= 5000
        tracemalloc.start()
        try:
            graph_graphon_distance_estimate(trace, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20  # one dense 5000 x 5000 float matrix alone is 200 MB


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
            assert abs(metrics._cut_values(m)[0] - _exact_cut(m)[0]) <= cut_rounding_bound(m)
            if m.shape[0] <= 7:  # brute force takes 13 s at 10 blocks
                assert metrics._cut_values(m)[0] == pytest.approx(
                    brute_force_cut_norm(StepGraphon(np.ones(m.shape[0]), m)), abs=1e-12)

    def test_upper_bound_above_limit(self, monkeypatch):
        monkeypatch.setattr(metrics, "EXACT_CUTNORM_MAX_BLOCKS", 0)
        for m in self.kernels():
            exact = _exact_cut(m)[0]
            bound = metrics._cut_values(m)[0]
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


class TestCutValues:
    """The split-sum kernel against the clip-sum enumerator it replaced, kept
    above as the oracle ``_exact_cut``, within ``cut_rounding_bound``."""

    @staticmethod
    def stacks():
        rng = np.random.default_rng(8)
        for n in list(range(1, 13)) + [15, 17, 20]:
            shape = (1,) if n == 20 else (3,) if n >= 15 else (2, 3)
            vals = rng.uniform(-1.0, 1.0, size=shape + (n, n))
            vals = vals + np.swapaxes(vals, -1, -2)
            if n <= 4:
                vals[..., 0, :] = vals[..., :, 0] = 0.0  # ties between subsets
            if n >= 15:  # ties within the low blocks and across high subsets
                vals[..., [1, n - 1], :] = vals[..., :, [1, n - 1]] = 0.0
            yield vals

    def test_matches_oracle(self):
        for ms in self.stacks():
            values, masks, signs = metrics._cut_values(ms)
            assert values.shape == masks.shape == signs.shape == ms.shape[:-2]
            for idx in np.ndindex(ms.shape[:-2]):
                m = ms[idx]
                assert abs(values[idx] - _exact_cut(m)[0]) <= cut_rounding_bound(m)
                # the witness reproduces its value from an independent rectangle sum
                assert abs(values[idx] - rectangle_value(m, int(masks[idx]), signs[idx])) <= cut_rounding_bound(m)

    def test_first_maximizer_skips_zero_rows(self):
        # adding a zero row leaves every sum bit-identical, so the first maximizer has none
        for ms in self.stacks():
            masks = metrics._cut_values(ms)[1]
            for idx in np.ndindex(ms.shape[:-2]):
                zero_rows = sum(1 << i for i in np.flatnonzero(~ms[idx].any(axis=1)))
                assert int(masks[idx]) & zero_rows == 0

    def test_values_do_not_depend_on_the_stack(self):
        # what lets the search oracle compare values with ==
        for ms in self.stacks():
            flat = ms.reshape(-1, *ms.shape[-2:])
            whole = metrics._cut_values(flat)
            reversed_stack = metrics._cut_values(flat[::-1])
            for i, m in enumerate(flat):
                alone = metrics._cut_values(m)
                assert all(a.item() == b[i] == c[-1 - i] for a, b, c in zip(alone, whole, reversed_stack))

    def test_single_matrix_and_zero(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-1.0, 1.0, size=(6, 6))
        m = m + m.T
        value, mask, sign = (x.item() for x in metrics._cut_values(m))
        assert abs(value - _exact_cut(m)[0]) <= cut_rounding_bound(m)
        assert abs(value - rectangle_value(m, mask, sign)) <= cut_rounding_bound(m)
        # exact zeros stay exactly 0, alone, in a stack and at 0 x 0
        assert tuple(x.item() for x in metrics._cut_values(np.zeros((4, 4)))) == (0.0, 0, 1.0)
        assert tuple(x.item() for x in metrics._cut_values(np.zeros((0, 0)))) == (0.0, 0, 1.0)
        values, masks, signs = metrics._cut_values(np.stack([m, m - m, -m]))
        assert (values[1], masks[1], signs[1]) == (0.0, 0, 1.0) and values[0] > 0 and values[2] > 0
        values, _, _ = metrics._cut_values(np.zeros((5, 0, 0)))
        assert np.array_equal(values, np.zeros(5))

    def test_bound_above_limit(self, monkeypatch):
        monkeypatch.setattr(metrics, "EXACT_CUTNORM_MAX_BLOCKS", 3)
        ms = next(s for s in self.stacks() if s.shape[-1] == 5)
        values, masks, signs = metrics._cut_values(ms)
        assert masks is None and signs is None
        for idx in np.ndindex(ms.shape[:-2]):
            m = ms[idx]
            assert values[idx] == max(float(np.clip(m, 0.0, None).sum()), float(np.clip(-m, 0.0, None).sum()))
            assert values[idx] >= _exact_cut(m)[0]


def two_block_snapshot():
    """2,908 non-isolated vertices: the refinement against a two-block
    graphon has 14,540 equal-mass blocks."""
    w = StepGraphon([100.0, 100.0], [[0.002, 0.0005], [0.0005, 0.002]])
    return snapshot_at(sample_graphon_process(w, 15.0, seed=0), 15.0, keep_isolated=False), w


class TestCostAndMemory:
    def test_anneal_refinement_over_limit_raises(self):
        g, w = two_block_snapshot()
        assert g.num_vertices == 2908
        with pytest.raises(CostLimitError, match="anneal mode limited to 4096 equal-mass blocks, refinement has 14540"):
            stretched_cut_distance(g, w, mode="anneal", budget=50)

    def test_anneal_work_over_limit_raises_before_any_evaluation(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(metrics, "_perm_objectives", evaluated)
        monkeypatch.setattr(metrics, "common_refinement", evaluated)
        rng = np.random.default_rng(7)
        w1, w2 = random_step(rng, 20, equal_mass=True), random_step(rng, 20, equal_mass=True)
        with pytest.raises(CostLimitError, match="anneal mode limited to 1e\\+11 multiply-adds, 20 blocks at budget 50000 need 3.47e\\+12"):
            cut_distance(w1, w2, mode="anneal")

    def test_anneal_over_limit_keeps_proportional_certificate(self, monkeypatch):
        rng = np.random.default_rng(6)
        lo = random_step(rng, 3, signed=False)
        hi = StepGraphon(2.0 * lo.masses, random_step(rng, 3, signed=False).values)
        for name, limit, message in (("MAX_DISCRETIZE_BLOCKS", 2, "anneal mode limited to 2 equal-mass blocks"),
                                     ("MAX_ANNEAL_WORK", 1, "anneal mode limited to 1 multiply-adds")):
            with monkeypatch.context() as patch:
                patch.setattr(metrics, name, limit)
                rep = cut_distance(lo, hi, mode="anneal", budget=100)
                assert rep.witness["coupling"] == "proportional" and rep.budget_spent == 0
                with pytest.raises(CostLimitError, match=message):
                    cut_distance(random_step(rng, 3), random_step(rng, 3), mode="anneal", budget=100)

    def test_canonical_graphons_share_adjacency(self):
        g = cycle_graph(2000)
        matrix = 8 * g.num_vertices ** 2
        tracemalloc.start()
        try:
            canonical, stretched = canonical_graphons(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix
        assert canonical.values is stretched.values
        assert canonical.values[0, 1] == 1.0 and canonical.values.sum() == 2 * g.num_edges


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
