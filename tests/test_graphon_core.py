"""Kernel representations: pointwise evaluation, norms, truncation, averaging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab.graphon_core import (
    CaronFoxGraphon,
    CostLimitError,
    GraphonError,
    InfiniteBlockGraphon,
    MixedMembershipGraphon,
    Partition,
    RegionIndicatorGraphon,
    SpecError,
    StepGraphon,
    average_over_partition,
    constant_graphon,
    degree_profile,
    discretize,
    evaluate,
    flatten_to_line,
    graphon_to_spec,
    l1_norm,
    l1_norm_report,
    load_graphon_spec,
    partition_from_boundaries,
    stretch,
    truncate_tail,
    zero_graphon,
)

TWO_BLOCK = StepGraphon([1.0, 2.0], [[0.5, 0.2], [0.2, 0.1]])


def random_step(rng, n=None, signed=False, infinite=False):
    n = n if n is not None else int(rng.integers(1, 6))
    masses = rng.uniform(0.2, 2.0, size=n)
    vals = rng.uniform(-1.0 if signed else 0.0, 1.0, size=(n, n))
    vals = np.triu(vals) + np.triu(vals, 1).T
    return StepGraphon(masses, vals, ambient_infinite=infinite)


class TestStepGraphonConstruction:
    def test_rejects_asymmetric_values(self):
        with pytest.raises(GraphonError, match=r"values\[0\]\[1\]"):
            StepGraphon([1.0, 1.0], [[0.0, 0.3], [0.2, 0.0]])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(GraphonError, match=r"masses\[1\]"):
            StepGraphon([1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(GraphonError):
            StepGraphon([1.0], [[0.0, 0.0]])

    def test_zero_graphon_is_valid(self):
        z = zero_graphon()
        assert z.n_blocks == 0
        assert l1_norm(z) == 0.0


class TestEvaluate:
    def test_constant_block(self):
        w = constant_graphon(1.0)
        assert evaluate(w, 0.3, 0.7) == 1.0

    def test_outside_support(self):
        w = constant_graphon(1.0)
        assert evaluate(w, 1.5, 0.2) == 0.0

    def test_caron_fox_origin(self):
        w = CaronFoxGraphon("shifted_power", c=1.0, gamma=2.0, x_max=10.0)
        # independent scalar computation: f(0) = 1, so W(0,0) = 1 - e^-1
        assert evaluate(w, 0.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        w = random_step(rng, n=4)
        xs = rng.uniform(-0.5, w.total_mass + 0.5, size=17)
        ys = rng.uniform(-0.5, w.total_mass + 0.5, size=17)
        batch = evaluate(w, xs, ys)
        for k in range(17):
            assert batch[k] == evaluate(w, xs[k], ys[k])

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        graphons = [
            random_step(rng, signed=True),
            CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=8.0),
            CaronFoxGraphon("capped_power", 0.9, 1.7, x_max=8.0),
            RegionIndicatorGraphon(0.5, x_max=6.0),
            InfiniteBlockGraphon([(0.0, 1.0), (1.0, 3.0)], [[1.0, 0.2], [0.2, 0.0]]),
        ]
        for w in graphons:
            span = w.total_mass if isinstance(w, StepGraphon) else w.truncation.x_max
            xs = rng.uniform(0, span * 1.1, size=1000)
            ys = rng.uniform(0, span * 1.1, size=1000)
            assert np.array_equal(evaluate(w, xs, ys), evaluate(w, ys, xs))

    def test_mixed_membership_symmetry(self):
        rng = np.random.default_rng(3)
        comp01 = StepGraphon([1.0], [[0.3]])
        w = MixedMembershipGraphon(
            [[StepGraphon([1.0], [[0.9]]), comp01], [comp01, StepGraphon([1.0], [[0.1]])]],
            x_max=1.0,
        )
        u = w.sample_features(500, rng)
        v = w.sample_features(500, rng)
        assert np.array_equal(evaluate(w, u, v), evaluate(w, v, u))


class TestL1Norm:
    def test_zero(self):
        assert l1_norm(zero_graphon()) == 0.0

    def test_two_block_exact(self):
        # direct summation oracle: 0.5*1 + 0.2*2 + 0.2*2 + 0.1*4 = 1.7
        assert l1_norm(TWO_BLOCK) == pytest.approx(1.7, abs=1e-15)

    def test_one_block(self):
        assert l1_norm(constant_graphon(1.0)) == 1.0

    def test_caron_fox_quadrature_error_bound(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0)
        rep = l1_norm_report(w, tol=1e-7)
        assert rep.converged and rep.error_bound <= 1e-7
        # refinement-stable: doubling-based estimate agrees with a dumb fine grid
        xs = np.linspace(0, 10.0, 3001)
        fx = w.f(xs)
        ref = np.trapezoid(np.trapezoid(1 - np.exp(-np.outer(fx, fx)), xs, axis=1), xs)
        assert rep.value == pytest.approx(ref, abs=5e-6)

    def test_region_indicator_exact_value(self):
        w = RegionIndicatorGraphon(0.5, x_max=100.0)
        # full-space mass is (1+a)/(1-a) = 3; truncation leaves 2/sqrt(100) at most
        assert w.l1_full() == pytest.approx(3.0)
        assert l1_norm(w) == pytest.approx(3.0 - w.tail_l1_bound(100.0), abs=1e-12)

    def test_truncation_residual_invariant(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, target_l1_residual=0.01)
        assert w.tail_l1_bound(w.truncation.x_max) <= 0.01 * (1 + 1e-9)

    def test_nonconvergence_is_flagged(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0)
        rep = l1_norm_report(w, tol=1e-16)  # unreachable within the grid cap
        assert not rep.converged
        assert rep.error_bound > 1e-16


class TestDegreeProfile:
    def test_constant_block(self):
        prof = degree_profile(constant_graphon(1.0))
        assert prof(0.5) == 1.0
        assert prof(1.0) == 0.0

    def test_zero(self):
        prof = degree_profile(zero_graphon())
        assert prof(0.0) == 0.0

    def test_two_block_oracle(self):
        prof = degree_profile(TWO_BLOCK)
        # degrees: block1 -> 0.9, block2 -> 0.4
        assert prof(0.3) == pytest.approx(3.0)
        assert prof(0.5) == pytest.approx(1.0)

    def test_analytic_profiles_nonincreasing(self):
        for w in (
            CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=8.0),
            RegionIndicatorGraphon(0.5, x_max=8.0),
        ):
            prof = degree_profile(w)
            lams = np.linspace(0.0, 3.0, 20)
            vals = prof(lams)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_nonincreasing_and_layer_cake(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = random_step(rng)
            prof = degree_profile(w)
            lams = np.sort(rng.uniform(0, 2.5, size=12))
            vals = prof(lams)
            assert np.all(np.diff(vals) <= 1e-12)
            assert prof.layer_cake_integral() == pytest.approx(l1_norm(w), abs=1e-12)
            assert prof(0.0) == pytest.approx(prof.mass_positive)


class TestTruncateTail:
    def test_second_block_carries_nothing(self):
        w = StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
        res = truncate_tail(w, 0.1)
        assert res.mass_bound == 1.0
        assert res.residual == 0.0

    def test_both_blocks_needed(self):
        w = StepGraphon([1.0, 1.0], [[0.5, 0.1], [0.1, 0.01]])
        res = truncate_tail(w, 0.05)
        # dropping block 2 leaves 0.1*2 + 0.01 = 0.21 > 0.05
        assert res.mass_bound == 2.0
        assert res.graphon.n_blocks == 2

    def test_zero_graphon(self):
        res = truncate_tail(zero_graphon(), 0.5)
        assert res.mass_bound == 0.0

    def test_residual_monotone_in_eps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            w = random_step(rng, n=5)
            eps = np.sort(rng.uniform(0.01, l1_norm(w) + 0.5, size=5))[::-1]
            residuals = [truncate_tail(w, float(e)).residual for e in eps]
            assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_analytic_family(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=12.0)
        res = truncate_tail(w, 0.2)
        assert 0.0 < res.mass_bound <= 12.0
        assert res.residual < 0.2
        assert res.graphon.n_blocks >= 1

    def test_block_family_truncates_exactly(self):
        w = InfiniteBlockGraphon(
            [(0.0, 1.0), (1.0, 2.0), (2.0, 5.0)],
            [[0.9, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.01]],
        )
        res = truncate_tail(w, eps=0.2)
        # dropping the light third block leaves residual 0.01*9 = 0.09 < 0.2
        assert res.mass_bound == 2.0
        assert res.residual == pytest.approx(0.09, abs=1e-12)


class TestAverageOverPartition:
    def test_identity_partition(self):
        p = Partition.from_cells(TWO_BLOCK, [[0], [1]])
        out = average_over_partition(TWO_BLOCK, p)
        assert np.array_equal(out.values, TWO_BLOCK.values)
        assert np.array_equal(out.masses, TWO_BLOCK.masses)

    def test_merge_two_blocks(self):
        w = StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        p = Partition.from_cells(w, [[0, 1]])
        out = average_over_partition(w, p)
        assert out.n_blocks == 1
        assert out.masses[0] == 2.0
        assert out.values[0, 0] == pytest.approx(0.5)

    def test_zero_graphon_any_partition(self):
        w = StepGraphon([1.0, 2.0], [[0.0, 0.0], [0.0, 0.0]])
        out = average_over_partition(w, Partition.from_cells(w, [[0, 1]]))
        assert l1_norm(out) == 0.0

    def test_l1_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = random_step(rng, n=6, signed=True)
            assignment = rng.integers(0, 3, size=6)
            p = Partition.from_assignment(w, assignment.tolist())
            assert l1_norm(average_over_partition(w, p)) <= l1_norm(w) + 1e-12

    def test_boundary_refinement(self):
        w = StepGraphon([2.0], [[0.6]])
        refined, p = partition_from_boundaries(w, [0.5, 1.0])
        assert refined.n_blocks == 3
        assert p.n_cells == 3
        back = average_over_partition(refined, p)
        assert np.allclose(back.values, 0.6)

    def test_zero_mass_cell_rejected(self):
        with pytest.raises(GraphonError):
            Partition.from_cells(TWO_BLOCK, [[0], [1], []])


class TestStretch:
    def test_unit_norm_fixed_point(self):
        w = constant_graphon(1.0)
        out = stretch(w)
        assert np.array_equal(out.masses, w.masses)

    def test_quarter_value(self):
        out = stretch(constant_graphon(0.25))
        assert out.masses[0] == pytest.approx(2.0)
        assert out.values[0, 0] == 0.25
        assert l1_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_convention(self):
        w = StepGraphon([1.0], [[0.0]])
        out = stretch(w)
        assert l1_norm(out) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_unit_norm_property(self, seed):
        rng = np.random.default_rng(seed)
        w = random_step(rng, signed=True)
        if l1_norm(w) == 0:
            return
        assert abs(l1_norm(stretch(w)) - 1.0) <= 1e-12


class TestFlattenToLine:
    def test_infinite_block_relabels_intervals(self):
        w = InfiniteBlockGraphon([(0.0, 1.0), (1.0, 3.0)], [[1.0, 0.0], [0.0, 0.0]])
        out = flatten_to_line(w)
        assert np.array_equal(out.masses, [1.0, 2.0])
        assert np.array_equal(out.values, [[1.0, 0.0], [0.0, 0.0]])

    def test_single_block(self):
        w = InfiniteBlockGraphon([(0.0, 2.0)], [[0.7]])
        out = flatten_to_line(w)
        assert out.n_blocks == 1 and out.values[0, 0] == 0.7

    def test_preserves_l1_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            lengths = rng.uniform(0.5, 2.0, size=k)
            edges = np.concatenate([[0.0], np.cumsum(lengths + rng.uniform(0, 1, size=k))])
            intervals = [(edges[i], edges[i] + lengths[i]) for i in range(k)]
            p = rng.uniform(0, 1, size=(k, k))
            p = (p + p.T) / 2
            w = InfiniteBlockGraphon(intervals, p)
            flat = flatten_to_line(w)
            direct = float(lengths @ p @ lengths)
            assert l1_norm(flat) == pytest.approx(direct, abs=1e-12)

    def test_mixed_membership_cells(self):
        a = StepGraphon([1.0, 1.0], [[0.9, 0.4], [0.4, 0.9]])
        b = StepGraphon([1.0, 1.0], [[0.2, 0.1], [0.1, 0.2]])
        w = MixedMembershipGraphon([[a, b], [b, a]], x_max=2.0)
        flat = flatten_to_line(w, weight_cells=3)
        assert flat.n_blocks == 6
        # cell-by-cell formula evaluation with centroid weights 1/6, 1/2, 5/6
        centroids = [np.array([1 / 6, 5 / 6]), np.array([0.5, 0.5]), np.array([5 / 6, 1 / 6])]
        comp = [[a, b], [b, a]]
        for ca in range(3):
            for cb in range(3):
                for fa in range(2):
                    for fb in range(2):
                        expected = sum(
                            centroids[ca][k1] * centroids[cb][k2] * comp[k1][k2].values[fa, fb]
                            for k1 in range(2)
                            for k2 in range(2)
                        )
                        got = flat.values[ca * 2 + fa, cb * 2 + fb]
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_unsupported_family(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=4.0)
        with pytest.raises(GraphonError, match="discretize"):
            flatten_to_line(w)

    def test_simplex_cells_three_communities(self):
        comp = StepGraphon([1.0], [[0.5]])
        w = MixedMembershipGraphon([[comp] * 3, [comp] * 3, [comp] * 3], x_max=1.0)
        cells = w.simplex_cells(4)
        probs = [p for p, _ in cells]
        assert sum(probs) == pytest.approx(1.0)
        for p, weights in cells:
            assert p == pytest.approx(0.25)
            assert weights.sum() == pytest.approx(1.0)
            assert np.all(weights >= 0)
        # first-coordinate means are increasing across quantile cells
        firsts = [weights[0] for _, weights in cells]
        assert all(a < b for a, b in zip(firsts, firsts[1:]))
        flat = flatten_to_line(w, weight_cells=4)
        assert flat.n_blocks == 4
        assert flat.total_mass == pytest.approx(1.0)


class TestDiscretize:
    def test_constant_region(self):
        w = InfiniteBlockGraphon([(0.0, 1.0)], [[0.5]])
        flat = flatten_to_line(w)
        assert np.allclose(flat.values, 0.5)

    def test_caron_fox_eight_blocks(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=4.0)
        step, err = discretize(w, 0.5)
        assert step.n_blocks == 8
        # refinement-comparison oracle: recompute the finer-grid comparison
        fine, _ = discretize(w, 0.25)
        half = np.repeat(np.repeat(step.values, 2, axis=0), 2, axis=1)
        expected = float(fine.masses @ np.abs(half - fine.values) @ fine.masses)
        assert err == pytest.approx(expected, abs=1e-12)

    def test_refinement_does_not_increase_error(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=4.0)
        _, err_coarse = discretize(w, 0.5)
        _, err_fine = discretize(w, 0.25)
        assert err_fine <= err_coarse + 1e-12

    def test_grid_too_fine_rejected(self):
        w = CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0)
        with pytest.raises(CostLimitError):
            discretize(w, 1e-5)

    def test_region_indicator_mass_matches_exact(self):
        w = RegionIndicatorGraphon(0.5, x_max=4.0)
        step, _ = discretize(w, 0.25)
        assert l1_norm(step) == pytest.approx(l1_norm(w), rel=5e-3)

    @pytest.mark.parametrize("a, x_max, grid_step", [(0.5, 16.0, 1.0), (0.2, 3.3, 0.1), (0.9, 40.0, 0.5)])
    def test_region_indicator_conserves_mass(self, a, x_max, grid_step):
        # exact cell averages carry exactly the truncated kernel's mass
        w = RegionIndicatorGraphon(a, x_max=x_max)
        step, _ = discretize(w, grid_step)
        assert l1_norm(step) == pytest.approx(w.l1_truncated().value, rel=1e-13, abs=1e-13)

    def test_region_indicator_cells_match_quadrature(self):
        # independent oracle: fine trapezoid of the clipped boundary per cell
        w = RegionIndicatorGraphon(0.5, x_max=4.0)
        step, _ = discretize(w, 0.5)
        edges = np.linspace(0.0, 4.0, 9)
        for i in range(8):
            xs = np.linspace(edges[i], edges[i + 1], 20001)
            fx = w.f(np.maximum(xs, 1e-300))
            for j in range(8):
                y0, y1 = edges[j], edges[j + 1]
                area = np.trapezoid(np.clip(fx - y0, 0.0, y1 - y0), xs)
                assert step.values[i, j] == pytest.approx(area / 0.25, abs=1e-6)


class TestSpecRoundtrip:
    @pytest.mark.parametrize(
        "w",
        [
            TWO_BLOCK,
            StepGraphon([0.5], [[1.0]], ambient_infinite=True),
            CaronFoxGraphon("capped_power", 0.8, 2.5, x_max=6.0),
            RegionIndicatorGraphon(0.4, x_max=9.0),
            InfiniteBlockGraphon([(0.0, 1.0), (2.0, 3.5)], [[0.3, 0.6], [0.6, 0.0]]),
        ],
    )
    def test_roundtrip(self, w):
        again = load_graphon_spec(graphon_to_spec(w))
        assert graphon_to_spec(again) == graphon_to_spec(w)

    def test_mixed_roundtrip(self):
        a = StepGraphon([1.0], [[0.5]])
        w = MixedMembershipGraphon([[a, a], [a, a]], x_max=1.0)
        again = load_graphon_spec(graphon_to_spec(w))
        assert graphon_to_spec(again) == graphon_to_spec(w)

    def test_loader_reports_offending_index(self):
        with pytest.raises(SpecError, match=r"values\[0\]\[1\]"):
            load_graphon_spec({"type": "step", "masses": [1, 1], "values": [[0, 0.3], [0.2, 0]]})

    def test_loader_rejects_unknown_type(self):
        with pytest.raises(SpecError, match="unknown"):
            load_graphon_spec({"type": "mystery"})
