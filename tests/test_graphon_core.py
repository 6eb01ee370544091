"""Kernel representations: pointwise evaluation, norms, truncation, averaging."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab.graphon_core import (
    AnalyticGraphon,
    CaronFoxGraphon,
    CostLimitError,
    Graphon,
    GraphonError,
    InfiniteBlockGraphon,
    MixedMembershipGraphon,
    Partition,
    QuadratureEstimate,
    RegionIndicatorGraphon,
    SpecError,
    StepGraphon,
    TailTruncation,
    Truncation,
    average_over_partition,
    constant_graphon,
    degree_profile,
    discretize,
    evaluate,
    flatten_to_line,
    graphon_to_spec,
    l1_norm,
    l1_norm_report,
    load_graphon_file,
    load_graphon_spec,
    partition_from_boundaries,
    stretch,
    truncate_tail,
    zero_graphon,
)
from graphonlab.homomorphisms import h_analytic, motif, star_moment
from graphonlab.sampling import sample_graphon_process

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

    @pytest.mark.parametrize("build, message", [
        (lambda: StepGraphon(["1.5", True], [[0.5, 0.1], [0.1, 0.5]]), "masses must be integers or floats"),
        (lambda: StepGraphon([1.0, 2.0], [[True, False], [False, True]]), "values must be integers or floats"),
        (lambda: InfiniteBlockGraphon([("0", "1")], [[0.5]]), "intervals must be integers or floats"),
        (lambda: InfiniteBlockGraphon([(0, 1)], [["0.5"]]), "probs must be integers or floats"),
        (lambda: InfiniteBlockGraphon([(0, 1), (2, 3)], [[0.5, 0.1], [0.1, 0.5]], 1.7),
         "^truncation_count must be an integer, got 1.7$"),
        (lambda: StepGraphon([1.5, True], [[0.5, 0.1], [0.1, 0.5]]), "^masses must be integers or floats, got a boolean"),
        (lambda: StepGraphon([1.0, 2.0], [[0.5, np.True_], [np.True_, 0.5]]), "^values must be integers or floats, got a"),
        (lambda: CaronFoxGraphon("shifted_power", "2", 1.5, x_max=6.0), "^c must be a number, got '2'$"),
        (lambda: CaronFoxGraphon("shifted_power", 2, True, x_max=6.0), "^gamma must be a number, got True$"),
        (lambda: RegionIndicatorGraphon("0.5", x_max=4.0), "^a must be a number, got '0.5'$"),
        (lambda: CaronFoxGraphon("shifted_power", 2, 1.5, x_max="6"), "^x_max must be a number, got '6'$"),
        (lambda: CaronFoxGraphon("shifted_power", 2, 1.5, x_max=True), "^x_max must be a number, got True$"),
        (lambda: CaronFoxGraphon("shifted_power", 1, 2, target_l1_residual="0.01"),
         "^target_l1_residual must be a number, got '0.01'$"),
        (lambda: MixedMembershipGraphon([[StepGraphon([1.0], [[0.5]])]], x_max="1"), "^x_max must be a number, got '1'$"),
    ], ids=["step_masses_strings", "step_values_booleans", "block_intervals_strings", "block_probs_strings",
            "block_truncation_fraction", "step_masses_boolean_entry", "step_values_boolean_entry",
            "caron_fox_c_string", "caron_fox_gamma_boolean", "region_a_string", "x_max_string", "x_max_boolean",
            "target_residual_string", "mixed_x_max_string"])
    def test_python_constructors_cast_nothing(self, build, message):
        """The constructors refuse what the spec readers refuse, instead of casting it."""
        with pytest.raises(GraphonError, match=message):
            build()

    def test_python_constructors_take_numpy_numbers(self):
        w = CaronFoxGraphon("shifted_power", np.int64(2), np.float32(1.5), x_max=np.int64(6))
        assert graphon_to_spec(w) == graphon_to_spec(CaronFoxGraphon("shifted_power", 2, 1.5, x_max=6))
        assert RegionIndicatorGraphon(np.float64(0.5), target_l1_residual=np.float32(0.5)).a == 0.5

    def test_zero_graphon_is_valid(self):
        z = zero_graphon()
        assert z.n_blocks == 0
        assert l1_norm(z) == 0.0

    def test_boundaries_cached_and_read_only(self):
        w = StepGraphon([0.5, 1.5, 0.25], np.full((3, 3), 0.5))
        assert np.array_equal(w.boundaries, np.concatenate([[0.0], np.cumsum(w.masses)]))
        assert w.boundaries is w.boundaries
        assert not w.boundaries.flags.writeable
        assert np.array_equal(zero_graphon().boundaries, [0.0])


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


def step_tail_l1(comp, m):
    """Oracle: the replaced step branch of ``MixedMembershipGraphon._component_tail``."""
    b = comp.boundaries
    inside = b[1:] <= m
    masses = np.where(inside, comp.masses, np.maximum(0.0, m - b[:-1]))
    masses = np.minimum(masses, comp.masses)
    ab = np.abs(comp.values)
    total = float(masses @ ab @ masses)
    full = float(comp.masses @ ab @ comp.masses)
    return full - total


CF_SHIFTED = CaronFoxGraphon("shifted_power", 2.0, 1.5, x_max=6.0)
STEP_CROSS = StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])
INTERFACE_GRAPHONS = {
    "empty_step": zero_graphon(),
    "finite_step": TWO_BLOCK,
    "ambient_step": StepGraphon([1.0, 0.5], [[0.4, 0.0], [0.0, 0.9]], ambient_infinite=True),
    "caron_fox_shifted": CF_SHIFTED,
    "caron_fox_capped": CaronFoxGraphon("capped_power", 1.5, 2.0, x_max=5.0),
    "region_indicator": RegionIndicatorGraphon(0.5, x_max=6.0),
    "infinite_block": InfiniteBlockGraphon([(0.0, 1.0), (1.5, 3.0), (3.0, 4.0)],
                                           [[0.9, 0.2, 0.1], [0.2, 0.4, 0.0], [0.1, 0.0, 0.3]], 2),
    "mixed": MixedMembershipGraphon(
        [[StepGraphon([1.0], [[0.5]]), CF_SHIFTED],
         [CF_SHIFTED, StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])]], x_max=3.0),
    "mixed_step": MixedMembershipGraphon(
        [[StepGraphon([1.0], [[0.5]]), STEP_CROSS], [STEP_CROSS, StepGraphon([0.25, 0.5], [[0.9, 0.0], [0.0, 0.4]])]],
        x_max=1.5),
}
STEP_GRAPHONS = ["empty_step", "finite_step", "ambient_step"]


def masked_kernel(w, x, y):
    """Oracle: the replaced analytic arm of ``evaluate``, which cut the
    family's kernel formula to ``[0, x_max]`` in the role feature."""
    if not isinstance(w, AnalyticGraphon):
        return w.kernel(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx, ry = (x, y) if w.feature_dim == 1 else (x[..., -1], y[..., -1])
    m = w.truncation.x_max
    return np.where((rx >= 0) & (rx <= m) & (ry >= 0) & (ry <= m), w._kernel(x, y), 0.0)


def switch_flatten_to_line(w, weight_cells=3):
    """Oracle: the replaced ``flatten_to_line`` body, one arm per family."""
    if isinstance(w, InfiniteBlockGraphon):
        k = w.truncation_count
        masses = [hi - lo for lo, hi in w.intervals[:k]]
        return StepGraphon(masses, w.probs[:k, :k], ambient_infinite=True)
    if isinstance(w, MixedMembershipGraphon):
        comps = w.components
        for row in comps:
            for c in row:
                if not isinstance(c, StepGraphon):
                    raise GraphonError("flatten_to_line needs step components; got an analytic component")
        edges = np.unique(np.concatenate([c.boundaries for row in comps for c in row]))
        keep = np.diff(edges) > 1e-15
        lows, widths = edges[:-1][keep], np.diff(edges)[keep]
        mids = lows + widths / 2
        n_feat = widths.size
        comp_vals = np.zeros((w.K, w.K, n_feat, n_feat))
        for i in range(w.K):
            for j in range(w.K):
                comp_vals[i, j] = evaluate(comps[i][j], mids[:, None], mids[None, :])
        cells = w.simplex_cells(weight_cells)
        masses = []
        for prob, _ in cells:
            masses.extend(prob * widths)
        n = len(cells) * n_feat
        vals = np.zeros((n, n))
        for a, (_, wa) in enumerate(cells):
            for b, (_, wb) in enumerate(cells):
                mix = np.einsum("i,j,ijxy->xy", wa, wb, comp_vals)
                vals[a * n_feat:(a + 1) * n_feat, b * n_feat:(b + 1) * n_feat] = mix
        vals = 0.5 * (vals + vals.T)
        return StepGraphon(masses, vals, ambient_infinite=True)
    if isinstance(w, (CaronFoxGraphon, RegionIndicatorGraphon)):
        raise GraphonError(f"{w.family} has no block structure; use discretize instead")
    raise GraphonError(f"flatten_to_line does not support {type(w).__name__}")


def switch_degree_profile(w, grid_points=1024):
    """Oracle: the replaced ``degree_profile`` arms, as (degrees, weights, exact)."""
    if isinstance(w, InfiniteBlockGraphon):
        w = switch_flatten_to_line(w)
    if isinstance(w, StepGraphon):
        return w.block_degrees(), w.masses, True
    m = w.truncation.x_max
    xs = np.linspace(0.0, m, grid_points, endpoint=False) + m / (2 * grid_points)
    return w.degree_function(xs), np.full(xs.size, m / grid_points), False


def switch_truncate_tail(w, eps):
    """Oracle: the replaced ``truncate_tail`` arms; block and mixed families
    scanned their flattening and dropped their truncation residual."""
    if isinstance(w, (InfiniteBlockGraphon, MixedMembershipGraphon)):
        return truncate_tail(switch_flatten_to_line(w), eps)
    if isinstance(w, AnalyticGraphon):
        return discretized_truncate_tail(w, eps)
    return truncate_tail(w, eps)


MIXED_NO_STEP_FORM = "a mixed_membership graphon has a step form only when every component is a StepGraphon"


def outcome(call):
    """The value of ``call()``, or the type and message of the GraphonError it raises."""
    try:
        return call()
    except GraphonError as exc:
        return type(exc), str(exc)


def same_step(a, b):
    return (np.array_equal(a.masses, b.masses) and np.array_equal(a.values, b.values)
            and a.ambient_infinite == b.ambient_infinite)


class TestGraphonInterface:
    """Step and analytic graphons answer the same questions, and the step
    answers are the block formulas they replaced."""

    @pytest.mark.parametrize("name", sorted(INTERFACE_GRAPHONS))
    def test_evaluate_is_the_kernel(self, name):
        w = INTERFACE_GRAPHONS[name]
        rng = np.random.default_rng(5)
        # features in the sampling region and up to twice as far out
        x = w.sample_features(400, rng).reshape(400, w.feature_dim)
        y = w.sample_features(400, rng).reshape(400, w.feature_dim)
        x[200:, -1] *= 2.0
        y[::2, -1] *= 2.0
        role_x, role_y = x[:, -1], y[:, -1]
        if w.feature_dim == 1:
            x, y = x[:, 0], y[:, 0]
        raw = w._kernel(x, y)
        assert np.array_equal(raw, w._kernel(y, x))
        want = raw
        if isinstance(w, AnalyticGraphon):
            m = w.truncation.x_max
            want = np.where((role_x <= m) & (role_y <= m), raw, 0.0)
        assert np.array_equal(w.kernel(x, y), want)
        assert np.array_equal(evaluate(w, x, y), want)
        assert np.array_equal(evaluate(w, x, y), masked_kernel(w, x, y))
        assert type(evaluate(w, x[0], y[0])) is float

    @pytest.mark.parametrize("name", sorted(INTERFACE_GRAPHONS))
    def test_l1_norm_is_l1_truncated(self, name):
        w = INTERFACE_GRAPHONS[name]
        assert l1_norm(w) == w.l1_truncated().value == l1_norm_report(w).value

    @pytest.mark.parametrize("name", STEP_GRAPHONS)
    def test_step_answers_are_the_block_formulas(self, name):
        w = INTERFACE_GRAPHONS[name]
        assert w.feature_dim == 1 and w.star_tail_exponents() is None
        assert w.region_mass() == w.total_mass
        est = w.l1_truncated(tol=1e-300)
        assert (est.error_bound, est.converged) == (0.0, True)
        for m in (0.0, 0.25, 1.0, 1.2, w.total_mass, w.total_mass + 3.0):
            assert w.tail_l1_bound(m) == step_tail_l1(w, m)
        xs = np.array([-1.0, 0.0, 0.4, 1.0, 1.4, 2.9, 3.0, 7.0])
        if w.n_blocks:
            d, idx = w.block_degrees(), w.block_of(xs)
            assert np.array_equal(w.degree_function(xs), np.where(idx >= 0, d[np.maximum(idx, 0)], 0.0))
        else:
            assert np.array_equal(w.degree_function(xs), np.zeros(xs.size))
        for count in (0, 1, 300):
            old = np.random.default_rng(9).uniform(0.0, w.total_mass, size=(count, 1))
            new = w.sample_features(count, np.random.default_rng(9))
            assert np.array_equal(new.reshape(count, 1), old)

    def test_mixed_membership_asks_its_components(self):
        w = INTERFACE_GRAPHONS["mixed"]
        comps = [c for row in w.components for c in row]
        xs = np.linspace(0.0, 4.0, 41)
        assert w.tail_l1_bound(0.7) == sum(c.tail_l1_bound(0.7) for c in comps) / 4
        assert np.array_equal(w.degree_function(xs), sum(c.degree_function(xs) for c in comps) / 4)

    def test_non_graphons_rejected(self):
        for call in (lambda: evaluate("w", 0.0, 0.0), lambda: l1_norm("w"), lambda: l1_norm_report(None)):
            with pytest.raises(GraphonError, match="^not a graphon"):
                call()


class TestStepForm:
    """Every family answers ``step_form()``, and the operations that used to
    switch on the family give the replaced arms' answers bit for bit, except
    where those arms were wrong: a truncated infinite-block model's dropped
    blocks, and mixed-membership components beyond ``x_max``."""

    @pytest.mark.parametrize("name", sorted(INTERFACE_GRAPHONS))
    def test_step_form_is_the_old_reduction(self, name):
        w = INTERFACE_GRAPHONS[name]
        got = outcome(w.step_form)
        if isinstance(w, StepGraphon):
            assert got[0] is w and got[1] == 0.0
        elif name == "mixed":  # a Caron-Fox component has no block structure
            assert got == (GraphonError, MIXED_NO_STEP_FORM)
        else:
            step, residual = got
            if isinstance(w, (InfiniteBlockGraphon, MixedMembershipGraphon)):
                assert same_step(step, switch_flatten_to_line(w))
            else:
                assert same_step(step, discretize(w, w.truncation.x_max / 256)[0])
            assert residual == w.truncation.target_l1_residual
        assert w.exact_step_form == isinstance(w, (StepGraphon, InfiniteBlockGraphon))

    @pytest.mark.parametrize("name", sorted(INTERFACE_GRAPHONS))
    def test_flatten_to_line_is_the_old_body(self, name):
        w = INTERFACE_GRAPHONS[name]
        for cells in (1, 3, 4):
            got = outcome(lambda: flatten_to_line(w, cells))
            want = outcome(lambda: switch_flatten_to_line(w, cells))
            if name == "mixed":  # the replaced body named flatten_to_line in its error
                want = (GraphonError, MIXED_NO_STEP_FORM)
            assert same_step(got, want) if isinstance(want, StepGraphon) else got == want

    @pytest.mark.parametrize("name", sorted(INTERFACE_GRAPHONS))
    def test_degree_profile_is_the_old_arms(self, name):
        w = INTERFACE_GRAPHONS[name]
        for grid_points in (64, 1024):
            got = degree_profile(w, grid_points)
            degrees, weights, exact = switch_degree_profile(w, grid_points)
            assert np.array_equal(got.degrees, degrees) and np.array_equal(got.weights, weights)
            assert got.exact == exact

    @pytest.mark.parametrize("name", sorted(set(INTERFACE_GRAPHONS) - {"infinite_block"}))
    def test_truncate_tail_is_the_old_arms(self, name):
        w = INTERFACE_GRAPHONS[name]
        for eps in (0.05, 0.2, 1.0):
            got, want = outcome(lambda: truncate_tail(w, eps)), outcome(lambda: switch_truncate_tail(w, eps))
            if name == "mixed":  # the replaced arm raised flatten_to_line's error
                want = (GraphonError, MIXED_NO_STEP_FORM)
            if isinstance(want, TailTruncation):
                assert (got.mass_bound, got.residual) == (want.mass_bound, want.residual)
                assert same_step(got.graphon, want.graphon)
            else:
                assert got == want

    def test_mixed_with_an_analytic_component_has_no_step_form(self):
        w = INTERFACE_GRAPHONS["mixed"]
        for call in (lambda: discretize(w, 0.5), lambda: truncate_tail(w, 0.05), lambda: flatten_to_line(w)):
            assert outcome(call) == (GraphonError, MIXED_NO_STEP_FORM)

    def test_h_analytic_of_block_family_is_its_flattening(self):
        w = INTERFACE_GRAPHONS["infinite_block"]
        for name in ("edge", "triangle", "c4", "star_3"):
            assert h_analytic(motif(name), w) == h_analytic(motif(name), switch_flatten_to_line(w))

    def test_truncate_tail_counts_dropped_blocks(self):
        w = INTERFACE_GRAPHONS["infinite_block"]
        dropped = w.truncation.target_l1_residual  # 2 * 0.1 * 1 * 1 + 0.3 * 1 * 1 from the third block
        assert dropped == pytest.approx(0.5, abs=1e-15)
        for eps in (0.05, 0.2, 1.0):
            res = truncate_tail(w, eps)
            scan = truncate_tail(switch_flatten_to_line(w), max(eps - dropped, 1e-15))
            assert (res.mass_bound, res.residual) == (scan.mass_bound, scan.residual + dropped)
        # the replaced arm reported residual 0.0 here
        third = InfiniteBlockGraphon([(0, 1), (1, 2), (2, 5)],
                                     [[0.9, 0.1, 0.5], [0.1, 0.2, 0.5], [0.5, 0.5, 0.5]], truncation_count=2)
        assert third.truncation.target_l1_residual == 10.5
        res = truncate_tail(third, 0.05)
        assert (res.mass_bound, res.residual) == (2.0, 10.5)

    def test_mixed_flatten_stops_at_x_max(self):
        # the kernel is 0 beyond x_max, so the flattening carries mass 1, not 2
        w = MixedMembershipGraphon([[StepGraphon([2.0], [[0.5]])]], x_max=1.0)
        assert evaluate(w, [1.0, 1.5], [1.0, 0.5]) == 0.0
        flat = flatten_to_line(w)
        assert (flat.total_mass, l1_norm(flat)) == (1.0, 0.5)
        res = truncate_tail(w, 0.05)
        assert (res.mass_bound, res.residual) == (1.0, w.truncation.target_l1_residual)
        assert w.truncation.target_l1_residual == 1.5  # 0.5 * (2^2 - 1^2)


class ConstantFamily(AnalyticGraphon):
    """A family defined outside the package: ``W = value`` on ``[0, x_max]^2``.

    It states its kernel formula, L1 mass and degrees, and takes the default
    sampling region, Simpson cell averages and grid step form."""

    family = "constant_test_family"

    def __init__(self, value, x_max):
        self.value = float(value)
        self._trunc = Truncation(float(x_max), 0.0)

    def _kernel(self, x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.value)

    def tail_l1_bound(self, m):
        return self.value * (self._trunc.x_max ** 2 - min(max(m, 0.0), self._trunc.x_max) ** 2)

    def l1_truncated(self, tol=1e-6):
        return QuadratureEstimate(self.value * self._trunc.x_max ** 2, 0.0, True)

    def degree_function(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where((xs >= 0) & (xs <= self._trunc.x_max), self.value * self._trunc.x_max, 0.0)


class TestNewFamilyNeedsNoPackageEdit:
    """Every operation serves a family the package has never seen, and it
    answers as the equivalent step graphon does."""

    FAMILY = ConstantFamily(0.3, 2.5)
    STEP = StepGraphon([2.5], [[0.3]])
    GRID = StepGraphon(np.full(256, 2.5 / 256), np.full((256, 256), 0.3))  # its step form, exactly

    def test_evaluate(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-1.0, 4.0, size=(2, 300))
        assert np.array_equal(evaluate(self.FAMILY, x, y), evaluate(self.STEP, x, y))
        assert evaluate(self.FAMILY, 1.0, 2.0) == 0.3 and evaluate(self.FAMILY, 1.0, 2.6) == 0.0

    def test_discretize(self):
        step, err = discretize(self.FAMILY, 0.5)
        assert step.n_blocks == 5 and step.total_mass == pytest.approx(2.5, abs=1e-15)
        assert np.allclose(step.values, 0.3, rtol=0.0, atol=1e-15) and err <= 1e-13

    def test_truncate_tail(self):
        for eps in (1e-9, 0.9, 2.0):
            got, want = truncate_tail(self.FAMILY, eps), truncate_tail(self.GRID, eps)
            assert got.mass_bound == pytest.approx(want.mass_bound, rel=1e-12)
            assert got.residual == pytest.approx(want.residual, rel=1e-12, abs=1e-12)
            assert got.graphon.n_blocks == want.graphon.n_blocks
        assert truncate_tail(self.FAMILY, 1e-9).mass_bound == pytest.approx(2.5, rel=1e-12)

    def test_degree_profile_and_star_moment(self):
        got, want = degree_profile(self.FAMILY), degree_profile(self.STEP)
        assert not got.exact and want.exact
        assert got.layer_cake_integral() == pytest.approx(want.layer_cake_integral(), rel=1e-12)
        for lam in (0.5, 0.8):
            assert got(lam) == pytest.approx(want(lam), rel=1e-12)
        for k in (1, 2, 3):
            assert star_moment(self.FAMILY, k).value == pytest.approx(star_moment(self.STEP, k).value, rel=1e-12)

    def test_h_analytic(self):
        for name in ("edge", "triangle", "c4"):
            got = h_analytic(motif(name), self.FAMILY, mc_samples=500, seed=1)
            want = h_analytic(motif(name), self.STEP)
            assert got.finite and got.value == pytest.approx(want.value, rel=1e-12)
            assert got.stderr <= 1e-12

    def test_sample_graphon_process(self):
        # the same features and coins, so the same graph
        got = sample_graphon_process(self.FAMILY, 6.0, seed=4)
        want = sample_graphon_process(self.STEP, 6.0, seed=4)
        assert got.edges.shape[0] > 0
        for field in ("births", "features", "edges"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


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


def discretized_truncate_tail(w, eps):
    """Oracle: the replaced analytic branch of ``truncate_tail``, which went
    through :func:`discretize` and dropped its error estimate."""
    step, _ = discretize(w, w.truncation.x_max / 256)
    base = w.truncation.target_l1_residual
    inner = truncate_tail(step, max(eps - base, 1e-15))
    return TailTruncation(inner.mass_bound, inner.graphon, inner.residual + base)


class TestTruncateTailGrid:
    @pytest.mark.parametrize("w", [
        CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=12.0),
        CaronFoxGraphon("shifted_power", 2.0, 1.5, x_max=40.0),
        RegionIndicatorGraphon(0.5, x_max=8.0),
        RegionIndicatorGraphon(0.8, x_max=30.0),
    ], ids=["caron_fox_12", "caron_fox_40", "region_8", "region_30"])
    def test_bit_identical_to_discretize_path(self, w):
        for eps in (0.05, 0.2, 1.0):
            got, want = truncate_tail(w, eps), discretized_truncate_tail(w, eps)
            assert (got.mass_bound, got.residual) == (want.mass_bound, want.residual)
            assert np.array_equal(got.graphon.masses, want.graphon.masses)
            assert np.array_equal(got.graphon.values, want.graphon.values)


class TestReadOnlyStorage:
    def test_shares_read_only_owner(self):
        vals = np.array([[0.5, 0.2], [0.2, 0.1]])
        vals.setflags(write=False)
        w = StepGraphon([1.0, 2.0], vals)
        assert w.values is vals
        assert StepGraphon(w.masses, w.values).masses is w.masses

    def test_copies_writable_input(self):
        vals = np.array([[0.5, 0.2], [0.2, 0.1]])
        w = StepGraphon([1.0, 2.0], vals)
        vals[0, 0] = 9.0
        assert w.values[0, 0] == 0.5 and not w.values.flags.writeable

    def test_copies_read_only_view_of_writable_array(self):
        base = np.array([[0.5, 0.2], [0.2, 0.1]])
        view = base.view()
        view.setflags(write=False)
        w = StepGraphon([1.0, 2.0], view)
        base[0, 0] = 9.0
        assert w.values is not view and w.values[0, 0] == 0.5

    def test_copies_other_dtypes(self):
        vals = np.array([[1, 0], [0, 1]], dtype=np.int64)
        vals.setflags(write=False)
        w = StepGraphon([1.0, 2.0], vals)
        assert w.values.dtype == np.float64 and not w.values.flags.writeable


def loop_average_over_partition(w, p):
    """Oracle: the replaced cell-pair loop of ``average_over_partition``."""
    k = p.n_cells
    vals = np.zeros((k, k))
    for a, cell_a in enumerate(p.cells):
        for b, cell_b in enumerate(p.cells):
            sub = w.values[np.ix_(list(cell_a), list(cell_b))]
            ma = w.masses[list(cell_a)]
            mb = w.masses[list(cell_b)]
            vals[a, b] = float(ma @ sub @ mb) / (p.masses[a] * p.masses[b])
    vals = 0.5 * (vals + vals.T)
    return StepGraphon(np.asarray(p.masses), vals, w.ambient_infinite)


class TestAverageOverPartition:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            w = random_step(rng, n=int(rng.integers(1, 9)), signed=True, infinite=bool(rng.integers(2)))
            labels = rng.integers(0, int(rng.integers(1, w.n_blocks + 1)), size=w.n_blocks)
            cells = [rng.permutation(np.flatnonzero(labels == lab)).tolist() for lab in np.unique(labels)]
            p = Partition.from_cells(w, [cells[i] for i in rng.permutation(len(cells))])
            got, want = average_over_partition(w, p), loop_average_over_partition(w, p)
            assert np.array_equal(got.masses, want.masses)
            assert got.ambient_infinite == want.ambient_infinite
            assert np.allclose(got.values, want.values, rtol=0, atol=1e-12)

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


def dense_simpson_cell_averages(w, edges):
    """The one-matrix Simpson rule, kept as the oracle of the blockwise one."""
    n = edges.size - 1
    nodes = np.concatenate([edges[:-1], (edges[:-1] + edges[1:]) / 2, edges[1:]])
    weights = np.array([1.0, 4.0, 1.0]) / 6.0
    kern = w.kernel(nodes[:, None], nodes[None, :])
    out = np.zeros((n, n))
    for a, wa in enumerate(weights):
        for b, wb in enumerate(weights):
            out += wa * wb * kern[a * n:(a + 1) * n, b * n:(b + 1) * n]
    return out


class TestDiscretize:
    @pytest.mark.parametrize("w, cells", [
        (CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=199.0), 512),
        (CaronFoxGraphon("capped_power", 1.5, 1.5, x_max=7.0), 37),
    ], ids=["shifted_512", "capped_37"])
    def test_blockwise_simpson_equals_dense(self, w, cells):
        # the strips, rows and mirrors, are the one-matrix rule's rows and columns; discretize
        # built of them equals the full-array oracle of TestStripDiscretize
        from graphonlab import graphon_core

        x_max = w.truncation.x_max
        edges = np.linspace(0.0, x_max, cells + 1)
        strips = [graphon_core._simpson_rows(w, edges, lo, min(lo + graphon_core._STRIP_ROWS, cells))
                  for lo in range(0, cells, graphon_core._STRIP_ROWS)]
        dense = dense_simpson_cell_averages(w, edges)
        assert np.array_equal(np.concatenate([rows for rows, _ in strips]), dense)
        assert np.array_equal(np.concatenate([mirror for _, mirror in strips]), dense.T)
        step, err = discretize(w, x_max / cells)
        want, want_err = full_array_discretize(w, cells)
        assert np.array_equal(step.values, want) and err == pytest.approx(want_err, rel=1e-12, abs=0.0)

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



def nine_grid_simpson_cell_averages(w, edges):
    """The Simpson rule the strips replaced: nine n x n kernel grids, one per
    (left, mid, right) node-set pair, summed in that order."""
    nodes = (edges[:-1], (edges[:-1] + edges[1:]) / 2, edges[1:])
    weights = np.array([1.0, 4.0, 1.0]) / 6.0
    out = np.zeros((edges.size - 1, edges.size - 1))
    for xa, wa in zip(nodes, weights):
        for xb, wb in zip(nodes, weights):
            out += wa * wb * w._kernel(xa[:, None], xb[None, :])
    return out


def corner_array_region_cell_averages(w, edges):
    """The region indicator's area fractions from its whole (n+1) x (n+1) corner array."""
    a, b = w.a, w.b

    def big_g(x):
        return np.minimum(x, 1.0) ** (1.0 - a) / (1.0 - a) + (np.maximum(x, 1.0) ** (1.0 - b) - 1.0) / (1.0 - b)

    x, c = edges[:, None], edges[None, :]
    t = np.where(c > 0, w.f(c), np.inf)
    corner = c * np.minimum(x, t) + np.maximum(big_g(x) - big_g(t), 0.0)
    area = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
    widths = np.diff(edges)
    return np.clip(area / np.outer(widths, widths), 0.0, 1.0)


def full_array_grid_values(w, cells):
    """Oracle of the strip path: the whole cell-average matrix A, then 0.5 (A + A^T)."""
    edges = np.linspace(0.0, w.region_mass(), cells + 1)
    full = corner_array_region_cell_averages if isinstance(w, RegionIndicatorGraphon) else nine_grid_simpson_cell_averages
    vals = full(w, edges)
    return 0.5 * (vals + vals.T)


def full_array_discretize(w, cells):
    """Oracle of :func:`discretize`: both grids whole, and the error estimate
    as one product ``m @ |coarse - fine| @ m`` over the finer grid."""
    coarse, fine = full_array_grid_values(w, cells), full_array_grid_values(w, 2 * cells)
    masses = np.diff(np.linspace(0.0, w.region_mass(), 2 * cells + 1))
    half = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1)
    return coarse, float(masses @ np.abs(half - fine) @ masses)


STRIP_GRAPHONS = {
    "shifted_power": CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=199.0),
    "capped_power": CaronFoxGraphon("capped_power", 1.5, 1.5, x_max=7.0),
    "region": RegionIndicatorGraphon(0.5, x_max=16.0),
}


def traced_peak(call) -> int:
    """Peak traced allocation of ``call()`` in bytes, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStripDiscretize:
    """Cell averages are built in strips of rows, one kernel evaluation per
    node pair, with the bits of the whole-array path they replaced."""

    @pytest.mark.parametrize("cells", [1, 37, 63, 64, 65, 512])
    @pytest.mark.parametrize("name", sorted(STRIP_GRAPHONS))
    def test_equals_full_array_path(self, name, cells):
        w = STRIP_GRAPHONS[name]
        step, err = discretize(w, w.region_mass() / cells)
        want, want_err = full_array_discretize(w, cells)
        assert step.n_blocks == cells
        assert np.array_equal(step.values, want)
        assert np.array_equal(step.masses, np.diff(np.linspace(0.0, w.region_mass(), cells + 1)))
        assert err == pytest.approx(want_err, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(STRIP_GRAPHONS))
    def test_step_form_equals_full_array_path(self, name):
        w = STRIP_GRAPHONS[name]
        assert np.array_equal(w.step_form()[0].values, full_array_grid_values(w, 256))

    @pytest.mark.parametrize("cells", [37, 130])
    @pytest.mark.parametrize("name", sorted(STRIP_GRAPHONS))
    def test_fine_strips_are_rows_of_the_grid(self, name, cells):
        from graphonlab import graphon_core

        w = STRIP_GRAPHONS[name]
        fine = graphon_core._grid_graphon(w, 2 * cells).values
        edges = np.linspace(0.0, w.region_mass(), 2 * cells + 1)
        covered = 0
        for lo, hi, rows in graphon_core._grid_rows(w, edges):
            assert lo == covered and hi - lo <= graphon_core._STRIP_ROWS and lo % 2 == 0
            assert np.array_equal(rows, fine[lo:hi])
            covered = hi
        assert covered == 2 * cells

    @pytest.mark.parametrize("w", [
        CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=199.0),
        CaronFoxGraphon("shifted_power", 3.7, 1.2, x_max=50.0),
        CaronFoxGraphon("capped_power", 1.5, 1.5, x_max=7.0),
        CaronFoxGraphon("capped_power", 0.3, 4.0, x_max=2.5),
    ], ids=["shifted_1_2", "shifted_3.7_1.2", "capped_1.5_1.5", "capped_0.3_4"])
    def test_caron_fox_kernel_is_symmetric_to_the_last_bit(self, w):
        # the strips read W(y, x) from the evaluation of W(x, y)
        nodes = np.empty(2 * 97 + 1)
        edges = np.linspace(0.0, w.region_mass(), 98)
        nodes[0::2], nodes[1::2] = edges, (edges[:-1] + edges[1:]) / 2
        xs = np.concatenate([nodes, np.random.default_rng(3).uniform(0.0, w.region_mass(), 300)])
        k = w._kernel(xs[:, None], xs[None, :])
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, w._kernel(xs[None, :], xs[:, None]))

    def test_512_cells_peak_memory(self):
        # nine 1024 x 1024 kernel grids and their temporaries traced 34 MiB
        w = CaronFoxGraphon("shifted_power", 1, 2, x_max=199)
        assert traced_peak(lambda: discretize(w, 199 / 512)) <= 12 * 2**20

    def test_1024_cells_peak_memory(self):
        w = CaronFoxGraphon("shifted_power", 1, 2, x_max=199)
        assert traced_peak(lambda: discretize(w, 199 / 1024)) <= 40 * 2**20

ROUNDTRIP_GRAPHONS = [
    TWO_BLOCK,
    StepGraphon([0.5], [[1.0]], ambient_infinite=True),
    CaronFoxGraphon("capped_power", 0.8, 2.5, x_max=6.0),
    RegionIndicatorGraphon(0.4, x_max=9.0),
    InfiniteBlockGraphon([(0.0, 1.0), (2.0, 3.5)], [[0.3, 0.6], [0.6, 0.0]]),
]
STEP_SPEC = graphon_to_spec(TWO_BLOCK)
CF_SPEC = graphon_to_spec(CaronFoxGraphon("shifted_power", 1.0, 2.0, target_l1_residual=0.1))
MIXED_SPEC = graphon_to_spec(MixedMembershipGraphon(
    [[TWO_BLOCK.restrict_blocks([0]), CF_SHIFTED], [CF_SHIFTED, constant_graphon(0.5)]], x_max=3.0))
VALID_SPECS = [graphon_to_spec(w) for w in ROUNDTRIP_GRAPHONS] + [
    graphon_to_spec(MixedMembershipGraphon([[StepGraphon([1.0], [[0.5]])] * 2] * 2, x_max=1.0)),
    CF_SPEC,
    MIXED_SPEC,
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _locate_loop(w: InfiniteBlockGraphon, x) -> np.ndarray:
    """The block of each point by one pass per kept interval: the oracle of ``_locate``."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -1, dtype=int)
    for k, (lo, hi) in enumerate(w.intervals[: w.truncation_count]):
        out = np.where((x >= lo) & (x < hi), k, out)
    return out


class TestInfiniteBlockLocate:
    @pytest.mark.parametrize("intervals, count", [
        ([(0.0, 1.0), (1.5, 3.0), (3.0, 4.0)], None),
        ([(0.0, 1.0), (1.5, 3.0), (3.0, 4.0)], 2),
        ([(0.5, 1.0), (1.0, 2.0), (2.0, 2.25), (7.0, 9.0)], None),
        ([(0.25, 0.75)], None),
    ], ids=["gapped_then_touching", "truncated", "touching_then_gap", "one_block"])
    def test_search_equals_interval_loop(self, intervals, count):
        rng = np.random.default_rng(5)
        k = len(intervals)
        probs = rng.uniform(size=(k, k))
        w = InfiniteBlockGraphon(intervals, (probs + probs.T) / 2, count)
        ends = np.ravel(intervals)
        special = [-np.inf, -1.0, 0.0, np.inf, np.nan, 1e300, *ends, *np.nextafter(ends, -np.inf)]
        x = np.concatenate([special, rng.uniform(-1.0, ends[-1] + 1.0, size=500)])
        got = w._locate(x)
        assert got.dtype == np.int64 and np.array_equal(got, _locate_loop(w, x))
        assert w._locate(1.5).shape == () and w._locate(1.5) == _locate_loop(w, 1.5)
        y = rng.permutation(x)
        i, j = _locate_loop(w, x), _locate_loop(w, y)
        kernel = np.where((i >= 0) & (j >= 0), w.probs[np.maximum(i, 0), np.maximum(j, 0)], 0.0)
        assert np.array_equal(w._kernel(x, y), kernel)
        deg = w.step_form()[0].block_degrees()
        assert np.array_equal(w.degree_function(x), np.where(i >= 0, deg[np.maximum(i, 0)], 0.0))


class TestSpecRoundtrip:
    @pytest.mark.parametrize("w", ROUNDTRIP_GRAPHONS)
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

    @pytest.mark.parametrize("spec", [
        dict(CF_SPEC, truncation=[6.0]),
        dict(CF_SPEC, f="shifted_power"),
        dict(MIXED_SPEC, components=5),
        dict(STEP_SPEC, ambient_infinite="false"),
        dict(STEP_SPEC, ambient_infinite=1),
        dict(STEP_SPEC, masses=[10 ** 400]),
        dict(MIXED_SPEC, components=[[STEP_SPEC, CF_SPEC], [STEP_SPEC, STEP_SPEC]]),
        dict(MIXED_SPEC, components=[[STEP_SPEC, CF_SPEC], [{"type": "mystery"}, STEP_SPEC]]),
        dict(MIXED_SPEC, components=[[STEP_SPEC, CF_SPEC], [CF_SPEC]]),
        {"type": ["step"]},
        [STEP_SPEC],
    ])
    def test_malformed_spec_raises_spec_error(self, spec):
        with pytest.raises(SpecError):
            load_graphon_spec(spec)

    @pytest.mark.parametrize("spec, message", [
        (dict(STEP_SPEC, masses=["1.5", True]), "mass must be a number, got '1.5'"),
        (dict(STEP_SPEC, masses=[1.5, True]), "mass must be a number, got True"),
        ({"type": "step", "masses": [1.0], "values": [[True]]}, "value must be a number, got True"),
        (dict(CF_SPEC, f={"kind": "shifted_power", "c": "2", "gamma": 1.5}), "c must be a number, got '2'"),
        (dict(CF_SPEC, f={"kind": "shifted_power", "c": 2, "gamma": "1.5"}), "gamma must be a number, got '1.5'"),
        (dict(CF_SPEC, f={"kind": 1, "c": 2, "gamma": 1.5}), "kind must be a string, got 1"),
        (dict(CF_SPEC, truncation={"x_max": "6"}), "x_max must be a number, got '6'"),
        (dict(CF_SPEC, truncation={"target_l1_residual": False}), "target_l1_residual must be a number, got False"),
        ({"type": "region_indicator", "f": {"a": "0.5"}, "truncation": {"x_max": 9.0}},
         "a must be a number, got '0.5'"),
        ({"type": "infinite_block", "intervals": [[0, 1], [2, 3]], "probs": [[0.5, 0.1], [0.1, 0.2]],
          "truncation_count": 1.7}, "truncation_count must be an integer, got 1.7"),
        ({"type": "infinite_block", "intervals": [[0, "1"]], "probs": [[0.5]]},
         "interval end must be a number, got '1'"),
        ({"type": "infinite_block", "intervals": [[0, 1]], "probs": [[True]]}, "prob must be a number, got True"),
    ], ids=["step_mass_string", "step_mass_bool", "step_value_bool", "cf_c_string", "cf_gamma_string",
            "cf_kind_number", "cf_x_max_string", "cf_residual_bool", "region_a_string",
            "infinite_count_fraction", "infinite_end_string", "infinite_prob_bool"])
    def test_loader_casts_nothing(self, spec, message):
        with pytest.raises(SpecError, match=f": {re.escape(message)}$"):
            load_graphon_spec(spec)

    def test_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not a JSON file"):
            load_graphon_file(path)

    @pytest.mark.parametrize("w", [object(), Graphon()])
    def test_writer_rejects_graphons_without_a_family(self, w):
        with pytest.raises(GraphonError, match="no spec form"):
            graphon_to_spec(w)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_one_field_replaced(self, data):
        """Whatever one field of a valid spec becomes, the loader returns a
        graphon whose spec round-trips or raises SpecError."""
        spec = data.draw(st.sampled_from(VALID_SPECS))
        path = data.draw(st.sampled_from(_field_paths(spec)))
        spec = _replaced(spec, path, data.draw(JSON_VALUES))
        try:
            w = load_graphon_spec(spec)
        except SpecError:
            return
        assert graphon_to_spec(load_graphon_spec(graphon_to_spec(w))) == graphon_to_spec(w)


def _field_paths(value, prefix=()):
    """Key and index paths to every field below ``value``, at any depth."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [path for key, sub in items for path in [prefix + (key,), *_field_paths(sub, prefix + (key,))]]


def _replaced(value, path, new):
    """A copy of ``value`` with the field at ``path`` set to ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy
