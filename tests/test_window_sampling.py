"""Window-row samplers against the samplers they replaced.

The row samplers below are the earlier ``sampling`` code, kept verbatim
as oracles: one stream per arriving vertex (retired tag 2 for the process),
one coin per earlier vertex.  The window samplers draw the same births and
features where their streams are unchanged, and edges with the same law:
conditional on the vertices, each pair is present independently with
probability W.  The distribution tests check that law with one statistic
per sampler and family, sum over a fixed set of seeds of (E - sum W)
divided by the square root of the summed variances sum W (1 - W), held to
+-4 (seeds and tolerance fixed before the tests were first run).

The window-loop samplers below are the first ``window-v1`` code, also kept
verbatim: each sampler ran its own window loop around ``_window_edges``
and grew its arrays window by window.  The shared arrival loop that draws
every vertex first must reproduce them bit for bit.
"""

import hashlib
import json
import logging
import math
from typing import Sequence

import numpy as np
import pytest

from graphonlab import sampling
from graphonlab._rng import (
    TAG_CONTROL,
    TAG_SEQ_EDGE,
    TAG_SEQ_FEATURE,
    TAG_WINDOW,
    TAG_WINDOW_EDGES,
    TAG_WRANDOM,
    Streams,
    substream,
)
from graphonlab.experiments import _sample_inhomogeneous_control
from graphonlab.graphon_core import (
    CaronFoxGraphon,
    GraphonError,
    InfiniteBlockGraphon,
    MixedMembershipGraphon,
    RegionIndicatorGraphon,
    StepGraphon,
    constant_graphon,
    evaluate,
    graphon_to_spec,
)
from graphonlab.metrics import stretched_cut_distance
from graphonlab.sampling import (
    ArrivalSchedule,
    ProcessTrace,
    SampledGraph,
    _check_probability_kernel,
    _draw_features,
    load_trace_file,
    sample_dense_wrandom,
    sample_graphon_process,
    sample_sequential,
    save_trace_file,
    snapshot_at,
    trace_prefix,
    trace_to_json,
)

from digests import uv_order

TAG_EDGE_ROW = 2  # retired: per-arrival edge rows of the earlier process layout

STEP = StepGraphon([1.0, 2.0], [[0.9, 0.3], [0.3, 0.1]])
CF_SHIFTED = CaronFoxGraphon("shifted_power", 2.0, 1.5, x_max=6.0)
CF_CAPPED = CaronFoxGraphon("capped_power", 1.5, 2.0, x_max=5.0)
MIXED = MixedMembershipGraphon(
    [[StepGraphon([1.0], [[0.5]]), CF_SHIFTED], [CF_SHIFTED, StepGraphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.3]])]],
    x_max=3.0,
)
SEEDS = range(200)


# ---------------------------------------------------------------------------
# Oracles: the per-arrival row samplers, verbatim
# ---------------------------------------------------------------------------


def _arrival_edges(hits: np.ndarray, v: int) -> np.ndarray:
    """Edges ``(u, v)`` joining arrival ``v`` to the 0-based earlier rows ``hits``."""
    return np.column_stack((hits + 1, np.full(hits.size, v, dtype=np.int64)))


def _pair_probabilities(w, prior: np.ndarray, new_feature: np.ndarray) -> np.ndarray:
    if prior.shape[1] == 1:
        return np.atleast_1d(evaluate(w, prior[:, 0], new_feature[0]))
    return np.atleast_1d(evaluate(w, prior, new_feature[None, :]))


def row_sample_graphon_process(w, horizon: float, seed: int, keep_isolated: bool = False) -> ProcessTrace:
    if horizon < 0:
        raise GraphonError("horizon must be non-negative")
    _check_probability_kernel(w)
    if keep_isolated and isinstance(w, StepGraphon) and w.ambient_infinite:
        raise GraphonError(
            "keep_isolated=True on an infinite-mass ambient space: the process has "
            "infinitely many isolated vertices; truncate to the explicit blocks first"
        )
    mass = w.region_mass()

    births = [np.zeros(0)]
    feats = [np.zeros((0, w.feature_dim))]
    if mass > 0:
        for k in range(int(math.ceil(horizon))):
            rng = substream(seed, TAG_WINDOW, k)
            count = int(rng.poisson(mass))
            window_births = rng.uniform(float(k), float(k + 1), size=count)
            window_feats = _draw_features(w, count, rng)
            keep = window_births <= horizon
            births.append(window_births[keep])
            feats.append(window_feats[keep])
    order = np.argsort(np.concatenate(births), kind="stable")
    births = np.concatenate(births)[order]
    features = np.concatenate(feats)[order]

    edges = [np.zeros((0, 2), dtype=np.int64)]
    for v in range(2, births.size + 1):
        rng = substream(seed, TAG_EDGE_ROW, v)
        coins = rng.random(v - 1)
        probs = _pair_probabilities(w, features[: v - 1], features[v - 1])
        edges.append(_arrival_edges(np.flatnonzero(coins < probs), v))
    return ProcessTrace(w, float(horizon), int(seed), bool(keep_isolated), births, features, np.concatenate(edges))


def row_sample_sequential(w, schedule: ArrivalSchedule, steps: int, seed: int,
                          checkpoints=None) -> list[SampledGraph]:
    if isinstance(w, MixedMembershipGraphon):
        raise GraphonError("sequential arrivals need a scalar feature space")
    _check_probability_kernel(w)
    if steps < 1:
        raise GraphonError("steps must be at least 1")
    marks = sorted(set(int(c) for c in (checkpoints if checkpoints is not None else range(1, steps + 1))))
    if any(c < 1 or c > steps for c in marks):
        raise GraphonError("checkpoints must lie in [1, steps]")

    if isinstance(w, StepGraphon):
        support_cap = math.inf if w.ambient_infinite else w.total_mass
    else:
        support_cap = math.inf  # scalar analytic families live on all of R_+
    features = np.zeros((steps, 1))
    graphs: list[SampledGraph] = []
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for n in range(1, steps + 1):
        s_n = min(schedule.bound(n), support_cap)
        if not (s_n > 0):
            raise GraphonError(f"schedule gives a zero-mass prefix at step {n}")
        rng = substream(seed, TAG_SEQ_FEATURE, n)
        x = rng.uniform(0.0, s_n)
        features[n - 1, 0] = x
        if n > 1:
            probs = np.atleast_1d(evaluate(w, features[: n - 1, 0], x))
            if np.any(probs > 0):
                coins = substream(seed, TAG_SEQ_EDGE, n).random(n - 1)
                edges.append(_arrival_edges(np.flatnonzero(coins < probs), n))
        if n in marks:
            graphs.append(
                SampledGraph(
                    np.arange(1, n + 1, dtype=np.int64),
                    np.concatenate(edges),
                    births=np.arange(1, n + 1, dtype=float),
                    features=features[:n].copy(),
                )
            )
    return graphs


def row_sample_dense_wrandom(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    if not isinstance(w, StepGraphon):
        raise GraphonError("dense W-random sampling needs a step graphon")
    if w.ambient_infinite:
        raise GraphonError("space has infinite total mass; truncate to the explicit blocks first")
    _check_probability_kernel(w)
    if n < 0:
        raise GraphonError("vertex count must be non-negative")
    rng = substream(seed, TAG_WRANDOM, 0)
    feats = rng.uniform(0.0, w.total_mass, size=n)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for v in range(2, n + 1):
        coins = substream(seed, TAG_WRANDOM, v).random(v - 1)
        probs = np.atleast_1d(evaluate(w, feats[: v - 1], feats[v - 1]))
        edges.append(_arrival_edges(np.flatnonzero(coins < probs), v))
    return SampledGraph(
        np.arange(1, n + 1, dtype=np.int64),
        np.concatenate(edges),
        births=np.arange(1, n + 1, dtype=float),
        features=feats.reshape(-1, 1),
    )


# ---------------------------------------------------------------------------
# Oracles: the window-loop samplers of layout window-v1, verbatim
# ---------------------------------------------------------------------------

logger = logging.getLogger(__name__)
_SAMPLER_LAYOUT = "window-v1"
_ARRIVAL_BLOCK = 256
_MAX_COINS = 1 << 20


def _window_edges(w, prior_features: np.ndarray, new_features: np.ndarray, kept: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Edges of one window: its new vertices against all earlier ones and each other.

    Rows of ``prior_features`` are the vertices ``0..P-1`` and rows of
    ``new_features`` the vertices ``P..P+n-1``.  Returns the 0-based pairs
    ``(u, v)`` with ``u < v`` and ``P <= v < P + kept``, drawn as for the
    whole window and then cut to its first ``kept`` vertices; each pair is
    present independently with probability ``evaluate(w, x_u, x_v)``.
    Caron-Fox kernels are exactly the event Poisson(f(x) f(y)) >= 1, so
    they draw Poisson multi-edges with endpoints proportional to f and keep
    the distinct pairs.  Every other kernel compares one coin per pair with
    the kernel, drawn row by row (``P + i`` coins for new vertex ``i``), so
    rows past ``kept`` need not be drawn.
    """
    p = prior_features.shape[0]
    if isinstance(w, CaronFoxGraphon):
        pairs = _poisson_window_pairs(w, prior_features[:, 0], new_features[:, 0], rng)
        return pairs[pairs[:, 1] < p + kept]
    everyone = np.concatenate([prior_features, new_features[:kept]])
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    rows = max(1, _MAX_COINS // max(p + kept, 1))
    for lo in range(0, kept, rows):
        new = everyone[p + lo:p + min(lo + rows, kept)]
        if new.shape[1] == 1:
            probs = evaluate(w, new[:, 0, None], everyone[None, :, 0])
        else:
            probs = evaluate(w, new[:, None, :], everyone[None, :, :])
        v = p + lo + np.arange(new.shape[0])
        earlier = np.arange(p + kept) < v[:, None]
        hits = np.zeros(earlier.shape, dtype=bool)
        hits[earlier] = rng.random(np.count_nonzero(earlier)) < probs[earlier]
        i, u = np.nonzero(hits)
        pairs.append(np.column_stack((u, v[i])))
    return np.concatenate(pairs)


def _poisson_window_pairs(w: CaronFoxGraphon, prior_x: np.ndarray, new_x: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Distinct pairs of a Caron-Fox window, by Poisson multi-edges (see :func:`_window_edges`).

    Cross pairs: Poisson(F_new F_prior) multi-edges with endpoints drawn
    proportional to f, so pair (u, v) gets Poisson(f_u f_v).  Within the
    window: Poisson(F_new^2 / 2) ordered pairs, so an unordered pair gets
    Poisson(f_u f_v / 2) from each order; self pairs are dropped.  F sums f,
    which is zero outside the truncation like the kernel.
    """
    p = prior_x.size
    f_prior, f_new = (np.where((x >= 0) & (x <= w.truncation.x_max), w.f(x), 0.0) for x in (prior_x, new_x))
    cross = int(rng.poisson(f_new.sum() * f_prior.sum()))
    u = _proportional_draw(f_prior, cross, rng)
    v = p + _proportional_draw(f_new, cross, rng)
    within = int(rng.poisson(f_new.sum() ** 2 / 2.0))
    a = p + _proportional_draw(f_new, within, rng)
    b = p + _proportional_draw(f_new, within, rng)
    distinct = a != b
    u = np.concatenate([u, np.minimum(a, b)[distinct]])
    v = np.concatenate([v, np.maximum(a, b)[distinct]])
    size = p + new_x.size
    key = np.unique(u * size + v)
    return np.column_stack(np.divmod(key, size))


def _proportional_draw(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` iid indices with probability proportional to ``weights``."""
    if count == 0:  # the weights may all be zero then
        return np.zeros(0, dtype=np.int64)
    return rng.choice(weights.size, size=count, p=weights / weights.sum())


def window_sample_graphon_process(w, horizon: float, seed: int, keep_isolated: bool = False) -> ProcessTrace:
    """Sample one graphon-process trace up to the horizon.

    Vertices arrive as a Poisson process with intensity (time) x (region
    measure); every unordered pair is connected independently with the
    kernel probability of its features.  ``keep_isolated`` controls the
    default snapshot view only -- the trace always records every vertex of
    the truncated region, so both process variants are recoverable.
    Rejected: infinite-mass ambient space with ``keep_isolated=True`` (the
    process would have infinitely many isolated vertices at every time).

    Unit window ``k`` draws its vertices from ``(TAG_WINDOW, k)`` and its
    edges from ``(TAG_WINDOW_EDGES, k)``, both as for the whole window, then
    cut to ``births <= horizon``.
    """
    if horizon < 0:
        raise GraphonError("horizon must be non-negative")
    _check_probability_kernel(w)
    if keep_isolated and isinstance(w, StepGraphon) and w.ambient_infinite:
        raise GraphonError(
            "keep_isolated=True on an infinite-mass ambient space: the process has "
            "infinitely many isolated vertices; truncate to the explicit blocks first"
        )
    mass = w.region_mass()

    births = np.zeros(0)
    feats = np.zeros((0, w.feature_dim))
    edges = [np.zeros((0, 2), dtype=np.int64)]
    if mass > 0:
        for k in range(int(math.ceil(horizon))):
            rng = substream(seed, TAG_WINDOW, k)
            count = int(rng.poisson(mass))
            if count == 0:
                continue  # its edge stream would draw nothing
            window_births = rng.uniform(float(k), float(k + 1), size=count)
            window_feats = _draw_features(w, count, rng)
            order = np.argsort(window_births, kind="stable")
            window_births, window_feats = window_births[order], window_feats[order]
            kept = int(np.searchsorted(window_births, horizon, side="right"))
            edges.append(_window_edges(w, feats, window_feats, kept, substream(seed, TAG_WINDOW_EDGES, k)) + 1)
            births = np.concatenate([births, window_births[:kept]])
            feats = np.concatenate([feats, window_feats[:kept]])
    if np.any(births[1:] == births[:-1]):
        logger.info("birth-time tie broken by draw order (seed=%s horizon=%s)", seed, horizon)
    return ProcessTrace(w, float(horizon), int(seed), bool(keep_isolated), births, feats, np.concatenate(edges),
                        _SAMPLER_LAYOUT)


def _label_prefix(edges: np.ndarray, births: np.ndarray, features: np.ndarray, k: int) -> SampledGraph:
    """Graph on labels ``1..k`` cut from sorted edges on labels ``1..n``: the edges with ``v <= k``."""
    return SampledGraph(np.arange(1, k + 1), edges[edges[:, 1] <= k], births[:k], features[:k])


def window_sample_sequential(w, schedule: ArrivalSchedule, steps: int, seed: int,
                      checkpoints: Sequence[int] | None = None) -> list[SampledGraph]:
    """One-vertex-per-step arrivals with features from renormalized prefixes.

    At step ``n`` the new feature is uniform on ``S_n`` (intersected with
    the finite block support unless the ambient space is infinite), and
    edges to all earlier vertices are drawn independently from the kernel.
    Returns the graph at every checkpoint (default: every step); each graph
    is an induced subgraph of the next, cut from the final graph as a label
    prefix like :func:`snapshot_at`.

    Block ``b`` of ``_ARRIVAL_BLOCK`` steps draws its features from
    ``(TAG_SEQ_FEATURE, b)`` and its edges from ``(TAG_SEQ_EDGE, b)``, as
    for the whole block, so a run with fewer steps is a prefix of a longer
    one.
    """
    if isinstance(w, MixedMembershipGraphon):
        raise GraphonError("sequential arrivals need a scalar feature space")
    _check_probability_kernel(w)
    if steps < 1:
        raise GraphonError("steps must be at least 1")
    marks = sorted(set(int(c) for c in (checkpoints if checkpoints is not None else range(1, steps + 1))))
    if any(c < 1 or c > steps for c in marks):
        raise GraphonError("checkpoints must lie in [1, steps]")

    if isinstance(w, StepGraphon):
        support_cap = math.inf if w.ambient_infinite else w.total_mass
    else:
        support_cap = math.inf  # scalar analytic families live on all of R_+
    blocks = -(-steps // _ARRIVAL_BLOCK)
    s_n = np.minimum(schedule.bound(np.arange(1, blocks * _ARRIVAL_BLOCK + 1)), support_cap)
    empty = np.flatnonzero(~(s_n[:steps] > 0))
    if empty.size:
        raise GraphonError(f"schedule gives a zero-mass prefix at step {empty[0] + 1}")
    features = np.zeros((0, 1))
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for b in range(blocks):
        x = substream(seed, TAG_SEQ_FEATURE, b).uniform(0.0, s_n[b * _ARRIVAL_BLOCK:(b + 1) * _ARRIVAL_BLOCK])
        kept = min(_ARRIVAL_BLOCK, steps - b * _ARRIVAL_BLOCK)
        edges.append(_window_edges(w, features, x[:, None], kept, substream(seed, TAG_SEQ_EDGE, b)) + 1)
        features = np.concatenate([features, x[:kept, None]])
    full = SampledGraph(np.arange(1, steps + 1, dtype=np.int64), np.concatenate(edges))
    births = np.arange(1, steps + 1, dtype=float)
    births.setflags(write=False)
    features.setflags(write=False)
    return [_label_prefix(full.edges, births, features, c) for c in marks]


# ---------------------------------------------------------------------------
# Dense W-random graphs
# ---------------------------------------------------------------------------


def window_sample_dense_wrandom(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Classical W-random graph: n iid features from the normalized measure.

    Features come from ``(TAG_WRANDOM, 0)``; block ``b`` of ``_ARRIVAL_BLOCK``
    vertices draws its edges from ``(TAG_WRANDOM, 1, b)``, one vertex after
    another, so a smaller ``n`` gives an induced subgraph of a larger one.
    """
    if not isinstance(w, StepGraphon):
        raise GraphonError("dense W-random sampling needs a step graphon")
    if w.ambient_infinite:
        raise GraphonError("space has infinite total mass; truncate to the explicit blocks first")
    _check_probability_kernel(w)
    if n < 0:
        raise GraphonError("vertex count must be non-negative")
    feats = substream(seed, TAG_WRANDOM, 0).uniform(0.0, w.total_mass, size=(n, 1))
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for b, lo in enumerate(range(0, n, _ARRIVAL_BLOCK)):
        block = feats[lo:lo + _ARRIVAL_BLOCK]
        edges.append(_window_edges(w, feats[:lo], block, block.shape[0], substream(seed, TAG_WRANDOM, 1, b)) + 1)
    return SampledGraph(
        np.arange(1, n + 1, dtype=np.int64),
        np.concatenate(edges),
        births=np.arange(1, n + 1, dtype=float),
        features=feats,
    )


def window_sample_inhomogeneous_control(t: float, seed: int, p_early: float, p_late: float) -> ProcessTrace:
    """Poisson arrivals on a unit-mass block, but edge probabilities switch
    from ``p_early`` to ``p_late`` halfway through: exchangeability breaks.

    A pair is joined with ``p_early`` when both endpoints were born before
    ``t / 2`` and with ``p_late`` otherwise, a two-block step kernel on
    births.  Window ``k`` draws its births, then its edges, from one stream.
    """
    half = t / 2.0
    kernel = StepGraphon([half, half + 1.0], [[p_early, p_late], [p_late, p_late]])  # covers births in [0, t]
    births = np.zeros(0)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for k in range(int(math.ceil(t))):
        rng = substream(seed, TAG_CONTROL, k)
        count = int(rng.poisson(1.0))
        window = np.sort(rng.uniform(float(k), float(k + 1), size=count))
        kept = int(np.searchsorted(window, t, side="right"))
        edges.append(_window_edges(kernel, births[:, None], window[:, None], kept, rng) + 1)
        births = np.concatenate([births, window[:kept]])
    return ProcessTrace(kernel, t, seed, True, births, births[:, None], np.concatenate(edges), "control-v1")


# ---------------------------------------------------------------------------
# One arrival loop: bit-identical to the window loops
# ---------------------------------------------------------------------------


def _assert_traces_equal(new: ProcessTrace, old: ProcessTrace):
    for name in ("births", "features", "edges"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    assert (new.horizon, new.keep_isolated, new.sampler) == (old.horizon, old.keep_isolated, old.sampler)
    assert graphon_to_spec(new.graphon) == graphon_to_spec(old.graphon)


def _assert_graphs_equal(new: SampledGraph, old: SampledGraph):
    for name in ("labels", "edges", "births", "features"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    assert np.array_equal(new.edge_rows(), old.edge_rows())


@pytest.mark.parametrize("w", [STEP, CF_SHIFTED, CF_CAPPED, MIXED], ids=["step", "cf_shifted", "cf_capped", "mixed"])
@pytest.mark.parametrize("horizon", [0.0, 0.4, 5.0, 5.5])
@pytest.mark.parametrize("keep_isolated", [False, True])
def test_process_equals_window_loop(w, horizon, keep_isolated):
    for seed in range(3):
        new = sample_graphon_process(w, horizon, seed, keep_isolated)
        _assert_traces_equal(new, window_sample_graphon_process(w, horizon, seed, keep_isolated))
        assert new.sampler == "window-v1"


@pytest.mark.parametrize("w, schedule", [
    (StepGraphon([1.0], [[0.6]], ambient_infinite=True), ArrivalSchedule("linear", 0.01)),
    (StepGraphon([1.0, 2.0], [[0.9, 0.3], [0.3, 0.2]], ambient_infinite=True), ArrivalSchedule("exponential", 0.01)),
    (CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0), ArrivalSchedule("linear", 0.05)),
], ids=["linear", "exponential", "caron_fox"])
def test_sequential_equals_window_loop(w, schedule):
    for steps in (1, 255, 256, 257, 600):
        new, old = sample_sequential(w, schedule, steps, 3), window_sample_sequential(w, schedule, steps, 3)
        assert len(new) == len(old) == steps
        for a, b in zip(new, old):
            _assert_graphs_equal(a, b)
    assert new[-1].num_edges > 0


def test_dense_equals_window_loop():
    for n in (0, 1, 256, 300):
        for seed in range(2):
            _assert_graphs_equal(sample_dense_wrandom(STEP, n, seed), window_sample_dense_wrandom(STEP, n, seed))


@pytest.mark.parametrize("t", [9.5, 40.0])
def test_control_equals_window_loop(t):
    for seed in range(5):
        new = _sample_inhomogeneous_control(t, seed, 0.9, 0.1)
        _assert_traces_equal(new, window_sample_inhomogeneous_control(t, seed, 0.9, 0.1))


def test_caron_fox_f_is_evaluated_once_per_call(monkeypatch):
    sizes = []
    f = CaronFoxGraphon.f

    def counted(self, x):
        sizes.append(np.size(x))
        return f(self, x)

    monkeypatch.setattr(CaronFoxGraphon, "f", counted)
    for horizon in (6.0, 6.5):
        sizes.clear()
        trace = sample_graphon_process(CF_SHIFTED, horizon, 1)
        # one evaluation over every drawn row, the rows past a fractional horizon included
        assert len(sizes) == 1 and sizes[0] >= trace.num_vertices > 0


# ---------------------------------------------------------------------------
# The coin tape: decided pairs read no coins, the rest read the window-v1 coins
# ---------------------------------------------------------------------------

DEAD_BLOCK = StepGraphon([1.0, 1.0], [[0.0, 0.0], [0.0, 0.5]])
ZERO_ONE_COIN = StepGraphon([1.0, 1.0], [[0.0, 1.0], [1.0, 0.3]])
AMBIENT = StepGraphon([1.0, 2.0], [[0.9, 0.3], [0.3, 0.2]], ambient_infinite=True)


@pytest.fixture
def tiny_chunks(monkeypatch):
    from graphonlab import sampling

    # one row per chunk once 6 rows are live, so a skipped stretch is followed by coins of the same window
    monkeypatch.setattr(sampling, "_MAX_COINS", 7)


@pytest.mark.parametrize("w", [DEAD_BLOCK, ZERO_ONE_COIN, AMBIENT, MIXED], ids=["dead_block", "zero_one_coin",
                                                                              "ambient", "mixed"])
def test_skip_path_equals_window_loop(w, tiny_chunks):
    for seed in range(3):
        _assert_traces_equal(sample_graphon_process(w, 12.5, seed), window_sample_graphon_process(w, 12.5, seed))
    if not isinstance(w, MixedMembershipGraphon):
        for schedule in (ArrivalSchedule("linear", 0.01), ArrivalSchedule("exponential", 0.01)):
            new, old = (f(w, schedule, 600, 1, checkpoints=[600])[0]
                        for f in (sample_sequential, window_sample_sequential))
            _assert_graphs_equal(new, old)
    if isinstance(w, StepGraphon) and not w.ambient_infinite:
        _assert_graphs_equal(sample_dense_wrandom(w, 600, 2), window_sample_dense_wrandom(w, 600, 2))


def test_skip_path_control_equals_window_loop(tiny_chunks):
    for seed in range(3):
        new = _sample_inhomogeneous_control(20.0, seed, 0.9, 0.1)
        _assert_traces_equal(new, window_sample_inhomogeneous_control(20.0, seed, 0.9, 0.1))


def _logged(caplog, sample):
    """``sample()`` and the numbers in the "arrival edges" line it logs.

    The coin path logs (kernel values, coins drawn, coins skipped, stream
    states derived, generators built).
    """
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graphonlab.sampling"):
        result = sample()
    message, = [r.getMessage() for r in caplog.records if r.getMessage().startswith("arrival edges")]
    return result, [int(word) for word in message.split() if word.isdigit()]


def _cost_counters(caplog, sample) -> list[int]:
    return _logged(caplog, sample)[1]


def test_zero_one_kernels_build_no_edge_stream(caplog):
    region = RegionIndicatorGraphon(0.5, x_max=4.0)
    for w in (constant_graphon(1.0), StepGraphon([1.0, 1.0], [[0.0, 1.0], [1.0, 1.0]]), region):
        trace, counters = _logged(caplog, lambda: sample_graphon_process(w, 6.5, 3))
        _assert_traces_equal(trace, window_sample_graphon_process(w, 6.5, 3))
        assert trace.num_edges > 0
        assert counters[3] > 0 and counters[4] == 0
    for schedule in (ArrivalSchedule("linear", 1.0), ArrivalSchedule("exponential", 1.0)):
        w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
        new, counters = _logged(caplog, lambda: sample_sequential(w, schedule, 600, 4, checkpoints=[600])[0])
        _assert_graphs_equal(new, window_sample_sequential(w, schedule, 600, 4, checkpoints=[600])[0])
        assert counters[3:] == [3, 0]
    dense, counters = _logged(caplog, lambda: sample_dense_wrandom(StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
                                                                   300, 1))
    assert dense.num_edges > 0
    assert counters[3:] == [2, 0]
    # the counter does see the streams a coin needs
    _, counters = _logged(caplog, lambda: sample_graphon_process(ZERO_ONE_COIN, 6.5, 3))
    assert 0 < counters[4] <= counters[3]


def test_cost_counters_are_logged(caplog, monkeypatch):
    pairs = 300 * 299 // 2
    assert _cost_counters(caplog, lambda: sample_dense_wrandom(STEP, 300, 1)) == [90000, pairs, 0, 2, 2]
    diagonal = StepGraphon([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    assert _cost_counters(caplog, lambda: sample_dense_wrandom(diagonal, 300, 1)) == [90000, 0, 0, 2, 0]
    live = int(np.count_nonzero(sample_dense_wrandom(DEAD_BLOCK, 300, 1).features >= 1.0))
    values, drawn, skipped, _, _ = _cost_counters(caplog, lambda: sample_dense_wrandom(DEAD_BLOCK, 300, 1))
    assert values == live * live
    assert live * (live - 1) // 2 <= drawn < 0.6 * pairs and drawn + skipped <= pairs  # gaps past dead rows are skipped
    from graphonlab import sampling

    monkeypatch.setattr(sampling, "_MAX_COINS", 7)
    values, drawn, skipped, states, streams = _cost_counters(caplog, lambda: sample_dense_wrandom(DEAD_BLOCK, 300, 1))
    assert values < live * live and live * (live - 1) // 2 <= drawn < pairs and skipped > 0 and states == streams == 2
    assert drawn + skipped <= pairs


class _WindowLoopTape(sampling._CoinTape):
    """The coin tape whose read loops over windows, each in about ten numpy calls, verbatim."""

    def read(self, rows: np.ndarray, cols: np.ndarray, need: np.ndarray) -> np.ndarray:
        coins = []
        first, last = np.searchsorted(self.starts, rows[[0, -1]], "right") - 1
        for i in range(first, last + 1):
            a, b = np.searchsorted(rows, self.starts[i:i + 2])
            window = need[a:b]
            count = np.count_nonzero(window)
            if not count:
                continue
            lo = self.starts[i]
            row_offsets = (rows[a:b] * (rows[a:b] - 1) - lo * (lo - 1)) // 2  # of each row's coin 0
            ends = np.unravel_index([window.argmax(), window.size - 1 - window.ravel()[::-1].argmax()], window.shape)
            head, tail = (int(o) for o in row_offsets[ends[0]] + cols[ends[1]])
            if tail - head + 1 == count:  # every coin of the stretch is needed
                coins.append(self._draw(i, head, tail + 1))
                continue
            ii, kk = np.nonzero(window)
            offsets = row_offsets[ii] + cols[kk]
            piece = (offsets - head) // sampling._MAX_COINS
            skip = np.diff(offsets) > rows[a:b][ii[1:]]  # the next coin lies over a row's coin count ahead
            cuts = [0, *(np.flatnonzero((piece[1:] != piece[:-1]) | skip) + 1).tolist(), count]
            for s, e in zip(cuts[:-1], cuts[1:]):
                start = int(offsets[s])
                coins.append(self._draw(i, start, int(offsets[e - 1]) + 1)[offsets[s:e] - start])
        return np.concatenate(coins)


@pytest.mark.parametrize("density", [0.03, 0.4, 0.97, 1.0])
@pytest.mark.parametrize("max_coins", [7, 40, 1 << 20])
def test_batched_read_equals_window_loop(monkeypatch, density, max_coins):
    monkeypatch.setattr(sampling, "_MAX_COINS", max_coins)
    rng = np.random.default_rng(int(density * 100) + max_coins)
    for trial in range(12):
        n = int(rng.integers(2, 400))
        starts = np.unique(np.r_[0, rng.integers(1, n, size=int(rng.integers(0, 6))), n, n + 256 * (trial % 2)])
        rows = np.arange(n) if trial % 3 else np.flatnonzero(rng.random(n) < 0.7)  # dead rows leave gaps
        tapes = [tape(starts, Streams(trial, (TAG_WINDOW_EDGES,), range(starts.size - 1)))
                 for tape in (sampling._CoinTape, _WindowLoopTape)]
        j0 = 0
        while j0 < rows.size:
            j1 = min(rows.size, j0 + int(rng.integers(1, 60)))
            r, c = rows[j0:j1], rows[:j1]
            need = (rng.random((r.size, c.size)) < density) & (c[None, :] < r[:, None])
            if need.any():
                new, old = (tape.read(r, c, need) for tape in tapes)
                assert new.size == np.count_nonzero(need) and np.array_equal(new, old)
            j0 = j1
        batched, loop = tapes
        assert (batched.drawn, batched.skipped) == (loop.drawn, loop.skipped)
        assert batched.consumed == loop.consumed
        assert batched.streams.built.keys() == loop.streams.built.keys()


def test_poisson_path_logs_its_streams(caplog):
    trace, counters = _logged(caplog, lambda: sample_graphon_process(CF_SHIFTED, 6.5, 1))
    assert trace.num_edges > 0
    assert counters[0] == counters[1] > 0  # every window's edge stream is built


# ---------------------------------------------------------------------------
# Births and features: unchanged streams give identical arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("w, horizon", [(STEP, 7.5), (CF_SHIFTED, 4.2), (MIXED, 6.0)],
                         ids=["step", "caron_fox", "mixed"])
def test_process_vertices_equal_oracle(w, horizon):
    for seed in range(5):
        new, old = sample_graphon_process(w, horizon, seed), row_sample_graphon_process(w, horizon, seed)
        assert new.num_vertices > 0
        assert np.array_equal(new.births, old.births)
        assert np.array_equal(new.features, old.features)


def test_dense_features_equal_oracle():
    for n in (0, 1, 255, 256, 300):
        new, old = sample_dense_wrandom(STEP, n, 3), row_sample_dense_wrandom(STEP, n, 3)
        assert np.array_equal(new.labels, old.labels)
        assert np.array_equal(new.features, old.features)


# ---------------------------------------------------------------------------
# Edge law, conditional on the vertices
# ---------------------------------------------------------------------------


def _pair_moments(w, features: np.ndarray) -> tuple[float, float]:
    """(sum W, sum W (1 - W)) over the unordered pairs of the given features."""
    if features.shape[1] == 1:
        probs = evaluate(w, features[:, 0, None], features[None, :, 0])
    else:
        probs = evaluate(w, features[:, None, :], features[None, :, :])
    upper = probs[np.triu_indices(features.shape[0], 1)]
    return float(upper.sum()), float((upper * (1.0 - upper)).sum())


def _z_score(samples) -> float:
    """sum (E - sum W) / sqrt(sum W (1 - W)) over (edges, sum W, variance) samples."""
    edges, mean, var = (np.array(col, dtype=float) for col in zip(*samples))
    assert var.sum() > 50  # enough pairs that the statistic is near normal
    return float((edges - mean).sum() / math.sqrt(var.sum()))


PROCESS_CASES = [(STEP, 5.5), (CF_SHIFTED, 4.7), (CF_CAPPED, 2.5), (MIXED, 5.5)]
PROCESS_IDS = ["step", "caron_fox_shifted", "caron_fox_capped", "mixed"]


@pytest.mark.parametrize("w, horizon", PROCESS_CASES, ids=PROCESS_IDS)
def test_process_edge_law(w, horizon):
    samples = []
    for seed in SEEDS:
        trace = sample_graphon_process(w, horizon, seed)
        samples.append((trace.num_edges, *_pair_moments(w, trace.features)))
    assert abs(_z_score(samples)) <= 4.0


def test_zero_one_kernel_edges_are_determined():
    # W in {0, 1} leaves no randomness to test statistically: the edges are the pairs with W = 1
    w = RegionIndicatorGraphon(0.5, x_max=4.0)
    for seed in range(20):
        trace = sample_graphon_process(w, 3.5, seed)
        f = trace.features[:, 0]
        u, v = np.triu_indices(trace.num_vertices, 1)
        hits = evaluate(w, f[u], f[v]) == 1.0
        assert np.array_equal(uv_order(trace.edges), np.column_stack((u[hits], v[hits])) + 1)


@pytest.mark.parametrize("w, horizon", PROCESS_CASES[:2], ids=PROCESS_IDS[:2])
def test_oracle_process_edge_law(w, horizon):
    # the statistic itself, on the sampler it replaces
    samples = []
    for seed in SEEDS:
        trace = row_sample_graphon_process(w, horizon, seed)
        samples.append((trace.num_edges, *_pair_moments(w, trace.features)))
    assert abs(_z_score(samples)) <= 4.0


@pytest.mark.parametrize("sampler, w, schedule, steps", [
    (sample_sequential, StepGraphon([1.0], [[0.7]], ambient_infinite=True), ArrivalSchedule("linear", 0.02), 300),
    (sample_sequential, CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0), ArrivalSchedule("linear", 0.5), 40),
    (row_sample_sequential, CaronFoxGraphon("shifted_power", 1.0, 2.0, x_max=10.0), ArrivalSchedule("linear", 0.5),
     40),
], ids=["step", "caron_fox", "oracle_caron_fox"])
def test_sequential_edge_law(sampler, w, schedule, steps):
    samples = []
    for seed in SEEDS:
        g = sampler(w, schedule, steps, seed, checkpoints=[steps])[0]
        samples.append((g.num_edges, *_pair_moments(w, g.features)))
    assert abs(_z_score(samples)) <= 4.0


def test_caron_fox_edges_stay_inside_truncation():
    # sequential features outside [0, x_max] carry kernel 0, so the Poisson path gives them weight 0
    w = CaronFoxGraphon("capped_power", 2.0, 1.5, x_max=1.0)
    total = 0
    for seed in range(20):
        g = sample_sequential(w, ArrivalSchedule("linear", 0.2), 60, seed, checkpoints=[60])[0]
        assert np.all(g.features[g.edges - 1] <= 1.0)
        total += g.num_edges
    assert total > 0


def test_dense_edge_law():
    w = StepGraphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
    samples = []
    for seed in SEEDS:
        g = sample_dense_wrandom(w, 40 if seed % 2 else 300, seed)
        samples.append((g.num_edges, *_pair_moments(w, g.features)))
    assert abs(_z_score(samples)) <= 4.0


def test_control_edge_law():
    t, p_early, p_late = 9.5, 0.9, 0.1
    samples = []
    for seed in SEEDS:
        trace = _sample_inhomogeneous_control(t, seed, p_early, p_late)
        late = trace.births > t / 2
        probs = np.where(late[:, None] | late[None, :], p_late, p_early)[np.triu_indices(trace.num_vertices, 1)]
        samples.append((trace.num_edges, probs.sum(), (probs * (1 - probs)).sum()))
    assert abs(_z_score(samples)) <= 4.0


# ---------------------------------------------------------------------------
# Projectivity: a shorter run is a prefix of a longer one
# ---------------------------------------------------------------------------


PREFIX_GRAPHONS = {
    "step": STEP,
    "ambient_step": StepGraphon([1.0, 2.0], [[0.9, 0.3], [0.3, 0.1]], ambient_infinite=True),
    "caron_fox": CF_SHIFTED,
    "caron_fox_capped": CF_CAPPED,
    "region_indicator": RegionIndicatorGraphon(0.5, x_max=4.0),
    "infinite_block": InfiniteBlockGraphon([(0.0, 1.0), (1.5, 3.0), (3.0, 4.0)],
                                           [[0.9, 0.2, 0.1], [0.2, 0.4, 0.0], [0.1, 0.0, 0.3]], 2),
    "mixed": MIXED,
}


@pytest.mark.parametrize("name", sorted(PREFIX_GRAPHONS))
def test_process_horizon_prefix(name):
    # a run to a shorter horizon is the longer run cut there, in every field
    w = PREFIX_GRAPHONS[name]
    keep = name != "ambient_step"  # an infinite-mass space cannot keep its isolated vertices
    long = sample_graphon_process(w, 6.0, seed=4, keep_isolated=keep)
    for horizon in (0.0, 0.4, 2.0, 3.3, 5.999, 6.0):
        short = sample_graphon_process(w, horizon, seed=4, keep_isolated=keep)
        cut = trace_prefix(long, horizon)
        assert cut.num_edges or horizon < 2.0  # the cuts past the first windows are not empty
        assert vars(cut).keys() == vars(short).keys()
        for field, want in vars(short).items():
            got = getattr(cut, field)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable, field
            else:
                assert got == want and type(got) is type(want), field


@pytest.mark.parametrize("name", sorted(PREFIX_GRAPHONS))
def test_trace_is_its_final_graph(name):
    # a trace is the graph on labels 1..N: graph functions read it as its snapshot at the horizon
    trace = sample_graphon_process(PREFIX_GRAPHONS[name], 6.0, seed=4, keep_isolated=name != "ambient_step")
    final = snapshot_at(trace, trace.horizon, keep_isolated=True)
    assert isinstance(trace, SampledGraph)
    assert not any(a.flags.writeable for a in vars(trace).values() if isinstance(a, np.ndarray))
    assert np.array_equal(trace.degree_sequence(), final.degree_sequence())
    assert np.array_equal(trace.edge_rows(), final.edge_rows())
    groups = np.arange(trace.num_vertices) % 3
    assert np.array_equal(trace.group_edge_counts(groups, 3), final.group_edge_counts(groups, 3))
    _assert_graphs_equal(trace.drop_isolated(), final.drop_isolated())
    # a short cut keeps the distance search small; the quantum is the stretched vertex mass
    short, ref = trace_prefix(trace, 2.0), constant_graphon(1.0)
    kwargs = dict(mode="anneal", budget=20, quantum=1 / math.sqrt(2 * short.num_edges))
    assert stretched_cut_distance(short, ref, **kwargs) == stretched_cut_distance(
        snapshot_at(short, short.horizon), ref, **kwargs)


def test_sequential_and_dense_prefixes_cross_blocks():
    w = StepGraphon([1.0], [[0.6]], ambient_infinite=True)
    long = sample_sequential(w, ArrivalSchedule("linear", 0.01), 600, 2, checkpoints=[600])[0]
    for steps in (1, 255, 256, 257, 513):
        short = sample_sequential(w, ArrivalSchedule("linear", 0.01), steps, 2, checkpoints=[steps])[0]
        assert np.array_equal(short.features, long.features[:steps])
        assert np.array_equal(short.edges, long.edges[long.edges[:, 1] <= steps])
    dense = sample_dense_wrandom(STEP, 600, 5)
    for n in (1, 256, 300):
        g = sample_dense_wrandom(STEP, n, 5)
        assert np.array_equal(g.edges, dense.edges[dense.edges[:, 1] <= n])


def test_exponential_schedule_is_capped_in_padded_blocks():
    # the last block is drawn whole, past `steps`, where 64 * 2^n would overflow without the cap
    w = StepGraphon([1.0], [[1.0]], ambient_infinite=True)
    assert ArrivalSchedule("exponential", 64.0).bound(1020) == np.finfo(float).max
    g = sample_sequential(w, ArrivalSchedule("exponential", 64.0), 1000, 0, checkpoints=[1000])[0]
    assert g.num_vertices == 1000 and np.all(np.isfinite(g.features))


def test_coin_chunks_leave_the_stream_unchanged(monkeypatch):
    from graphonlab import sampling

    whole = sample_graphon_process(MIXED, 6.0, 1), sample_dense_wrandom(STEP, 300, 1)
    monkeypatch.setattr(sampling, "_MAX_COINS", 7)  # one row per draw once a window sees 8 vertices
    chunked = sample_graphon_process(MIXED, 6.0, 1), sample_dense_wrandom(STEP, 300, 1)
    assert whole[0].num_vertices > 8
    for a, b in zip(whole, chunked):
        assert np.array_equal(a.edges, b.edges)


def test_every_step_checkpoints_equal_rebuilds():
    w = StepGraphon([1.0], [[0.5]], ambient_infinite=True)
    graphs = sample_sequential(w, ArrivalSchedule("linear", 0.01), 300, 7)
    full = graphs[-1]
    assert [g.num_vertices for g in graphs] == list(range(1, 301))
    for c, g in enumerate(graphs, start=1):
        rebuilt = SampledGraph(np.arange(1, c + 1), full.edges[full.edges[:, 1] <= c],
                               births=np.arange(1, c + 1, dtype=float), features=full.features[:c])
        assert np.array_equal(g.labels, rebuilt.labels)
        assert np.array_equal(g.edges, rebuilt.edges)
        assert np.array_equal(g.births, rebuilt.births)
        assert np.array_equal(g.features, rebuilt.features)
    picked = sample_sequential(w, ArrivalSchedule("linear", 0.01), 300, 7, checkpoints=[300, 17, 256])
    assert [g.num_vertices for g in picked] == [17, 256, 300]
    for g in picked:
        assert np.array_equal(g.edges, graphs[g.num_vertices - 1].edges)


# ---------------------------------------------------------------------------
# Trace files written before the stream layout was recorded
# ---------------------------------------------------------------------------


def test_oracle_trace_file_loads_and_round_trips(tmp_path):
    w = StepGraphon([0.5, 1.0, 1.5], [[0.9, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.4]])
    trace = row_sample_graphon_process(w, 9.0, 4)
    path = tmp_path / "old.json"
    save_trace_file(trace, path)
    # the digest the per-arrival layout's files had for this trace
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "edf812170884cb6ff660c463501a9fa848ba30f7ab51014f1e08cd8556e449c0")
    assert "sampler" not in json.loads(path.read_text())
    loaded = load_trace_file(path)
    assert loaded.sampler is None
    for name in ("births", "features", "edges"):
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))
    again = tmp_path / "again.json"
    save_trace_file(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_new_traces_record_the_layout():
    trace = sample_graphon_process(STEP, 3.0, 1)
    assert trace.sampler == "window-v1"
    assert trace_to_json(trace)["sampler"] == "window-v1"
