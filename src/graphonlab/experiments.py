"""Batch experiment harness with a fixed catalog and seeded replication.

Every catalog entry turns one quantitative claim about graphon processes
into a deterministic, replicated computation with a recorded pass/fail
verdict.  Replica ``r`` of a run with master seed ``s`` always samples from
the derived seed ``replica_seed(s, r)``, so reports are bit-reproducible.
An entry that reads the process samples each replica once, at its largest
horizon; every shorter horizon reads a cut of that trace
(``sampling.trace_prefix``), which is the trace a run to that horizon draws.
Aggregates follow a naming convention (``mean_<field>``,
``median_<field>``) that makes them mechanically recomputable from the
per-replica records.

Each entry's parameters are declared once, in ``CATALOG[name].defaults``.
A config (or ``--config`` file) may give any subset of them: the graphon,
the horizons and every parameter it omits take the entry's defaults, a
parameter name the entry does not declare raises ``GraphonError``, and each
value is converted to the type of its default (element by element for
lists).  The report records this filled config, and the runner receives the
parameters as keyword arguments.  A config that omits ``replicas`` runs one
replica; the entry's count applies through :func:`default_config`.
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, homomorphisms
from ._rng import TAG_GENERIC, TAG_PERMTEST, TAG_REPLICA, stream_states, substream
from .graphon_core import (
    GraphonError,
    StepGraphon,
    constant_graphon,
    degree_profile,
    json_field,
    l1_norm,
    load_graphon_spec,
    stretch,
)
from .homomorphisms import count_embeddings, h_analytic, motif, rescaled_density
from .metrics import cut_distance, cut_norm, graph_graphon_distance_estimate
from .regularity import (
    clique_plus_isolated,
    cycle_graph,
    er_power_graph,
    graph_degree_stats,
    required_m,
)
from .sampling import (
    ArrivalSchedule,
    ProcessTrace,
    _sample_control_process,
    sample_dense_wrandom,
    sample_graphon_process,
    sample_sequential,
    snapshot_at,
    trace_prefix,
    xi_box_counts,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "CATALOG",
    "experiment_names",
    "describe_experiment",
    "default_config",
    "run_experiment",
    "render_report",
    "replica_seed",
    "replica_seeds",
]


def replica_seeds(master: int, indices) -> list[int]:
    """Derived integer seeds of the replicas ``indices`` (documented, stable).

    Replica ``r`` gets ``SeedSequence(master, spawn_key=(TAG_REPLICA,
    r)).generate_state(1, np.uint64)[0]``, the first word of its stream state.
    """
    return stream_states(master, (TAG_REPLICA,), indices)[:, 0].tolist()


def replica_seed(master: int, index: int) -> int:
    """Derived integer seed of one replica, as in :func:`replica_seeds`."""
    return replica_seeds(master, [index])[0]


def _jsonify(value):
    """Canonical JSON-compatible form, so configs round-trip identically."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run request; round-trips through JSON identically."""

    experiment: str
    replicas: int = 1
    seed: int = 0
    graphon: dict | None = None
    horizons: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicas < 1:
            raise GraphonError("replica count must be at least 1")
        object.__setattr__(self, "graphon", _jsonify(self.graphon))  # a copy: CATALOG's dicts stay unshared
        object.__setattr__(self, "horizons", tuple(float(t) for t in self.horizons))
        object.__setattr__(self, "params", _jsonify(dict(self.params)))

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "replicas": self.replicas,
            "seed": self.seed,
            "graphon": self.graphon,
            "horizons": list(self.horizons),
            "params": self.params,
        }

    @staticmethod
    def from_json(payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise GraphonError("a config must be a JSON object")
        known = [f.name for f in fields(ExperimentConfig)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise GraphonError(f"unknown config keys {', '.join(unknown)}; known: {', '.join(known)}")
        if "experiment" not in payload:
            raise GraphonError("malformed config: missing key 'experiment'")
        try:
            return ExperimentConfig(
                experiment=json_field(payload["experiment"], "experiment", "string"),
                replicas=json_field(payload.get("replicas", 1), "replicas", "integer"),
                seed=json_field(payload.get("seed", 0), "seed", "integer"),
                graphon=payload.get("graphon"),
                horizons=json_field(payload.get("horizons", ()), "horizon", "number", 1),
                params=json_field(payload.get("params", {}), "params", "object"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphonError(f"malformed config: {exc}") from exc

    def graphon_object(self):
        """The configured graphon; the constant 1 on unit mass when none is given."""
        return constant_graphon(1.0) if self.graphon is None else load_graphon_spec(self.graphon)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    config: ExperimentConfig
    records: list[dict]
    aggregates: dict
    passed: bool
    environment: dict


def _mean(xs) -> float:
    return float(np.mean(np.asarray(list(xs), dtype=float)))


def _median(xs) -> float:
    return float(np.median(np.asarray(list(xs), dtype=float)))


def _stderr(xs) -> float:
    xs = np.asarray(list(xs), dtype=float)
    return float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0


# ---------------------------------------------------------------------------
# Catalog runners
# ---------------------------------------------------------------------------


def _replica_paths(cfg: ExperimentConfig, w, horizons):
    """``(t, r, trace of replica r cut to t)`` for each horizon ``t``, horizon-major.

    Replica ``r`` is sampled once from ``replica_seeds(cfg.seed, ...)[r]``,
    at the largest horizon; each shorter horizon reads its cut
    (:func:`trace_prefix`), which is the trace a run to that horizon draws.
    """
    traces = [sample_graphon_process(w, max(horizons), seed) for seed in replica_seeds(cfg.seed, range(cfg.replicas))]
    for t in horizons:
        for r, trace in enumerate(traces):
            yield t, r, trace_prefix(trace, t)


def _run_edge_growth(cfg: ExperimentConfig, *, t, bounds):
    w = cfg.graphon_object()
    lo, hi = bounds
    records = []
    for _, r, trace in _replica_paths(cfg, w, (t,)):
        records.append({"replica": r, "edges": trace.num_edges, "ratio": 2.0 * trace.num_edges / t**2})
    mean = _mean(rec["ratio"] for rec in records)
    aggregates = {
        "mean_ratio": mean,
        "stderr_ratio": _stderr(rec["ratio"] for rec in records),
        "target": l1_norm(w),
        "bounds": [lo, hi],
    }
    return records, aggregates, bool(lo <= mean <= hi)


def _run_density_convergence(cfg: ExperimentConfig, *, motif, t, rel_tol):
    w = cfg.graphon_object()
    f = homomorphisms.motif(motif)
    target = 0.0 if l1_norm(w) == 0 else h_analytic(f, w).value
    records = []
    for _, r, trace in _replica_paths(cfg, w, (t,)):
        g = snapshot_at(trace, t)
        density = rescaled_density(f, g)[1] if g.num_edges else 0.0
        records.append({"replica": r, "h_inj": density})
    mean = _mean(rec["h_inj"] for rec in records)
    aggregates = {
        "mean_h_inj": mean,
        "stderr_h_inj": _stderr(rec["h_inj"] for rec in records),
        "target": target,
        "rel_tol": rel_tol,
    }
    passed = (mean == 0.0) if target == 0.0 else abs(mean / target - 1.0) <= rel_tol
    return records, aggregates, bool(passed)


def _run_metric_convergence(cfg: ExperimentConfig, *, final_below):
    w = cfg.graphon_object()
    records = [{"horizon": t, "replica": r, "estimate": graph_graphon_distance_estimate(trace, w)}
               for t, r, trace in _replica_paths(cfg, w, cfg.horizons)]
    series = [
        {"x": t, "median_estimate": _median(rec["estimate"] for rec in records if rec["horizon"] == t)}
        for t in cfg.horizons
    ]
    medians = [pt["median_estimate"] for pt in series]
    aggregates = {"series": series, "final_below": final_below}
    passed = all(a > b for a, b in zip(medians, medians[1:])) and medians[-1] < final_below
    return records, aggregates, bool(passed)


def _run_sequential_dichotomy(cfg: ExperimentConfig, *, checkpoints, growth_factor, flat_tol):
    w = cfg.graphon_object()
    steps = max(checkpoints)
    records = []
    seeds = replica_seeds(cfg.seed, range(cfg.replicas))
    for family in ("linear", "exponential"):
        schedule = ArrivalSchedule(family, 1.0)
        for r, seed in enumerate(seeds):
            graphs = sample_sequential(w, schedule, steps, seed, checkpoints=checkpoints)
            rec = {"schedule": family, "replica": r}
            for c, g in zip(checkpoints, graphs):
                rec[f"edges_{c}"] = g.num_edges
            records.append(rec)
    first, last = checkpoints[0], checkpoints[-1]

    def mean_for(family, c):
        return _mean(rec[f"edges_{c}"] for rec in records if rec["schedule"] == family)

    aggregates = {
        "mean_linear_first": mean_for("linear", first),
        "mean_linear_last": mean_for("linear", last),
        "mean_exponential_first": mean_for("exponential", first),
        "mean_exponential_last": mean_for("exponential", last),
        "growth_factor": growth_factor,
        "flat_tol": flat_tol,
    }
    diverges = aggregates["mean_linear_last"] >= growth_factor * aggregates["mean_linear_first"]
    stalls = abs(aggregates["mean_exponential_last"] - aggregates["mean_exponential_first"]) < flat_tol
    return records, aggregates, bool(diverges and stalls)


def _run_tail_dichotomy(cfg: ExperimentConfig, *, alpha, sizes, eps, growth):
    records = []
    for n in sizes:
        records.append({"family": "clique_plus_isolated", "n": n,
                        "m_required": required_m(clique_plus_isolated(n, alpha), eps)})
    for n, seed in zip(sizes, replica_seeds(cfg.seed, range(len(sizes)))):
        g = er_power_graph(n, alpha, seed)
        records.append({"family": "er", "n": n, "m_required": required_m(g, eps)})
    clique_ms = [rec["m_required"] for rec in records if rec["family"] == "clique_plus_isolated"]
    er_ms = [rec["m_required"] for rec in records if rec["family"] == "er"]
    aggregates = {
        "clique_m_values": clique_ms,
        "er_m_values": er_ms,
        "er_growth": er_ms[-1] / er_ms[0] if er_ms[0] else math.inf,
        "growth_required": growth,
    }
    passed = len(set(clique_ms)) == 1 and aggregates["er_growth"] >= growth
    return records, aggregates, bool(passed)


def _run_degree_tail(cfg: ExperimentConfig, *, t, lam, rel_tol):
    w = cfg.graphon_object()
    target = degree_profile(stretch(w))(lam)
    records = []
    for _, r, trace in _replica_paths(cfg, w, (t,)):
        g = snapshot_at(trace, t)
        if g.num_edges == 0:
            records.append({"replica": r, "normalized_count": 0.0})
            continue
        _, counts = graph_degree_stats(g, [lam])
        records.append({"replica": r, "normalized_count": float(counts[0])})
    mean = _mean(rec["normalized_count"] for rec in records)
    aggregates = {"mean_normalized_count": mean, "target": target, "rel_tol": rel_tol}
    return records, aggregates, bool(abs(mean / target - 1.0) <= rel_tol)


def _run_bounded_degree_null(cfg: ExperimentConfig, *, n, tol, bound):
    path3 = motif("path3")
    h_big, _ = rescaled_density(path3, cycle_graph(n))
    closed_form = 4.0 * n / (2.0 * n) ** 1.5
    # independent brute force on the 6-cycle: check all 6^3 maps
    small = cycle_graph(6)
    adj = {lab: set() for lab in small.labels.tolist()}
    for u, v in small.edge_list():
        adj[u].add(v)
        adj[v].add(u)
    brute = sum(
        1
        for a in small.labels.tolist()
        for b in small.labels.tolist()
        for c in small.labels.tolist()
        if b in adj[a] and c in adj[b]
    )
    _, hom_small = count_embeddings(path3, small)
    records = [
        {"check": "closed_form_gap", "value": abs(h_big - closed_form)},
        {"check": "density_small", "value": h_big},
        {"check": "brute_force_gap", "value": abs(hom_small - brute)},
    ]
    aggregates = {"h_value": h_big, "closed_form": closed_form, "brute_force_hom6": brute}
    passed = abs(h_big - closed_form) <= tol and h_big < bound and hom_small == brute
    return records, aggregates, bool(passed)


def _sample_inhomogeneous_control(t: float, seed: int, p_early: float, p_late: float) -> ProcessTrace:
    """Poisson arrivals on a unit-mass block, but edge probabilities switch
    from ``p_early`` to ``p_late`` halfway through: exchangeability breaks.

    A pair is joined with ``p_early`` when both endpoints were born before
    ``t / 2`` and with ``p_late`` otherwise, a two-block step kernel on
    births (see ``sampling._sample_control_process``).
    """
    half = t / 2.0
    kernel = StepGraphon([half, half + 1.0], [[p_early, p_late], [p_late, p_late]])  # covers births in [0, t]
    return _sample_control_process(kernel, t, seed)


def _random_involution(b: int, rng: np.random.Generator) -> np.ndarray:
    """Random product of transpositions (its own inverse), never the identity."""
    order = rng.permutation(b)
    sigma = np.arange(b)
    for i in range(0, b - 1, 2):
        sigma[order[i]], sigma[order[i + 1]] = order[i + 1], order[i]
    return sigma


def _signflip_pvalue(diffs: np.ndarray, resamples: int, rng: np.random.Generator) -> float:
    """Paired sign-flip permutation test of mean zero."""
    observed = abs(diffs.mean())
    flips = rng.choice([-1.0, 1.0], size=(resamples, diffs.size))
    null = np.abs(flips @ diffs) / diffs.size
    return float((1 + (null >= observed - 1e-15).sum()) / (resamples + 1))


def _run_exchangeability(cfg: ExperimentConfig, *, t, bins, n_perms, resamples, level,
                         control_p_early, control_p_late):
    w = cfg.graphon_object()
    h = t / bins
    weights = np.outer(np.arange(1, bins + 1), np.arange(1, bins + 1)).astype(float)
    np.fill_diagonal(weights, 0.0)

    null_boxes = [xi_box_counts(trace, h).astype(float) for _, _, trace in _replica_paths(cfg, w, (t,))]
    control_boxes = [
        xi_box_counts(_sample_inhomogeneous_control(t, seed, control_p_early, control_p_late), h).astype(float)
        for seed in replica_seeds(cfg.seed, range(500_000, 500_000 + cfg.replicas))
    ]

    perm_rng = substream(cfg.seed, TAG_PERMTEST, 0)
    sigmas = [_random_involution(bins, perm_rng) for _ in range(n_perms)]
    records = []
    for idx, sigma in enumerate(sigmas):
        for label, boxes in (("process", null_boxes), ("control", control_boxes)):
            diffs = np.array(
                [float((weights * (x - x[np.ix_(sigma, sigma)])).sum()) for x in boxes]
            )
            p = _signflip_pvalue(diffs, resamples, substream(cfg.seed, TAG_PERMTEST, 100 + idx))
            records.append(
                {"permutation": idx, "population": label, "p_value": p, "rejected": p <= level}
            )
    process_ok = all(not rec["rejected"] for rec in records if rec["population"] == "process")
    control_caught = all(rec["rejected"] for rec in records if rec["population"] == "control")
    aggregates = {
        "min_p_process": min(rec["p_value"] for rec in records if rec["population"] == "process"),
        "max_p_control": max(rec["p_value"] for rec in records if rec["population"] == "control"),
        "level": level,
        "permutations": [sigma.tolist() for sigma in sigmas],
    }
    return records, aggregates, bool(process_ok and control_caught)


def _run_avg_degree_growth(cfg: ExperimentConfig, *, growth_factor):
    w = cfg.graphon_object()
    records = []
    for t, r, trace in _replica_paths(cfg, w, cfg.horizons):
        g = snapshot_at(trace, t)
        avg = 2.0 * g.num_edges / g.num_vertices if g.num_vertices else 0.0
        records.append({"horizon": t, "replica": r, "avg_degree": avg})
    series = [
        {"x": t, "mean_avg_degree": _mean(rec["avg_degree"] for rec in records if rec["horizon"] == t)}
        for t in cfg.horizons
    ]
    means = [pt["mean_avg_degree"] for pt in series]
    aggregates = {"series": series, "growth_factor": growth_factor}
    passed = all(a < b for a, b in zip(means, means[1:])) and means[-1] >= growth_factor * means[0]
    return records, aggregates, bool(passed)


# -- exact-oracle entries -----------------------------------------------------


def _random_symmetric(rng, n, lo=-1.0, hi=1.0):
    vals = rng.uniform(lo, hi, size=(n, n))
    return np.triu(vals) + np.triu(vals, 1).T


def _run_cutnorm_oracle(cfg: ExperimentConfig, *, count, max_blocks, tol):
    rng = substream(cfg.seed, TAG_GENERIC, 1)
    records = []
    for i in range(count):
        n = int(rng.integers(1, max_blocks + 1))
        w = StepGraphon(rng.uniform(0.2, 1.5, size=n), _random_symmetric(rng, n))
        m = w.values * np.outer(w.masses, w.masses)
        # every subset pair (U, V) at once: row i of bits is the indicator of subset i
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).astype(float)
        brute = float(np.abs(bits @ m @ bits.T).max())
        got = cut_norm(w).value
        records.append({"instance": i, "blocks": n, "gap": abs(got - brute)})
    worst = max(rec["gap"] for rec in records)
    return records, {"max_gap": worst, "tol": tol}, bool(worst <= tol)


def _run_permutation_zero(cfg: ExperimentConfig, *, count, blocks, tol):
    rng = substream(cfg.seed, TAG_GENERIC, 2)
    records = []
    for i in range(count):
        w = StepGraphon(np.ones(blocks), _random_symmetric(rng, blocks, 0.0, 1.0))
        perm = rng.permutation(blocks)
        shuffled = StepGraphon(w.masses, w.values[np.ix_(perm, perm)])
        rep = cut_distance(w, shuffled)
        inverts = bool(np.array_equal(w.values, shuffled.values[np.ix_(rep.witness, rep.witness)]))
        records.append({"instance": i, "distance": rep.value, "witness_inverts": inverts})
    worst = max(rec["distance"] for rec in records)
    all_invert = all(rec["witness_inverts"] for rec in records)
    return records, {"max_distance": worst, "tol": tol}, bool(worst <= tol and all_invert)


def _run_edge_density_one(cfg: ExperimentConfig, *, graphs, graphons, tol):
    rng = substream(cfg.seed, TAG_GENERIC, 3)
    records = []
    made = 0
    i = 0
    while made < graphs:
        n = int(rng.integers(3, 14))
        p = float(rng.uniform(0.2, 0.9))
        g = sample_dense_wrandom(constant_graphon(p, mass=1.0), n, replica_seed(cfg.seed, i))
        i += 1
        if g.num_edges == 0:
            continue
        h, h_inj = rescaled_density(motif("edge"), g)
        records.append({"kind": "graph", "instance": made, "gap": abs(h - 1.0) + abs(h_inj - 1.0)})
        made += 1
    for j in range(graphons):
        n = int(rng.integers(1, 6))
        w = StepGraphon(rng.uniform(0.2, 2.0, size=n), _random_symmetric(rng, n, 0.0, 1.0))
        if l1_norm(w) == 0:
            continue
        records.append({"kind": "graphon", "instance": j,
                        "gap": abs(h_analytic(motif("edge"), w).value - 1.0)})
    graph_worst = max(rec["gap"] for rec in records if rec["kind"] == "graph")
    graphon_worst = max(rec["gap"] for rec in records if rec["kind"] == "graphon")
    aggregates = {"max_gap_graphs": graph_worst, "max_gap_graphons": graphon_worst, "tol": tol}
    return records, aggregates, bool(graph_worst == 0.0 and graphon_worst <= tol)


def _run_metric_axioms(cfg: ExperimentConfig, *, triples, max_blocks, sym_tol, tri_tol):
    rng = substream(cfg.seed, TAG_GENERIC, 4)
    records = []
    for i in range(triples):
        n = int(rng.integers(2, max_blocks + 1))
        ws = [StepGraphon(np.ones(n), _random_symmetric(rng, n)) for _ in range(3)]
        d01 = cut_distance(ws[0], ws[1]).value
        d10 = cut_distance(ws[1], ws[0]).value
        d12 = cut_distance(ws[1], ws[2]).value
        d02 = cut_distance(ws[0], ws[2]).value
        records.append(
            {
                "instance": i,
                "blocks": n,
                "symmetry_gap": abs(d01 - d10),
                "triangle_slack": d02 - d01 - d12,
            }
        )
    sym_worst = max(rec["symmetry_gap"] for rec in records)
    tri_worst = max(rec["triangle_slack"] for rec in records)
    aggregates = {"max_symmetry_gap": sym_worst, "max_triangle_slack": tri_worst,
                  "sym_tol": sym_tol, "tri_tol": tri_tol}
    return records, aggregates, bool(sym_worst <= sym_tol and tri_worst <= tri_tol)


def _run_perturbation_bound(cfg: ExperimentConfig, *, count, eps_values):
    rng = substream(cfg.seed, TAG_GENERIC, 5)
    records = []
    for i in range(count):
        n = int(rng.integers(1, 5))
        w = StepGraphon(rng.uniform(0.2, 1.5, size=n), _random_symmetric(rng, n, 0.0, 1.0))
        for eps in eps_values:
            inflated = StepGraphon(w.masses * (1.0 + eps), w.values)
            rep = cut_distance(w, inflated)
            records.append(
                {
                    "instance": i,
                    "eps": eps,
                    "distance": rep.value,
                    "bound": 3.0 * eps * l1_norm(w),
                    "slack": 3.0 * eps * l1_norm(w) - rep.value,
                }
            )
    worst = min(rec["slack"] for rec in records)
    return records, {"min_slack": worst}, bool(worst >= -1e-12)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    runner: object
    doc: str
    criteria: tuple[int, ...]
    defaults: dict


CATALOG: dict[str, CatalogEntry] = {
    "edge_growth": CatalogEntry(
        _run_edge_growth,
        "Edge-count law: mean of 2|E(G_T)|/T^2 over replicas stays inside the"
        " declared bounds around ||W||_1. CSV columns: replica, edges, ratio.",
        (1,),
        {"replicas": 200, "params": {"t": 30.0, "bounds": (0.95, 1.05)}},
    ),
    "density_convergence": CatalogEntry(
        _run_density_convergence,
        "Rescaled injective motif density of process snapshots approaches the"
        " analytic density. CSV columns: replica, h_inj.",
        (2,),
        {"replicas": 50, "graphon": {"type": "step", "masses": [1.0], "values": [[0.5]]},
         "params": {"motif": "triangle", "t": 60.0, "rel_tol": 0.1}},
    ),
    "cutnorm_oracle": CatalogEntry(
        _run_cutnorm_oracle,
        "Exact cut norm equals the full subset-pair brute force on random small"
        " step graphons. CSV columns: instance, blocks, gap.",
        (3,),
        {"params": {"count": 100, "max_blocks": 6, "tol": 1e-12}},
    ),
    "permutation_zero": CatalogEntry(
        _run_permutation_zero,
        "Exact distance between a graphon and a block-shuffled copy vanishes and"
        " the witness inverts the shuffle. CSV columns: instance, distance, witness_inverts.",
        (4,),
        {"params": {"count": 20, "blocks": 7, "tol": 1e-12}},
    ),
    "metric_convergence": CatalogEntry(
        _run_metric_convergence,
        "Stretched-distance estimates of process snapshots to the generating"
        " graphon fall with the horizon. CSV columns: horizon, replica, estimate.",
        (5,),
        {"replicas": 20, "graphon": {"type": "step", "masses": [1.0], "values": [[0.5]]},
         "horizons": (10.0, 20.0, 40.0), "params": {"final_below": 0.1}},
    ),
    "sequential_dichotomy": CatalogEntry(
        _run_sequential_dichotomy,
        "Sequential arrivals keep growing under summable-inverse-mass schedules"
        " and stall otherwise. CSV columns: schedule, replica, edges_<checkpoint>.",
        (6,),
        {"replicas": 50,
         "graphon": {"type": "step", "masses": [1.0], "values": [[1.0]], "ambient_infinite": True},
         "params": {"checkpoints": (100, 1000), "growth_factor": 2.0, "flat_tol": 0.2}},
    ),
    "tail_dichotomy": CatalogEntry(
        _run_tail_dichotomy,
        "Clique-plus-isolated families keep a bounded tail prefix scale while"
        " power-law ER families need a growing one. CSV columns: family, n, m_required.",
        (7,),
        {"params": {"alpha": 0.5, "sizes": (1000, 10000), "eps": 0.1, "growth": 1.5}},
    ),
    "degree_tail": CatalogEntry(
        _run_degree_tail,
        "Normalized degree tail counts of snapshots match the stretched"
        " graphon's degree profile. CSV columns: replica, normalized_count.",
        (8,),
        {"replicas": 50, "graphon": {"type": "step", "masses": [1.0], "values": [[0.5]]},
         "params": {"t": 50.0, "lam": 0.5, "rel_tol": 0.1}},
    ),
    "bounded_degree_null": CatalogEntry(
        _run_bounded_degree_null,
        "Bounded-degree graphs have vanishing densities: the 3-path density of a"
        " long cycle matches its closed form. CSV columns: check, value.",
        (9,),
        {"params": {"n": 10000, "tol": 1e-9, "bound": 0.02}},
    ),
    "edge_density_one": CatalogEntry(
        _run_edge_density_one,
        "The edge motif has rescaled density exactly 1 on graphs and analytic"
        " density 1 on nonnegative step graphons. CSV columns: kind, instance, gap.",
        (10,),
        {"params": {"graphs": 100, "graphons": 50, "tol": 1e-9}},
    ),
    "exchangeability": CatalogEntry(
        _run_exchangeability,
        "Edge birth-pair box counts pass a sign-flip permutation test under"
        " interval involutions; a time-inhomogeneous control fails it."
        " CSV columns: permutation, population, p_value, rejected.",
        (11,),
        {"replicas": 200, "params": {"t": 40.0, "bins": 8, "n_perms": 3,
                                     "resamples": 2000, "level": 0.01,
                                     "control_p_early": 0.9, "control_p_late": 0.1}},
    ),
    "metric_axioms": CatalogEntry(
        _run_metric_axioms,
        "Exact distances are symmetric and satisfy the triangle inequality on"
        " random equal-mass triples. CSV columns: instance, blocks, symmetry_gap, triangle_slack.",
        (12,),
        {"params": {"triples": 50, "max_blocks": 6, "sym_tol": 1e-12, "tri_tol": 1e-9}},
    ),
    "perturbation_bound": CatalogEntry(
        _run_perturbation_bound,
        "Distance to a mass-inflated copy obeys the 3 eps ||W||_1 perturbation"
        " bound. CSV columns: instance, eps, distance, bound, slack.",
        (13,),
        {"params": {"count": 20, "eps_values": (0.01, 0.05)}},
    ),
    "avg_degree_growth": CatalogEntry(
        _run_avg_degree_growth,
        "Average degree of process snapshots grows without bound in the horizon."
        " CSV columns: horizon, replica, avg_degree.",
        (),
        {"replicas": 30, "horizons": (10.0, 20.0, 40.0), "params": {"growth_factor": 2.0}},
    ),
}


def experiment_names() -> list[str]:
    return sorted(CATALOG)


def _entry(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise GraphonError(f"unknown experiment {name!r}; known: {', '.join(experiment_names())}")
    return CATALOG[name]


def describe_experiment(name: str) -> str:
    defaults = default_config(name).to_json()
    return f"{name}: {CATALOG[name].doc}\ndefault config: {json.dumps(defaults, sort_keys=True)}"


def default_config(name: str, seed: int = 0) -> ExperimentConfig:
    return _filled(ExperimentConfig(name, replicas=_entry(name).defaults.get("replicas", 1), seed=seed))


_PARAM_KINDS = {int: "integer", float: "number", str: "string"}  # JSON kinds of the catalog defaults


def _typed(name: str, value, default):
    """``value``, which must be of the JSON kind of ``default``, element by element for a list.

    Nothing is cast; a number given for a float parameter is stored as a float.
    """
    sequence = isinstance(default, (tuple, list))
    kind = type(default[0] if sequence else default)
    expected = f"a list of {kind.__name__}" if sequence else kind.__name__
    if isinstance(value, (tuple, list)) != sequence:
        raise GraphonError(f"parameter {name!r} must be {expected}, got {value!r}")
    json_field(value, f"parameter {name!r}", _PARAM_KINDS[kind], int(sequence), expected)
    return [kind(v) for v in value] if sequence else kind(value)


def _filled(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` completed from its CATALOG entry: the entry's graphon and
    horizons when the config gives none, and every parameter the config
    omits; each parameter must be of its default's JSON kind (:func:`_typed`)."""
    defaults = _entry(config.experiment).defaults
    known = defaults.get("params", {})
    unknown = sorted(set(config.params) - set(known))
    if unknown:
        raise GraphonError(f"unknown parameters {', '.join(unknown)} for {config.experiment}; "
                           f"known: {', '.join(sorted(known))}")
    given = {**known, **config.params}
    return replace(
        config,
        graphon=defaults.get("graphon") if config.graphon is None else config.graphon,
        horizons=config.horizons or defaults.get("horizons", ()),
        params={key: _typed(key, given[key], default) for key, default in known.items()},
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one catalog entry; repeated runs with the same config are identical.

    The report records the config filled from the entry's CATALOG defaults.
    """
    config = _filled(config)
    if config.graphon is not None:
        load_graphon_spec(config.graphon)  # validate before compute
    records, aggregates, passed = CATALOG[config.experiment].runner(config, **config.params)
    environment = {"version": __version__, "seed": config.seed, "python": platform.python_version(),
                   "numpy": np.__version__, "platform": platform.platform()}
    return ExperimentReport(config.experiment, config, records, aggregates, passed, environment)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def render_report(report: ExperimentReport, formats=("csv", "json", "svg"), out_dir=".") -> list[str]:
    """Write the report as CSV rows, a JSON aggregate, and an SVG chart.

    CSV and JSON output is byte-stable for identical reports; rendering
    never changes any stored number.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, report.name)
    for fmt in formats:
        if fmt == "csv":
            path = base + "_records.csv"
            columns = list(report.records[0].keys()) if report.records else []
            lines = [",".join(columns)]
            for rec in report.records:
                lines.append(",".join(_format_cell(rec[c]) for c in columns))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "json":
            path = base + "_report.json"
            payload = {
                "name": report.name,
                "config": report.config.to_json(),
                "aggregates": report.aggregates,
                "passed": report.passed,
                "environment": report.environment,
                "records": report.records,
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif fmt == "svg":
            path = base + "_chart.svg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_render_svg(report))
        else:
            raise GraphonError(f"unknown report format {fmt!r}")
        written.append(path)
    return written


def _render_svg(report: ExperimentReport) -> str:
    """Minimal deterministic line chart of the aggregate series (or verdict card)."""
    width, height, pad = 480, 300, 48
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="14">{report.name} '
        f'({"pass" if report.passed else "fail"})</text>',
    ]
    series = report.aggregates.get("series")
    if series:
        ykey = next(k for k in series[0] if k != "x")
        xs = [pt["x"] for pt in series]
        ys = [pt[ykey] for pt in series]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0
        pts = []
        for x, y in zip(xs, ys):
            px = pad + (x - x0) / xr * (width - 2 * pad)
            py = height - pad - (y - y0) / yr * (height - 2 * pad)
            pts.append((px, py))
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="black" stroke-width="1.5"/>')
        for (px, py), x, y in zip(pts, xs, ys):
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="black"/>')
            parts.append(f'<text x="{px:.2f}" y="{py - 8:.2f}" font-size="10">{y!r}</text>')
            parts.append(f'<text x="{px:.2f}" y="{height - pad + 16:.2f}" font-size="10">{x!r}</text>')
        parts.append(f'<text x="{pad}" y="{height - 8}" font-size="11">{ykey} vs parameter</text>')
    else:
        y = 48
        for key, value in sorted(report.aggregates.items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                parts.append(f'<text x="{pad}" y="{y}" font-size="12">{key} = {value!r}</text>')
                y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
