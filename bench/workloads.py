"""The four workloads: inputs made from a seed, a timed body of graphonlab
calls, and the checks of the body's outputs.  BENCHMARK.json names three of
them; dense_motifs runs in traced runs and when named by hand.

Bodies call graphonlab through module attributes (``sampling.snapshot_at``,
not an imported name), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import math

import numpy as np

from graphonlab import experiments, graphon_core, homomorphisms, metrics, regularity, sampling

import checks

# -- sparse_growth: the Caron-Fox process of the paper's sparse regime -------
CARON_FOX = dict(f_kind="shifted_power", c=1.0, gamma=2.0, x_max=199.0)
SWEEP_HORIZONS = (25.0, 50.0, 75.0, 100.0)
XI_WIDTH = 10.0
DEGREE_LAMBDAS = (0.1, 0.5, 1.0)
ER_ALPHA = 0.5
ER_SIZES = (10_000, 14_000, 20_000)  # about 0.50M, 0.83M and 1.41M edges

# -- dense_motifs: a two-block graphon, snapshotted when edge 1600 appears ---
# The counting cost follows sum d^3 and tr(A^4), so the snapshot is fixed by
# its edge count (to within the edges of one arrival), not its vertex count:
# the backtracking work then varies by about 3% from seed to seed.  Horizon
# 60 gives about 5000 edges, so edge 1600 always appears (near T=33, |V|
# about 100).
DENSE_MASSES = (1.5, 1.5)
DENSE_VALUES = ((0.4, 0.25), (0.25, 0.4))
DENSE_HORIZON = 60.0
DENSE_EDGES = 1600
MOTIFS = ("triangle", "path3", "c4", "star_3", "k4")

# -- certified_distances -------------------------------------------------------
PAIR_BLOCKS, PAIRS = 8, 2
# Exact search stops at the first zero, so the cost of a shuffled copy is
# uniform in the shuffle's rank; at 7 blocks that seed-to-seed spread stays
# small next to the full 8-block enumerations.
SHUFFLE_BLOCKS, SHUFFLES = 7, 3
CUTNORM_BLOCKS = 20
ANNEAL_BLOCKS, ANNEAL_BUDGET = 12, 2000
REGION = dict(a=0.5, x_max=16.0)
REGION_STEP = 1.0  # 16 cells
CARON_FOX_CELLS = 512


def _symmetric(rng, n, lo, hi):
    vals = rng.uniform(lo, hi, size=(n, n))
    return np.triu(vals) + np.triu(vals, 1).T


def _full_prefix_grid(g):
    """Prefix scales for tail profiles; the last covers every vertex."""
    return np.array([0.25, 0.5, 1.0, 2.0, 4.0, g.num_vertices / math.sqrt(g.num_edges) + 1.0])


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def catalog_inputs(seed):
    return [experiments.default_config(name, seed=seed) for name in experiments.experiment_names()]


def catalog_body(configs):
    return [experiments.run_experiment(cfg) for cfg in configs]


def catalog_verify(configs, reports):
    return [(f"catalog.{r.name}", checks.catalog_report(r.name, r.records, r.aggregates, r.passed))
            for r in reports]


# ---------------------------------------------------------------------------
# sparse_growth
# ---------------------------------------------------------------------------


def sparse_inputs(seed):
    return {"seed": seed, "graphon": graphon_core.CaronFoxGraphon(**CARON_FOX)}


def sparse_body(inp):
    seed = inp["seed"]
    traces = {h: sampling.sample_graphon_process(inp["graphon"], h, seed) for h in SWEEP_HORIZONS}
    full = traces[SWEEP_HORIZONS[-1]]
    snaps = {s: sampling.snapshot_at(full, s) for s in SWEEP_HORIZONS}
    stats = {s: regularity.graph_degree_stats(g, DEGREE_LAMBDAS) for s, g in snaps.items()}
    tails = {s: regularity.graph_tail_profile(g, _full_prefix_grid(g)) for s, g in snaps.items()}
    xi = sampling.xi_box_counts(full, XI_WIDTH)
    er = {n: regularity.er_power_graph(n, ER_ALPHA, seed + i) for i, n in enumerate(ER_SIZES)}
    er_tails = {n: regularity.graph_tail_profile(g, _full_prefix_grid(g)) for n, g in er.items()}
    return {"traces": traces, "snaps": snaps, "stats": stats, "tails": tails, "xi": xi,
            "er": er, "er_tails": er_tails}


def sparse_verify(inp, out):
    traces = out["traces"]
    full = traces[SWEEP_HORIZONS[-1]]
    ops = [(f"process.T{h:g}", checks.horizon_prefix(traces[h], full)) for h in SWEEP_HORIZONS[:-1]]
    ops.append(("xi_box_counts", checks.xi_boxes(full, XI_WIDTH, full.horizon, out["xi"])))
    for s, g in out["snaps"].items():
        avg, counts = out["stats"][s]
        ops.append((f"snapshot.s{s:g}",
                    checks.snapshot(full, s, g)
                    + checks.degree_stats(g, DEGREE_LAMBDAS, avg, counts)
                    + checks.tail_profile(g, _full_prefix_grid(g), out["tails"][s])))
    for n, g in out["er"].items():
        ops.append((f"er_power_graph.n{n}",
                    checks.er_graph(n, ER_ALPHA, g)
                    + checks.tail_profile(g, _full_prefix_grid(g), out["er_tails"][n])))
    return ops


def sparse_sizes(out):
    """|V| and |E| of every trace, snapshot and graph of one round."""
    sizes = {f"trace.T{h:g}": (t.num_vertices, t.num_edges) for h, t in out["traces"].items()}
    sizes.update({f"snapshot.s{s:g}": (g.num_vertices, g.num_edges) for s, g in out["snaps"].items()})
    sizes.update({f"er.n{n}": (g.num_vertices, g.num_edges) for n, g in out["er"].items()})
    return sizes


# ---------------------------------------------------------------------------
# dense_motifs
# ---------------------------------------------------------------------------


def dense_inputs(seed):
    return {"seed": seed,
            "graphon": graphon_core.StepGraphon(DENSE_MASSES, DENSE_VALUES),
            "motifs": {name: homomorphisms.motif(name) for name in MOTIFS}}


def dense_body(inp):
    trace = sampling.sample_graphon_process(inp["graphon"], DENSE_HORIZON, inp["seed"])
    s = float(np.sort(trace.edge_creation_times())[DENSE_EDGES - 1])
    g = sampling.snapshot_at(trace, s)
    counts = {name: homomorphisms.count_embeddings(f, g) for name, f in inp["motifs"].items()}
    h = {name: homomorphisms.h_analytic(f, inp["graphon"]).value for name, f in inp["motifs"].items()}
    return {"trace": trace, "s": s, "graph": g, "counts": counts, "h": h}


def dense_verify(inp, out):
    g, w = out["graph"], inp["graphon"]
    ops = [("snapshot", checks.snapshot(out["trace"], out["s"], g))]
    a = checks.adjacency(g)
    for name, f in inp["motifs"].items():
        inj, hom = out["counts"][name]
        ops.append((f"count.{name}", checks.motif(name, a, inj, hom)))
        ops.append((f"h_analytic.{name}",
                    checks.h_analytic(name, f.edges, f.num_vertices, w.masses, w.values, out["h"][name])))
    return ops


def dense_sizes(out):
    return {"snapshot": (out["graph"].num_vertices, out["graph"].num_edges),
            "trace.T60": (out["trace"].num_vertices, out["trace"].num_edges)}


# ---------------------------------------------------------------------------
# certified_distances
# ---------------------------------------------------------------------------


def certified_inputs(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    step = graphon_core.StepGraphon
    ones = np.ones(PAIR_BLOCKS)
    pairs = [(step(ones, _symmetric(rng, PAIR_BLOCKS, 0.0, 1.0)), step(ones, _symmetric(rng, PAIR_BLOCKS, 0.0, 1.0)))
             for _ in range(PAIRS)]
    shuffles = []
    for _ in range(SHUFFLES):
        w = step(np.ones(SHUFFLE_BLOCKS), _symmetric(rng, SHUFFLE_BLOCKS, 0.0, 1.0))
        perm = rng.permutation(SHUFFLE_BLOCKS)
        shuffles.append((w, step(w.masses, w.values[np.ix_(perm, perm)])))
    cut_masses = rng.uniform(0.2, 1.5, size=CUTNORM_BLOCKS)
    signed = step(cut_masses, _symmetric(rng, CUTNORM_BLOCKS, -1.0, 1.0))
    a = rng.uniform(-1.0, 1.0, size=CUTNORM_BLOCKS)
    a[:2] = abs(a[0]), -abs(a[1])  # both signs present
    rank_one_masses = rng.uniform(0.2, 1.5, size=CUTNORM_BLOCKS)
    ann = np.ones(ANNEAL_BLOCKS)
    return {
        "seed": seed,
        "pairs": pairs,
        "shuffles": shuffles,
        "signed": signed,
        "rank_one": (a, step(rank_one_masses, np.outer(a, a))),
        "anneal": (step(ann, _symmetric(rng, ANNEAL_BLOCKS, 0.0, 1.0)), step(ann, _symmetric(rng, ANNEAL_BLOCKS, 0.0, 1.0))),
        "region": graphon_core.RegionIndicatorGraphon(**REGION),
        "caron_fox": graphon_core.CaronFoxGraphon(**CARON_FOX),
    }


def certified_body(inp):
    cf = inp["caron_fox"]
    return {
        "pairs": [(metrics.cut_distance(a, b), metrics.invariant_l1_distance(a, b)) for a, b in inp["pairs"]],
        "shuffles": [metrics.cut_distance(w, s) for w, s in inp["shuffles"]],
        "cut_norm": metrics.cut_norm(inp["signed"]),
        "cut_norm_heuristic": metrics.cut_norm(inp["signed"], mode="heuristic", seed=inp["seed"]),
        "rank_one": metrics.cut_norm(inp["rank_one"][1]),
        "anneal": metrics.cut_distance(*inp["anneal"], mode="anneal", budget=ANNEAL_BUDGET, seed=inp["seed"]),
        "region": graphon_core.discretize(inp["region"], REGION_STEP),
        "caron_fox": graphon_core.discretize(cf, cf.truncation.x_max / CARON_FOX_CELLS),
    }


def _exact(rep):
    return [] if rep.mode == "exact" else [f"mode {rep.mode!r}, expected 'exact'"]


def certified_verify(inp, out):
    ops = []
    for i, ((a, b), (cut, l1)) in enumerate(zip(inp["pairs"], out["pairs"])):
        ops.append((f"cut_distance.pair{i}",
                    _exact(cut) + checks.distance(a.values, b.values, a.masses, cut.value, cut.witness)))
        bound = [] if cut.value <= l1.value * (1 + checks.REL_TOL) else [
            f"cut distance {cut.value!r} exceeds invariant L1 {l1.value!r}"]
        ops.append((f"invariant_l1.pair{i}",
                    _exact(l1) + bound + checks.distance(a.values, b.values, a.masses, l1.value, l1.witness, "l1")))
    for i, ((w, s), rep) in enumerate(zip(inp["shuffles"], out["shuffles"])):
        ops.append((f"cut_distance.shuffle{i}",
                    _exact(rep) + checks.shuffled_copy(w.values, s.values, w.masses, rep.value, rep.witness)))
    w, exact, heur = inp["signed"], out["cut_norm"], out["cut_norm_heuristic"]
    ops.append(("cut_norm.exact", checks.cut_norm_witness(w.masses, w.values, exact.value, exact.u_blocks, exact.v_blocks)))
    ops.append(("cut_norm.heuristic",
                checks.cut_norm_witness(w.masses, w.values, heur.value, heur.u_blocks, heur.v_blocks)
                + ([] if heur.value <= exact.value * (1 + checks.REL_TOL) else
                   [f"heuristic cut norm {heur.value!r} exceeds the exact {exact.value!r}"])))
    a, r1 = inp["rank_one"]
    rep = out["rank_one"]
    ops.append(("cut_norm.rank_one",
                checks.rank_one_cut_norm(r1.masses, a, rep.value)
                + checks.cut_norm_witness(r1.masses, r1.values, rep.value, rep.u_blocks, rep.v_blocks)))
    (a1, a2), rep = inp["anneal"], out["anneal"]
    spent = [] if 0 < rep.budget_spent <= ANNEAL_BUDGET else [f"budget_spent {rep.budget_spent} outside (0, {ANNEAL_BUDGET}]"]
    ops.append(("cut_distance.anneal", spent + checks.distance(a1.values, a2.values, a1.masses, rep.value, rep.witness)))
    region = inp["region"]
    ops.append(("discretize.region_indicator_mass",
                checks.mass_conservation(out["region"][0], checks.region_indicator_l1(region.a, region.truncation.x_max))))
    cf = inp["caron_fox"]
    ops.append(("discretize.caron_fox", checks.monotone_cells(out["caron_fox"][0], cf.kernel, cf.truncation.x_max)))
    return ops


# name -> (inputs, body, verify); the order is the traced run's order
WORKLOADS = {
    "catalog": (catalog_inputs, catalog_body, catalog_verify),
    "sparse_growth": (sparse_inputs, sparse_body, sparse_verify),
    "dense_motifs": (dense_inputs, dense_body, dense_verify),
    "certified_distances": (certified_inputs, certified_body, certified_verify),
}

# Operations that fail on every run because of a known fault in the program;
# they count as failed without making the run incorrect.
KNOWN_FAULTS = {
    # _region_cell_averages integrates with a 257-point trapezoid, so the
    # cell averages do not conserve the kernel's mass (2.877480 vs 2.875).
    "discretize.region_indicator_mass",
}
