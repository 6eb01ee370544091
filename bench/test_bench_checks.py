"""Each workload's checker accepts a true output and rejects a corrupted one."""

from dataclasses import replace

import numpy as np

from graphonlab import StepGraphon, constant_graphon
from graphonlab.experiments import ExperimentConfig, run_experiment
from graphonlab.homomorphisms import count_embeddings, motif
from graphonlab.metrics import cut_distance
from graphonlab.sampling import SampledGraph, sample_graphon_process, snapshot_at

import checks


def test_catalog_rejects_a_shifted_aggregate():
    rep = run_experiment(ExperimentConfig("edge_growth", replicas=3, seed=1))
    assert checks.catalog_report(rep.name, rep.records, rep.aggregates, rep.passed) == []
    shifted = dict(rep.aggregates, mean_ratio=rep.aggregates["mean_ratio"] + 1e-6)
    assert checks.catalog_report(rep.name, rep.records, shifted, rep.passed)


def test_sparse_rejects_a_snapshot_missing_an_edge():
    trace = sample_graphon_process(constant_graphon(0.5, mass=2.0), 6.0, seed=3)
    g = snapshot_at(trace, 5.0)
    assert g.num_edges > 1 and checks.snapshot(trace, 5.0, g) == []
    missing = replace(g, edges=g.edges[1:])
    assert checks.snapshot(trace, 5.0, missing)


def test_dense_rejects_a_motif_count_off_by_one():
    g = SampledGraph(np.arange(1, 7), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5), (1, 4), (5, 6)])
    a = checks.adjacency(g)
    for name in ("triangle", "path3", "c4", "star_3", "k4"):
        inj, hom = count_embeddings(motif(name), g)
        assert checks.motif(name, a, inj, hom) == []
        assert checks.motif(name, a, inj + 1, hom) and checks.motif(name, a, inj, hom - 1)


def test_certified_rejects_a_distance_off_by_1e6():
    rng = np.random.default_rng(5)
    a, b = (StepGraphon(np.ones(4), v + v.T) for v in rng.uniform(0.0, 0.5, size=(2, 4, 4)))
    rep = cut_distance(a, b)
    assert checks.distance(a.values, b.values, a.masses, rep.value, rep.witness) == []
    assert checks.distance(a.values, b.values, a.masses, rep.value + 1e-6, rep.witness)
