"""Spans around graphonlab's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper under every
name a graphonlab module holds it by, for example both
``graphonlab.sampling.sample_graphon_process`` and
``graphonlab.experiments.sample_graphon_process``.  A span records its
name, start, end, parent and a few attributes of the call; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its child spans (calls do not overlap: the run is
single-threaded).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _entry(fn, args, kwargs, result):
    return {"entry": _args(fn, args, kwargs)["config"].experiment}


def _process(fn, args, kwargs, result):
    return {"horizon": float(_args(fn, args, kwargs)["horizon"]),
            "ve": result.num_vertices + result.num_edges}


def _motif_namer(names):
    from graphonlab.homomorphisms import motif

    known = {motif(name): name for name in names}

    def describe(fn, args, kwargs, result):
        return {"motif": known.get(_args(fn, args, kwargs)["f"], "other")}

    return describe


def _distance(fn, args, kwargs, result):
    return {"mode": _args(fn, args, kwargs)["mode"], "evals": int(result.budget_spent)}


# (module, function, attribute describer) of every traced call
def traced_functions(motif_names):
    return [
        ("experiments", "run_experiment", _entry),
        ("sampling", "sample_graphon_process", _process),
        ("sampling", "snapshot_at", None),
        ("sampling", "sample_sequential", None),
        ("sampling", "sample_dense_wrandom", None),
        ("sampling", "xi_box_counts", None),
        ("regularity", "er_power_graph", None),
        ("regularity", "clique_plus_isolated", None),
        ("regularity", "cycle_graph", None),
        ("regularity", "graph_tail_profile", None),
        ("regularity", "sequence_tail_regularity", None),
        ("regularity", "required_m", None),
        ("regularity", "graph_degree_stats", None),
        ("homomorphisms", "count_embeddings", _motif_namer(motif_names)),
        ("homomorphisms", "rescaled_density", None),
        ("homomorphisms", "h_analytic", None),
        ("metrics", "cut_distance", _distance),
        ("metrics", "invariant_l1_distance", _distance),
        ("metrics", "cut_norm", None),
        ("metrics", "graph_graphon_distance_estimate", None),
        ("graphon_core", "discretize", None),
    ]


class Tracer:
    def __init__(self, functions):
        self.functions = functions
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span["attrs"] = describe(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, function, describe in self.functions:
            original = getattr(sys.modules[f"graphonlab.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original, describe)
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("graphonlab"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def annotate(spans):
    """Add ``self`` time and the ``workload`` (root span name) to each span."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - child_time[span["id"]]
        parent = span["parent"]
        span["workload"] = span["name"] if parent is None else spans[parent]["workload"]
    return spans


# self-time metric -> traced functions it sums
SELF_TIME = {
    "sampling.process_s": ("sampling.sample_graphon_process",),
    "sampling.snapshot_s": ("sampling.snapshot_at",),
    "sampling.sequential_s": ("sampling.sample_sequential",),
    "sampling.dense_wrandom_s": ("sampling.sample_dense_wrandom",),
    "sampling.xi_box_s": ("sampling.xi_box_counts",),
    "regularity.families_s": ("regularity.er_power_graph", "regularity.clique_plus_isolated",
                              "regularity.cycle_graph"),
    "regularity.tail_s": ("regularity.graph_tail_profile", "regularity.sequence_tail_regularity",
                          "regularity.required_m", "regularity.graph_degree_stats"),
    "homomorphisms.count_s": ("homomorphisms.count_embeddings", "homomorphisms.rescaled_density"),
    "homomorphisms.h_analytic_s": ("homomorphisms.h_analytic",),
    "metrics.cut_norm_s": ("metrics.cut_norm",),
    "metrics.estimate_s": ("metrics.graph_graphon_distance_estimate",),
    "graphon_core.discretize_s": ("graphon_core.discretize",),
}
DISTANCES = ("metrics.cut_distance", "metrics.invariant_l1_distance")


def layer_metrics(spans, entries, horizons, motifs, sweep_workload, motif_workload):
    """Per-layer metrics of an annotated span list, as ``{name: (value, unit)}``.

    Per-horizon and per-motif times, and the sampler's throughput, come
    from the workload that defines those horizons and motifs; every other
    metric sums over all traced bodies.
    """
    out = {}
    for entry in entries:
        out[f"experiments.{entry}_s"] = (sum(s["end"] - s["start"] for s in spans
                                             if s["name"] == "experiments.run_experiment"
                                             and s["attrs"]["entry"] == entry), "s")
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(s["self"] for s in spans if s["name"] in names), "s")
    sweep = [s for s in spans if s["name"] == "sampling.sample_graphon_process"
             and s["workload"] == sweep_workload]
    for h in horizons:
        out[f"sampling.process_s.T{h:g}"] = (sum(s["self"] for s in sweep if s["attrs"]["horizon"] == h), "s")
    sweep_time = sum(s["self"] for s in sweep)
    out["sampling.ve_per_s"] = (sum(s["attrs"]["ve"] for s in sweep) / sweep_time if sweep_time else 0.0, "1/s")
    counts = [s for s in spans if s["name"] == "homomorphisms.count_embeddings" and s["workload"] == motif_workload]
    for name in motifs:
        out[f"homomorphisms.count_s.{name}"] = (sum(s["self"] for s in counts if s["attrs"]["motif"] == name), "s")
    distances = [s for s in spans if s["name"] in DISTANCES]
    out["metrics.cut_distance_s"] = (sum(s["self"] for s in distances if s["attrs"]["mode"] == "exact"), "s")
    out["metrics.anneal_s"] = (sum(s["self"] for s in distances if s["attrs"]["mode"] == "anneal"), "s")
    out["metrics.anneal_evals"] = (sum(s["attrs"]["evals"] for s in distances if s["attrs"]["mode"] == "anneal"), "count")
    return out
