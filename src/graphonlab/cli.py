"""Command line interface: sample, cutnorm, cutdist, hom, tailreg, experiment."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .experiments import (
    ExperimentConfig,
    default_config,
    describe_experiment,
    experiment_names,
    render_report,
    run_experiment,
)
from .graphon_core import GraphonError, json_field, load_graphon_file, read_json_file
from .homomorphisms import MotifGraph, h_analytic, motif, rescaled_density
from .metrics import cut_distance, cut_norm
from .regularity import (
    clique_plus_isolated,
    default_m_grid,
    er_power_graph,
    graph_tail_profile,
    sequence_tail_regularity,
)
from .sampling import (
    load_trace_file,
    sample_graphon_process,
    save_trace_file,
    snapshot_at,
)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_sample(args) -> int:
    w = load_graphon_file(args.spec)
    trace = sample_graphon_process(w, args.t, args.seed, keep_isolated=args.keep_isolated)
    save_trace_file(trace, args.out)
    _emit({"out": args.out, "vertices": trace.num_vertices, "edges": trace.num_edges})
    return 0


def _cmd_cutnorm(args) -> int:
    w = load_graphon_file(args.spec)
    res = cut_norm(w, mode=args.mode, seed=args.seed)
    _emit(
        {
            "value": res.value,
            "mode": res.mode,
            "witness": {"u_blocks": list(res.u_blocks), "v_blocks": list(res.v_blocks)},
        }
    )
    return 0


def _cmd_cutdist(args) -> int:
    a = load_graphon_file(args.a)
    b = load_graphon_file(args.b)
    rep = cut_distance(a, b, mode=args.mode, budget=args.budget, seed=args.seed, quantum=args.quantum)
    witness = list(rep.witness) if isinstance(rep.witness, tuple) else rep.witness
    _emit(
        {
            "value": rep.value,
            "mode": rep.mode,
            "witness": witness,
            "quantization_error": rep.quantization_error,
            "budget_spent": rep.budget_spent,
        }
    )
    return 0


def _parse_motif(text: str) -> MotifGraph:
    """A library motif name, or a JSON list of vertex pairs such as '[[0,1],[1,2]]'."""
    if not text.startswith("["):
        return motif(text)
    try:
        edges = [(u, v) for u, v in json_field(json.loads(text), "vertex", "integer", 2)]
    except (ValueError, TypeError) as exc:
        raise GraphonError(f"--motif {text!r} is not a JSON list of vertex pairs: {exc}") from exc
    if not edges:
        raise GraphonError("--motif needs at least one edge")
    return MotifGraph(max(max(e) for e in edges) + 1, tuple(edges))


def _cmd_hom(args) -> int:
    f = _parse_motif(args.motif)
    if args.analytic:
        if not args.spec:
            raise GraphonError("--analytic needs --spec")
        w = load_graphon_file(args.spec)
        res = h_analytic(f, w, mc_samples=args.mc, seed=args.seed)
        _emit({"h": res.value, "stderr": res.stderr, "finite": res.finite})
        return 0
    if not args.graph:
        raise GraphonError("pass --graph (a trace file) or --analytic with --spec")
    trace = load_trace_file(args.graph)
    at = trace.horizon if args.at is None else args.at
    g = snapshot_at(trace, at)
    h, h_inj = rescaled_density(f, g)
    _emit({"h": h, "h_inj": h_inj, "at": at, "vertices": g.num_vertices, "edges": g.num_edges})
    return 0


def _parse_graph_family(text: str, seed: int):
    """Family specs like 'er_example1:alpha=0.5:n=1000,2000,4000'."""
    parts = text.split(":")
    family = parts[0]
    kv = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise GraphonError(f"--graphs part {part!r} is not key=value")
        kv[key] = value
    try:
        alpha = float(kv.get("alpha", 0.5))
        sizes = [int(x) for x in kv.get("n", "1000").split(",")]
    except ValueError as exc:
        raise GraphonError(f"--graphs {text!r}: alpha takes a number and n a comma-separated list of integers") from exc
    graphs = []
    for i, n in enumerate(sizes):
        if family == "er_example1":
            graphs.append((f"{family}_n{n}", n, er_power_graph(n, alpha, seed + i)))
        elif family == "clique_example1":
            graphs.append((f"{family}_n{n}", n, clique_plus_isolated(n, alpha)))
        else:
            raise GraphonError(f"unknown graph family {family!r}")
    return graphs


def _cmd_tailreg(args) -> int:
    graphs = _parse_graph_family(args.graphs, args.seed)
    grid = default_m_grid()
    lines = ["graph_id,n,num_edges,M_grid,share"]
    for graph_id, n, g in graphs:
        profile = graph_tail_profile(g, grid)
        for m, share in zip(profile.m_values, profile.shares):
            lines.append(f"{graph_id},{n},{g.num_edges},{float(m)!r},{float(share)!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    result = sequence_tail_regularity([g for _, _, g in graphs], args.eps)
    _emit(
        {
            "out": args.out,
            "uniform_m": result.m,
            "ok": result.ok,
            "witness_index": result.witness_index,
        }
    )
    return 0


def _cmd_experiment(args) -> int:
    if args.describe:
        sys.stdout.write(describe_experiment(args.name) + "\n")
        return 0
    if args.config:
        payload = read_json_file(args.config)
        if isinstance(payload, dict):  # from_json rejects anything else
            payload.setdefault("experiment", args.name)
        config = ExperimentConfig.from_json(payload)
        if config.experiment != args.name:
            raise GraphonError(f"config is for {config.experiment!r}, command line says {args.name!r}")
    else:
        config = default_config(args.name, seed=args.seed)
    report = run_experiment(config)
    written = render_report(report, out_dir=args.out)
    _emit(
        {
            "experiment": report.name,
            "passed": report.passed,
            "aggregates": report.aggregates,
            "files": written,
        }
    )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="Graphons over sigma-finite measure spaces: sampling, metrics, densities.",
    )
    parser.add_argument("--version", action="version", version=f"graphonlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graphon process trace")
    p.add_argument("--spec", required=True, help="graphon spec JSON file")
    p.add_argument("--t", type=float, required=True, help="time horizon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-isolated", action="store_true")
    p.add_argument("--out", required=True, help="trace JSON output path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("cutnorm", help="cut norm of a step graphon")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cutnorm)

    p = sub.add_parser("cutdist", help="cut distance between two step graphons")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mode", choices=("exact", "anneal"), default="exact")
    p.add_argument("--budget", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantum", type=float, default=None)
    p.set_defaults(func=_cmd_cutdist)

    p = sub.add_parser("hom", help="motif counts and rescaled densities")
    p.add_argument("--motif", required=True, help="library name or JSON edge list")
    p.add_argument("--graph", help="trace JSON file")
    p.add_argument("--at", type=float, default=None, help="snapshot time (default: horizon)")
    p.add_argument("--spec", help="graphon spec for --analytic")
    p.add_argument("--analytic", action="store_true")
    p.add_argument("--mc", type=float, default=1e5, help="Monte Carlo samples for --analytic")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("tailreg", help="tail-regularity profiles of graph families")
    p.add_argument("--graphs", required=True, help="family spec, e.g. er_example1:alpha=0.5:n=1000,2000")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_tailreg)

    p = sub.add_parser("experiment", help="run a catalog experiment")
    p.add_argument("name", choices=experiment_names())
    p.add_argument("--config", help="config JSON (defaults used otherwise)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results")
    p.add_argument("--describe", action="store_true", help="print the entry's documentation")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphonError, OSError) as exc:  # malformed or unreadable input
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
